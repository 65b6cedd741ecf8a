#include "workload/serving_process.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace jetsim::workload {

sim::Tick
poissonGap(sim::Rng &rng, double rate)
{
    const double mean_ns = 1e9 / rate;
    double u = rng.uniform();
    if (u < 1e-12)
        u = 1e-12;
    return static_cast<sim::Tick>(-mean_ns * std::log(u)) + 1;
}

ServingProcess::ServingProcess(soc::Board &board,
                               cpu::OsScheduler &sched,
                               gpu::GpuEngine &gpu,
                               trt::SharedEngine engine,
                               ServingConfig cfg)
    : EcLoop(board, sched, gpu, std::move(engine), std::move(cfg), "serve-")
{
    // 0 = external-only mode (fleet balancer feeds injectArrival).
    JETSIM_ASSERT(cfg_.arrival_rate >= 0.0);
}

ServingProcess::ServingProcess(soc::Board &board,
                               cpu::OsScheduler &sched,
                               gpu::GpuEngine &gpu,
                               const graph::Network &net,
                               const ServingConfig &cfg)
    : ServingProcess(board, sched, gpu,
                     std::make_shared<const trt::Engine>(
                         trt::Builder(board.spec()).build(net, cfg.build)),
                     cfg)
{
}

void
ServingProcess::start()
{
    JETSIM_ASSERT(deployed());
    if (cfg_.arrival_rate > 0.0)
        scheduleArrival();
}

void
ServingProcess::scheduleArrival()
{
    const sim::Tick gap = poissonGap(rng_, cfg_.arrival_rate);
    board_.eq().scheduleIn(gap, [this] { onArrival(); });
}

void
ServingProcess::onArrival()
{
    if (stopped_)
        return;
    admit(board_.eq().now());
    scheduleArrival();
    kick();
}

void
ServingProcess::injectArrival(sim::Tick origin)
{
    if (stopped_)
        return;
    JETSIM_ASSERT(deployed());
    JETSIM_ASSERT(origin <= board_.eq().now());
    // Queue the *origin* tick: the request's latency clock started at
    // the balancer, so the dispatch hop is part of what it waited.
    admit(origin);
    kick();
}

void
ServingProcess::admit(sim::Tick origin)
{
    ++arrived_;
    queue_.push_back(origin);
    max_queue_ = std::max(max_queue_, queue_.size());
}

void
ServingProcess::fill(Slot &slot)
{
    // A fixed-batch engine serves up to `batch` queued requests; a
    // short batch still costs a full EC (padding).
    slot.requests = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(cfg_.build.batch), queue_.size()));
    for (int i = 0; i < slot.requests; ++i) {
        in_flight_.push_back(queue_.front());
        queue_.pop_front();
    }
}

void
ServingProcess::onGpuDone(const Slot &slot)
{
    for (int i = 0; i < slot.requests; ++i) {
        if (measuring_)
            latency_.add(
                static_cast<double>(slot.rec.gpu_done - in_flight_.front()));
        in_flight_.pop_front();
    }
    if (measuring_)
        served_ += static_cast<std::uint64_t>(slot.requests);
}

void
ServingProcess::resetStats()
{
    served_ = 0;
    arrived_ = 0;
    max_queue_ = queue_.size();
    latency_ = prof::Cdf();
}

} // namespace jetsim::workload
