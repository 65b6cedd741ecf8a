#include "workload/serving_process.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace jetsim::workload {

ServingProcess::ServingProcess(soc::Board &board,
                               cpu::OsScheduler &sched,
                               gpu::GpuEngine &gpu,
                               trt::SharedEngine engine,
                               ServingConfig cfg)
    : board_(board), gpu_(gpu), cfg_(std::move(cfg)),
      rng_(board.rng().fork("serve-" + cfg_.name)),
      thread_(sched.createThread(cfg_.name, /*big=*/true)),
      engine_(std::move(engine))
{
    JETSIM_ASSERT(engine_ && engine_->batch() == cfg_.build.batch &&
                  engine_->requestedPrecision() == cfg_.build.precision);
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

bool
ServingProcess::deploy()
{
    JETSIM_ASSERT(!deployed());
    dep_ = Deployment::tryCreate(board_, gpu_, *thread_, *engine_,
                                 cfg_.name);
    return deployed();
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
    // Poisson process: exponential inter-arrival times.
    const double mean_ns = 1e9 / cfg_.arrival_rate;
    double u = rng_.uniform();
    if (u < 1e-12)
        u = 1e-12;
    const auto gap =
        static_cast<sim::Tick>(-mean_ns * std::log(u)) + 1;
    board_.eq().scheduleIn(gap, [this] { onArrival(); });
}

void
ServingProcess::onArrival()
{
    if (stopped_)
        return;
    ++arrived_;
    queue_.push_back(board_.eq().now());
    max_queue_ = std::max(max_queue_, queue_.size());
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
    ++arrived_;
    // Queue the *origin* tick: the request's latency clock started at
    // the balancer, so the dispatch hop is part of what it waited.
    queue_.push_back(origin);
    max_queue_ = std::max(max_queue_, queue_.size());
    kick();
}

void
ServingProcess::kick()
{
    if (cycling_)
        return; // the serve cycle will drain the queue itself
    cycling_ = true;
    prepAndEnqueue();
}

void
ServingProcess::prepAndEnqueue()
{
    JETSIM_ASSERT(!queue_.empty());
    const auto prep = static_cast<sim::Tick>(
        rng_.lognormal(static_cast<double>(cfg_.prep_cost), 0.3));
    thread_->exec(prep, [this] { enqueueOne(); });
}

void
ServingProcess::enqueueOne()
{
    auto slot = std::make_shared<Slot>();
    // A fixed-batch engine serves up to `batch` queued requests; a
    // short batch still costs a full EC (padding).
    const int take = std::min<std::size_t>(
        static_cast<std::size_t>(cfg_.build.batch), queue_.size());
    for (int i = 0; i < take; ++i) {
        slot->arrivals.push_back(queue_.front());
        queue_.pop_front();
    }
    pending_.push_back(slot);

    dep_->context().enqueue(
        [this, slot](const trt::EcRecord &rec) {
            slot->gpu_done = true;
            if (measuring_) {
                served_ += slot->arrivals.size();
                for (const sim::Tick t : slot->arrivals)
                    latency_.add(
                        static_cast<double>(rec.gpu_done - t));
            }
            if (waiting_on_ == slot) {
                waiting_on_.reset();
                thread_->exec(board_.spec().runtime.sync_cpu_cost,
                              [this] { syncReturn(); });
            }
        },
        [this] { afterEnqueue(); });
}

void
ServingProcess::afterEnqueue()
{
    // Keep the pipeline filled while there is work, then wait on the
    // oldest EC; with nothing pending and nothing queued, go idle.
    if (!queue_.empty() &&
        pending_.size() <
            static_cast<std::size_t>(1 + cfg_.pre_enqueue)) {
        prepAndEnqueue();
        return;
    }
    if (!pending_.empty()) {
        syncFront();
        return;
    }
    cycling_ = false;
}

void
ServingProcess::syncFront()
{
    JETSIM_ASSERT(!pending_.empty());
    auto slot = pending_.front();
    if (slot->gpu_done) {
        thread_->exec(board_.spec().runtime.sync_cpu_cost,
                      [this] { syncReturn(); });
    } else if (cfg_.spin_wait) {
        spinWait();
    } else {
        waiting_on_ = slot;
    }
}

void
ServingProcess::spinWait()
{
    thread_->exec(cfg_.spin_chunk, [this] {
        JETSIM_ASSERT(!pending_.empty());
        if (pending_.front()->gpu_done)
            syncReturn();
        else
            spinWait();
    });
}

void
ServingProcess::syncReturn()
{
    JETSIM_ASSERT(!pending_.empty());
    pending_.pop_front();
    if (!queue_.empty()) {
        prepAndEnqueue();
        return;
    }
    if (!pending_.empty()) {
        syncFront();
        return;
    }
    cycling_ = false;
}

void
ServingProcess::beginMeasurement()
{
    measuring_ = true;
    window_start_ = board_.eq().now();
    served_ = 0;
    arrived_ = 0;
    max_queue_ = queue_.size();
    latency_ = prof::Cdf();
}

void
ServingProcess::endMeasurement()
{
    measuring_ = false;
    window_end_ = board_.eq().now();
}

double
ServingProcess::achievedThroughput() const
{
    const double span = sim::toSec(window_end_ - window_start_);
    return span > 0 ? static_cast<double>(served_) / span : 0.0;
}

} // namespace jetsim::workload
