#include "workload/inference_process.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jetsim::workload {

InferenceProcess::InferenceProcess(soc::Board &board,
                                   cpu::OsScheduler &sched,
                                   gpu::GpuEngine &gpu,
                                   trt::SharedEngine engine,
                                   ProcessConfig cfg)
    : EcLoop(board, sched, gpu, std::move(engine), std::move(cfg), "proc-")
{
}

InferenceProcess::InferenceProcess(soc::Board &board,
                                   cpu::OsScheduler &sched,
                                   gpu::GpuEngine &gpu,
                                   const graph::Network &net,
                                   const ProcessConfig &cfg)
    : InferenceProcess(board, sched, gpu,
                       std::make_shared<const trt::Engine>(
                           trt::Builder(board.spec()).build(net, cfg.build)),
                       cfg)
{
}

void
InferenceProcess::start()
{
    JETSIM_ASSERT(deployed());
    board_.eq().scheduleIn(cfg_.start_offset, [this] { kick(); });
}

bool
InferenceProcess::hasNext() const
{
    return !stopped_ && (cfg_.max_ecs == 0 || launched_ < cfg_.max_ecs);
}

void
InferenceProcess::fill(Slot &)
{
    // Counted here, in the enqueue thread's program order: the bound
    // cuts the loop at the same EC index in every interleaving.
    ++launched_;
}

void
InferenceProcess::onGpuDone(const Slot &slot)
{
    const sim::Tick now = board_.eq().now();
    if (measuring_) {
        const trt::EcRecord &rec = slot.rec;
        images_ += static_cast<std::uint64_t>(cfg_.build.batch);
        ++ecs_;
        ec_span_.sample(static_cast<double>(rec.span()));
        latency_cdf_.add(static_cast<double>(rec.span()));
        enqueue_span_.sample(
            static_cast<double>(rec.enqueue_end - rec.enqueue_begin));
        launch_api_.sample(static_cast<double>(rec.launch_api_total));
        if (last_ec_done_ != sim::kTickInvalid)
            ec_period_.sample(static_cast<double>(now - last_ec_done_));
    }
    last_ec_done_ = now;
}

void
InferenceProcess::onSyncReturn(const Slot &slot, sim::Tick sync_begin)
{
    if (!measuring_)
        return;
    const sim::Tick now = board_.eq().now();
    sync_span_.sample(static_cast<double>(now - sync_begin));
    blocked_.sample(
        static_cast<double>(std::max<sim::Tick>(0, now - slot.rec.gpu_done)));
}

void
InferenceProcess::resetStats()
{
    images_ = 0;
    ecs_ = 0;
    ec_span_.reset();
    ec_period_.reset();
    enqueue_span_.reset();
    launch_api_.reset();
    sync_span_.reset();
    blocked_.reset();
    latency_cdf_ = prof::Cdf();
    thread_->resetStats();
}

} // namespace jetsim::workload
