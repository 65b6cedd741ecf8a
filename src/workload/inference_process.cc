#include "workload/inference_process.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jetsim::workload {

InferenceProcess::InferenceProcess(soc::Board &board,
                                   cpu::OsScheduler &sched,
                                   gpu::GpuEngine &gpu,
                                   trt::SharedEngine engine,
                                   ProcessConfig cfg)
    : board_(board), gpu_(gpu), cfg_(std::move(cfg)),
      rng_(board.rng().fork("proc-" + cfg_.name)),
      thread_(sched.createThread(cfg_.name, /*big=*/true)),
      engine_(std::move(engine))
{
    JETSIM_ASSERT(engine_ && engine_->batch() == cfg_.build.batch &&
                  engine_->requestedPrecision() == cfg_.build.precision);
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

bool
InferenceProcess::deploy()
{
    JETSIM_ASSERT(!deployed());
    dep_ = Deployment::tryCreate(board_, gpu_, *thread_, *engine_,
                                 cfg_.name);
    return deployed();
}

void
InferenceProcess::start()
{
    JETSIM_ASSERT(deployed());
    board_.eq().scheduleIn(cfg_.start_offset,
                           [this] { prepAndEnqueue(); });
}

// The loop is trtexec's strict single-thread sequence:
//   prep -> enqueue EC_{i+1} -> [fill until depth reached] ->
//   sync EC_i -> prep -> enqueue EC_{i+2} -> sync EC_{i+1} -> ...
// Nothing else ever runs on the thread, so launch chains of distinct
// ECs never interleave (real ExecutionContexts are not re-entrant).

void
InferenceProcess::prepAndEnqueue()
{
    if (stopped_ || launchBoundReached())
        return;
    // Bounded draw: prep stays within the sim::kLognormalEnvelope
    // band, which is what src/absint's CPU-side upper bounds assume.
    const auto prep = static_cast<sim::Tick>(rng_.lognormalBounded(
        static_cast<double>(cfg_.prep_cost), 0.3));
    thread_->exec(prep, [this] { enqueueOne(); });
}

void
InferenceProcess::enqueueOne()
{
    // Counted here, in the enqueue thread's program order: the bound
    // cuts the loop at the same EC index in every interleaving.
    ++launched_;
    auto slot = std::make_shared<Slot>();
    pending_.push_back(slot);
    dep_->context().enqueue(
        [this, slot](const trt::EcRecord &rec) {
            slot->rec = rec;
            slot->gpu_done = true;
            recordEc(rec);
            if (waiting_on_ == slot) {
                // The thread is blocked in cudaStreamSynchronize on
                // this EC: wake it (the wait is the paper's B_l).
                waiting_on_.reset();
                thread_->exec(board_.spec().runtime.sync_cpu_cost,
                              [this, begin = sync_begin_] {
                                  syncReturn(begin);
                              });
            }
        },
        [this] { afterEnqueue(); });
}

void
InferenceProcess::afterEnqueue()
{
    // Fill the pipeline to 1 + pre_enqueue ECs, then block on the
    // oldest one.
    if (!stopped_ && !launchBoundReached() &&
        pending_.size() < static_cast<std::size_t>(1 + cfg_.pre_enqueue)) {
        prepAndEnqueue();
        return;
    }
    syncFront();
}

void
InferenceProcess::syncFront()
{
    JETSIM_ASSERT(!pending_.empty());
    auto slot = pending_.front();
    sync_begin_ = board_.eq().now();
    if (slot->gpu_done) {
        // Already complete: the sync call returns after its CPU cost.
        thread_->exec(board_.spec().runtime.sync_cpu_cost,
                      [this, begin = sync_begin_] { syncReturn(begin); });
    } else if (cfg_.spin_wait) {
        spinWait();
    } else {
        // Blocking sync: yield the core until the GPU signals.
        waiting_on_ = slot;
    }
}

void
InferenceProcess::spinWait()
{
    // Poll the stream in short bursts of CPU work. The burst keeps
    // the core busy, so with more processes than cores the OS
    // time-shares the spinners and completion detection is delayed
    // by scheduler waits (the paper's B_l).
    thread_->exec(cfg_.spin_chunk, [this] {
        JETSIM_ASSERT(!pending_.empty());
        if (pending_.front()->gpu_done)
            syncReturn(sync_begin_);
        else
            spinWait();
    });
}

void
InferenceProcess::syncReturn(sim::Tick sync_begin)
{
    JETSIM_ASSERT(!pending_.empty());
    const sim::Tick now = board_.eq().now();
    if (measuring_) {
        sync_span_.sample(static_cast<double>(now - sync_begin));
        const sim::Tick done = pending_.front()->rec.gpu_done;
        blocked_.sample(
            static_cast<double>(std::max<sim::Tick>(0, now - done)));
    }
    pending_.pop_front();
    if (stopped_)
        return;
    if (launchBoundReached()) {
        // Closed workload: no new ECs, but the tail of the pipeline
        // still gets its cudaStreamSynchronize calls so the process
        // quiesces cleanly.
        if (!pending_.empty())
            syncFront();
        return;
    }
    prepAndEnqueue();
}

void
InferenceProcess::recordEc(const trt::EcRecord &rec)
{
    const sim::Tick now = board_.eq().now();
    if (measuring_) {
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
InferenceProcess::beginMeasurement()
{
    measuring_ = true;
    window_start_ = board_.eq().now();
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

void
InferenceProcess::endMeasurement()
{
    measuring_ = false;
    window_end_ = board_.eq().now();
}

double
InferenceProcess::throughput() const
{
    const double span = sim::toSec(window_end_ - window_start_);
    return span > 0 ? static_cast<double>(images_) / span : 0.0;
}

sim::Bytes
InferenceProcess::deviceBytes() const
{
    return dep_ ? dep_->deviceBytes() : 0;
}

} // namespace jetsim::workload
