#include "workload/ec_loop.hh"

#include <string>

#include "sim/logging.hh"
#include "workload/inference_process.hh"
#include "workload/serving_process.hh"

namespace jetsim::workload {

template <class Config>
EcLoop<Config>::EcLoop(soc::Board &board, cpu::OsScheduler &sched,
                       gpu::GpuEngine &gpu, trt::SharedEngine engine,
                       Config cfg, std::string_view rng_prefix)
    : board_(board), gpu_(gpu), cfg_(std::move(cfg)),
      rng_(board.rng().fork(std::string(rng_prefix) + cfg_.name)),
      thread_(sched.createThread(cfg_.name, /*big=*/true)),
      engine_(std::move(engine)),
      prep_law_(static_cast<double>(cfg_.prep_cost), 0.3)
{
    JETSIM_ASSERT(engine_ && engine_->batch() == cfg_.build.batch &&
                  engine_->requestedPrecision() == cfg_.build.precision);
}

template <class Config>
bool
EcLoop<Config>::deploy()
{
    JETSIM_ASSERT(!deployed());
    dep_ = Deployment::tryCreate(board_, gpu_, *thread_, *engine_,
                                 cfg_.name);
    return deployed();
}

template <class Config>
void
EcLoop<Config>::kick()
{
    if (cycling_ || !hasNext())
        return; // a running loop picks the new work up itself
    cycling_ = true;
    prepAndEnqueue();
}

template <class Config>
void
EcLoop<Config>::prepAndEnqueue()
{
    // Bounded draw: prep stays within the sim::kLognormalEnvelope
    // band, which is what src/absint's CPU-side upper bounds assume.
    const auto prep = static_cast<sim::Tick>(rng_.draw(prep_law_));
    thread_->exec(prep, [this] { enqueueOne(); });
}

template <class Config>
void
EcLoop<Config>::enqueueOne()
{
    auto slot = std::make_shared<Slot>();
    fill(*slot);
    pending_.push_back(slot);
    dep_->context().enqueue(
        [this, slot](const trt::EcRecord &rec) {
            slot->rec = rec;
            slot->gpu_done = true;
            onGpuDone(*slot);
            if (waiting_on_ == slot) {
                // The thread is blocked in cudaStreamSynchronize on
                // this EC: wake it (the wait is the paper's B_l).
                waiting_on_.reset();
                thread_->exec(board_.spec().runtime.sync_cpu_cost,
                              [this] { syncReturn(); });
            }
        },
        [this] { afterEnqueue(); });
}

template <class Config>
void
EcLoop<Config>::afterEnqueue()
{
    // Fill the pipeline to 1 + pre_enqueue ECs, then sync on the
    // oldest one (the slot just pushed keeps pending_ non-empty).
    if (hasNext() &&
        pending_.size() < static_cast<std::size_t>(1 + cfg_.pre_enqueue)) {
        prepAndEnqueue();
        return;
    }
    syncFront();
}

template <class Config>
void
EcLoop<Config>::syncFront()
{
    JETSIM_ASSERT(!pending_.empty());
    auto slot = pending_.front();
    sync_begin_ = board_.eq().now();
    if (slot->gpu_done) {
        // Already complete: the sync call returns after its CPU cost.
        thread_->exec(board_.spec().runtime.sync_cpu_cost,
                      [this] { syncReturn(); });
    } else if (cfg_.spin_wait) {
        spinWait();
    } else {
        // Blocking sync: yield the core until the GPU signals.
        waiting_on_ = slot;
    }
}

template <class Config>
void
EcLoop<Config>::spinWait()
{
    // Poll the stream in short bursts of CPU work. The burst keeps
    // the core busy, so with more processes than cores the OS
    // time-shares the spinners and completion detection is delayed
    // by scheduler waits (the paper's B_l).
    thread_->exec(cfg_.spin_chunk, [this] {
        JETSIM_ASSERT(!pending_.empty());
        if (pending_.front()->gpu_done)
            syncReturn();
        else
            spinWait();
    });
}

template <class Config>
void
EcLoop<Config>::syncReturn()
{
    JETSIM_ASSERT(!pending_.empty());
    onSyncReturn(*pending_.front(), sync_begin_);
    pending_.pop_front();
    if (hasNext())
        prepAndEnqueue();
    else if (!pending_.empty())
        syncFront(); // no new EC, but the in-flight tail is synced
    else
        cycling_ = false;
}

template <class Config>
void
EcLoop<Config>::beginMeasurement()
{
    measuring_ = true;
    window_start_ = board_.eq().now();
    resetStats();
}

template <class Config>
void
EcLoop<Config>::endMeasurement()
{
    measuring_ = false;
    window_end_ = board_.eq().now();
}

template <class Config>
double
EcLoop<Config>::perSecond(std::uint64_t n) const
{
    const double span = sim::toSec(window_end_ - window_start_);
    return span > 0 ? static_cast<double>(n) / span : 0.0;
}

template class EcLoop<ProcessConfig>;
template class EcLoop<ServingConfig>;

} // namespace jetsim::workload
