/**
 * @file
 * The execution-cycle (EC) loop both process kinds run.
 *
 * trtexec's pre-enqueued loop is one strict single-thread sequence:
 *
 *   prep -> enqueue EC_{i+1} -> [fill to 1 + pre_enqueue ECs] ->
 *   sync EC_i -> prep -> enqueue EC_{i+2} -> sync EC_{i+1} -> ...
 *
 * Nothing else ever runs on the thread, so launch chains of distinct
 * ECs never interleave (real ExecutionContexts are not re-entrant).
 * The sync on the oldest EC has three outcomes: the EC is already
 * done (the call returns after its CPU cost), the thread busy-spins
 * in spin_chunk bursts until it is, or — blocking sync — the thread
 * yields and the GPU-done callback wakes it. The time from GPU
 * completion to that sync return is the paper's B_l.
 *
 * After each sync return the loop preps the next EC if the kind has
 * one, else syncs the next in-flight EC, else goes idle until kick().
 * A kind supplies only what differs: whether there is a next EC, what
 * a slot carries, and what it records at GPU completion and at sync
 * return. InferenceProcess is the closed loop (always a next EC until
 * stopped or max_ecs), ServingProcess the open loop (a next EC while
 * requests are queued).
 */

#ifndef JETSIM_WORKLOAD_EC_LOOP_HH
#define JETSIM_WORKLOAD_EC_LOOP_HH

#include <deque>
#include <memory>
#include <string_view>

#include "cpu/scheduler.hh"
#include "sim/rng.hh"
#include "trt/execution_context.hh"
#include "workload/deployment.hh"

namespace jetsim::workload {

/**
 * One deployed process running the EC loop. @p Config carries at
 * least name, build, pre_enqueue, prep_cost, spin_wait and
 * spin_chunk; the loop is instantiated for ProcessConfig and
 * ServingConfig only.
 */
template <class Config>
class EcLoop
{
  public:
    EcLoop(const EcLoop &) = delete;
    EcLoop &operator=(const EcLoop &) = delete;

    /**
     * Pin device memory and create the stream and context.
     * @return false when unified memory cannot hold the deployment
     *         (the paper's Nano FCN_ResNet50 x4 failure mode).
     */
    bool deploy();

    bool deployed() const { return dep_ != nullptr; }

    /** Zero all measurement state (end of warm-up). */
    void beginMeasurement();

    /** Freeze the measurement window. */
    void endMeasurement();

    const trt::Engine &engine() const { return *engine_; }
    const cpu::Thread &thread() const { return *thread_; }
    const Config &config() const { return cfg_; }

    /** Device bytes pinned (runtime overhead + engine footprint). */
    sim::Bytes deviceBytes() const { return dep_ ? dep_->deviceBytes() : 0; }

  protected:
    /** One in-flight EC's bookkeeping. */
    struct Slot
    {
        bool gpu_done = false;
        int requests = 0;  ///< requests the EC serves (open loop)
        trt::EcRecord rec; ///< valid once gpu_done
    };

    /** A process on @p engine, which must have been built for
     * @p board's device at cfg.build; its RNG is forked as
     * @p rng_prefix + cfg.name. */
    EcLoop(soc::Board &board, cpu::OsScheduler &sched,
           gpu::GpuEngine &gpu, trt::SharedEngine engine, Config cfg,
           std::string_view rng_prefix);
    virtual ~EcLoop() = default;

    /** Start the loop if it is idle and the kind has a next EC. */
    void kick();

    /** @p n events over the measurement window, per second. */
    double perSecond(std::uint64_t n) const;

    soc::Board &board_;
    gpu::GpuEngine &gpu_;
    const Config cfg_;
    sim::Rng rng_;
    cpu::Thread *thread_;
    bool measuring_ = false;

  private:
    /** @name What a kind supplies
     * @{ */
    /** Whether the loop should prep another EC now. */
    virtual bool hasNext() const = 0;
    /** Fill a new slot just before its EC is enqueued. */
    virtual void fill(Slot &slot) = 0;
    /** Record an EC at GPU completion (slot.rec is set). */
    virtual void onGpuDone(const Slot &slot) = 0;
    /** Record an EC at its sync return, before it leaves the
     * pipeline; the sync call was entered at @p sync_begin. */
    virtual void onSyncReturn(const Slot &, sim::Tick /*sync_begin*/) {}
    /** Zero the kind's statistics (beginMeasurement). */
    virtual void resetStats() = 0;
    /** @} */

    void prepAndEnqueue();
    void enqueueOne();
    void afterEnqueue();
    void syncFront();
    void spinWait();
    void syncReturn();

    trt::SharedEngine engine_;
    std::unique_ptr<Deployment> dep_; ///< null until deployed

    /** Prep-cost law: bounded lognormal around cfg.prep_cost. */
    const sim::Lognormal prep_law_;

    sim::Tick sync_begin_ = 0; ///< entry of the current sync call
    std::deque<std::shared_ptr<Slot>> pending_;
    std::shared_ptr<Slot> waiting_on_;
    sim::Tick window_start_ = 0;
    sim::Tick window_end_ = 0;
    bool cycling_ = false; ///< the thread is inside the loop
};

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_EC_LOOP_HH
