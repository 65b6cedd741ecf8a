/**
 * @file
 * One concurrent inference process (the trtexec analogue).
 *
 * A process runs a shared engine built for its precision/batch and
 * owns an ExecutionContext, a CUDA stream, an enqueue thread on the
 * big CPU cluster, and its device memory (CUDA runtime overhead +
 * engine footprint; see workload/deployment.hh). The run loop
 * follows trtexec's discipline: one batch is pre-enqueued so the GPU
 * never idles on host-side preprocessing — the paper notes this makes
 * measured throughput an upper bound, and ablation A1 quantifies it.
 *
 * Loop (steady state, pre_enqueue = 1):
 *   GPU executes EC_i while EC_{i+1} sits in the stream; when EC_i
 *   completes, the thread wakes (sync return, paying B_l), performs
 *   host prep, and enqueues EC_{i+2}.
 */

#ifndef JETSIM_WORKLOAD_INFERENCE_PROCESS_HH
#define JETSIM_WORKLOAD_INFERENCE_PROCESS_HH

#include <deque>
#include <memory>
#include <string>

#include "cpu/scheduler.hh"
#include "graph/network.hh"
#include "prof/cdf.hh"
#include "sim/stats.hh"
#include "trt/builder.hh"
#include "trt/execution_context.hh"
#include "workload/deployment.hh"

namespace jetsim::workload {

/** Per-process configuration. */
struct ProcessConfig
{
    std::string name = "proc";
    trt::BuilderConfig build;
    /** Extra ECs kept in flight beyond the executing one. */
    int pre_enqueue = 1;
    /** Host-side per-EC work (input prep, bindings, bookkeeping). */
    sim::Tick prep_cost = sim::usec(450);
    /** Stagger offset before the loop starts. */
    sim::Tick start_offset = 0;
    /**
     * Busy-spin in cudaStreamSynchronize (trtexec's low-latency sync
     * mode). Spinning threads occupy CPU cores, so once processes
     * outnumber the heavy-load cores the OS time-shares them and
     * completion detection is deferred — the paper's blocking
     * mechanism (S7). false = blocking sync (yield until woken).
     */
    bool spin_wait = true;
    /** Spin-loop polling granularity. */
    sim::Tick spin_chunk = sim::usec(150);
    /**
     * Stop enqueueing after this many ECs (0 = unbounded). The bound
     * is counted in the enqueue thread's program order, so the number
     * of ECs a bounded process submits is identical across all legal
     * interleavings — the closed-workload property the model checker
     * (src/mc) relies on to compare schedule-independent digests.
     * Remaining in-flight ECs still drain and sync normally.
     */
    std::uint64_t max_ecs = 0;
};

/** A deployed, running inference process. */
class InferenceProcess
{
  public:
    /** A process on @p engine, which must have been built for
     * @p board's device at cfg.build. */
    InferenceProcess(soc::Board &board, cpu::OsScheduler &sched,
                     gpu::GpuEngine &gpu, trt::SharedEngine engine,
                     ProcessConfig cfg);

    /** A process on an engine of its own, built from @p net here;
     * the process keeps no reference to @p net. */
    InferenceProcess(soc::Board &board, cpu::OsScheduler &sched,
                     gpu::GpuEngine &gpu, const graph::Network &net,
                     const ProcessConfig &cfg);

    InferenceProcess(const InferenceProcess &) = delete;
    InferenceProcess &operator=(const InferenceProcess &) = delete;

    /**
     * Pin device memory and create the stream and context.
     * @return false when unified memory cannot hold the deployment
     *         (the paper's Nano FCN_ResNet50 x4 failure mode).
     */
    bool deploy();

    bool deployed() const { return dep_ != nullptr; }

    /** Begin the inference loop (after deploy()). */
    void start();

    /** Let in-flight ECs finish but enqueue no new ones. */
    void stopEnqueue() { stopped_ = true; }

    /** Zero all measurement state (end of warm-up). */
    void beginMeasurement();

    /** Freeze the measurement window. */
    void endMeasurement();

    /** @name Results (valid after endMeasurement)
     * @{ */
    double throughput() const; ///< images/s over the window
    std::uint64_t imagesCompleted() const { return images_; }
    std::uint64_t ecsCompleted() const { return ecs_; }
    /** Lifetime ECs enqueued (not reset by beginMeasurement). */
    std::uint64_t ecsLaunched() const { return launched_; }
    /** Pipeline span: enqueue begin to GPU done (includes queueing
     * behind the pre-enqueued EC). */
    const sim::Accumulator &ecSpan() const { return ec_span_; }
    /** EC duration: interval between successive EC completions — the
     * per-EC GPU residency at steady state (the paper's EC_i). */
    const sim::Accumulator &ecPeriod() const { return ec_period_; }
    const sim::Accumulator &enqueueSpan() const { return enqueue_span_; }
    const sim::Accumulator &launchApiPerEc() const { return launch_api_; }
    const sim::Accumulator &syncSpan() const { return sync_span_; }
    /** Per-EC blocking B_l: GPU completion to CPU-side detection. */
    const sim::Accumulator &blockedTime() const { return blocked_; }
    /** Per-EC latency samples (pipeline spans, ns) for percentile
     * reporting a la trtexec. */
    const prof::Cdf &latencyCdf() const { return latency_cdf_; }
    /** @} */

    const trt::Engine &engine() const { return *engine_; }
    const cpu::Thread &thread() const { return *thread_; }
    const ProcessConfig &config() const { return cfg_; }

    /** Device bytes pinned (runtime overhead + engine footprint). */
    sim::Bytes deviceBytes() const;

  private:
    /** One in-flight EC's bookkeeping. */
    struct Slot
    {
        bool gpu_done = false;
        trt::EcRecord rec;
    };

    bool launchBoundReached() const
    {
        return cfg_.max_ecs != 0 && launched_ >= cfg_.max_ecs;
    }

    void prepAndEnqueue();
    void enqueueOne();
    void afterEnqueue();
    void syncFront();
    void spinWait();
    void syncReturn(sim::Tick sync_begin);
    void recordEc(const trt::EcRecord &rec);

    soc::Board &board_;
    gpu::GpuEngine &gpu_;
    ProcessConfig cfg_;
    sim::Rng rng_;

    cpu::Thread *thread_;
    trt::SharedEngine engine_;
    std::unique_ptr<Deployment> dep_; ///< null until deployed

    bool stopped_ = false;
    bool measuring_ = false;
    std::deque<std::shared_ptr<Slot>> pending_;
    std::shared_ptr<Slot> waiting_on_;
    sim::Tick sync_begin_ = 0;

    sim::Tick window_start_ = 0;
    sim::Tick window_end_ = 0;
    sim::Tick last_ec_done_ = sim::kTickInvalid;
    std::uint64_t images_ = 0;
    std::uint64_t ecs_ = 0;
    std::uint64_t launched_ = 0;
    sim::Accumulator ec_span_;
    sim::Accumulator ec_period_;
    sim::Accumulator enqueue_span_;
    sim::Accumulator launch_api_;
    sim::Accumulator sync_span_;
    sim::Accumulator blocked_;
    prof::Cdf latency_cdf_;
};

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_INFERENCE_PROCESS_HH
