/**
 * @file
 * One concurrent inference process (the trtexec analogue).
 *
 * A process runs a shared engine built for its precision/batch and
 * owns an ExecutionContext, a CUDA stream, an enqueue thread on the
 * big CPU cluster, and its device memory (CUDA runtime overhead +
 * engine footprint; see workload/deployment.hh). It is the closed
 * kind of the EC loop (workload/ec_loop.hh): a next batch is always
 * ready, and one batch is pre-enqueued so the GPU never idles on
 * host-side preprocessing — the paper notes this makes measured
 * throughput an upper bound, and ablation A1 quantifies it.
 *
 * Steady state (pre_enqueue = 1):
 *   GPU executes EC_i while EC_{i+1} sits in the stream; when EC_i
 *   completes, the thread wakes (sync return, paying B_l), performs
 *   host prep, and enqueues EC_{i+2}.
 */

#ifndef JETSIM_WORKLOAD_INFERENCE_PROCESS_HH
#define JETSIM_WORKLOAD_INFERENCE_PROCESS_HH

#include <string>

#include "graph/network.hh"
#include "prof/cdf.hh"
#include "sim/stats.hh"
#include "trt/builder.hh"
#include "workload/ec_loop.hh"

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
class InferenceProcess : public EcLoop<ProcessConfig>
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

    /** Begin the inference loop (after deploy()). */
    void start();

    /**
     * Prep no new ECs (one whose host prep is already running is
     * still enqueued). ECs in flight still finish and are synced one
     * by one, as after max_ecs, so the thread ends idle with an empty
     * pipeline.
     */
    void stopEnqueue() { stopped_ = true; }

    /** @name Results (valid after endMeasurement)
     * @{ */
    double throughput() const { return perSecond(images_); } ///< images/s
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

  private:
    bool hasNext() const override;
    void fill(Slot &slot) override;
    void onGpuDone(const Slot &slot) override;
    void onSyncReturn(const Slot &slot, sim::Tick sync_begin) override;
    void resetStats() override;

    bool stopped_ = false;
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
