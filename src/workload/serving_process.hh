/**
 * @file
 * Open-loop inference serving (extension beyond the paper).
 *
 * trtexec measures *capacity*: a closed loop that always has a batch
 * ready. Deployments face *load*: requests arrive on their own clock
 * and latency under queueing is the QoS metric. ServingProcess
 * models a single-tenant server: Poisson arrivals, a FIFO request
 * queue, fixed-batch engines (partially filled batches are padded,
 * as real fixed-shape TensorRT engines do), and per-request latency
 * from arrival to GPU completion.
 *
 * It is the open kind of the EC loop (workload/ec_loop.hh): the loop
 * has a next EC while requests are queued, goes idle when the queue
 * and the pipeline are empty, and an arrival kicks it back into
 * motion. With a queue that never empties it is the closed loop of
 * InferenceProcess, so together the two span both operating points
 * the paper's intro cares about: the offline capacity bound and the
 * online latency curve a capacity planner actually needs.
 */

#ifndef JETSIM_WORKLOAD_SERVING_PROCESS_HH
#define JETSIM_WORKLOAD_SERVING_PROCESS_HH

#include <deque>
#include <string>

#include "graph/network.hh"
#include "prof/cdf.hh"
#include "sim/rng.hh"
#include "trt/builder.hh"
#include "workload/ec_loop.hh"

namespace jetsim::workload {

/** Open-loop server configuration. */
struct ServingConfig
{
    std::string name = "server";
    trt::BuilderConfig build;
    /** Offered load in images/s (Poisson arrivals). 0 disables the
     * local generator: requests then come only from injectArrival()
     * — the fleet balancer's dispatch path. */
    double arrival_rate = 100.0;
    /** Extra ECs kept in flight beyond the executing one. */
    int pre_enqueue = 1;
    /** Host-side per-EC work. */
    sim::Tick prep_cost = sim::usec(450);
    /** Servers typically use blocking sync; spin optional. */
    bool spin_wait = false;
    sim::Tick spin_chunk = sim::usec(150);
};

/**
 * Gap to the next event of a Poisson process of @p rate events/s:
 * one uniform draw from @p rng, exponential, at least 1 ns.
 */
sim::Tick poissonGap(sim::Rng &rng, double rate);

/** One inference server on a board. */
class ServingProcess : public EcLoop<ServingConfig>
{
  public:
    /** A server on @p engine, which must have been built for
     * @p board's device at cfg.build. */
    ServingProcess(soc::Board &board, cpu::OsScheduler &sched,
                   gpu::GpuEngine &gpu, trt::SharedEngine engine,
                   ServingConfig cfg);

    /** A server on an engine of its own, built from @p net here;
     * the server keeps no reference to @p net. */
    ServingProcess(soc::Board &board, cpu::OsScheduler &sched,
                   gpu::GpuEngine &gpu, const graph::Network &net,
                   const ServingConfig &cfg);

    /** Begin arrivals and the serving loop. */
    void start();

    /**
     * Externally injected request (the fleet balancer's
     * dispatch). @p origin is the tick the request entered the
     * system — at the balancer, before the dispatch hop — so request
     * latency includes the network leg. Dropped after
     * stopArrivals(), like locally generated arrivals.
     */
    void injectArrival(sim::Tick origin);

    /** Stop generating arrivals (in-flight work drains). */
    void stopArrivals() { stopped_ = true; }

    /** @name Results
     * @{ */
    /** Served images/s over the window. */
    double achievedThroughput() const { return perSecond(served_); }
    double offeredLoad() const { return cfg_.arrival_rate; }
    /** Per-request latency samples (arrival to completion, ns). */
    const prof::Cdf &requestLatency() const { return latency_; }
    std::uint64_t served() const { return served_; }
    std::uint64_t arrived() const { return arrived_; }
    /** Largest backlog observed during the window. */
    std::size_t maxQueueDepth() const { return max_queue_; }
    /** @} */

  private:
    void scheduleArrival();
    void onArrival();
    /** Queue a request that entered the system at @p origin. */
    void admit(sim::Tick origin);

    bool hasNext() const override { return !queue_.empty(); }
    void fill(Slot &slot) override;
    void onGpuDone(const Slot &slot) override;
    void resetStats() override;

    bool stopped_ = false;
    std::deque<sim::Tick> queue_; ///< pending request arrival times
    /** Arrival times of the requests in flight, oldest first: ECs on
     * one stream complete in submission order. */
    std::deque<sim::Tick> in_flight_;

    std::uint64_t served_ = 0;
    std::uint64_t arrived_ = 0;
    std::size_t max_queue_ = 0;
    prof::Cdf latency_;
};

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_SERVING_PROCESS_HH
