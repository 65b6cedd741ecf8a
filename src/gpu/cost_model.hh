/**
 * @file
 * Roofline-style kernel cost model with derived hardware counters.
 *
 * Duration = fixed per-kernel overhead + max(compute, memory) time,
 * where compute time scales with the DVFS frequency and the kernel's
 * shape-dependent efficiency, and memory time with sustained DRAM
 * bandwidth. The same quantities yield the counters the paper reads
 * from Nsight Systems: SM-active (grid occupancy over SMs), issue-
 * slot utilisation, tensor-core utilisation (TC-busy cycles over
 * elapsed), and bandwidth utilisation.
 */

#ifndef JETSIM_GPU_COST_MODEL_HH
#define JETSIM_GPU_COST_MODEL_HH

#include "gpu/kernel.hh"
#include "sim/rng.hh"
#include "soc/device_spec.hh"

namespace jetsim::gpu {

/** Pure-function cost model for one device. */
class KernelCostModel
{
  public:
    explicit KernelCostModel(const soc::DeviceSpec &spec);

    /**
     * Timing and counters for @p k at the given DVFS point.
     * @param freq_frac current GPU frequency / max frequency
     * @param rng source for the small execution-time jitter; pass
     *        nullptr for the deterministic expectation (tests).
     */
    KernelTiming timing(const KernelDesc &k, double freq_frac,
                        sim::Rng *rng = nullptr) const;

    /**
     * Sustained GFLOPS this kernel's path achieves (before the
     * per-kernel efficiency scale). 0 means the path is absent and
     * the builder should not have produced this kernel.
     */
    double baseRate(const KernelDesc &k) const;

    /** Fixed per-kernel start/teardown overhead. */
    static constexpr sim::Tick kKernelOverhead = sim::usec(3);

    /**
     * Execution-time jitter envelope: the Lognormal(1.0, 0.05)
     * body factor (its own x8 band sits at 41 sigma, past any normal
     * draw) is clamped into [kJitterLo, kJitterHi]. The upper clamp
     * binds with probability < 1e-15 per draw (8 sigma at cv 0.05),
     * so observed timing is unchanged — but every kernel body is now
     * *provably* inside [kJitterLo, kJitterHi] x the deterministic
     * roofline body, which is what the src/absint latency intervals
     * rest on.
     */
    static constexpr double kJitterLo = 0.5;
    static constexpr double kJitterHi = 1.5;

    /** Hard cap on one kernel body in ns (see cost_model.cc). */
    static constexpr double kMaxBodyNsCap = 3.6e12;

  private:
    soc::DeviceSpec spec_;
    const sim::Lognormal jitter_{1.0, 0.05}; ///< built once per model
};

} // namespace jetsim::gpu

#endif // JETSIM_GPU_COST_MODEL_HH
