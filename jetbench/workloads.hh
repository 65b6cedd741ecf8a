/**
 * @file
 * The benchmark's three workloads, each a fixed batch of jobs built
 * only from the workload seed, and the fleet whose set-up share the
 * paper_sweep traced run reports.
 *
 * Nothing here reads the environment: thread counts, cache
 * directories and timings are constants of the workload, so
 * JETSIM_THREADS, JETSIM_CACHE_DIR and JETSIM_QUICK cannot change what
 * a run measures (run.py --selftest checks that).
 */

#ifndef JETBENCH_WORKLOADS_HH
#define JETBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "core/fleet.hh"

namespace jetbench {

/** Seed whose combined digests are recorded in digests.json. */
inline constexpr std::uint64_t kDefaultSeed = 1;

enum class Workload { LongCell, PaperSweep, SweepCached };

std::optional<Workload> workloadByName(std::string_view name);
const char *name(Workload w);

/** Worker threads of the runner-based workloads: 4, or fewer on a
 * host with fewer hardware threads. */
int sweepThreads();

/** long_cell: Orin Nano, 4x ResNet50 int8 b1, phase 1, 4 s window. */
jetsim::core::MixedExperimentSpec longCellSpec(std::uint64_t seed);

/** paper_sweep / sweep_cached: the paper's Light grid on both boards
 * plus the Deep cells behind the counter figures (fig 5 and fig 10),
 * all at bench timing (300 ms warm-up, 2 s window). */
std::vector<jetsim::core::ExperimentSpec>
paperSweepSpecs(std::uint64_t seed);

/** 1000 boards behind one open-loop Poisson balancer, for the
 * core.fleet_setup_share layer of the paper_sweep traced run. */
jetsim::core::FleetSpec fleetSpec(std::uint64_t seed);

/** The same job with its simulated warm-up and window cut to one
 * tick: what remains is set-up. */
template <typename Spec>
Spec
oneTick(Spec s)
{
    s.warmup = 1;
    s.duration = 1;
    return s;
}

/** Simulated seconds a job nominally advances (warm-up + window). */
template <typename Spec>
double
nominalSimSeconds(const Spec &s)
{
    return jetsim::sim::toSec(s.warmup + s.duration);
}

/** Digest of everything that defines workload @p w at @p seed. */
std::uint64_t definitionDigest(Workload w, std::uint64_t seed);

/** Mixed-spec form of a single-model cell, as runExperiment builds it. */
jetsim::core::MixedExperimentSpec
toMixed(const jetsim::core::ExperimentSpec &s);

} // namespace jetbench

#endif // JETBENCH_WORKLOADS_HH
