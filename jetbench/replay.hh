/**
 * @file
 * Traced replays: the library's jobs driven step by step through the
 * public classes, with a span around each call.
 *
 * replayCell() makes the same calls, in the same order, as
 * core::runMixedExperiment, so its per-process ECs and throughput must
 * equal the library's bit for bit; matches() is that check, and a
 * replay that fails it is rejected.
 */

#ifndef JETBENCH_REPLAY_HH
#define JETBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "core/experiment.hh"
#include "trace.hh"

namespace jetbench {

/** What one replayed cell measured. */
struct CellReplay
{
    bool all_deployed = false;
    std::vector<std::uint64_t> ecs;  ///< per process, spec order
    std::vector<double> throughput;  ///< per process, img/s
    int graph_builds = 0;
    int deploys = 0;
    int deploy_failures = 0;
    std::uint64_t events = 0;        ///< dispatched over the whole cell
    std::uint64_t window_events = 0; ///< dispatched in the window
    double window_ns = 0;            ///< host time of the window
    std::uint64_t peak_pending = 0;
    std::uint64_t sbo_misses = 0;
    std::uint64_t kernels = 0;        ///< GPU kernels executed
    std::uint64_t kernel_records = 0; ///< kernels the Nsight tracer saw
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
};

/** Run @p spec as runMixedExperiment does, recording spans in @p t
 * under cell id @p cell. */
CellReplay replayCell(const jetsim::core::MixedExperimentSpec &spec,
                      Tracer &t, int cell);

/** Exact per-process agreement with the library's result. */
bool matches(const CellReplay &r,
             const std::vector<jetsim::core::ProcessMetrics> &lib,
             bool lib_all_deployed);

} // namespace jetbench

#endif // JETBENCH_REPLAY_HH
