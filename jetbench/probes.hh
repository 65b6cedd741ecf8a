/**
 * @file
 * Isolated layer probes: one public call of one layer timed on its
 * own, outside any cell, as host ns per operation in the fastest of
 * several repetitions.
 */

#ifndef JETBENCH_PROBES_HH
#define JETBENCH_PROBES_HH

#include <string>
#include <vector>

#include "trt/builder.hh"

namespace jetbench {

/** One engine a workload deploys: board + model + build config. */
struct EngineConfig
{
    std::string device;
    std::string model;
    jetsim::trt::BuilderConfig build;
};

/** Results of every isolated probe. */
struct ProbeResults
{
    double queue_ns_per_event = 0; ///< bare sim::EventQueue, hold model
    double cost_model_ns = 0;      ///< gpu::KernelCostModel::timing
    double submit_ns = 0;          ///< gpu::GpuEngine::submit + completion
    double freq_frac_ns = 0;       ///< soc::DvfsGovernor::freqFrac
    double board_update_ns = 0;    ///< soc::Board::setCpuActive
    double slice_ns = 0;           ///< cpu::OsScheduler, 8 busy threads
    double engine_build_us = 0;    ///< trt::Builder::build
};

/** Run every probe over the kernels of @p engines. */
ProbeResults runProbes(const std::vector<EngineConfig> &engines);

} // namespace jetbench

#endif // JETBENCH_PROBES_HH
