/**
 * @file
 * Experiment specification and result types — the public face of the
 * profiling library.
 *
 * One ExperimentSpec describes a cell of the paper's measurement
 * grid: device x model x precision x batch x concurrent processes,
 * plus the profiling phase (1 = lightweight jetson-stats/trtexec,
 * 2 = deep Nsight tracing with intrusion) and ablation switches.
 */

#ifndef JETSIM_CORE_EXPERIMENT_HH
#define JETSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "prof/cdf.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::core {

/** Which methodology phase to run (paper Section 4). */
enum class Phase {
    Light, ///< phase 1: trtexec + jetson-stats, no intrusion
    Deep,  ///< phase 2: + Nsight tracing, ~50 % throughput intrusion
};

/** "light" or "deep", as in labels and cache entries. */
const char *phaseName(Phase p);

struct MixedExperimentSpec;

/** Full description of one profiling run. */
struct ExperimentSpec
{
    std::string device = "orin-nano"; ///< orin-nano | nano | a40
    std::string model = "resnet50";
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
    int processes = 1;
    Phase phase = Phase::Light;

    sim::Tick warmup = sim::msec(400);
    sim::Tick duration = sim::sec(4);

    /** trtexec pre-enqueue depth (0 disables; ablation A1). */
    int pre_enqueue = 1;
    /** DVFS governor enabled (ablation A2). */
    bool dvfs = true;
    /** big.LITTLE partitioning enabled (ablation A3). */
    bool biglittle = true;
    /** Hypothetical spatial GPU sharing, i.e. MPS (ablation A5). */
    bool spatial_sharing = false;

    std::uint64_t seed = 1;

    /** Compact one-line identity for logs and reports. */
    std::string label() const;

    /** The same run as a one-workload mixed experiment. */
    MixedExperimentSpec toMixed() const;

    bool operator==(const ExperimentSpec &) const = default;
};

/** Per-process measurements (Section 7 decomposition inputs). */
struct ProcessMetrics
{
    std::string name;
    bool deployed = false;
    double throughput = 0;        ///< img/s
    double ec_ms = 0;             ///< mean EC duration (completion period)
    double pipeline_ms = 0;       ///< enqueue-begin to GPU-done span
    double enqueue_ms = 0;        ///< mean CPU enqueue span
    double launch_ms_per_ec = 0;  ///< K: launch-API wall per EC
    double sync_ms = 0;           ///< CS span (wake + sync API)
    double blocking_ms_per_ec = 0;///< B: wake-wait per EC
    double resched_ms_per_ec = 0; ///< T: post-preemption wait per EC
    double cpu_ms_per_ec = 0;     ///< C: CPU work per EC
    double cache_ms_per_ec = 0;   ///< cache-penalty share of C
    std::uint64_t migrations = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t ecs = 0;
};

/**
 * One group of identical processes inside a mixed (multi-tenant)
 * experiment — e.g. 2x ResNet50 int8 b1 alongside 1x YoloV8n fp16 b4
 * on the same board, the AI-multi-tenancy scenario the paper's
 * related work motivates.
 */
struct WorkloadSpec
{
    std::string model = "resnet50";
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
    int processes = 1;

    bool operator==(const WorkloadSpec &) const = default;
};

/** A heterogeneous concurrent experiment. */
struct MixedExperimentSpec
{
    std::string device = "orin-nano";
    std::vector<WorkloadSpec> workloads;
    Phase phase = Phase::Light;

    sim::Tick warmup = sim::msec(400);
    sim::Tick duration = sim::sec(4);
    int pre_enqueue = 1;
    bool dvfs = true;
    bool biglittle = true;
    bool spatial_sharing = false;
    std::uint64_t seed = 1;

    int totalProcesses() const;
    std::string label() const;

    bool operator==(const MixedExperimentSpec &) const = default;
};

/**
 * Measurements both result kinds carry. The per-kind field tables
 * below list them in each kind's own digest order.
 */
struct RunMetrics
{
    /** Deployment outcome. */
    bool all_deployed = false;
    int deployed_count = 0;

    /** SoC level. */
    double total_throughput = 0; ///< img/s across processes
    double avg_power_w = 0;
    double max_power_w = 0;

    /** GPU level. */
    double gpu_util_pct = 0;
    double mem_pct = 0;          ///< of total RAM, incl. OS share
    double workload_mem_mb = 0;  ///< the deployment's own footprint
    int dvfs_throttle_events = 0;
    double final_freq_frac = 1.0;

    /** Phase-2 counter CDFs (percent units; empty in phase 1). */
    prof::Cdf sm_active;
    prof::Cdf issue_slot;
    prof::Cdf tc_util;

    /** Phase-2 kernel spans. */
    double kernel_us_mean = 0;
    std::uint64_t kernels = 0;

    /** Per-process metrics (mixed runs name them
     * "<model>/<precision>.N"). */
    std::vector<ProcessMetrics> procs;
};

/** Everything one run produces. */
struct ExperimentResult : RunMetrics
{
    ExperimentSpec spec;

    double throughput_per_process = 0;

    /**
     * Per-process summary over the deployed processes: the real-valued
     * fields are means, while the counters (migrations, preemptions,
     * ecs) are totals. Named "mean"; all zero if nothing deployed.
     */
    ProcessMetrics mean;
};

/** Result of a heterogeneous run. */
struct MixedExperimentResult : RunMetrics
{
    MixedExperimentSpec spec;

    /** Aggregate throughput per workload group (spec order). */
    std::vector<double> throughput_by_workload;
};

// ---------------------------------------------------------------------
// Field tables. fieldTable(type, v) calls v(name, &Struct::member) once
// per field, in digest order; visitFields(obj, v) calls v(name, field)
// on an object. The result digests, the result-cache key, the cache's
// JSON entries and spec echo, and runExperiment's per-process mean are
// all derived from these tables, so adding a field is one line here.
// How a field type is encoded belongs to each visitor, not to the
// struct.
// ---------------------------------------------------------------------

template <class T>
using Fields = std::type_identity<T>;

template <class V>
void
fieldTable(Fields<ExperimentSpec>, V &&v)
{
    using S = ExperimentSpec;
    v("device", &S::device);
    v("model", &S::model);
    v("precision", &S::precision);
    v("batch", &S::batch);
    v("processes", &S::processes);
    v("phase", &S::phase);
    v("warmup", &S::warmup);
    v("duration", &S::duration);
    v("pre_enqueue", &S::pre_enqueue);
    v("dvfs", &S::dvfs);
    v("biglittle", &S::biglittle);
    v("spatial_sharing", &S::spatial_sharing);
    v("seed", &S::seed);
}

template <class V>
void
fieldTable(Fields<WorkloadSpec>, V &&v)
{
    using S = WorkloadSpec;
    v("model", &S::model);
    v("precision", &S::precision);
    v("batch", &S::batch);
    v("processes", &S::processes);
}

template <class V>
void
fieldTable(Fields<MixedExperimentSpec>, V &&v)
{
    using S = MixedExperimentSpec;
    v("device", &S::device);
    v("workloads", &S::workloads);
    v("phase", &S::phase);
    v("warmup", &S::warmup);
    v("duration", &S::duration);
    v("pre_enqueue", &S::pre_enqueue);
    v("dvfs", &S::dvfs);
    v("biglittle", &S::biglittle);
    v("spatial_sharing", &S::spatial_sharing);
    v("seed", &S::seed);
}

template <class V>
void
fieldTable(Fields<ProcessMetrics>, V &&v)
{
    using P = ProcessMetrics;
    v("name", &P::name);
    v("deployed", &P::deployed);
    v("throughput", &P::throughput);
    v("ec_ms", &P::ec_ms);
    v("pipeline_ms", &P::pipeline_ms);
    v("enqueue_ms", &P::enqueue_ms);
    v("launch_ms_per_ec", &P::launch_ms_per_ec);
    v("sync_ms", &P::sync_ms);
    v("blocking_ms_per_ec", &P::blocking_ms_per_ec);
    v("resched_ms_per_ec", &P::resched_ms_per_ec);
    v("cpu_ms_per_ec", &P::cpu_ms_per_ec);
    v("cache_ms_per_ec", &P::cache_ms_per_ec);
    v("migrations", &P::migrations);
    v("preemptions", &P::preemptions);
    v("ecs", &P::ecs);
}

template <class V>
void
fieldTable(Fields<ExperimentResult>, V &&v)
{
    using R = ExperimentResult;
    v("spec", &R::spec);
    v("all_deployed", &R::all_deployed);
    v("deployed_count", &R::deployed_count);
    v("total_throughput", &R::total_throughput);
    v("throughput_per_process", &R::throughput_per_process);
    v("avg_power_w", &R::avg_power_w);
    v("max_power_w", &R::max_power_w);
    v("gpu_util_pct", &R::gpu_util_pct);
    v("mem_pct", &R::mem_pct);
    v("workload_mem_mb", &R::workload_mem_mb);
    v("dvfs_throttle_events", &R::dvfs_throttle_events);
    v("final_freq_frac", &R::final_freq_frac);
    v("sm_active", &R::sm_active);
    v("issue_slot", &R::issue_slot);
    v("tc_util", &R::tc_util);
    v("kernel_us_mean", &R::kernel_us_mean);
    v("kernels", &R::kernels);
    v("procs", &R::procs);
    v("mean", &R::mean);
}

template <class V>
void
fieldTable(Fields<MixedExperimentResult>, V &&v)
{
    using R = MixedExperimentResult;
    v("spec", &R::spec);
    v("all_deployed", &R::all_deployed);
    v("deployed_count", &R::deployed_count);
    v("total_throughput", &R::total_throughput);
    v("avg_power_w", &R::avg_power_w);
    v("max_power_w", &R::max_power_w);
    v("gpu_util_pct", &R::gpu_util_pct);
    v("mem_pct", &R::mem_pct);
    v("workload_mem_mb", &R::workload_mem_mb);
    v("throughput_by_workload", &R::throughput_by_workload);
    v("procs", &R::procs);
    v("sm_active", &R::sm_active);
    v("issue_slot", &R::issue_slot);
    v("tc_util", &R::tc_util);
    v("kernel_us_mean", &R::kernel_us_mean);
    v("kernels", &R::kernels);
    v("dvfs_throttle_events", &R::dvfs_throttle_events);
    v("final_freq_frac", &R::final_freq_frac);
}

/** Call v(name, obj.field) for every field of @p obj, in table order. */
template <class T, class V>
void
visitFields(T &obj, V &&v)
{
    fieldTable(Fields<std::remove_const_t<T>>{},
               [&](const char *name, auto member) { v(name, obj.*member); });
}

} // namespace jetsim::core

#endif // JETSIM_CORE_EXPERIMENT_HH
