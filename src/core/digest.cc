#include "core/digest.hh"

#include "check/digest.hh"

namespace jetsim::core {

namespace {

void
addCdf(check::Digest &d, const prof::Cdf &c)
{
    d.add(static_cast<std::uint64_t>(c.count()));
    if (c.empty())
        return;
    d.add(c.mean());
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
        d.add(c.quantile(q));
}

void
addProc(check::Digest &d, const ProcessMetrics &p)
{
    d.add(p.name);
    d.add(std::uint64_t{p.deployed});
    d.add(p.throughput);
    d.add(p.ec_ms);
    d.add(p.pipeline_ms);
    d.add(p.enqueue_ms);
    d.add(p.launch_ms_per_ec);
    d.add(p.sync_ms);
    d.add(p.blocking_ms_per_ec);
    d.add(p.resched_ms_per_ec);
    d.add(p.cpu_ms_per_ec);
    d.add(p.cache_ms_per_ec);
    d.add(p.migrations);
    d.add(p.preemptions);
    d.add(p.ecs);
}

} // namespace

std::uint64_t
resultDigest(const ExperimentResult &r)
{
    check::Digest d;
    d.add(r.spec.label());
    d.add(std::uint64_t{r.all_deployed});
    d.add(static_cast<std::int64_t>(r.deployed_count));
    d.add(r.total_throughput);
    d.add(r.throughput_per_process);
    d.add(r.avg_power_w);
    d.add(r.max_power_w);
    d.add(r.gpu_util_pct);
    d.add(r.mem_pct);
    d.add(r.workload_mem_mb);
    d.add(static_cast<std::int64_t>(r.dvfs_throttle_events));
    d.add(r.final_freq_frac);
    addCdf(d, r.sm_active);
    addCdf(d, r.issue_slot);
    addCdf(d, r.tc_util);
    d.add(r.kernel_us_mean);
    d.add(r.kernels);
    for (const auto &p : r.procs)
        addProc(d, p);
    addProc(d, r.mean);
    return d.value();
}

std::uint64_t
resultDigest(const MixedExperimentResult &r)
{
    check::Digest d;
    d.add(r.spec.label());
    d.add(std::uint64_t{r.all_deployed});
    d.add(static_cast<std::int64_t>(r.deployed_count));
    d.add(r.total_throughput);
    d.add(r.avg_power_w);
    d.add(r.max_power_w);
    d.add(r.gpu_util_pct);
    d.add(r.mem_pct);
    d.add(r.workload_mem_mb);
    for (const double t : r.throughput_by_workload)
        d.add(t);
    for (const auto &p : r.procs)
        addProc(d, p);
    addCdf(d, r.sm_active);
    addCdf(d, r.issue_slot);
    addCdf(d, r.tc_util);
    d.add(r.kernel_us_mean);
    d.add(r.kernels);
    d.add(static_cast<std::int64_t>(r.dvfs_throttle_events));
    d.add(r.final_freq_frac);
    return d.value();
}

std::uint64_t
resultDigest(const FleetResult &r)
{
    check::Digest d;
    d.add(r.spec.label());
    d.add(std::uint64_t{r.all_deployed});
    for (const auto &dev : r.devices) {
        d.add(dev.name);
        d.add(dev.device);
        d.add(std::uint64_t{dev.deployed});
        d.add(dev.arrived);
        d.add(dev.served);
        d.add(dev.throughput);
        d.add(dev.p50_ms);
        d.add(dev.p99_ms);
        d.add(dev.max_ms);
        d.add(dev.max_queue);
    }
    d.add(r.total_throughput);
    d.add(r.p99_ms);
    d.add(r.dispatched);
    // Structural check: the same simulation executes the same
    // number of events.
    d.add(r.events);
    return d.value();
}

} // namespace jetsim::core
