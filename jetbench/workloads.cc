#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "check/digest.hh"
#include "models/zoo.hh"

namespace jetbench {

using namespace jetsim;

namespace {

constexpr const char *kNames[] = {"long_cell", "paper_sweep",
                                  "sweep_cached"};

/** Offered load of the fleet: 20 img/s per board. The slowest board
 * (Nano, ResNet18) serves about 34 img/s, so no backlog grows. */
constexpr double kFleetRatePerBoard = 20.0;
constexpr int kFleetBoards = 1000;

} // namespace

std::optional<Workload>
workloadByName(std::string_view name)
{
    for (int i = 0; i < 3; ++i)
        if (name == kNames[i])
            return static_cast<Workload>(i);
    return std::nullopt;
}

const char *
name(Workload w)
{
    return kNames[static_cast<int>(w)];
}

int
sweepThreads()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw, 1, 4);
}

core::MixedExperimentSpec
longCellSpec(std::uint64_t seed)
{
    core::MixedExperimentSpec s;
    s.device = "orin-nano";
    s.workloads = {core::WorkloadSpec{"resnet50", soc::Precision::Int8,
                                      /*batch=*/1, /*processes=*/4}};
    s.phase = core::Phase::Light;
    s.warmup = sim::msec(400);
    s.duration = sim::sec(4);
    s.seed = seed;
    return s;
}

std::vector<core::ExperimentSpec>
paperSweepSpecs(std::uint64_t seed)
{
    std::vector<core::ExperimentSpec> specs;
    auto cell = [&](const char *device, const std::string &model,
                    soc::Precision p, int batch, int procs,
                    core::Phase phase) {
        core::ExperimentSpec s;
        s.device = device;
        s.model = model;
        s.precision = p;
        s.batch = batch;
        s.processes = procs;
        s.phase = phase;
        s.warmup = sim::msec(300);
        s.duration = sim::sec(2);
        s.seed = seed;
        specs.push_back(s);
    };
    for (const char *device : {"orin-nano", "nano"})
        for (const auto &model : models::paperModelNames())
            for (const auto p : soc::kAllPrecisions)
                for (int batch : {1, 4, 16})
                    for (int procs : {1, 2, 4, 8})
                        cell(device, model, p, batch, procs,
                             core::Phase::Light);
    // Fig 5: counters vs precision; fig 10: counters vs process count
    // (its p1 int8 cells are fig 5's, so they are not repeated).
    for (const auto &model : models::paperModelNames()) {
        for (const auto p : soc::kAllPrecisions)
            cell("orin-nano", model, p, 1, 1, core::Phase::Deep);
        for (int procs : {2, 4, 8})
            cell("orin-nano", model, soc::Precision::Int8, 1, procs,
                 core::Phase::Deep);
    }
    return specs;
}

core::FleetSpec
fleetSpec(std::uint64_t seed)
{
    core::FleetSpec f;
    for (int i = 0; i < kFleetBoards; ++i) {
        core::FleetDevice d;
        d.device = i % 2 ? "nano" : "orin-nano";
        d.model = (i / 2) % 2 ? "mobilenet_v2" : "resnet18";
        d.precision = soc::Precision::Int8;
        d.batch = 1;
        f.devices.push_back(d);
    }
    f.balancer_rate = kFleetRatePerBoard * kFleetBoards;
    f.warmup = sim::msec(100);
    f.duration = sim::msec(500);
    f.seed = seed;
    return f;
}

std::uint64_t
definitionDigest(Workload w, std::uint64_t seed)
{
    check::Digest d;
    d.add(std::string_view(name(w)));
    d.add(seed);
    switch (w) {
    case Workload::LongCell: {
        const auto s = longCellSpec(seed);
        d.add(s.label());
        d.add(static_cast<std::int64_t>(s.warmup));
        d.add(static_cast<std::int64_t>(s.duration));
        break;
    }
    case Workload::PaperSweep:
    case Workload::SweepCached:
        d.add(static_cast<std::int64_t>(sweepThreads()));
        for (const auto &s : paperSweepSpecs(seed)) {
            d.add(s.label());
            d.add(static_cast<std::int64_t>(s.warmup));
            d.add(static_cast<std::int64_t>(s.duration));
        }
        if (w == Workload::PaperSweep) {
            const auto f = fleetSpec(seed);
            d.add(f.label());
            d.add(static_cast<std::int64_t>(f.warmup));
            d.add(static_cast<std::int64_t>(f.duration));
        }
        break;
    }
    return d.value();
}

core::MixedExperimentSpec
toMixed(const core::ExperimentSpec &s)
{
    core::MixedExperimentSpec m;
    m.device = s.device;
    m.workloads = {core::WorkloadSpec{s.model, s.precision, s.batch,
                                      s.processes}};
    m.phase = s.phase;
    m.warmup = s.warmup;
    m.duration = s.duration;
    m.pre_enqueue = s.pre_enqueue;
    m.dvfs = s.dvfs;
    m.biglittle = s.biglittle;
    m.spatial_sharing = s.spatial_sharing;
    m.seed = s.seed;
    return m;
}

} // namespace jetbench
