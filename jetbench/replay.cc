#include "replay.hh"

#include <memory>
#include <string>

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/jstats.hh"
#include "prof/nsight.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"
#include "soc/device_spec.hh"
#include "workload/inference_process.hh"

namespace jetbench {

using namespace jetsim;

CellReplay
replayCell(const core::MixedExperimentSpec &spec, Tracer &t, int cell)
{
    // Every step below mirrors core::runMixedExperiment; any change in
    // order or arguments shows up as an ECs/throughput mismatch.
    Scope cell_span(t, "core.cell", cell);
    CellReplay out;

    sim::EventQueue eq;
    const int board_span = t.begin("soc.board_setup", cell);
    soc::Board board(soc::deviceByName(spec.device), eq, spec.seed);
    board.governor().setEnabled(spec.dvfs);
    board.start();
    cpu::OsScheduler sched(board);
    sched.setPartitioned(spec.biglittle);
    gpu::GpuEngine gpu(board);
    gpu.setSpatialSharing(spec.spatial_sharing);
    t.end(board_span);

    std::vector<graph::Network> nets;
    nets.reserve(spec.workloads.size());
    for (const auto &w : spec.workloads) {
        Scope s(t, "models.graph_build", cell);
        nets.push_back(models::modelByName(w.model));
        ++out.graph_builds;
    }

    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    int idx = 0;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const auto &wl = spec.workloads[w];
        for (int i = 0; i < wl.processes; ++i) {
            Scope s(t, "workload.deploy", cell);
            workload::ProcessConfig cfg;
            cfg.name = wl.model + "/" + soc::name(wl.precision) + "." +
                       std::to_string(i);
            cfg.build.precision = wl.precision;
            cfg.build.batch = wl.batch;
            cfg.pre_enqueue = spec.pre_enqueue;
            cfg.start_offset = sim::msec(7) * idx++;
            procs.push_back(std::make_unique<workload::InferenceProcess>(
                board, sched, gpu, nets[w], std::move(cfg)));
            ++out.deploys;
            if (!procs.back()->deploy())
                ++out.deploy_failures;
        }
    }
    out.all_deployed = out.deploy_failures == 0;

    auto collect = [&] {
        for (const auto &p : procs) {
            out.ecs.push_back(p->deployed() ? p->ecsCompleted() : 0);
            out.throughput.push_back(p->deployed() ? p->throughput()
                                                   : 0.0);
        }
    };
    if (!out.all_deployed) {
        collect();
        return out;
    }

    const int attach_span = t.begin("prof.attach", cell);
    prof::JStatsSampler jstats(board, sim::msec(100));
    jstats.start();
    std::unique_ptr<prof::NsightTracer> tracer;
    if (spec.phase == core::Phase::Deep) {
        tracer = std::make_unique<prof::NsightTracer>(board, gpu,
                                                      sim::msec(1));
        tracer->attach();
    }
    for (auto &p : procs)
        p->start();
    t.end(attach_span);

    {
        Scope s(t, "sim.warmup", cell);
        eq.runUntil(eq.now() + spec.warmup);
    }
    for (auto &p : procs)
        p->beginMeasurement();
    jstats.reset();
    if (tracer)
        tracer->reset();

    {
        Scope s(t, "sim.window", cell);
        const std::uint64_t before = eq.executed();
        const double t0 = nowNs();
        eq.runUntil(eq.now() + spec.duration);
        // runMixedExperiment's window extension for slow cells.
        for (int ext = 0; ext < 12; ++ext) {
            bool enough = true;
            for (auto &p : procs)
                enough &= p->ecsCompleted() >= 3;
            if (enough)
                break;
            eq.runUntil(eq.now() + spec.duration);
        }
        out.window_ns = nowNs() - t0;
        out.window_events = eq.executed() - before;
    }

    Scope fold(t, "core.fold", cell);
    for (auto &p : procs) {
        p->endMeasurement();
        p->stopEnqueue();
    }
    collect();
    for (const auto &p : procs) {
        out.preemptions += p->thread().preemptions();
        out.migrations += p->thread().migrations();
    }
    if (tracer)
        out.kernel_records = tracer->kernelCount();
    out.kernels = gpu.kernelsExecuted();
    const auto st = eq.stats();
    out.events = st.executed;
    out.peak_pending = st.peak_pending;
    out.sbo_misses = st.sbo_misses;
    jstats.stop();
    if (tracer)
        tracer->detach();
    return out;
}

bool
matches(const CellReplay &r, const std::vector<core::ProcessMetrics> &lib,
        bool lib_all_deployed)
{
    if (r.all_deployed != lib_all_deployed || r.ecs.size() != lib.size())
        return false;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        if (!lib[i].deployed)
            continue;
        if (r.ecs[i] != lib[i].ecs || r.throughput[i] != lib[i].throughput)
            return false;
    }
    return true;
}

} // namespace jetbench
