#include "probes.hh"

#include <cstdint>

#include "cpu/scheduler.hh"
#include "gpu/cost_model.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "sim/name_registry.hh"
#include "sim/rng.hh"
#include "soc/board.hh"
#include "soc/device_spec.hh"
#include "trace.hh"
#include "util.hh"

namespace jetbench {

using namespace jetsim;

namespace {

constexpr int kReps = 5;

/** Fastest of kReps repetitions, in host ns per operation; @p fn runs
 * one repetition and returns its operation count. The fastest, as in
 * jetbench's end-to-end metrics: other tenants only slow a run down. */
template <typename Fn>
double
nsPerOp(Fn &&fn)
{
    std::vector<double> per_op;
    for (int r = 0; r < kReps; ++r) {
        const double t0 = nowNs();
        const double ops = static_cast<double>(fn());
        per_op.push_back((nowNs() - t0) / (ops > 0 ? ops : 1));
    }
    return quantile(per_op, 0);
}

/** Keeps probe results observable so no loop is optimised away. */
volatile double g_sink = 0;

} // namespace

ProbeResults
runProbes(const std::vector<EngineConfig> &engines)
{
    ProbeResults r;
    const auto board_spec = soc::deviceByName(engines.front().device);

    std::vector<trt::Engine> built;
    built.reserve(engines.size());
    for (const auto &e : engines)
        built.push_back(trt::Builder(soc::deviceByName(e.device))
                            .build(models::modelByName(e.model), e.build));

    // The hold model at the simulator's own queue depth (cells peak at
    // 8-13 pending events): every dispatched event schedules one more.
    r.queue_ns_per_event = nsPerOp([] {
        constexpr std::uint64_t kEvents = 1000000;
        constexpr int kPending = 16;
        struct Hold
        {
            sim::EventQueue eq;
            sim::Rng rng{7};
            std::uint64_t left = kEvents;

            void
            fire()
            {
                if (left == 0)
                    return;
                --left;
                eq.scheduleIn(
                    1 + static_cast<sim::Tick>(rng.uniform() * 1000),
                    [this] { fire(); });
            }
        } hold;
        for (int i = 0; i < kPending; ++i)
            hold.fire();
        hold.eq.runAll();
        return hold.eq.executed();
    });

    std::vector<gpu::KernelCostModel> cost_models;
    for (const auto &e : engines)
        cost_models.emplace_back(soc::deviceByName(e.device));
    r.cost_model_ns = nsPerOp([&] {
        std::uint64_t calls = 0;
        double acc = 0;
        sim::Rng rng(11);
        while (calls < 200000) {
            for (std::size_t i = 0; i < engines.size(); ++i) {
                for (const auto &k : built[i].kernels()) {
                    acc += static_cast<double>(
                        cost_models[i].timing(k, 0.9, &rng).duration);
                    ++calls;
                }
            }
        }
        g_sink = g_sink + acc;
        return calls;
    });

    // Submit every kernel of each engine on one channel and run the
    // queue dry: host ns per kernel through submit, dispatch and
    // completion. Boards are built outside the timed part.
    std::vector<double> submit_ns;
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t submitted = 0;
        std::uint64_t done = 0;
        double ns = 0;
        while (submitted < 20000) {
            for (std::size_t i = 0; i < engines.size(); ++i) {
                sim::EventQueue eq;
                soc::Board board(soc::deviceByName(engines[i].device), eq);
                gpu::GpuEngine gpu(board);
                const int ch = gpu.createChannel("probe");
                const double t0 = nowNs();
                for (const auto &k : built[i].kernels())
                    gpu.submit(ch, &k, [&done] { ++done; });
                eq.runAll();
                ns += nowNs() - t0;
                submitted += built[i].kernels().size();
            }
        }
        g_sink = g_sink + static_cast<double>(done);
        submit_ns.push_back(ns / static_cast<double>(submitted));
    }
    r.submit_ns = quantile(submit_ns, 0);

    r.freq_frac_ns = nsPerOp([&] {
        constexpr int kCalls = 2000000;
        sim::EventQueue eq;
        soc::Board board(board_spec, eq);
        board.start();
        double acc = 0;
        for (int i = 0; i < kCalls; ++i)
            acc += board.governor().freqFrac();
        g_sink = g_sink + acc;
        return kCalls;
    });

    r.board_update_ns = nsPerOp([&] {
        constexpr int kCalls = 500000;
        sim::EventQueue eq;
        soc::Board board(board_spec, eq);
        for (int i = 0; i < kCalls; ++i)
            board.setCpuActive(i % 5, (i / 5) % 3);
        g_sink = g_sink + board.powerW();
        return kCalls;
    });

    // Eight threads contending for the big cores, as
    // micro_sim's scheduler benchmark sets them up; timed per event.
    std::vector<sim::NameId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(sim::internName("probe" + std::to_string(i)));
    r.slice_ns = nsPerOp([&] {
        std::uint64_t events = 0;
        for (int rep = 0; rep < 20; ++rep) {
            sim::EventQueue eq;
            soc::Board board(board_spec, eq);
            cpu::OsScheduler sched(board);
            for (const auto id : ids)
                sched.createThread(id)->exec(sim::msec(5), nullptr);
            eq.runAll();
            events += eq.executed();
        }
        return events;
    });

    // Builder::build alone: graphs and builders are made beforehand.
    std::vector<graph::Network> nets;
    std::vector<trt::Builder> builders;
    for (const auto &e : engines) {
        nets.push_back(models::modelByName(e.model));
        builders.emplace_back(soc::deviceByName(e.device));
    }
    std::vector<double> build_us;
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t builds = 0;
        double ns = 0;
        while (builds < 8 || ns < 2e7) {
            for (std::size_t i = 0; i < engines.size(); ++i) {
                const double t0 = nowNs();
                const auto e = builders[i].build(nets[i], engines[i].build);
                ns += nowNs() - t0;
                g_sink = g_sink + static_cast<double>(e.deviceBytes());
                ++builds;
            }
        }
        build_us.push_back(ns / 1e3 / static_cast<double>(builds));
    }
    r.engine_build_us = quantile(build_us, 0);
    return r;
}

} // namespace jetbench
