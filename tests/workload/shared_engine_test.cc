/**
 * @file
 * Processes on one shared engine behave exactly like processes that
 * each build their own from the network: same ECs, throughput, memory
 * accounting and OOM verdicts. A process built from a network keeps
 * no reference to it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/reporter.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "workload/inference_process.hh"
#include "workload/serving_process.hh"

namespace jetsim::workload {
namespace {

/** What a run of p processes measured, per process. */
struct Outcome
{
    std::vector<bool> deployed;
    std::vector<std::uint64_t> ecs;
    std::vector<double> throughput;
    std::vector<sim::Bytes> device_bytes;
    sim::Bytes mem_used = 0;
    std::vector<const trt::Engine *> engines;
};

/**
 * Deploy and run @p p processes of @p model on @p device, either all
 * on one engine built up front (@p shared) or each on its own engine
 * built from the network.
 */
Outcome
runProcesses(const char *device, const char *model, soc::Precision prec,
             int batch, int p, bool shared)
{
    sim::EventQueue eq;
    soc::Board board(soc::deviceByName(device), eq, 11);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    const graph::Network net = models::modelByName(model);

    trt::BuilderConfig build{prec, batch};
    const auto engine = std::make_shared<const trt::Engine>(
        trt::Builder(board.spec()).build(net, build));

    Outcome out;
    std::vector<std::unique_ptr<InferenceProcess>> procs;
    for (int i = 0; i < p; ++i) {
        ProcessConfig cfg;
        cfg.name = "p" + std::to_string(i);
        cfg.build = build;
        cfg.start_offset = sim::msec(7) * i;
        procs.push_back(
            shared ? std::make_unique<InferenceProcess>(board, sched, gpu,
                                                        engine, cfg)
                   : std::make_unique<InferenceProcess>(board, sched, gpu,
                                                        net, cfg));
        out.deployed.push_back(procs.back()->deploy());
        out.engines.push_back(&procs.back()->engine());
    }
    out.mem_used = board.memory().used();
    for (auto &proc : procs)
        if (proc->deployed())
            proc->start();
    eq.runUntil(sim::msec(200));
    for (auto &proc : procs)
        proc->beginMeasurement();
    eq.runUntil(eq.now() + sim::msec(600));
    for (auto &proc : procs) {
        proc->endMeasurement();
        proc->stopEnqueue();
        out.ecs.push_back(proc->ecsCompleted());
        out.throughput.push_back(proc->throughput());
        out.device_bytes.push_back(proc->deviceBytes());
    }
    return out;
}

TEST(SharedEngine, ProcessesMatchPerProcessEngines)
{
    for (int p : {1, 2, 4}) {
        const auto shared = runProcesses("orin-nano", "resnet50",
                                         soc::Precision::Int8, 1, p, true);
        const auto own = runProcesses("orin-nano", "resnet50",
                                      soc::Precision::Int8, 1, p, false);
        EXPECT_EQ(shared.deployed, own.deployed) << p;
        EXPECT_EQ(shared.ecs, own.ecs) << p;
        EXPECT_EQ(shared.throughput, own.throughput) << p;
        EXPECT_EQ(shared.device_bytes, own.device_bytes) << p;
        EXPECT_EQ(shared.mem_used, own.mem_used) << p;
        EXPECT_GT(shared.ecs.front(), 0u);
        for (int i = 1; i < p; ++i) {
            EXPECT_EQ(shared.engines[i], shared.engines[0]);
            EXPECT_NE(own.engines[i], own.engines[0]);
        }
    }
}

TEST(SharedEngine, OomVerdictMatchesPerProcessEngines)
{
    // The paper's Nano FCN_ResNet50 x4 failure: memory is accounted
    // per process, so sharing the plan does not let more fit.
    const auto shared = runProcesses("nano", "fcn_resnet50",
                                     soc::Precision::Fp16, 4, 4, true);
    const auto own = runProcesses("nano", "fcn_resnet50",
                                  soc::Precision::Fp16, 4, 4, false);
    EXPECT_EQ(shared.deployed, own.deployed);
    EXPECT_EQ(shared.device_bytes, own.device_bytes);
    EXPECT_EQ(shared.mem_used, own.mem_used);
    EXPECT_FALSE(shared.deployed.back());
}

struct Rig
{
    Rig() : board(soc::orinNano(), eq) { board.start(); }

    sim::EventQueue eq;
    soc::Board board;
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};
};

TEST(SharedEngine, ProcessOutlivesATemporaryNetwork)
{
    check::ScopedCapture cap;
    Rig r;
    ProcessConfig cfg;
    cfg.name = "tmp";
    cfg.build.precision = soc::Precision::Int8;
    // The network is a temporary, gone before deploy().
    InferenceProcess p(r.board, r.sched, r.gpu, models::resnet50(), cfg);
    ASSERT_TRUE(p.deploy());
    p.start();
    r.eq.runUntil(sim::msec(100));
    p.beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::msec(300));
    p.endMeasurement();
    p.stopEnqueue();
    EXPECT_GT(p.ecsCompleted(), 0u);
    EXPECT_EQ(p.engine().model(), "resnet50");
    EXPECT_EQ(cap.total(), 0u);
}

TEST(SharedEngine, ServerOutlivesATemporaryNetwork)
{
    check::ScopedCapture cap;
    Rig r;
    ServingConfig cfg;
    cfg.name = "srv";
    cfg.build.precision = soc::Precision::Int8;
    cfg.arrival_rate = 100.0;
    ServingProcess s(r.board, r.sched, r.gpu, models::resnet50(), cfg);
    ASSERT_TRUE(s.deploy());
    s.start();
    r.eq.runUntil(sim::msec(100));
    s.beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::msec(500));
    s.endMeasurement();
    s.stopArrivals();
    EXPECT_GT(s.served(), 0u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(SharedEngine, ServersShareOneEngine)
{
    Rig r;
    const auto engine = std::make_shared<const trt::Engine>(
        trt::Builder(r.board.spec())
            .build(models::resnet50(),
                   trt::BuilderConfig{soc::Precision::Int8, 1}));
    ServingConfig cfg;
    cfg.build.precision = soc::Precision::Int8;
    cfg.name = "a";
    ServingProcess a(r.board, r.sched, r.gpu, engine, cfg);
    cfg.name = "b";
    ServingProcess b(r.board, r.sched, r.gpu, engine, cfg);
    ASSERT_TRUE(a.deploy());
    ASSERT_TRUE(b.deploy());
    EXPECT_EQ(&a.engine(), &b.engine());
    // Each server pins its own runtime and engine footprint.
    EXPECT_EQ(r.board.memory().used(),
              2 * (r.board.spec().memory.process_runtime_overhead +
                   engine->deviceBytes()));
}

} // namespace
} // namespace jetsim::workload
