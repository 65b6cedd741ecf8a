/**
 * @file
 * Inference-process tests: deployment, the trtexec loop discipline,
 * pre-enqueue, sync modes, and measurement windows.
 */

#include "workload/inference_process.hh"

#include <gtest/gtest.h>

#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"

namespace jetsim::workload {
namespace {

struct Rig
{
    explicit Rig(soc::DeviceSpec spec = soc::orinNano())
        : board(std::move(spec), eq)
    {
        board.start();
    }

    sim::EventQueue eq;
    soc::Board board;
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};
    graph::Network net = models::resnet50();

    std::unique_ptr<InferenceProcess>
    makeProcess(ProcessConfig cfg = {})
    {
        if (cfg.name == "proc")
            cfg.name = "proc" + std::to_string(counter_++);
        cfg.build.precision = soc::Precision::Int8;
        return std::make_unique<InferenceProcess>(board, sched, gpu,
                                                  net, cfg);
    }

    double
    runOne(ProcessConfig cfg = {})
    {
        auto p = makeProcess(std::move(cfg));
        EXPECT_TRUE(p->deploy());
        p->start();
        eq.runUntil(sim::msec(300));
        p->beginMeasurement();
        eq.runUntil(eq.now() + sim::sec(1));
        p->endMeasurement();
        p->stopEnqueue();
        return p->throughput();
    }

    int counter_ = 0;
};

TEST(Process, DeploysAndPinsMemory)
{
    Rig r;
    auto p = r.makeProcess();
    EXPECT_FALSE(p->deployed());
    ASSERT_TRUE(p->deploy());
    EXPECT_TRUE(p->deployed());
    EXPECT_GT(p->deviceBytes(),
              r.board.spec().memory.process_runtime_overhead);
    EXPECT_EQ(r.board.memory().used(), p->deviceBytes());
}

TEST(Process, MemoryReleasedOnDestruction)
{
    Rig r;
    {
        auto p = r.makeProcess();
        ASSERT_TRUE(p->deploy());
        EXPECT_GT(r.board.memory().used(), 0u);
    }
    EXPECT_EQ(r.board.memory().used(), 0u);
}

TEST(Process, DeployFailsWhenMemoryExhausted)
{
    Rig r;
    // Hog nearly everything first.
    const auto avail = r.board.memory().available();
    r.board.memory().allocate("hog", avail - 10 * sim::kMiB);
    auto p = r.makeProcess();
    EXPECT_FALSE(p->deploy());
    EXPECT_FALSE(p->deployed());
    // The failed deploy leaks nothing.
    EXPECT_EQ(r.board.memory().ownerUsage(p->config().name), 0u);
}

TEST(Process, ProducesThroughput)
{
    Rig r;
    const double tput = r.runOne();
    EXPECT_GT(tput, 100.0);
    EXPECT_LT(tput, 2000.0);
}

TEST(Process, MeasurementWindowExcludesWarmup)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    EXPECT_EQ(p->imagesCompleted(), 0u); // not measuring yet
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->imagesCompleted(), 0u);
    EXPECT_EQ(p->imagesCompleted(), p->ecsCompleted()); // batch 1
}

TEST(Process, BatchMultipliesImagesPerEc)
{
    Rig r;
    ProcessConfig cfg;
    cfg.build.batch = 8;
    auto p = r.makeProcess(std::move(cfg));
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_EQ(p->imagesCompleted(), 8 * p->ecsCompleted());
}

TEST(Process, PreEnqueueLiftsThroughput)
{
    Rig a;
    ProcessConfig with;
    with.pre_enqueue = 1;
    const double pipelined = a.runOne(std::move(with));

    Rig b;
    ProcessConfig without;
    without.pre_enqueue = 0;
    const double serial = b.runOne(std::move(without));

    // The paper: pre-enqueue makes trtexec an *upper bound*.
    EXPECT_GT(pipelined, serial * 1.05);
}

TEST(Process, StopEnqueueDrainsQuietly)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(200));
    p->stopEnqueue();
    // Everything in flight finishes; the queue then goes quiet
    // except for periodic services.
    const auto executed = r.eq.executed();
    r.eq.runUntil(r.eq.now() + sim::msec(100));
    r.eq.runUntil(r.eq.now() + sim::msec(100));
    EXPECT_GT(r.eq.executed(), executed); // governor still ticking
    EXPECT_FALSE(r.board.activity().gpu_busy);
}

TEST(Process, StopEnqueueSyncsTheInFlightTail)
{
    // After stopEnqueue() no EC is enqueued, but every EC already in
    // flight is still synced (the max_ecs rule): measured from the
    // first EC, each launched EC completes and pays one sync return.
    for (const bool spin : {true, false}) {
        Rig r;
        ProcessConfig cfg;
        cfg.spin_wait = spin;
        auto p = r.makeProcess(std::move(cfg));
        ASSERT_TRUE(p->deploy());
        p->beginMeasurement();
        p->start();
        r.eq.runUntil(sim::msec(200));
        p->stopEnqueue();
        const auto launched = p->ecsLaunched();
        r.eq.runUntil(r.eq.now() + sim::msec(100));
        p->endMeasurement();
        EXPECT_LE(p->ecsLaunched(), launched + 1) << spin; // prep in progress
        EXPECT_EQ(p->ecsCompleted(), p->ecsLaunched()) << spin;
        EXPECT_EQ(p->syncSpan().count(), p->ecsCompleted()) << spin;
        EXPECT_EQ(p->blockedTime().count(), p->ecsCompleted()) << spin;
        EXPECT_FALSE(r.board.activity().gpu_busy) << spin;
    }
}

TEST(Process, RecordsKernelLevelMetrics)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->ecPeriod().count(), 0u);
    EXPECT_GT(p->enqueueSpan().mean(), 0.0);
    EXPECT_GT(p->launchApiPerEc().mean(), 0.0);
    EXPECT_GT(p->syncSpan().mean(), 0.0);
    // EC period tracks the throughput reciprocal.
    const double period_s =
        p->ecPeriod().mean() / 1e9;
    EXPECT_NEAR(1.0 / period_s, p->throughput(),
                p->throughput() * 0.1);
}

TEST(Process, BlockingSyncModeAlsoWorks)
{
    Rig r;
    ProcessConfig cfg;
    cfg.spin_wait = false;
    auto p = r.makeProcess(std::move(cfg));
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->throughput(), 100.0);
}

TEST(Process, SpinWaitBurnsMoreCpu)
{
    auto cpu_time = [](bool spin) {
        Rig r;
        ProcessConfig cfg;
        cfg.spin_wait = spin;
        auto p = r.makeProcess(std::move(cfg));
        EXPECT_TRUE(p->deploy());
        p->start();
        r.eq.runUntil(sim::msec(300));
        p->beginMeasurement();
        r.eq.runUntil(r.eq.now() + sim::sec(1));
        p->endMeasurement();
        return p->thread().cpuTime();
    };
    EXPECT_GT(cpu_time(true), 2 * cpu_time(false));
}

} // namespace
} // namespace jetsim::workload
