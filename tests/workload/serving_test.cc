/**
 * @file
 * Open-loop serving tests: queueing behaviour under light load,
 * saturation, and latency growth with offered load.
 */

#include "workload/serving_process.hh"

#include <gtest/gtest.h>

#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "workload/inference_process.hh"
#include "sim/event_queue.hh"

namespace jetsim::workload {
namespace {

struct Rig
{
    Rig()
        : board(soc::orinNano(), eq)
    {
        board.start();
    }

    sim::EventQueue eq;
    soc::Board board;
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};
    graph::Network net = models::resnet50();

    std::unique_ptr<ServingProcess>
    server(double rate, int batch = 1)
    {
        ServingConfig cfg;
        cfg.name = "srv";
        cfg.build.precision = soc::Precision::Int8;
        cfg.build.batch = batch;
        cfg.arrival_rate = rate;
        auto p = std::make_unique<ServingProcess>(board, sched, gpu,
                                                  net, cfg);
        EXPECT_TRUE(p->deploy());
        return p;
    }

    void
    measure(ServingProcess &p, sim::Tick warm = sim::msec(400),
            sim::Tick dur = sim::sec(3))
    {
        p.start();
        eq.runUntil(eq.now() + warm);
        p.beginMeasurement();
        eq.runUntil(eq.now() + dur);
        p.endMeasurement();
        p.stopArrivals();
    }
};

TEST(Serving, LightLoadServesEverything)
{
    Rig r;
    auto p = r.server(50.0); // capacity is ~350 img/s
    r.measure(*p);
    EXPECT_NEAR(p->achievedThroughput(), 50.0, 10.0);
    // No standing queue under light load.
    EXPECT_LE(p->maxQueueDepth(), 4u);
}

TEST(Serving, LightLoadLatencyNearServiceTime)
{
    Rig r;
    auto p = r.server(50.0);
    r.measure(*p);
    // Service time is a few ms (one EC plus prep); queueing adds
    // little at 14 % utilisation.
    EXPECT_LT(p->requestLatency().median() / 1e6, 15.0);
    EXPECT_GT(p->requestLatency().median() / 1e6, 1.0);
}

TEST(Serving, OverloadSaturatesAtCapacity)
{
    Rig r;
    auto p = r.server(2000.0); // far beyond capacity
    r.measure(*p);
    // Achieved rate is the closed-loop capacity ballpark, far below
    // the offered 2000 img/s.
    EXPECT_LT(p->achievedThroughput(), 600.0);
    EXPECT_GT(p->achievedThroughput(), 150.0);
    // The backlog grows without bound.
    EXPECT_GT(p->maxQueueDepth(), 100u);
}

TEST(Serving, SaturatedServerMatchesClosedLoopCapacity)
{
    // The closed loop is the open loop with a queue that never
    // empties: a server offered far more than it can serve runs at
    // the trtexec process's throughput on the same engine, depth and
    // sync mode.
    for (const bool spin : {false, true}) {
        Rig rs;
        ServingConfig scfg;
        scfg.name = "srv";
        scfg.build.precision = soc::Precision::Int8;
        scfg.arrival_rate = 20000.0;
        scfg.spin_wait = spin;
        ServingProcess srv(rs.board, rs.sched, rs.gpu, rs.net, scfg);
        ASSERT_TRUE(srv.deploy());
        rs.measure(srv, sim::msec(400), sim::sec(2));

        Rig rp;
        ProcessConfig pcfg;
        pcfg.build = scfg.build;
        pcfg.pre_enqueue = scfg.pre_enqueue;
        pcfg.prep_cost = scfg.prep_cost;
        pcfg.spin_wait = scfg.spin_wait;
        pcfg.spin_chunk = scfg.spin_chunk;
        InferenceProcess proc(rp.board, rp.sched, rp.gpu, rp.net, pcfg);
        ASSERT_TRUE(proc.deploy());
        proc.start();
        rp.eq.runUntil(sim::msec(400));
        proc.beginMeasurement();
        rp.eq.runUntil(rp.eq.now() + sim::sec(2));
        proc.endMeasurement();
        proc.stopEnqueue();

        EXPECT_GT(srv.maxQueueDepth(), 1000u) << spin; // saturated
        EXPECT_GT(proc.throughput(), 150.0) << spin;
        EXPECT_NEAR(srv.achievedThroughput(), proc.throughput(),
                    0.03 * proc.throughput())
            << spin;
    }
}

TEST(Serving, LatencyGrowsWithOfferedLoad)
{
    double prev = 0.0;
    for (double rate : {50.0, 200.0, 330.0}) {
        Rig r;
        auto p = r.server(rate);
        r.measure(*p);
        const double p99 = p->requestLatency().quantile(0.99);
        EXPECT_GT(p99, prev) << rate;
        prev = p99;
    }
}

TEST(Serving, BatchingTradesLatencyForThroughput)
{
    Rig r1;
    auto b1 = r1.server(300.0, 1);
    r1.measure(*b1);

    Rig r8;
    auto b8 = r8.server(300.0, 8);
    r8.measure(*b8);

    // The batch-8 engine holds the rate easily (more headroom)...
    EXPECT_NEAR(b8->achievedThroughput(), 300.0, 40.0);
    // ...but each request waits for its batch and the longer EC.
    EXPECT_GT(b8->requestLatency().median(),
              b1->requestLatency().median());
}

TEST(Serving, ArrivalsAccountedExactly)
{
    Rig r;
    auto p = r.server(100.0);
    r.measure(*p);
    // Served cannot exceed arrivals within the window by more than
    // what was already queued at the window start.
    EXPECT_LE(p->served(), p->arrived() + 8);
    EXPECT_GT(p->arrived(), 200u); // ~100/s over 3 s
}

TEST(Serving, Deterministic)
{
    auto run = [] {
        Rig r;
        auto p = r.server(150.0);
        r.measure(*p);
        return p->achievedThroughput();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Serving, StopArrivalsDrains)
{
    Rig r;
    auto p = r.server(100.0);
    p->start();
    r.eq.runUntil(sim::msec(500));
    p->stopArrivals();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    EXPECT_FALSE(r.board.activity().gpu_busy);
}

TEST(Serving, DeployFailureIsRecoverable)
{
    Rig r;
    r.board.memory().allocate("hog",
                              r.board.memory().available() -
                                  10 * sim::kMiB);
    ServingConfig cfg;
    cfg.build.precision = soc::Precision::Int8;
    ServingProcess p(r.board, r.sched, r.gpu, r.net, cfg);
    EXPECT_FALSE(p.deploy());
}

TEST(Serving, InjectedArrivalsServeInExternalOnlyMode)
{
    // arrival_rate 0: no local generator; the fleet balancer's
    // injectArrival() path is the only traffic source.
    Rig r;
    auto p = r.server(0.0);
    p->start();
    r.eq.runUntil(sim::msec(1));
    p->beginMeasurement();
    // Inject 50 requests at a steady 10 ms spacing via queue events,
    // each with an origin one dispatch-hop in the past.
    for (int i = 1; i <= 50; ++i)
        r.eq.schedule(r.eq.now() + i * sim::msec(10), [&] {
            p->injectArrival(r.eq.now() - sim::usec(200));
        });
    r.eq.runUntil(r.eq.now() + sim::msec(520));
    p->endMeasurement();
    p->stopArrivals();
    EXPECT_EQ(p->arrived(), 50u);
    EXPECT_GE(p->served(), 45u);
    // The latency clock starts at the balancer-side origin, so every
    // sample includes the 200 us dispatch hop.
    EXPECT_GT(p->requestLatency().min(), sim::usec(200));
}

TEST(Serving, InjectedArrivalsDroppedAfterStop)
{
    Rig r;
    auto p = r.server(0.0);
    p->start();
    p->beginMeasurement();
    p->stopArrivals();
    p->injectArrival(r.eq.now());
    r.eq.runUntil(sim::msec(50));
    p->endMeasurement();
    EXPECT_EQ(p->arrived(), 0u);
    EXPECT_EQ(p->served(), 0u);
}

} // namespace
} // namespace jetsim::workload
