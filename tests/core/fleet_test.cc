/**
 * @file
 * Fleet layer: every zoo model on both boards serves balancer
 * traffic cleanly, plus unit coverage of dispatch, latency, labels
 * and determinism. The committed digests are checked against
 * GOLDEN_fleet.json by the `fleet_golden` ctest.
 */

#include "core/fleet.hh"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "check/reporter.hh"
#include "core/digest.hh"

namespace jetsim::core {
namespace {

FleetSpec
cell(const std::string &device, const std::string &model,
     int boards = 4)
{
    FleetSpec spec;
    for (int d = 0; d < boards; ++d) {
        FleetDevice dev;
        dev.device = device;
        dev.model = model;
        dev.precision = soc::Precision::Int8;
        dev.batch = 1;
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = 300.0;
    spec.warmup = sim::msec(15);
    spec.duration = sim::msec(120);
    spec.seed = 7;
    return spec;
}

class FleetZoo
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(FleetZoo, ServesBalancerTrafficCleanly)
{
    check::ScopedCapture cap;
    const auto [device, model] = GetParam();
    const FleetResult r = runFleet(cell(device, model));
    // Completions can be zero on the slow board with heavy models
    // inside a short window — arrivals cannot.
    ASSERT_TRUE(r.all_deployed);
    ASSERT_GT(r.dispatched, 0u);
    std::uint64_t arrived = 0;
    for (const auto &d : r.devices)
        arrived += d.arrived;
    EXPECT_GT(arrived, 0u);
    EXPECT_GT(r.events, 100u);
    EXPECT_EQ(cap.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ZooBothBoards, FleetZoo,
    ::testing::Combine(::testing::Values("orin-nano", "nano"),
                       ::testing::Values("resnet50", "fcn_resnet50",
                                         "yolov8n", "resnet18",
                                         "mobilenet_v2")),
    [](const auto &info) {
        std::string s =
            std::get<0>(info.param) + "_" + std::get<1>(info.param);
        for (auto &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(Fleet, ThousandBoardFleetCompletesBitIdentical)
{
    // 1000 boards behind the two-hop balancer: every board deploys,
    // traffic flows, no invariant fires, and a repeat run gives the
    // same digest. A cheap per-board model keeps it test-sized; the
    // rate is scaled so every board sees traffic.
    check::ScopedCapture cap;
    FleetSpec spec = cell("orin-nano", "mobilenet_v2", 1000);
    spec.balancer_rate = 25.0 * 1000;
    spec.hierarchical = true;
    spec.warmup = sim::msec(4);
    spec.duration = sim::msec(12);
    spec.seed = 23;
    const FleetResult r = runFleet(spec);
    ASSERT_TRUE(r.all_deployed);
    ASSERT_GT(r.dispatched, 0u);
    EXPECT_EQ(resultDigest(runFleet(spec)), resultDigest(r));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Fleet, HierarchicalLatencyIncludesFanoutHop)
{
    FleetSpec flat = cell("orin-nano", "resnet18", 2);
    flat.balancer_rate = 100.0;
    FleetSpec hier = flat;
    hier.hierarchical = true;
    hier.fanout_latency = sim::msec(3);
    const FleetResult a = runFleet(flat);
    const FleetResult b = runFleet(hier);
    ASSERT_GT(a.total_throughput, 0.0);
    EXPECT_GE(b.devices[0].p50_ms, a.devices[0].p50_ms + 2.5);
}

TEST(Fleet, LabelRunLengthCompressesWideFleets)
{
    FleetSpec spec = cell("orin-nano", "mobilenet_v2", 256);
    spec.hierarchical = true;
    const std::string l = spec.label();
    EXPECT_NE(l.find("256x orin-nano/mobilenet_v2/int8 b1"),
              std::string::npos)
        << l;
    EXPECT_NE(l.find(" h"), std::string::npos) << l;
    EXPECT_LT(l.size(), 120u) << l;
    // Heterogeneous runs stay distinct.
    FleetSpec het = cell("orin-nano", "resnet18", 2);
    het.devices[1].model = "yolov8n";
    EXPECT_NE(het.label().find(" + "), std::string::npos);
}

TEST(Fleet, RepeatRunsAreBitIdentical)
{
    const FleetSpec spec = cell("orin-nano", "resnet50", 3);
    EXPECT_EQ(resultDigest(runFleet(spec)),
              resultDigest(runFleet(spec)));
}

TEST(Fleet, BalancerSpreadsLoadRoundRobin)
{
    const FleetSpec spec = cell("orin-nano", "resnet18", 4);
    const FleetResult r = runFleet(spec);
    ASSERT_EQ(r.devices.size(), 4u);
    // Round-robin dispatch: arrivals differ by at most a rotation.
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto &d : r.devices) {
        lo = std::min(lo, d.arrived);
        hi = std::max(hi, d.arrived);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(Fleet, LatencyIncludesDispatchHop)
{
    // Same fleet, two dispatch latencies: the slower network shifts
    // the fleet p50 by at least the added hop.
    FleetSpec fast = cell("orin-nano", "resnet18", 2);
    fast.balancer_rate = 100.0;
    FleetSpec slow = fast;
    slow.dispatch_latency = fast.dispatch_latency + sim::msec(5);
    const FleetResult a = runFleet(fast);
    const FleetResult b = runFleet(slow);
    ASSERT_GT(a.total_throughput, 0.0);
    EXPECT_GE(b.devices[0].p50_ms, a.devices[0].p50_ms + 4.0);
}

TEST(Fleet, LocalTrafficRidesAlongBalancerTraffic)
{
    FleetSpec spec = cell("orin-nano", "resnet18", 2);
    spec.balancer_rate = 80.0;
    FleetSpec with_local = spec;
    with_local.devices[0].local_rate = 60.0;
    const FleetResult base = runFleet(spec);
    const FleetResult extra = runFleet(with_local);
    EXPECT_GT(extra.devices[0].arrived, base.devices[0].arrived);
}

TEST(Fleet, HeterogeneousFleetDigestsStable)
{
    FleetSpec spec;
    const char *const models[] = {"resnet50", "yolov8n",
                                  "mobilenet_v2"};
    const char *const boards[] = {"orin-nano", "nano", "orin-nano"};
    for (int d = 0; d < 3; ++d) {
        FleetDevice dev;
        dev.device = boards[d];
        dev.model = models[d];
        dev.precision = soc::Precision::Fp16;
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = 150.0;
    spec.warmup = sim::msec(10);
    spec.duration = sim::msec(40);
    const FleetResult r = runFleet(spec);
    ASSERT_TRUE(r.all_deployed);
    for (const auto &d : r.devices)
        EXPECT_GT(d.arrived, 0u) << d.name;
    EXPECT_EQ(resultDigest(runFleet(spec)), resultDigest(r));
}

} // namespace
} // namespace jetsim::core
