/**
 * @file
 * The per-run engine table: runMixedExperiment and runFleet build one
 * engine per distinct (device, model, precision, batch) key and share
 * it, however many processes or boards deploy it.
 */

#include "core/engine_table.hh"

#include <gtest/gtest.h>

#include "models/zoo.hh"

namespace jetsim::core {
namespace {

trt::BuilderConfig
build(soc::Precision p, int batch)
{
    return trt::BuilderConfig{p, batch};
}

TEST(EngineTable, MixedCellBuildsOnePerDistinctKey)
{
    MixedExperimentSpec spec;
    spec.device = "orin-nano";
    spec.workloads = {
        WorkloadSpec{"resnet50", soc::Precision::Int8, 1, 4},
        WorkloadSpec{"yolov8n", soc::Precision::Fp16, 4, 2},
        // Same key as the first group: it shares that engine.
        WorkloadSpec{"resnet50", soc::Precision::Int8, 1, 1},
        // Same model at another batch: an engine of its own.
        WorkloadSpec{"resnet50", soc::Precision::Int8, 4, 1},
    };
    const EngineTable engines(spec);
    EXPECT_EQ(engines.size(), 3u);

    const auto &a = engines.at("orin-nano", "resnet50",
                               build(soc::Precision::Int8, 1));
    const auto &b = engines.at("orin-nano", "resnet50",
                               build(soc::Precision::Int8, 4));
    ASSERT_TRUE(a && b);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->model(), "resnet50");
    EXPECT_EQ(a->batch(), 1);
    EXPECT_EQ(b->batch(), 4);
    EXPECT_EQ(engines.at("orin-nano", "yolov8n",
                         build(soc::Precision::Fp16, 4))
                  ->requestedPrecision(),
              soc::Precision::Fp16);
}

TEST(EngineTable, EngineMatchesADirectBuild)
{
    MixedExperimentSpec spec;
    spec.device = "nano";
    spec.workloads = {WorkloadSpec{"yolov8n", soc::Precision::Fp16, 4, 3}};
    const EngineTable engines(spec);
    const auto &shared =
        *engines.at("nano", "yolov8n", build(soc::Precision::Fp16, 4));
    const auto direct = trt::Builder(soc::deviceByName("nano"))
                            .build(models::yolov8n(),
                                   build(soc::Precision::Fp16, 4));
    EXPECT_EQ(shared.serialize(), direct.serialize());
}

TEST(EngineTable, LongCellBuildsOneEngineForFourProcesses)
{
    MixedExperimentSpec spec;
    spec.device = "orin-nano";
    spec.workloads = {WorkloadSpec{"resnet50", soc::Precision::Int8, 1, 4}};
    EXPECT_EQ(EngineTable(spec).size(), 1u);
}

TEST(EngineTable, PaperGridBuildsOneEnginePerCell)
{
    // The paper's grid (both boards x paper models x precisions x
    // batch {1, 4, 16} x processes {1, 2, 4, 8}, plus the phase-2
    // cells of figs 5 and 10): one engine per cell instead of one
    // per process.
    std::vector<ExperimentSpec> cells;
    auto cell = [&](const char *device, const std::string &model,
                    soc::Precision p, int batch, int procs) {
        ExperimentSpec s;
        s.device = device;
        s.model = model;
        s.precision = p;
        s.batch = batch;
        s.processes = procs;
        cells.push_back(s);
    };
    for (const char *device : {"orin-nano", "nano"})
        for (const auto &model : models::paperModelNames())
            for (const auto p : soc::kAllPrecisions)
                for (int batch : {1, 4, 16})
                    for (int procs : {1, 2, 4, 8})
                        cell(device, model, p, batch, procs);
    for (const auto &model : models::paperModelNames()) {
        for (const auto p : soc::kAllPrecisions)
            cell("orin-nano", model, p, 1, 1);
        for (int procs : {2, 4, 8})
            cell("orin-nano", model, soc::Precision::Int8, 1, procs);
    }

    std::size_t builds = 0;
    int processes = 0;
    for (const auto &c : cells) {
        builds += EngineTable(c.toMixed()).size();
        processes += c.processes;
    }
    EXPECT_EQ(cells.size(), 309u);
    EXPECT_EQ(builds, 309u);
    EXPECT_EQ(processes, 1134);
}

TEST(EngineTable, ThousandBoardFleetBuildsFourEngines)
{
    // 1000 boards alternating Orin Nano / Nano and ResNet18 /
    // MobileNetV2 at int8 b1: four distinct keys.
    FleetSpec spec;
    for (int i = 0; i < 1000; ++i) {
        FleetDevice d;
        d.device = i % 2 ? "nano" : "orin-nano";
        d.model = (i / 2) % 2 ? "mobilenet_v2" : "resnet18";
        d.precision = soc::Precision::Int8;
        d.batch = 1;
        // Local traffic is not part of the engine key.
        d.local_rate = i % 3;
        spec.devices.push_back(d);
    }
    const EngineTable engines(spec);
    EXPECT_EQ(engines.size(), 4u);
    for (const char *device : {"orin-nano", "nano"})
        for (const char *model : {"resnet18", "mobilenet_v2"}) {
            const auto &e =
                engines.at(device, model, build(soc::Precision::Int8, 1));
            ASSERT_TRUE(e);
            EXPECT_EQ(e->model(), model);
        }
    EXPECT_NE(engines.at("orin-nano", "resnet18",
                         build(soc::Precision::Int8, 1))
                  .get(),
              engines.at("nano", "resnet18", build(soc::Precision::Int8, 1))
                  .get());
}

} // namespace
} // namespace jetsim::core
