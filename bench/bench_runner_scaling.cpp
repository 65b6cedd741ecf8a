/**
 * @file
 * Runner scaling baseline: serial vs parallel wall-clock for a fixed
 * reference grid, plus the warm-cache path, recorded as
 * BENCH_runner.json so the perf trajectory of the sweep loop is
 * tracked PR over PR.
 *
 * The reference grid is the paper's concurrency sweep shape: ResNet50
 * and YOLOv8n, batch {1,2,4,8} x processes {1,2,4} on orin-nano —
 * 24 cells. Each thread count runs the identical grid; digests are
 * cross-checked so the bench doubles as a determinism smoke test.
 *
 * Usage: bench_runner_scaling [out.json]   (default BENCH_runner.json)
 */

#include "bench_util.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "core/digest.hh"
#include "core/result_cache.hh"
#include "core/runner.hh"

using namespace jetsim;

namespace {

std::vector<core::ExperimentSpec>
referenceGrid()
{
    std::vector<core::ExperimentSpec> specs;
    for (const char *model : {"resnet50", "yolov8n"}) {
        for (const int procs : {1, 2, 4}) {
            for (const int batch : {1, 2, 4, 8}) {
                core::ExperimentSpec s;
                s.device = "orin-nano";
                s.model = model;
                s.precision = soc::Precision::Fp16;
                s.batch = batch;
                s.processes = procs;
                bench::applyBenchTiming(s);
                specs.push_back(s);
            }
        }
    }
    return specs;
}

double
wallSeconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_runner.json";
    const auto specs = referenceGrid();
    const unsigned cores = std::thread::hardware_concurrency();

    prof::printHeading(std::cout, "Runner scaling (reference grid)");
    std::printf("grid: %zu cells, host cores: %u\n", specs.size(),
                cores);

    struct Row
    {
        int threads;
        double wall_s;
        double cells_per_s;
    };
    std::vector<Row> rows;
    std::vector<std::uint64_t> reference;

    for (const int threads : {1, 2, 4, 8}) {
        core::Runner runner(threads);
        std::vector<core::ExperimentResult> results;
        const double wall =
            wallSeconds([&] { results = runner.run(specs); });

        std::vector<std::uint64_t> digests;
        digests.reserve(results.size());
        for (const auto &r : results)
            digests.push_back(core::resultDigest(r));
        if (reference.empty()) {
            reference = digests;
        } else if (digests != reference) {
            std::fprintf(stderr,
                         "bench_runner_scaling: digests at %d "
                         "threads diverge from serial!\n",
                         threads);
            return 1;
        }

        rows.push_back({threads, wall,
                        static_cast<double>(specs.size()) / wall});
        std::printf("  threads=%d  wall=%.3fs  cells/s=%.1f\n",
                    threads, wall, rows.back().cells_per_s);
    }

    // Warm-cache replay: the same grid served from the result cache.
    const std::string cache_dir = out_path + ".cache";
    double cold_s = 0;
    double warm_s = 0;
    {
        core::Runner cold(1, cache_dir);
        cold_s = wallSeconds([&] { cold.run(specs); });
        core::Runner warm(1, cache_dir);
        warm_s = wallSeconds([&] {
            const auto results = warm.run(specs);
            for (std::size_t i = 0; i < results.size(); ++i) {
                if (core::resultDigest(results[i]) != reference[i]) {
                    std::fprintf(stderr,
                                 "bench_runner_scaling: cached cell "
                                 "%zu diverges!\n",
                                 i);
                    std::exit(1);
                }
            }
        });
        if (warm.cacheStats().hits != specs.size()) {
            std::fprintf(stderr, "bench_runner_scaling: expected all "
                                 "cells cached\n");
            return 1;
        }
        std::filesystem::remove_all(cache_dir);
    }
    std::printf("  cache: cold=%.3fs warm=%.3fs (speedup %.1fx)\n",
                cold_s, warm_s, warm_s > 0 ? cold_s / warm_s : 0.0);

    const double speedup4 = rows[0].wall_s / rows[2].wall_s;
    std::printf("  speedup at 4 threads: %.2fx\n", speedup4);

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << "{\n  \"bench\": \"runner_scaling\",\n";
    out << "  \"host\": \"" << bench::hostNote() << "\",\n";
    out << "  \"grid_cells\": " << specs.size() << ",\n";
    out << "  \"host_cores\": " << cores << ",\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "    {\"threads\": %d, \"wall_s\": %.4f, "
                      "\"cells_per_s\": %.2f}%s\n",
                      rows[i].threads, rows[i].wall_s,
                      rows[i].cells_per_s,
                      i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"speedup_4_threads\": %.3f,\n"
                  "  \"cache_cold_s\": %.4f,\n"
                  "  \"cache_warm_s\": %.4f,\n"
                  "  \"cache_speedup\": %.2f,\n"
                  "  \"deterministic_across_thread_counts\": true\n}\n",
                  speedup4, cold_s, warm_s,
                  warm_s > 0 ? cold_s / warm_s : 0.0);
    out << buf;
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
