/**
 * @file
 * jetbench: the simulator's benchmark.
 *
 *   jetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--expect <hex>] [--commit <id>] [--source <hex>]
 *            [--work-dir <dir>]
 *
 * With --trace 0 it alternates set-up samples with repetitions of the
 * workload's job for --seconds and prints every end-to-end metric from
 * the fastest samples (see EndToEnd). With --trace 1 it replays the job through the library's public classes
 * with spans around each call and prints the per-layer metrics. All
 * times are host times. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 * Every library job is an operation. It fails if JetSan (Count mode)
 * reports a violation during it, if its result digest disagrees with
 * the first repetition of the same job, if the workload's combined
 * digest differs from --expect (the digest recorded for the default
 * seed), if a cache lookup that must hit misses, or, in the traced
 * run, if a replay does not reproduce the library's result exactly.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "build_info.hh"
#include "check/check.hh"
#include "check/digest.hh"
#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/fleet.hh"
#include "core/profiler.hh"
#include "core/result_cache.hh"
#include "core/runner.hh"
#include "probes.hh"
#include "replay.hh"
#include "trace.hh"
#include "util.hh"
#include "workloads.hh"

using namespace jetsim;
using namespace jetbench;

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ options

struct Args
{
    Workload workload = Workload::LongCell;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::optional<std::uint64_t> expect;
    std::string commit = "unknown";
    std::string source = "unknown";
    std::string work_dir = ".bench_build/jetbench-work";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "jetbench: %s\nusage: jetbench --workload "
                 "<long_cell|paper_sweep|sweep_cached> "
                 "--seed <n> --seconds <s> --trace <0|1> [--expect <hex>] "
                 "[--commit <id>] [--source <hex>] [--work-dir <dir>]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            const auto w = workloadByName(val);
            if (!w)
                usage(("unknown workload " + val).c_str());
            a.workload = *w;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            a.trace = std::strtol(val.c_str(), &end, 10) != 0;
        } else if (key == "--expect") {
            a.expect = std::strtoull(val.c_str(), &end, 16);
        } else if (key == "--commit") {
            a.commit = val;
        } else if (key == "--source") {
            a.source = val;
        } else if (key == "--work-dir") {
            a.work_dir = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end)
            usage(("bad value for " + key + ": " + val).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

// ------------------------------------------------------- host record

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            auto v = line.substr(colon == std::string::npos ? line.size()
                                                            : colon + 1);
            v.erase(0, v.find_first_not_of(' '));
            return v;
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printHost(const Args &a)
{
    const std::string type = build::kBuildType;
    const std::string flags = build::kCxxFlags;
    std::string why;
    if (type.empty() || type == "Debug")
        why = "unoptimised build type '" + type + "'";
    else if (flags.find("-fsanitize") != std::string::npos)
        why = "sanitizer build";
    else if (!JETSIM_ENABLE_CHECKS)
        why = "JetSan checks compiled out";
    std::printf(
        "host {\"hardware_concurrency\": %u, \"cpu_model\": \"%s\", "
        "\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
        "\"jetsim_checks\": %d, \"commit\": \"%s\", \"source\": \"%s\", "
        "\"comparable\": %s, \"not_comparable_reason\": \"%s\"}\n",
        std::thread::hardware_concurrency(), jsonEscape(cpuModel()).c_str(),
        build::kCompilerId, build::kCompilerVersion, type.c_str(),
        JETSIM_ENABLE_CHECKS ? 1 : 0, jsonEscape(a.commit).c_str(),
        jsonEscape(a.source).c_str(), why.empty() ? "true" : "false",
        jsonEscape(why).c_str());
}

/** Peak resident set of this process. VmHWM belongs to the process's
 * own address space; getrusage's ru_maxrss would carry over the
 * launcher's peak across exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
}

// ------------------------------------------------- correctness ledger

/** Fold per-operation digests into one workload digest. */
std::uint64_t
combine(const std::vector<std::uint64_t> &digests)
{
    check::Digest d;
    for (const auto x : digests)
        d.add(x);
    return d.value();
}

/** Counts operations and failures; see the file comment. */
class Ledger
{
  public:
    explicit Ledger(std::optional<std::uint64_t> expect) : expect_(expect)
    {
    }

    /** Mark the start of a batch of operations (JetSan baseline). */
    void begin() { violations_ = check::Reporter::instance().total(); }

    /**
     * Account one repetition of the job named @p job: its per-op
     * digests are compared with the job's first repetition and, when
     * @p recorded, their combination with the recorded digest.
     * @p extra_failed adds failures found by the caller. Returns the
     * combined digest.
     */
    std::uint64_t
    finish(const std::string &job, const std::vector<std::uint64_t> &ops,
           bool recorded, std::uint64_t extra_failed = 0)
    {
        const std::uint64_t n = ops.size();
        std::uint64_t bad = extra_failed;
        auto [it, first] = first_.try_emplace(job, ops);
        if (!first && it->second.size() != n)
            bad = n;
        else if (!first)
            for (std::size_t i = 0; i < n; ++i)
                bad += it->second[i] != ops[i];
        const std::uint64_t combined = combine(ops);
        if (recorded && expect_ && combined != *expect_)
            bad = n;
        const std::uint64_t v =
            check::Reporter::instance().total() - violations_;
        bad = std::min<std::uint64_t>(n, bad + v);
        attempted_ += n;
        failed_ += bad;
        if (bad)
            std::fprintf(stderr, "jetbench: %s: %" PRIu64 " of %" PRIu64
                                 " operations failed (%" PRIu64
                                 " JetSan violations)\n",
                         job.c_str(), bad, n, v);
        return combined;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::optional<std::uint64_t> expect_;
    std::map<std::string, std::vector<std::uint64_t>> first_;
    std::uint64_t violations_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

template <typename R>
std::vector<std::uint64_t>
digests(const std::vector<R> &rs)
{
    std::vector<std::uint64_t> d;
    for (const auto &r : rs)
        d.push_back(core::resultDigest(r));
    return d;
}

// ------------------------------------------------------------ metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

double
secondsOf(double t0_ns)
{
    return (nowNs() - t0_ns) / 1e9;
}

/** Most worker threads any runner of this run resolved to; printed so
 * the self-test can show JETSIM_THREADS does not reach the runners. */
int g_runner_threads = 0;

void
noteThreads(const core::Runner &r)
{
    g_runner_threads = std::max(g_runner_threads, r.threads());
}

core::Runner::Options
runnerOptions(int threads, const std::string &dir = "")
{
    // Explicit threads and cache; env_cache=false so JETSIM_CACHE_DIR
    // cannot turn a measured simulation into a cache hit.
    return core::Runner::Options{threads, dir, /*env_cache=*/false};
}

/** Nominal simulated seconds of the cells that deployed and ran. */
double
deployedSimSeconds(const std::vector<core::ExperimentResult> &rs)
{
    double s = 0;
    for (const auto &r : rs)
        if (r.all_deployed)
            s += nominalSimSeconds(r.spec);
    return s;
}

/** A fresh, empty directory under the work dir. */
std::string
freshDir(const Args &a, const std::string &tag)
{
    const fs::path p = fs::path(a.work_dir) /
                       (tag + "-" + std::to_string(::getpid()));
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

// --------------------------------------------- end-to-end (trace 0)

/**
 * A repetition of a job is timed in one or more fixed segments; each
 * speed metric is the job's work over the sum of every segment's
 * fastest time, and setup_s is the fastest set-up sample. On a shared
 * host, other tenants only ever slow a repetition down, in episodes
 * that can outlast a whole run; the shorter a timed segment, the more
 * likely a run holds quiet stretches that fit it (see README.md). The
 * series lines print the quartiles of whole repetitions as well.
 */
struct EndToEnd
{
    double sim_seconds = 0; ///< simulated seconds one repetition advances
    double jobs = 0;        ///< cells one repetition completes
    std::vector<std::vector<double>> segment_s; ///< [segment][repetition]
    std::vector<double> setup_s;                ///< per sample
    std::uint64_t combined = 0;

    void
    time(std::size_t segment, double seconds)
    {
        if (segment_s.size() <= segment)
            segment_s.resize(segment + 1);
        segment_s[segment].push_back(seconds);
    }

    /** Host seconds of each whole repetition. */
    std::vector<double>
    repetitions() const
    {
        std::vector<double> reps(segment_s.front().size(), 0.0);
        for (const auto &seg : segment_s)
            for (std::size_t i = 0; i < reps.size(); ++i)
                reps[i] += seg[i];
        return reps;
    }

    /** Sum over segments of each one's fastest time. */
    double
    best() const
    {
        double sum = 0;
        for (const auto &seg : segment_s)
            sum += quantile(seg, 0.0);
        return sum;
    }
};

/**
 * Alternate @p setups_per_rep set-up samples with one measured
 * repetition, for @p seconds and at least three repetitions. Set-up
 * is sampled across the whole run, not in one burst before it, so that
 * its fastest sample, like the job's, comes from the run's quietest
 * moments.
 */
template <typename Setup, typename Rep>
void
interleave(double seconds, int setups_per_rep, Setup &&setup, Rep &&rep)
{
    const double t0 = nowNs();
    for (int reps = 0; reps < 3 || secondsOf(t0) < seconds; ++reps) {
        for (int i = 0; i < setups_per_rep; ++i)
            setup();
        rep();
    }
}

EndToEnd
measureLongCell(const Args &a, Ledger &ledger)
{
    EndToEnd e;
    const auto spec = longCellSpec(a.seed);
    const auto tick = oneTick(spec);
    e.sim_seconds = nominalSimSeconds(spec);
    e.jobs = 1;
    // One one-tick cell takes under a millisecond: each set-up sample
    // times a batch of them back to back and reports the mean.
    constexpr int kSetupBatch = 40;
    interleave(
        a.seconds, 1,
        [&] {
            std::vector<core::MixedExperimentResult> rs;
            rs.reserve(kSetupBatch);
            ledger.begin();
            const double t0 = nowNs();
            for (int i = 0; i < kSetupBatch; ++i)
                rs.push_back(core::runMixedExperiment(tick));
            e.setup_s.push_back(secondsOf(t0) / kSetupBatch);
            ledger.finish("setup", digests(rs), false);
        },
        [&] {
            ledger.begin();
            const double t0 = nowNs();
            const auto r = core::runMixedExperiment(spec);
            e.time(0, secondsOf(t0));
            e.combined =
                ledger.finish("cell", {core::resultDigest(r)}, true);
        });
    return e;
}

/**
 * The grid in the runner batches paper_sweep times: consecutive cells
 * of one board and model in phase 1, and the Deep cells. A whole grid
 * at four threads takes about half a second, too long to find quiet
 * stretches on a busy host; one batch takes a few tens of ms.
 */
std::vector<std::vector<core::ExperimentSpec>>
sweepBatches(const std::vector<core::ExperimentSpec> &specs)
{
    std::vector<std::vector<core::ExperimentSpec>> batches;
    auto key = [](const core::ExperimentSpec &s) {
        return s.phase == core::Phase::Deep ? std::string("deep")
                                            : s.device + "/" + s.model;
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i == 0 || key(specs[i]) != key(specs[i - 1]))
            batches.emplace_back();
        batches.back().push_back(specs[i]);
    }
    return batches;
}

EndToEnd
measurePaperSweep(const Args &a, Ledger &ledger)
{
    EndToEnd e;
    const auto specs = paperSweepSpecs(a.seed);
    const auto batches = sweepBatches(specs);
    std::vector<core::ExperimentSpec> ticks;
    for (const auto &s : specs)
        ticks.push_back(oneTick(s));
    e.jobs = static_cast<double>(specs.size());
    core::Runner runner(runnerOptions(sweepThreads()));
    noteThreads(runner);
    interleave(
        a.seconds, 1,
        [&] {
            ledger.begin();
            const double t0 = nowNs();
            const auto rs = runner.run(ticks);
            e.setup_s.push_back(secondsOf(t0));
            ledger.finish("setup", digests(rs), false);
        },
        [&] {
            std::vector<core::ExperimentResult> rs;
            ledger.begin();
            for (std::size_t b = 0; b < batches.size(); ++b) {
                const double t0 = nowNs();
                auto out = runner.run(batches[b]);
                e.time(b, secondsOf(t0));
                std::move(out.begin(), out.end(), std::back_inserter(rs));
            }
            e.sim_seconds = deployedSimSeconds(rs);
            e.combined = ledger.finish("sweep", digests(rs), true);
        });
    return e;
}

/** Cache misses a runner saw since @p before: each is a failed load. */
std::uint64_t
missesSince(const core::Runner &r, const core::RunnerCacheStats &before)
{
    return r.cacheStats().misses - before.misses;
}

EndToEnd
measureSweepCached(const Args &a, Ledger &ledger)
{
    EndToEnd e;
    const auto specs = paperSweepSpecs(a.seed);
    e.jobs = static_cast<double>(specs.size());
    // Ten rounds of a tenth of the run each: a set-up sample, then
    // warm passes. Set-up is the cold pass that simulates and stores
    // every cell into a fresh directory, which then serves the round's
    // warm passes: every cell must hit.
    constexpr int kRounds = 10;
    for (int round = 0; round < kRounds; ++round) {
        const double round_start = nowNs();
        const std::string dir = freshDir(a, "cache");
        {
            core::Runner cold(runnerOptions(sweepThreads(), dir));
            noteThreads(cold);
            ledger.begin();
            const double t0 = nowNs();
            const auto rs = cold.run(specs);
            e.setup_s.push_back(secondsOf(t0));
            const auto st = cold.cacheStats();
            ledger.finish("sweep", digests(rs), true,
                          specs.size() - std::min<std::uint64_t>(
                                             specs.size(), st.stores));
        }
        core::Runner warm(runnerOptions(sweepThreads(), dir));
        noteThreads(warm);
        interleave(
            a.seconds / kRounds - secondsOf(round_start), 0, [] {},
            [&] {
                const auto before = warm.cacheStats();
                ledger.begin();
                const double t0 = nowNs();
                const auto rs = warm.run(specs);
                e.time(0, secondsOf(t0));
                e.sim_seconds = deployedSimSeconds(rs);
                e.combined = ledger.finish("sweep", digests(rs), true,
                                           missesSince(warm, before));
            });
        fs::remove_all(dir);
    }
    return e;
}

Metrics
endToEnd(const Args &a, Ledger &ledger, std::uint64_t &combined)
{
    EndToEnd e;
    switch (a.workload) {
    case Workload::LongCell: e = measureLongCell(a, ledger); break;
    case Workload::PaperSweep: e = measurePaperSweep(a, ledger); break;
    case Workload::SweepCached: e = measureSweepCached(a, ledger); break;
    }
    combined = e.combined;
    std::vector<double> sim_speed, cells_per_s;
    for (const double rep : e.repetitions()) {
        sim_speed.push_back(e.sim_seconds / rep);
        cells_per_s.push_back(e.jobs / rep);
    }
    for (const auto &[label, series] :
         {std::pair{"sim_speed", &sim_speed},
          std::pair{"cells_per_s", &cells_per_s},
          std::pair{"setup_s", &e.setup_s}}) {
        const auto &v = *series;
        std::printf("series %-12s n=%zu min=%.6g p10=%.6g p25=%.6g "
                    "p50=%.6g p75=%.6g p90=%.6g max=%.6g\n",
                    label, v.size(), quantile(v, 0), quantile(v, 0.1),
                    quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75),
                    quantile(v, 0.9), quantile(v, 1));
    }
    return {
        {"sim_speed", e.sim_seconds / e.best(), "s/s"},
        {"cells_per_s", e.jobs / e.best(), "1/s"},
        {"setup_s", quantile(e.setup_s, 0.0), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

// ------------------------------------------------- per-layer (trace 1)

/** Every per-layer metric, in output order, with its unit. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"models.graph_build_us", "us"},
    {"models.graph_builds", "count"},
    {"trt.engine_build_us", "us"},
    {"trt.engine_builds", "count"},
    {"trt.distinct_engines", "count"},
    {"workload.deploy_us", "us"},
    {"workload.deploy_failures", "count"},
    {"soc.board_setup_us", "us"},
    {"core.fleet_setup_share", "share"},
    {"sim.events", "count"},
    {"sim.window_ns_per_event", "ns"},
    {"sim.peak_pending", "count"},
    {"sim.sbo_misses", "count"},
    {"sim.queue_ns_per_event", "ns"},
    {"gpu.cost_model_ns", "ns"},
    {"gpu.submit_ns", "ns"},
    {"gpu.kernels", "count"},
    {"soc.freq_frac_ns", "ns"},
    {"soc.board_update_ns", "ns"},
    {"cpu.slice_ns", "ns"},
    {"cpu.preemptions", "count"},
    {"cpu.migrations", "count"},
    {"prof.deep_ns_per_event", "ns"},
    {"prof.kernel_records", "count"},
    {"core.cell_ms_p50", "ms"},
    {"core.cell_ms_p90", "ms"},
    {"core.setup_share", "share"},
    {"core.runner_efficiency_1", "ratio"},
    {"core.runner_efficiency_2", "ratio"},
    {"core.runner_efficiency_n", "ratio"},
    {"core.cache_load_us", "us"},
    {"core.cache_store_us", "us"},
    {"core.cache_entry_bytes", "bytes"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.self_ms", "ms"},
    {"soc.self_ms", "ms"},
    {"models.self_ms", "ms"},
    {"workload.self_ms", "ms"},
    {"prof.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"cache.self_ms", "ms"},
    {"tracing.overhead", "ratio"},
    {"tracing.uncovered_share", "share"},
    {"tracing.spans", "count"},
};

/** Per-layer values by name; a layer the workload never calls keeps
 * its 0. */
using Layers = std::map<std::string, double>;

/** Mean duration in us of the spans named @p name (0 if none). */
double
meanUs(const Tracer &t, const char *name)
{
    const auto n = t.count(name);
    return n ? t.totalNs(name) / 1e3 / static_cast<double>(n) : 0.0;
}

/** Counters summed over replayed cells. */
struct CellTotals
{
    std::uint64_t events = 0, peak = 0, sbo = 0, kernels = 0,
                  preempt = 0, migr = 0, records = 0;
    std::uint64_t light_events = 0, deep_events = 0;
    double light_ns = 0, deep_ns = 0;
    int graph_builds = 0, deploys = 0, deploy_failures = 0;

    void
    add(const CellReplay &r, bool deep)
    {
        events += r.events;
        peak = std::max(peak, r.peak_pending);
        sbo += r.sbo_misses;
        kernels += r.kernels;
        preempt += r.preemptions;
        migr += r.migrations;
        records += r.kernel_records;
        (deep ? deep_events : light_events) += r.window_events;
        (deep ? deep_ns : light_ns) += r.window_ns;
        graph_builds += r.graph_builds;
        deploys += r.deploys;
        deploy_failures += r.deploy_failures;
    }

    void
    report(Layers &l) const
    {
        l["models.graph_builds"] = graph_builds;
        l["trt.engine_builds"] = deploys; // every deploy builds one
        l["workload.deploy_failures"] = deploy_failures;
        l["sim.events"] = static_cast<double>(events);
        l["sim.peak_pending"] = static_cast<double>(peak);
        l["sim.sbo_misses"] = static_cast<double>(sbo);
        l["gpu.kernels"] = static_cast<double>(kernels);
        l["cpu.preemptions"] = static_cast<double>(preempt);
        l["cpu.migrations"] = static_cast<double>(migr);
        l["prof.kernel_records"] = static_cast<double>(records);
        if (light_events)
            l["sim.window_ns_per_event"] =
                light_ns / static_cast<double>(light_events);
        if (deep_events)
            l["prof.deep_ns_per_event"] =
                deep_ns / static_cast<double>(deep_events);
    }
};

std::vector<EngineConfig>
enginesOf(const std::vector<core::ExperimentSpec> &specs)
{
    std::set<std::tuple<std::string, std::string, int, int>> seen;
    std::vector<EngineConfig> out;
    for (const auto &s : specs)
        if (seen.emplace(s.device, s.model, static_cast<int>(s.precision),
                         s.batch)
                .second) {
            EngineConfig e{s.device, s.model, {}};
            e.build.precision = s.precision;
            e.build.batch = s.batch;
            out.push_back(e);
        }
    return out;
}

/** A serial runner pass: its results and combined digest. */
struct SerialPass
{
    std::vector<core::ExperimentResult> results;
    std::uint64_t combined = 0;
};

/** Runner efficiency at 1, 2 and sweepThreads() threads: the summed
 * serial cell times over (threads x wall). Also sets the per-cell
 * serial time quantiles. */
SerialPass
runnerLayer(const std::vector<core::ExperimentSpec> &specs,
            const std::string &dir, Layers &l, Ledger &ledger,
            const std::string &job)
{
    core::Runner serial(runnerOptions(1, dir));
    noteThreads(serial);
    std::vector<double> starts;
    ledger.begin();
    const double t0 = nowNs();
    SerialPass pass;
    pass.results = serial.run(specs, [&](const std::string &) {
        starts.push_back(nowNs());
    });
    const double wall1 = secondsOf(t0);
    starts.push_back(nowNs());
    pass.combined =
        ledger.finish(job, digests(pass.results), true,
                      dir.empty() ? 0 : missesSince(serial, {}));
    std::vector<double> cell_ms;
    double sum_s = 0;
    for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
        cell_ms.push_back((starts[i + 1] - starts[i]) / 1e6);
        sum_s += (starts[i + 1] - starts[i]) / 1e9;
    }
    l["core.cell_ms_p50"] = quantile(cell_ms, 0.5);
    l["core.cell_ms_p90"] = quantile(cell_ms, 0.9);
    l["core.runner_efficiency_1"] = sum_s / wall1;
    std::uint64_t hits = serial.cacheStats().hits;
    std::uint64_t misses = dir.empty() ? 0 : serial.cacheStats().misses;
    for (const int threads : {2, sweepThreads()}) {
        core::Runner r(runnerOptions(threads, dir));
        noteThreads(r);
        ledger.begin();
        const double t = nowNs();
        const auto out = r.run(specs);
        const double wall = secondsOf(t);
        ledger.finish(job, digests(out), true,
                      dir.empty() ? 0 : missesSince(r, {}));
        l[threads == 2 ? "core.runner_efficiency_2"
                       : "core.runner_efficiency_n"] =
            sum_s / (threads * wall);
        hits += r.cacheStats().hits;
        misses += dir.empty() ? 0 : r.cacheStats().misses;
    }
    if (!dir.empty()) {
        l["core.cache_hits"] = static_cast<double>(hits);
        l["core.cache_misses"] = static_cast<double>(misses);
    }
    return pass;
}

/** Result of one traced (or untraced) replay of a workload's job. */
struct ReplayRun
{
    std::uint64_t jobs = 0; ///< cells or cache loads replayed
    double wall_s = 0;
    std::uint64_t mismatches = 0;
    CellTotals totals;
};

ReplayRun
replayCells(const std::vector<core::MixedExperimentSpec> &specs,
            const std::vector<core::ExperimentResult> *lib_single,
            const core::MixedExperimentResult *lib_mixed, Tracer &t)
{
    ReplayRun out;
    out.jobs = specs.size();
    const double t0 = nowNs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto r = replayCell(specs[i], t, static_cast<int>(i));
        const bool ok =
            lib_single ? matches(r, (*lib_single)[i].procs,
                                 (*lib_single)[i].all_deployed)
                       : matches(r, lib_mixed->procs,
                                 lib_mixed->all_deployed);
        out.mismatches += !ok;
        out.totals.add(r, specs[i].phase == core::Phase::Deep);
    }
    out.wall_s = secondsOf(t0);
    return out;
}

/**
 * Run @p job untraced and traced, alternately, five times each, and
 * fill the per-layer metrics from the fastest traced run;
 * tracing.overhead compares the fastest run of each kind.
 */
template <typename Job>
void
tracedPair(const Args &a, Layers &l, Ledger &ledger, Job &&job)
{
    double untraced_s = 0;
    std::optional<Tracer> on;
    std::optional<ReplayRun> traced;
    double t0 = 0, t1 = 0;
    for (int rep = 0; rep < 5; ++rep) {
        Tracer off(false);
        ledger.begin();
        const auto u = job(off);
        ledger.finish("replay-untraced",
                      std::vector<std::uint64_t>(u.jobs, 0), false,
                      u.mismatches);
        if (rep == 0 || u.wall_s < untraced_s)
            untraced_s = u.wall_s;

        Tracer t(true);
        ledger.begin();
        const double start = nowNs();
        auto r = job(t);
        const double end = nowNs();
        ledger.finish("replay-traced", std::vector<std::uint64_t>(r.jobs, 0),
                      false, r.mismatches);
        if (r.mismatches)
            std::fprintf(stderr,
                         "jetbench: trace rejected: %" PRIu64
                         " replayed jobs differ from the library's result\n",
                         r.mismatches);
        if (!traced || r.wall_s < traced->wall_s) {
            traced = std::move(r);
            on = std::move(t);
            t0 = start;
            t1 = end;
        }
    }

    traced->totals.report(l);
    l["models.graph_build_us"] = meanUs(*on, "models.graph_build");
    l["workload.deploy_us"] = meanUs(*on, "workload.deploy");
    l["soc.board_setup_us"] = meanUs(*on, "soc.board_setup");
    const double setup_ns = on->totalNs("models.graph_build") +
                            on->totalNs("workload.deploy") +
                            on->totalNs("soc.board_setup") +
                            on->totalNs("prof.attach");
    l["core.setup_share"] = setup_ns / (t1 - t0);
    for (const auto &[layer, ns] : on->selfNsByLayer())
        l[layer + ".self_ms"] = ns / 1e6;
    l["tracing.overhead"] = traced->wall_s / untraced_s;
    l["tracing.uncovered_share"] = 1.0 - on->coveredNs(t0, t1) / (t1 - t0);
    l["tracing.spans"] = static_cast<double>(on->spans().size());

    const fs::path out = fs::path(a.work_dir) /
                         ("trace-" + std::string(name(a.workload)) +
                          "-seed" + std::to_string(a.seed) + ".json");
    if (on->write(out.string()))
        std::printf("trace written to %s\n", out.c_str());
}

void
applyProbes(Layers &l, const std::vector<EngineConfig> &engines)
{
    const auto p = runProbes(engines);
    l["trt.engine_build_us"] = p.engine_build_us;
    l["trt.distinct_engines"] = static_cast<double>(engines.size());
    l["sim.queue_ns_per_event"] = p.queue_ns_per_event;
    l["gpu.cost_model_ns"] = p.cost_model_ns;
    l["gpu.submit_ns"] = p.submit_ns;
    l["soc.freq_frac_ns"] = p.freq_frac_ns;
    l["soc.board_update_ns"] = p.board_update_ns;
    l["cpu.slice_ns"] = p.slice_ns;
}

void
traceLongCell(const Args &a, Layers &l, Ledger &ledger,
              std::uint64_t &combined)
{
    const auto spec = longCellSpec(a.seed);
    ledger.begin();
    const double t0 = nowNs();
    const auto lib = core::runMixedExperiment(spec);
    const double cell_ms = secondsOf(t0) * 1e3;
    combined = ledger.finish("cell", {core::resultDigest(lib)}, true);
    l["core.cell_ms_p50"] = cell_ms;
    l["core.cell_ms_p90"] = cell_ms;

    tracedPair(a, l, ledger, [&](Tracer &t) {
        return replayCells({spec}, nullptr, &lib, t);
    });

    // The same cell in phase 2 (Nsight attached), for the profiler's
    // cost per event next to the phase-1 window cost.
    auto deep = spec;
    deep.phase = core::Phase::Deep;
    ledger.begin();
    const auto deep_lib = core::runMixedExperiment(deep);
    ledger.finish("deep-cell", {core::resultDigest(deep_lib)}, false);
    Tracer off(false);
    ledger.begin();
    const auto d = replayCells({deep}, nullptr, &deep_lib, off);
    ledger.finish("deep-replay", {0}, false, d.mismatches);
    l["prof.deep_ns_per_event"] =
        d.totals.deep_ns / static_cast<double>(d.totals.deep_events);
    l["prof.kernel_records"] = static_cast<double>(d.totals.records);

    const auto &w = spec.workloads.front();
    EngineConfig e{spec.device, w.model, {}};
    e.build.precision = w.precision;
    e.build.batch = w.batch;
    applyProbes(l, {e});
}

/**
 * core.fleet_setup_share: set-up's share of a 1000-board runFleet, as
 * a one-tick fleet over the full one (fastest of three each). runFleet
 * builds its boards inside the call, so this share is all of the fleet
 * set-up the public API shows.
 */
void
fleetSetupShare(std::uint64_t seed, Layers &l, Ledger &ledger)
{
    const auto spec = fleetSpec(seed);
    double wall = 0, setup = 0;
    for (int rep = 0; rep < 3; ++rep) {
        ledger.begin();
        double t0 = nowNs();
        const auto full = core::runFleet(spec);
        const double w = secondsOf(t0);
        ledger.finish("fleet", {core::resultDigest(full)}, false);

        ledger.begin();
        t0 = nowNs();
        const auto tick = core::runFleet(oneTick(spec));
        const double s = secondsOf(t0);
        ledger.finish("fleet-setup", {core::resultDigest(tick)}, false);
        wall = rep == 0 ? w : std::min(wall, w);
        setup = rep == 0 ? s : std::min(setup, s);
    }
    l["core.fleet_setup_share"] = setup / wall;
}

void
tracePaperSweep(const Args &a, Layers &l, Ledger &ledger,
                std::uint64_t &combined)
{
    const auto specs = paperSweepSpecs(a.seed);
    const auto serial = runnerLayer(specs, "", l, ledger, "sweep");
    const auto &lib = serial.results;
    combined = serial.combined;

    std::vector<core::MixedExperimentSpec> mixed;
    for (const auto &s : specs)
        mixed.push_back(toMixed(s));
    tracedPair(a, l, ledger, [&](Tracer &t) {
        return replayCells(mixed, &lib, nullptr, t);
    });
    applyProbes(l, enginesOf(specs));
    fleetSetupShare(a.seed, l, ledger);
}

void
traceSweepCached(const Args &a, Layers &l, Ledger &ledger,
                 std::uint64_t &combined)
{
    const auto specs = paperSweepSpecs(a.seed);
    const std::string dir = freshDir(a, "cache");
    core::Runner cold(runnerOptions(sweepThreads(), dir));
    noteThreads(cold);
    ledger.begin();
    const auto lib = cold.run(specs);
    // resultDigest() sorts a result's CDF samples, after which its mean
    // sums in another order: digest each result object only once.
    const auto lib_digests = digests(lib);
    combined = ledger.finish("sweep", lib_digests, true);

    runnerLayer(specs, dir, l, ledger, "sweep");

    // The replayed job: one ResultCache::load per cell, each checked
    // against the cold pass's result.
    const core::ResultCache cache(dir);
    std::uint64_t replay_hits = 0;
    tracedPair(a, l, ledger, [&](Tracer &t) {
        ReplayRun out;
        out.jobs = specs.size();
        const double t0 = nowNs();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            Scope cell(t, "core.cell", static_cast<int>(i));
            std::optional<core::ExperimentResult> r;
            {
                Scope load(t, "cache.load", static_cast<int>(i));
                r = cache.load(specs[i]);
            }
            const bool ok =
                r && core::resultDigest(*r) == lib_digests[i];
            out.mismatches += !ok;
            replay_hits += r.has_value();
        }
        out.wall_s = secondsOf(t0);
        return out;
    });
    l["core.cache_hits"] += static_cast<double>(replay_hits);

    // Load and store, each timed per entry outside any runner.
    std::vector<double> load_us, store_us, bytes;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double t0 = nowNs();
        cache.load(specs[i]);
        load_us.push_back((nowNs() - t0) / 1e3);
        bytes.push_back(
            static_cast<double>(fs::file_size(cache.pathFor(specs[i]))));
    }
    const std::string store_dir = freshDir(a, "store");
    const core::ResultCache store(store_dir);
    for (const auto &r : lib) {
        const double t0 = nowNs();
        store.store(r);
        store_us.push_back((nowNs() - t0) / 1e3);
    }
    l["core.cache_load_us"] = median(load_us);
    l["core.cache_store_us"] = median(store_us);
    double total_bytes = 0;
    for (const double b : bytes)
        total_bytes += b;
    l["core.cache_entry_bytes"] = total_bytes / static_cast<double>(
                                                    bytes.size());
    fs::remove_all(store_dir);
    fs::remove_all(dir);
    applyProbes(l, enginesOf(specs));
}

Metrics
perLayer(const Args &a, Ledger &ledger, std::uint64_t &combined)
{
    Layers l;
    for (const auto &[name, unit] : kPerLayer)
        l[name] = 0;
    switch (a.workload) {
    case Workload::LongCell: traceLongCell(a, l, ledger, combined); break;
    case Workload::PaperSweep:
        tracePaperSweep(a, l, ledger, combined);
        break;
    case Workload::SweepCached:
        traceSweepCached(a, l, ledger, combined);
        break;
    }
    Metrics m;
    for (const auto &[name, unit] : kPerLayer)
        m.push_back({name, l[name], unit});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // Violations are counted per operation, never fatal, whatever
    // JETSIM_CHECK_MODE says.
    check::Reporter::instance().setMode(check::Reporter::Mode::Count);
    fs::create_directories(a.work_dir);
    printHost(a);

    Ledger ledger(a.seed == kDefaultSeed ? a.expect : std::nullopt);
    std::uint64_t combined = 0;
    const Metrics metrics = a.trace ? perLayer(a, ledger, combined)
                                    : endToEnd(a, ledger, combined);

    std::printf("digest {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"combined\": \"%016" PRIx64 "\", \"definition\": "
                "\"%016" PRIx64 "\", \"runner_threads\": %d}\n",
                name(a.workload), a.seed, combined,
                definitionDigest(a.workload, a.seed), g_runner_threads);
    for (const auto &m : metrics)
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("metric %-28s %.6g %s\n", "error_rate",
                static_cast<double>(ledger.failed()) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, ledger.attempted())),
                "share");

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
                ledger.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
