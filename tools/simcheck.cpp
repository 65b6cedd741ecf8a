/**
 * @file
 * simcheck: the JetSan replay harness.
 *
 * Runs one experiment spec several times from scratch and compares
 * the bit-exact result digests — the executable form of the
 * determinism invariant (same seed ⇒ identical prof metrics). Any
 * divergence is reported as a JetSan determinism violation and the
 * tool exits non-zero, making it suitable as a CI gate
 * (tools/ci.sh runs it after the sanitized test pass).
 *
 * Before the replays it also checks the plan round trip: the spec's
 * engine is serialized, deserialized and "run" through the
 * deterministic kernel cost model; the plan text and the timing
 * digest must be bit-identical on both sides, so a plan file can be
 * built once and deployed many times without drift.
 *
 *   simcheck --model=yolov8n --precision=int8 --procs=2 --runs=3
 *   simcheck --seeds=1,2,3        # distinct seeds must all differ? no:
 *                                 # each seed is replayed --runs times
 *
 * With --mc-replay=<file> it instead replays a jetmc counterexample:
 * the embedded configuration and choice script are reconstructed and
 * the recorded failure must reproduce exactly. This keeps the
 * model-checker honest — a CE that does not replay is a jetmc bug.
 *
 * With --fleet-golden=<path> it runs the committed fleet golden
 * suite (including a 256-board hierarchical config): each digest
 * must equal the one recorded in the file (the `fleet_golden` ctest
 * and CI pass 1c); --update regenerates it.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "argparse.hh"
#include "check/digest.hh"
#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/fleet.hh"
#include "core/json.hh"
#include "core/profiler.hh"
#include "core/runner.hh"
#include "gpu/cost_model.hh"
#include "mc/ce.hh"
#include "models/zoo.hh"
#include "sim/logging.hh"
#include "trt/builder.hh"

using namespace jetsim;

namespace {

std::vector<std::uint64_t>
parseSeeds(const std::string &csv)
{
    std::vector<std::uint64_t> seeds;
    std::string cur;
    for (const char c : csv + ",") {
        if (c == ',') {
            if (!cur.empty()) {
                for (const char d : cur) {
                    if (!std::isdigit(static_cast<unsigned char>(d)))
                        sim::fatal("--seeds: '%s' is not a number",
                                   cur.c_str());
                }
                seeds.push_back(std::stoull(cur));
            }
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (seeds.empty())
        sim::fatal("--seeds: no seeds given");
    return seeds;
}

/** Digest of a deterministic dry run: every kernel through the cost
 * model at full frequency with the jitter source disabled. */
std::uint64_t
dryRunDigest(const trt::Engine &e, const soc::DeviceSpec &spec)
{
    const gpu::KernelCostModel cost(spec);
    check::Digest d;
    for (const auto &k : e.kernels()) {
        const auto t = cost.timing(k, 1.0, nullptr);
        d.add(k.name);
        d.add(static_cast<std::int64_t>(t.duration));
        d.add(t.sm_active);
        d.add(t.issue_slot);
        d.add(t.tc_util);
        d.add(t.bw_util);
        d.add(t.compute_frac);
    }
    return d.value();
}

/**
 * serialize → deserialize → run must be invisible: identical plan
 * text on re-serialization and an identical dry-run timing digest.
 * Returns false (and reports Determinism violations) on divergence.
 */
bool
planRoundTripCheck(const core::ExperimentSpec &spec)
{
    const auto dev = soc::deviceByName(spec.device);
    trt::Builder builder(dev);
    trt::BuilderConfig cfg;
    cfg.precision = spec.precision;
    cfg.batch = spec.batch;
    const auto built =
        builder.build(models::modelByName(spec.model), cfg);

    const auto plan = built.serialize();
    const auto restored = trt::Engine::deserialize(plan);
    auto &rep = check::Reporter::instance();

    bool ok = true;
    if (restored.serialize() != plan) {
        ok = false;
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown,
                   "%s plan text not stable across a "
                   "serialize/deserialize round trip",
                   spec.model.c_str());
    }

    const auto before = dryRunDigest(built, dev);
    const auto after = dryRunDigest(restored, dev);
    if (before != after) {
        ok = false;
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown,
                   "%s dry-run digest %016llx != %016llx after plan "
                   "round trip",
                   spec.model.c_str(),
                   static_cast<unsigned long long>(before),
                   static_cast<unsigned long long>(after));
    }

    std::printf("plan round trip: %s (digest %016llx, %zu kernels)\n",
                ok ? "ok" : "DIVERGED",
                static_cast<unsigned long long>(before),
                built.kernels().size());
    return ok;
}

/**
 * Replay a jetmc counterexample file: reconstruct the model from the
 * embedded config, run the recorded choice script and require the
 * recorded failure kind to reproduce.
 */
int
mcReplay(const std::string &path)
{
    mc::CounterExample ce;
    std::string err;
    if (!mc::readCe(path, ce, err)) {
        std::fprintf(stderr, "simcheck: %s\n", err.c_str());
        return 2;
    }
    std::printf("mc-replay: model %s, failure '%s', %zu choices\n",
                ce.model.c_str(), ce.what.c_str(), ce.script.size());
    if (!ce.detail.empty())
        std::printf("mc-replay: recorded diagnosis: %s\n",
                    ce.detail.c_str());
    const std::string diag = mc::replayCe(ce);
    if (!diag.empty()) {
        std::fprintf(stderr,
                     "simcheck: counterexample did NOT reproduce: "
                     "%s\n",
                     diag.c_str());
        return 1;
    }
    std::printf("simcheck: counterexample reproduces the recorded "
                "'%s' failure\n",
                ce.what.c_str());
    return 0;
}

/** The committed golden suite: small, fast, covers both boards, a
 * heterogeneous mix and local+balancer traffic. Append-only — edits
 * here invalidate GOLDEN_fleet.json (regenerate with --update). */
std::vector<core::FleetSpec>
goldenSuite()
{
    std::vector<core::FleetSpec> suite;
    {
        core::FleetSpec s;
        for (int d = 0; d < 4; ++d)
            s.devices.push_back(
                {"orin-nano", "resnet50", soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 300.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 7;
        suite.push_back(std::move(s));
    }
    {
        core::FleetSpec s;
        for (int d = 0; d < 4; ++d)
            s.devices.push_back(
                {"nano", "resnet18", soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 200.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 11;
        suite.push_back(std::move(s));
    }
    {
        core::FleetSpec s;
        s.devices.push_back(
            {"orin-nano", "yolov8n", soc::Precision::Fp16, 2, 40.0});
        s.devices.push_back(
            {"nano", "mobilenet_v2", soc::Precision::Fp16, 1, 0.0});
        s.devices.push_back(
            {"orin-nano", "resnet50", soc::Precision::Int8, 1, 0.0});
        s.devices.push_back(
            {"nano", "resnet18", soc::Precision::Int8, 1, 25.0});
        s.balancer_rate = 150.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 13;
        suite.push_back(std::move(s));
    }
    {
        // Hierarchical wide fleet: 256 boards through the two-hop
        // root -> sub-balancer dispatch.
        core::FleetSpec s;
        for (int d = 0; d < 256; ++d)
            s.devices.push_back({"orin-nano", "mobilenet_v2",
                                 soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 25.0 * 256;
        s.hierarchical = true;
        s.warmup = sim::msec(4);
        s.duration = sim::msec(30);
        s.seed = 23;
        suite.push_back(std::move(s));
    }
    return suite;
}

int
fleetGolden(const std::string &path, bool update)
{
    const auto suite = goldenSuite();
    char hex[32];

    if (update) {
        core::json::Writer w(/*pretty_depth=*/2);
        w.beginObject();
        w.key("fleet_goldens").beginArray();
        for (const auto &spec : suite) {
            const auto digest = core::resultDigest(core::runFleet(spec));
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(digest));
            w.beginObject();
            w.field("label", spec.label());
            w.field("digest", hex);
            w.endObject();
            std::printf("golden: %s -> %s\n", spec.label().c_str(), hex);
        }
        w.endArray();
        w.endObject();
        if (!core::json::writeFile(path, w.str() + "\n")) {
            std::fprintf(stderr, "simcheck: cannot write %s\n",
                         path.c_str());
            return 2;
        }
        std::printf("simcheck: wrote %zu fleet goldens to %s\n",
                    suite.size(), path.c_str());
        return 0;
    }

    const auto text = core::json::readFile(path);
    const auto root = text ? core::json::parse(*text) : std::nullopt;
    const core::json::Value *entries =
        root ? root->find("fleet_goldens") : nullptr;
    if (!entries) {
        std::fprintf(stderr, "simcheck: cannot read goldens from %s\n",
                     path.c_str());
        return 2;
    }
    std::map<std::string, std::string> committed;
    for (const auto &e : entries->items) {
        const auto label = core::json::as<std::string>(e.find("label"));
        const auto digest = core::json::as<std::string>(e.find("digest"));
        if (label && digest)
            committed[*label] = *digest;
    }
    int failures = 0;
    for (const auto &spec : suite) {
        const auto it = committed.find(spec.label());
        if (it == committed.end()) {
            std::fprintf(stderr,
                         "simcheck: no committed digest for '%s' "
                         "(regenerate with --update)\n",
                         spec.label().c_str());
            ++failures;
            continue;
        }
        const auto digest = core::resultDigest(core::runFleet(spec));
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        const bool cell_ok = it->second == hex;
        if (!cell_ok) {
            std::fprintf(stderr,
                         "simcheck: '%s' digest %s != committed %s\n",
                         spec.label().c_str(), hex,
                         it->second.c_str());
            ++failures;
        }
        std::printf("golden: %s %s\n", spec.label().c_str(),
                    cell_ok ? "ok" : "DIVERGED");
    }
    if (failures) {
        std::fprintf(stderr,
                     "simcheck: %d fleet golden(s) diverged\n",
                     failures);
        return 1;
    }
    std::printf("simcheck: all %zu fleet goldens match\n",
                suite.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("simcheck",
                          "replay an experiment and verify bit-exact "
                          "determinism (JetSan)");
    args.add("device", "orin-nano", "orin-nano | nano | a40");
    args.add("model", "resnet50", "model name from the zoo");
    args.add("precision", "fp16", "fp32 | tf32 | fp16 | int8");
    args.add("batch", "1", "batch size");
    args.add("procs", "2", "concurrent processes");
    args.add("phase", "light", "light | deep");
    args.add("warmup", "100", "warm-up in ms");
    args.add("duration", "0.5", "measured window in s");
    args.add("runs", "2", "replays per seed (>= 2)");
    args.add("seeds", "1", "comma-separated seeds to replay");
    args.add("threads", "0",
             "replay worker threads (0 = auto / JETSIM_THREADS); "
             "replays run through core::Runner either way");
    args.add("mc-replay", "",
             "replay a jetmc counterexample file and verify the "
             "recorded failure reproduces");
    args.add("fleet-golden", "",
             "verify the committed fleet golden digests");
    args.add("update", "0",
             "with --fleet-golden: regenerate the golden file");
    if (!args.parse(argc, argv))
        return 2;

    if (!args.str("mc-replay").empty())
        return mcReplay(args.str("mc-replay"));
    if (!args.str("fleet-golden").empty())
        return fleetGolden(args.str("fleet-golden"),
                           args.boolean("update"));

    // Report-and-continue: this tool's job is to observe divergence,
    // not to abort on the first violation.
    check::Reporter::instance().setMode(check::Reporter::Mode::Log);

    core::ExperimentSpec spec;
    spec.device = args.str("device");
    spec.model = args.str("model");
    spec.precision = soc::precisionFromName(args.str("precision"));
    spec.batch = args.intval("batch");
    spec.processes = args.intval("procs");
    spec.phase = args.str("phase") == "deep" ? core::Phase::Deep
                                             : core::Phase::Light;
    spec.warmup = sim::msec(args.intval("warmup"));
    spec.duration = sim::sec(args.dbl("duration"));

    const int runs = std::max(2, args.intval("runs"));
    const auto seeds = parseSeeds(args.str("seeds"));

    int failures = 0;
    if (!planRoundTripCheck(spec))
        ++failures;

    // The replays for one seed are identical specs, so running them
    // as a parallel Runner batch checks two invariants at once: the
    // simulator replays bit-identically, and the parallel path itself
    // introduces no divergence (cells race in wall time but must not
    // in simulated time). Never cache here — a cache hit would echo
    // run 0's result back instead of re-simulating.
    core::Runner runner(args.intval("threads"), "",
                        /*env_cache=*/false);
    std::printf("replaying on %d worker thread(s)\n",
                runner.threads());
    for (const std::uint64_t seed : seeds) {
        spec.seed = seed;
        const std::vector<core::ExperimentSpec> batch(runs, spec);
        const auto results = runner.run(batch);
        std::uint64_t reference = 0;
        bool diverged = false;
        for (int i = 0; i < runs; ++i) {
            const auto digest = core::resultDigest(results[i]);
            if (i == 0) {
                reference = digest;
            } else if (digest != reference) {
                diverged = true;
                check::Reporter::instance().report(
                    check::Severity::Error,
                    check::Invariant::Determinism, "tools.simcheck",
                    check::kTimeUnknown,
                    "seed %llu run %d digest %016llx != reference "
                    "%016llx",
                    static_cast<unsigned long long>(seed), i,
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(reference));
            }
        }
        std::printf("seed %llu: %s (digest %016llx, %d runs)\n",
                    static_cast<unsigned long long>(seed),
                    diverged ? "DIVERGED" : "ok",
                    static_cast<unsigned long long>(reference), runs);
        if (diverged)
            ++failures;
    }

    if (failures) {
        std::fprintf(stderr,
                     "simcheck: %d of %zu checks failed to replay "
                     "bit-identically\n",
                     failures, seeds.size() + 1);
        return 1;
    }
    std::printf("simcheck: plan round trip and all %zu seed(s) "
                "replay bit-identically\n",
                seeds.size());
    return 0;
}
