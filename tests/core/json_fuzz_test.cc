/**
 * @file
 * Deterministic mutation fuzzing of every reader that takes JSON from
 * disk: ResultCache::load, mc::readCe and core::json::parse itself.
 *
 * Each case byte-mutates a committed corpus (tests/corpus/ and
 * GOLDEN_fleet.json) with a fixed-seed generator, so a failure
 * reproduces on every run: iteration i of a target uses seed
 * kSeed + i. The bar is that no input crashes, hangs or exits the
 * process; a bad file may only come back as a miss or an error. The
 * sanitizer CI pass runs these cases under ASan/UBSan.
 *
 * After a cache format change, regenerate the cache entry with
 *   jetprof --mode=sweep --model=resnet18 --precision=int8 --batches=1
 *           --procs-list=2 --phase=deep --warmup=20 --duration=0.06
 *           --seed=5 --cache=<dir>
 * and copy the one file it writes to tests/corpus/result_cache_entry.json.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>

#include "core/json.hh"
#include "core/result_cache.hh"
#include "mc/ce.hh"

namespace jetsim {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20251017;
constexpr int kIterations = 1500;

/** The spec the committed cache entry was stored under. */
core::ExperimentSpec
corpusSpec()
{
    core::ExperimentSpec s;
    s.device = "orin-nano";
    s.model = "resnet18";
    s.precision = soc::Precision::Int8;
    s.batch = 1;
    s.processes = 2;
    s.phase = core::Phase::Deep;
    s.warmup = sim::msec(20);
    s.duration = sim::msec(60);
    s.seed = 5;
    return s;
}

std::string
corpus(const std::string &name)
{
    const auto text =
        core::json::readFile(std::string(JETSIM_SOURCE_DIR) + "/" + name);
    EXPECT_TRUE(text.has_value()) << "missing corpus file " << name;
    return text.value_or("");
}

/** One to four random edits: overwrite, insert, delete, splice,
 * truncate, or a run of open brackets. */
std::string
mutate(std::string s, std::uint64_t seed)
{
    static constexpr char kTokens[] = "[]{}\",:\\-+.eE0123456789tfnu ";
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    for (std::size_t edits = 1 + pick(4); edits > 0; --edits) {
        const std::size_t at = pick(s.size() + 1);
        switch (pick(6)) {
          case 0:
            if (at < s.size())
                s[at] = static_cast<char>(rng());
            break;
          case 1: s.insert(at, 1, kTokens[pick(sizeof(kTokens) - 1)]); break;
          case 2: s.erase(at, 1 + pick(16)); break;
          case 3:
            if (!s.empty())
                s.insert(at, s.substr(pick(s.size()), 1 + pick(32)));
            break;
          case 4: s.resize(at + pick(s.size() - at + 1) / 2); break;
          default:
            s.insert(at, 1 + pick(200), pick(2) ? '[' : '{');
            break;
        }
    }
    return s;
}

class JsonFuzz : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
               ("jetsim_fuzz_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(JsonFuzz, CorpusIsCurrent)
{
    // Unmutated, every corpus file reads: otherwise the fuzzer below
    // would only ever exercise the first rejection.
    const core::ResultCache cache(dir_.string());
    const auto spec = corpusSpec();
    ASSERT_TRUE(core::json::writeFile(
        cache.pathFor(spec), corpus("tests/corpus/result_cache_entry.json")));
    const auto hit = cache.load(spec);
    ASSERT_TRUE(hit.has_value()) << "regenerate the cache entry (see top)";
    EXPECT_GT(hit->sm_active.count(), 0u);

    mc::CounterExample ce;
    std::string err;
    EXPECT_TRUE(mc::readCe(std::string(JETSIM_SOURCE_DIR) +
                               "/tests/corpus/counterexample.json",
                           ce, err))
        << err;
    EXPECT_EQ(ce.deploy.procs.size(), 2u);

    const auto golden = core::json::parse(corpus("GOLDEN_fleet.json"));
    ASSERT_TRUE(golden.has_value());
    ASSERT_NE(golden->find("fleet_goldens"), nullptr);
    EXPECT_FALSE(golden->find("fleet_goldens")->items.empty());
}

TEST_F(JsonFuzz, MutatedInputsNeverCrashAReader)
{
    const std::string entry =
        corpus("tests/corpus/result_cache_entry.json");
    const std::string ce_text = corpus("tests/corpus/counterexample.json");
    const std::string golden = corpus("GOLDEN_fleet.json");

    const core::ResultCache cache(dir_.string());
    const auto spec = corpusSpec();
    const std::string entry_path = cache.pathFor(spec);
    const std::string ce_path = (dir_ / "ce.json").string();

    int hits = 0;
    int ces = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::uint64_t seed = kSeed + static_cast<std::uint64_t>(i);

        core::json::writeFile(entry_path, mutate(entry, seed));
        hits += cache.load(spec).has_value();

        core::json::writeFile(ce_path, mutate(ce_text, seed));
        mc::CounterExample ce;
        std::string err;
        if (mc::readCe(ce_path, ce, err))
            ++ces;
        else
            EXPECT_FALSE(err.empty()) << "seed " << seed;

        for (const std::string *text : {&entry, &ce_text, &golden})
            core::json::parse(mutate(*text, seed));
    }
    // Some mutations (inside a number's digits, say) still load; the
    // rest must have been rejected without incident.
    EXPECT_LT(hits, kIterations);
    EXPECT_LT(ces, kIterations);
}

} // namespace
} // namespace jetsim
