/**
 * @file
 * Bit-exact digests of experiment results.
 *
 * The JetSan determinism invariant: running the same seeded spec
 * twice must reproduce every output bit. These helpers fold an
 * entire result — SoC metrics, per-process decomposition, counter
 * CDFs — into one 64-bit value so the replay harness
 * (tools/simcheck) and tests/check/determinism_test.cc can compare
 * runs with a single integer.
 */

#ifndef JETSIM_CORE_DIGEST_HH
#define JETSIM_CORE_DIGEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/digest.hh"
#include "core/experiment.hh"
#include "core/fleet.hh"

namespace jetsim::core {

/**
 * Folds a struct into @p d through its field table (core/experiment.hh):
 * bool as u64, int as i64, enums by value, a CDF as its count, mean and
 * fixed quantiles, a vector as its elements, a spec inside a result as
 * its label, and any other struct as its fields in table order. The
 * result cache keys entries by a spec's fold.
 */
struct DigestFields
{
    check::Digest &d;

    template <class T>
    void operator()(const char *, const T &x) { add(x); }

    void add(bool b) { d.add(std::uint64_t{b}); }
    void add(int i) { d.add(std::int64_t{i}); }
    void add(std::int64_t i) { d.add(i); }
    void add(std::uint64_t u) { d.add(u); }
    void add(double x) { d.add(x); }
    void add(const std::string &s) { d.add(s); }
    void add(soc::Precision p) { d.add(static_cast<std::int64_t>(p)); }
    void add(Phase p) { d.add(static_cast<std::int64_t>(p)); }
    void add(const ExperimentSpec &s) { d.add(s.label()); }
    void add(const MixedExperimentSpec &s) { d.add(s.label()); }
    void add(const FleetSpec &s) { d.add(s.label()); }

    void add(const prof::Cdf &c)
    {
        d.add(static_cast<std::uint64_t>(c.count()));
        if (c.empty())
            return;
        d.add(c.mean());
        for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
            d.add(c.quantile(q));
    }

    template <class T>
    void add(const std::vector<T> &xs)
    {
        for (const auto &x : xs)
            add(x);
    }

    template <class T>
    void add(const T &obj) { visitFields(obj, *this); }
};

/**
 * Digest of a result: every field of its table, folded by
 * DigestFields. GOLDEN_fleet.json records the fleet digests
 * (`simcheck --fleet-golden`, the `fleet_golden` ctest); the runner
 * goldens and jetbench/digests.json record the others.
 */
template <class R>
std::uint64_t
resultDigest(const R &r)
{
    check::Digest d;
    visitFields(r, DigestFields{d});
    return d.value();
}

} // namespace jetsim::core

#endif // JETSIM_CORE_DIGEST_HH
