/**
 * @file
 * Deterministic random-number generation.
 *
 * Every stochastic element of the simulator draws from an Rng that is
 * seeded from the experiment specification, so a given spec always
 * reproduces bit-identical results. The generator is xoshiro256**,
 * seeded through SplitMix64 (the reference seeding procedure).
 */

#ifndef JETSIM_SIM_RNG_HH
#define JETSIM_SIM_RNG_HH

#include <cstdint>
#include <string_view>

namespace jetsim::sim {

/**
 * Envelope for bounded lognormal jitter draws: lognormalBounded()
 * never returns outside [mean / kLognormalEnvelope,
 * mean * kLognormalEnvelope]. The clamp binds with probability
 * < 1e-9 per draw at the coefficients of variation the simulator
 * uses (cv <= 0.35), so sampled behaviour is unchanged in practice —
 * but it turns the distribution's unbounded tail into a *proven*
 * envelope the static bound analyzer (src/absint) builds sound
 * worst-case latencies from.
 */
inline constexpr double kLognormalEnvelope = 8.0;

/**
 * A bounded log-normal law parameterised by the *target* mean and the
 * coefficient of variation of the resulting distribution — the
 * natural parameterisation for latency jitter. Its draws are clamped
 * to [mean / kLognormalEnvelope, mean * kLognormalEnvelope].
 *
 * Construction does the loop-invariant work once (two logs, a square
 * root and the clamps), so a law held by its drawing component costs
 * only the normal variate and one exp per Rng::draw(). The derived
 * parameters are private: a law is replaced whole (by assignment
 * from a new one), never edited field by field out of step with its
 * mean and cv.
 */
class Lognormal
{
  public:
    Lognormal(double target_mean, double target_cv);

    double mean() const { return mean_; }

  private:
    friend class Rng;

    double mean_;
    double cv_;
    double mu_;    ///< log-space mean
    double sigma_; ///< log-space standard deviation
    double lo_;    ///< mean / kLognormalEnvelope
    double hi_;    ///< mean * kLognormalEnvelope
};

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Cheap to copy; each component typically owns a fork()ed child so
 * that adding draws in one component never perturbs another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal variate (Box-Muller, one value per call). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * One variate of @p law, inside its kLognormalEnvelope band. This
     * is the only lognormal draw, so every latency-jitter draw in the
     * simulator has a boundable worst case (see src/absint). A cv of
     * 0 returns the mean and consumes no generator state.
     */
    double draw(const Lognormal &law);

    /** draw(Lognormal(mean, cv)), for one-off draws. */
    double lognormalBounded(double mean, double cv)
    {
        return draw(Lognormal(mean, cv));
    }

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * Deterministically derive an independent child generator. The
     * label participates in the derivation so distinct subsystems
     * seeded from the same parent do not correlate.
     */
    Rng fork(std::string_view label);

  private:
    std::uint64_t s_[4];
};

/** Stable 64-bit FNV-1a hash of a string, used for seed derivation. */
std::uint64_t hashLabel(std::string_view label);

} // namespace jetsim::sim

#endif // JETSIM_SIM_RNG_HH
