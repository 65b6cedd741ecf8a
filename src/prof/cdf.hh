/**
 * @file
 * Empirical CDFs — the presentation form of the paper's Fig 5/10.
 */

#ifndef JETSIM_PROF_CDF_HH
#define JETSIM_PROF_CDF_HH

#include <cstddef>
#include <string>
#include <vector>

namespace jetsim::prof {

/**
 * Collects scalar samples and answers quantile / cumulative-fraction
 * queries. Samples are sorted lazily on first query.
 */
class Cdf
{
  public:
    /** Record one sample. */
    void add(double x);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Quantile in [0,1]; linear interpolation between order stats. */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }
    double min() const { return quantile(0.0); }
    double max() const { return quantile(1.0); }
    double mean() const;

    /** Fraction of samples <= @p x. */
    double fractionBelow(double x) const;

    /**
     * Evenly spaced CDF curve: @p points (x, F(x)) pairs covering the
     * sample range — the series a plotting script would consume.
     */
    std::vector<std::pair<double, double>> curve(int points = 21) const;

    /**
     * Render a fixed-width ASCII summary line of selected quantiles,
     * e.g. "p10=..  p50=..  p90=..  max=..".
     */
    std::string summary() const;

    /**
     * Raw samples in their current order (sorted iff a quantile-style
     * query already ran). Exposed so the result cache can serialise a
     * CDF losslessly; quantiles over the round-tripped samples are
     * bit-identical to the original's, and so is the mean as long as
     * no query ran before the store (the Runner stores fresh results).
     */
    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    /** Summed in insertion order, so mean() does not depend on whether
     * a query has sorted the samples. */
    double sum_ = 0;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_CDF_HH
