/**
 * @file
 * Small numeric helpers shared by the benchmark sources.
 */

#ifndef JETBENCH_UTIL_HH
#define JETBENCH_UTIL_HH

#include <algorithm>
#include <vector>

namespace jetbench {

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 if empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

} // namespace jetbench

#endif // JETBENCH_UTIL_HH
