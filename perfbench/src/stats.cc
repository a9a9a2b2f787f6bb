#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

std::size_t
nearestRank(std::size_t n, double pct)
{
    if (n == 0)
        throw std::invalid_argument("percentile of an empty sample set");
    if (!(pct >= 0.0 && pct <= 100.0))
        throw std::invalid_argument("percentile outside [0, 100]");
    // Integer arithmetic in units of 1e-4 percent, so 99% of 1000 is
    // rank 990 exactly, not 991 through a rounding error.
    const auto scaled = static_cast<unsigned long long>(
        std::llround(pct * 10000.0));
    const unsigned long long num = scaled * n;
    const unsigned long long den = 100ull * 10000ull;
    const std::size_t rank = static_cast<std::size_t>((num + den - 1) / den);
    return std::clamp<std::size_t>(rank, 1, n);
}

double
percentile(std::vector<double> samples, double pct)
{
    const std::size_t rank = nearestRank(samples.size(), pct);
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
highestSupportedPercentile(std::size_t n, std::size_t minBeyond)
{
    static const double kLadder[] = {99.99, 99.9, 99.0, 95.0,
                                     90.0,  75.0, 50.0};
    if (n == 0)
        return 0.0;
    for (const double pct : kLadder)
        if (n - nearestRank(n, pct) >= minBeyond)
            return pct;
    return 0.0;
}

Summary
summarize(const std::vector<double> &samples, double tailPct)
{
    if (highestSupportedPercentile(samples.size()) < tailPct) {
        throw std::runtime_error(
            "only " + std::to_string(samples.size()) +
            " samples: too few for a p" + std::to_string(tailPct) +
            " with 10 samples beyond it");
    }
    Summary s;
    s.n = samples.size();
    s.p50 = median(samples);
    s.tailPct = tailPct;
    s.tail = percentile(samples, tailPct);
    return s;
}

} // namespace perfbench
