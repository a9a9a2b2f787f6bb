/**
 * @file
 * Order statistics over raw samples. Every number the benchmark
 * reports is computed here from the full sample set; no bucketed
 * histogram is involved, so a percentile is always one of the
 * measured values.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile of @p samples (0 < @p pct <= 100): the
 * smallest sample such that at least pct% of all samples are less
 * than or equal to it, i.e. the sorted sample at 1-based rank
 * ceil(pct/100 * n). pct == 0 gives the minimum. Throws
 * std::invalid_argument on an empty set or a pct outside [0, 100].
 */
double percentile(std::vector<double> samples, double pct);

/** 1-based nearest rank of @p pct in a set of @p n samples. */
std::size_t nearestRank(std::size_t n, double pct);

/** Median: the nearest-rank 50th percentile. */
double median(std::vector<double> samples);

/**
 * The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9,
 * 99.99 that has at least @p minBeyond samples strictly above its
 * nearest rank in a set of @p n samples, or 0 when even the median
 * has fewer.
 */
double highestSupportedPercentile(std::size_t n, std::size_t minBeyond = 10);

/** A timing reported as median plus one tail percentile. */
struct Summary {
    std::size_t n = 0;     ///< sample count
    double p50 = 0.0;
    double tailPct = 0.0;  ///< the tail percentile reported
    double tail = 0.0;
};

/**
 * Summarize @p samples at tail percentile @p tailPct. Throws
 * std::runtime_error when the sample set does not support that
 * percentile with 10 samples beyond it: a run that collected too
 * few samples must fail rather than report a thin tail.
 */
Summary summarize(const std::vector<double> &samples, double tailPct);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
