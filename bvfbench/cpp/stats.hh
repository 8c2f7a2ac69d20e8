/**
 * @file
 * Order statistics for the benchmark's reported timings.
 *
 * A latency percentile is only reported when at least kMinBeyond
 * samples lie above it; with fewer, one outlier decides the number and
 * two runs of the same code would disagree. The medians of repeated
 * passes (campaign wall time, set-up time) are summaries of a handful
 * of repeats, not latency percentiles, and use median().
 */

#ifndef BVFBENCH_STATS_HH
#define BVFBENCH_STATS_HH

#include <cstddef>
#include <vector>

#include "common/result.hh"

namespace bvfbench
{

/** Samples that must lie beyond a reported percentile. */
constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank @p p-quantile (0 < p < 1) of @p samples. Refuses, with
 * InvalidArgument, when fewer than kMinBeyond samples lie beyond it.
 */
bvf::Result<double> percentile(std::vector<double> samples, double p);

/** Samples beyond the nearest-rank @p p-quantile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/** Median of a non-empty set of repeats (mean of the middle two). */
double median(std::vector<double> values);

/** Lower quartile, median() and upper quartile of @p values. */
struct Quartiles
{
    double q1 = 0;
    double median = 0;
    double q3 = 0;
};

/** Quartiles of a non-empty set of repeats; q1 and q3 by nearest rank. */
Quartiles quartiles(std::vector<double> values);

} // namespace bvfbench

#endif // BVFBENCH_STATS_HH
