/**
 * @file
 * Order statistics implementation.
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace bvfbench
{

namespace
{

/** 1-based nearest rank of the @p p-quantile among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const double rank = std::ceil(p * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

bvf::Result<double>
percentile(std::vector<double> samples, double p)
{
    if (!(p > 0.0 && p < 1.0)) {
        return bvf::Error{bvf::ErrorCode::InvalidArgument,
                          bvf::strFormat("percentile %g outside (0, 1)", p)};
    }
    const std::size_t beyond = samplesBeyond(samples.size(), p);
    if (samples.empty() || beyond < kMinBeyond) {
        return bvf::Error{
            bvf::ErrorCode::InvalidArgument,
            bvf::strFormat("p%g of %zu samples has %zu beyond it; "
                           "at least %zu are needed",
                           p * 100.0, samples.size(), beyond, kMinBeyond)};
    }
    const std::size_t rank = nearestRank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> values)
{
    panic_if(values.empty(), "median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles
quartiles(std::vector<double> values)
{
    panic_if(values.empty(), "quartiles of no values");
    std::sort(values.begin(), values.end());
    const std::size_t last = values.size() - 1;
    return {values[last / 4], median(values), values[(3 * last + 3) / 4]};
}

} // namespace bvfbench
