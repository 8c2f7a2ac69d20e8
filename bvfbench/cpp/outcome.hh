/**
 * @file
 * What one benchmark run hands back to main(): correctness, operation
 * counts and named metrics.
 */

#ifndef BVFBENCH_OUTCOME_HH
#define BVFBENCH_OUTCOME_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bvfbench
{

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; //!< mismatches, errors, refusals
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** A check failed: the run's outputs are not correct. */
    void
    mismatch(const std::string &why)
    {
        correct = false;
        std::fprintf(stderr, "bvfbench: MISMATCH: %s\n", why.c_str());
    }
};

/** Human-readable report line on stdout, ahead of the JSON result. */
template <typename... Args>
void
note(const char *fmt, Args... args)
{
    std::fputs("# ", stdout);
    std::printf(fmt, args...);
    std::fputc('\n', stdout);
}

} // namespace bvfbench

#endif // BVFBENCH_OUTCOME_HH
