/**
 * @file
 * In-memory span log for the traced run.
 *
 * Spans are recorded around calls into each layer's public functions
 * from the benchmark's own code; nothing inside the BVF libraries is
 * instrumented. Each span names its layer, the unit of work it belongs
 * to (an app or a pool kernel) and the span that caused it. Spans stay
 * in memory while the run measures and are written out once at the
 * end, so the file I/O never lands inside a timed interval.
 */

#ifndef BVFBENCH_TRACE_HH
#define BVFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bvfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded interval. */
struct Span
{
    std::string name;  //!< layer boundary, e.g. "gpu.run"
    std::string scope; //!< unit of work, e.g. an app abbreviation
    double startS = 0; //!< seconds since the log's origin
    double endS = 0;
    int parent = -1;   //!< index of the causing span; -1 = root

    /**
     * Seconds inside child calls too frequent to log one by one (the
     * accountant's per-access calls under gpu.run), summed.
     */
    double innerS = 0;
};

/** Append-only span store. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /**
     * Record a span; returns its index, the parent of its children. A
     * span still open is recorded with end == start, then setEnd().
     */
    int add(std::string name, std::string scope, Clock::time_point start,
            Clock::time_point end, int parent = -1, double innerS = 0);

    /** End span @p id at @p end. */
    void setEnd(int id, Clock::time_point end);

    /** One JSON object per line, in recording order. */
    std::string toJsonLines() const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace bvfbench

#endif // BVFBENCH_TRACE_HH
