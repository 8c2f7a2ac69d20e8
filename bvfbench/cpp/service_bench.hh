/**
 * @file
 * The kernel-service workload: a closed loop of two clients against a
 * `bvf_fleet serve`-style front end (a Server whose handler is
 * Coordinator::proxyHandler) over two in-process bvfd workers with one
 * pool thread each.
 *
 * Each round, every client walks a seeded permutation of the kernel
 * pool: SubmitKernel(optimize=1), then, when admitted, EvalSubmitted of
 * the stored digest under the next of three arch/scheduler configs.
 * Submits run the analysis stack and bypass the simulator; evaluations
 * run the simulator on a stored kernel and bypass analysis.
 *
 * Every response is checked byte for byte against the same request
 * answered in process: verdicts against verifyProgram, optimized
 * digests against optimizeProgram, evaluations against
 * runProgramChecked + evaluate under the handler's options.
 */

#ifndef BVFBENCH_SERVICE_BENCH_HH
#define BVFBENCH_SERVICE_BENCH_HH

#include <cstdint>

#include "outcome.hh"
#include "trace.hh"

namespace bvfbench
{

/**
 * Run the workload for about @p seconds of closed-loop rounds. With
 * @p traced the run also times each layer in process on the same pool
 * (into @p log) and reports the per-layer metrics.
 */
Outcome runKernelService(std::uint64_t seed, double seconds, bool traced,
                         SpanLog &log);

} // namespace bvfbench

#endif // BVFBENCH_SERVICE_BENCH_HH
