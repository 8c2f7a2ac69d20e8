/**
 * @file
 * Seeded kernel pool for the kernel-service workload.
 *
 * Shaped like the random kernels of the admission and optimizer
 * property tests: initialized registers, masked in-bounds addressing,
 * counted loops and a data-dependent branch. Every admissible kernel
 * carries rewrites the optimizer can apply (a dead write and a
 * multiply by a power of two), so optimize-on-submit always runs
 * translation validation. A fixed minority is hostile in one of two
 * ways the verifier must reject. Global images span 0.1-1 MB of
 * bytecode, the suite's range, so the bytecode codec and the frame
 * layer carry real payloads. Launch geometry varies over 12 shapes, so
 * no evaluation-latency percentile sits on a boundary between a few
 * shape classes. Sizes, shapes and the hostile share are stratified,
 * so every seed's pool carries the same total work.
 */

#ifndef BVFBENCH_KERNEL_POOL_HH
#define BVFBENCH_KERNEL_POOL_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verifier.hh"

namespace bvfbench
{

/** What a pool kernel is built to be. */
enum class KernelKind
{
    Admissible,
    UninitRead,        //!< reads a register nothing wrote
    SharedOutOfBounds, //!< stores past the shared segment
};

/** One submission-ready kernel. */
struct PoolKernel
{
    std::string name;     //!< "pool-NN"
    KernelKind kind = KernelKind::Admissible;
    std::string bytecode; //!< canonical BVFK bytecode
    std::size_t worker = 0; //!< designated (and routed) worker
};

/** Kernels in the pool. */
constexpr std::size_t kPoolSize = 48;

/** Hostile kernels in the pool (the rest are admissible). */
constexpr std::size_t kHostileKernels = 8;

/** Global-image bounds in words: 0.1 MB to 0.96 MB of bytecode. */
constexpr std::size_t kMinGlobalWords = 25000;
constexpr std::size_t kMaxGlobalWords = 240000;

/** Workers of the fleet the pool is served by. */
constexpr std::size_t kWorkers = 2;

/**
 * The fleet id ("host:port") worker @p i is routed under. The ids are
 * logical and fixed, so the consistent-hash ring sends each kernel to
 * the same worker on every run, whatever ports the workers bind.
 */
std::string workerRouteId(std::size_t i);

/**
 * The work-determining shape of one pool kernel and the seeds of its
 * contents. The pool fixes the multiset of shapes; the seed shuffles
 * them and draws the contents (immediates, ALU ops, operands, image
 * data).
 */
struct PoolSlot
{
    KernelKind kind = KernelKind::Admissible;
    std::size_t globalWords = 0;
    std::size_t worker = 0;
    int threads = 32;
    int blocks = 1;
    int aluOps = 2;    //!< random ALU instructions
    int loopTrips = 0; //!< 0 = no counted loop
    bool branch = false;
    bool sharedPair = false;
    std::uint64_t imageSeed = 0; //!< draws the global image
    std::uint64_t asmSeed = 0;   //!< draws the instructions
};

/** Everything that fixes a pool, one slot per kernel. */
struct KernelPoolPlan
{
    std::vector<PoolSlot> slots;
};

/**
 * The plan for @p seed; a pure function of the seed. Each slot's
 * instructions are redrawn until the ring over workerRouteId() routes
 * its digest to the slot's designated worker, so both workers receive
 * the same mix of sizes, shapes and hostile kernels. The number of
 * redraws depends on the seed, so planning is not part of the timed
 * set-up.
 */
KernelPoolPlan planKernelPool(std::uint64_t seed);

/**
 * The kernels of @p plan, each assembled and encoded exactly once, so
 * building costs the same work for every seed.
 */
std::vector<PoolKernel> buildKernelPool(const KernelPoolPlan &plan);

/** buildKernelPool(planKernelPool(@p seed)). */
std::vector<PoolKernel> makeKernelPool(std::uint64_t seed);

/** The worker the ring routes @p k to. */
std::size_t routedWorker(const PoolKernel &k);

/** The rejection a hostile kernel must draw; none when admissible. */
std::optional<bvf::analysis::RejectReason> expectedRejection(KernelKind k);

/**
 * Kernels one worker can end up holding for @p pool: an admitted,
 * optimized submission stores the original and the optimized program,
 * and in the worst case the ring routes every kernel to one worker.
 */
std::size_t plannedResidentKernels(const std::vector<PoolKernel> &pool);

} // namespace bvfbench

#endif // BVFBENCH_KERNEL_POOL_HH
