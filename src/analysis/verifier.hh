/**
 * @file
 * eBPF-style static admission verifier for untrusted kernels.
 *
 * Untrusted programs (bvf_client submit, the bytecode decoder, the
 * assembler) reach the simulator only through verifyProgram. The
 * verifier reuses the reduced-product abstract interpreter
 * (analysis/interpreter.hh) and admits a program only when it can
 * *prove*, before any SM cycle runs:
 *
 *  - every instruction is canonical and every branch target /
 *    reconvergence point is structurally sound (the rules.hh rules
 *    lint reports as findings),
 *  - every register and predicate guard is written before it is read,
 *  - barriers cannot be issued by a partially-masked warp and
 *    divergence nests shallowly enough to model,
 *  - every memory access stays inside its declared segment (shared,
 *    constant, texture: [0, bytes); global: the absolute window
 *    [globalSegmentBase, globalSegmentBase + globalBytes())) -- the
 *    dynamic pipeline absorbs out-of-bounds accesses silently, the
 *    verifier rejects them loudly,
 *  - one warp's dynamic instruction issue count is bounded: loops are
 *    peeled with per-iteration abstract states, unknown-guard forward
 *    branches fork into both arms and rejoin at the reconvergence
 *    point (issue counts add when the warp may split, take the max
 *    when the guard is lane-uniform), and an unknown-guard *backward*
 *    branch or an exhausted abstract-step budget is a BudgetExceeded
 *    rejection: not provably terminating means not admitted.
 *
 * Every rejection carries a machine-readable reason and the offending
 * pc. Every acceptance carries a Certificate: the proven per-warp
 * trip bound and per-space memory footprints, which the simulator
 * enforces at run time as a contract (core/contract.hh) -- a contract
 * violation is a verifier soundness bug and aborts loudly.
 */

#ifndef BVF_ANALYSIS_VERIFIER_HH
#define BVF_ANALYSIS_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace bvf::analysis
{

/** Why a program was refused admission. */
enum class RejectReason
{
    MalformedInstruction, //!< non-canonical encoding field
    BadBranch,            //!< branch target / reconv point malformed
    BadLaunch,            //!< launch geometry out of range
    ResourceLimit,        //!< body/image/shared/name beyond the caps
    UninitRead,           //!< register/predicate read before any write
    IllFormedDivergence,  //!< partial-warp barrier or unmodelable nesting
    MemoryOutOfBounds,    //!< access not provably inside its segment
    FallsOffEnd,          //!< execution can run past the last instruction
    BudgetExceeded,       //!< termination not provable within the budget
};

constexpr int kNumRejectReasons = 9;

/** Stable machine-readable name, e.g. "budget-exceeded". */
std::string rejectReasonName(RejectReason reason);

struct Rejection
{
    RejectReason reason;
    int pc;              //!< offending instruction index (0 for global)
    std::string message; //!< human-readable detail

    /** "pc 12: budget-exceeded: ..." rendering. */
    std::string toString() const;
};

/**
 * Inclusive byte-address hull of every access the abstract exploration
 * observed in one memory space (addresses are the per-access base
 * bytes: reg[srcA] + imm).
 */
struct FootprintBounds
{
    bool accessed = false;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;

    void
    cover(std::uint32_t accessLo, std::uint32_t accessHi)
    {
        if (!accessed) {
            lo = accessLo;
            hi = accessHi;
            accessed = true;
            return;
        }
        lo = accessLo < lo ? accessLo : lo;
        hi = accessHi > hi ? accessHi : hi;
    }

    bool
    contains(std::uint32_t addr) const
    {
        return accessed && addr >= lo && addr <= hi;
    }
};

/**
 * What admission proved. The simulator enforces this as a runtime
 * contract: any warp issuing more than warpTripBound instructions, or
 * any access outside the footprint of its space, is a verifier
 * soundness bug.
 */
struct Certificate
{
    /** Upper bound on instructions one warp issues before retiring. */
    std::uint64_t warpTripBound = 0;

    /** Abstract transfer steps the exploration spent (diagnostics). */
    std::uint64_t abstractSteps = 0;

    FootprintBounds global;   //!< absolute byte addresses
    FootprintBounds shared;   //!< segment-relative byte offsets
    FootprintBounds constant; //!< image-relative byte offsets
    FootprintBounds texture;  //!< image-relative byte offsets

    /**
     * Every reachable branch is proven non-divergent: its guard is
     * either decided (all-taken or none-taken) or uniform across the
     * warp, so the SIMT reconvergence stack provably never grows past
     * its initial frame. The SM uses this to run the specialized
     * dispatch loop that skips divergence bookkeeping; Warp::diverge
     * firing under this flag is a verifier soundness bug.
     */
    bool uniformControlFlow = false;
};

/** Admission limits; the defaults fit the Table 3 machine. */
struct VerifyOptions
{
    /** Abstract transfer steps before BudgetExceeded. */
    std::uint64_t stepBudget = 1u << 20;

    std::uint32_t maxBodyInstructions = 1u << 16;
    std::uint32_t maxImageWords = 1u << 20;
    std::uint32_t maxSharedBytes = 48u * 1024u;
    std::uint32_t maxNameBytes = 256;
    int maxBlockThreads = 1024;
    int maxGridBlocks = 1 << 16;

    /** Nested unknown-guard forward branches the explorer models. */
    int maxForkDepth = 64;
};

struct Verdict
{
    bool admitted = false;

    /** Empty iff admitted; sorted by pc. */
    std::vector<Rejection> rejections;

    /** Meaningful only when admitted. */
    Certificate certificate;
};

/**
 * Statically verify @p program for admission. Total over every
 * decodeProgram / parseAsm result: never crashes, never simulates.
 */
Verdict verifyProgram(const isa::Program &program,
                      const VerifyOptions &options = {});

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_VERIFIER_HH
