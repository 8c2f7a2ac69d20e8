/**
 * @file
 * The static instruction rules of BVFK, defined once.
 *
 * The linter (lint.hh) reports a violated rule as a finding and the
 * admission verifier (verifier.hh) as a rejection; both take the rule
 * and its message from here, so what lint warns about and what
 * admission refuses cannot drift apart. The rules:
 *
 *  - canonical form: every field in range, every field the opcode
 *    ignores zero (the encoder's canonical output),
 *  - branch shape: a forward branch reconverges at or past its target,
 *    a backward one strictly past the branch, both inside the body,
 *  - def-before-use: every register and guard predicate read is
 *    written on every path to the read,
 *  - segment bounds: a memory access stays inside its declared segment.
 */

#ifndef BVF_ANALYSIS_RULES_HH
#define BVF_ANALYSIS_RULES_HH

#include <optional>
#include <string>
#include <vector>

#include "analysis/interpreter.hh"

namespace bvf::analysis
{

enum class Rule
{
    NonCanonical,   //!< field out of range, or set though ignored
    BadBranch,      //!< branch target / reconvergence point malformed
    UninitRegRead,  //!< register read before any write on some path
    UninitPredRead, //!< guard read before any SetP on some path
    SharedOob,      //!< shared offset may leave the block's segment
    ConstOob,       //!< constant offset may leave the constant image
    TexOob,         //!< texture offset may leave the texture image
    GlobalOob,      //!< global address may leave the global segment
};

struct RuleViolation
{
    Rule rule;
    std::string message;

    /**
     * The access may leave a non-empty shared, constant or texture
     * segment; the machine wraps such offsets back into it.
     */
    bool wraps = false;
};

/**
 * Canonical form, then branch shape, of the instruction at @p pc of a
 * @p bodySize body. Total over any decode result: an unknown opcode is
 * the only violation reported for it.
 */
void checkStructure(const isa::Instruction &instr, int pc, int bodySize,
                    std::vector<RuleViolation> &out);

/** Reads of registers or predicates not written on every path to @p in. */
void checkUninit(const isa::Instruction &instr, const AbsState &in,
                 std::vector<RuleViolation> &out);

/**
 * Segment bounds of memory instruction @p instr whose byte address
 * lies in @p addr; nullopt when the access provably stays inside.
 */
std::optional<RuleViolation> checkSegment(const isa::Program &program,
                                          const isa::Instruction &instr,
                                          const KnownBits &addr);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_RULES_HH
