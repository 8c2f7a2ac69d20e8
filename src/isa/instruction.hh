/**
 * @file
 * Decoded instruction representation.
 *
 * This is the form the SM pipeline executes. The assembler maps it to and
 * from the per-architecture 64-bit binary encodings (isa/encoding.hh).
 */

#ifndef BVF_ISA_INSTRUCTION_HH
#define BVF_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace bvf::isa
{

/** Number of addressable general-purpose registers per thread. */
constexpr int numRegisters = 64;

/** Number of predicate registers per thread. */
constexpr int numPredicates = 4;

/** Sentinel predicate value meaning "unpredicated" (PT). */
constexpr int predTrue = 0;

/**
 * One decoded instruction.
 *
 * Fields not meaningful for an opcode must be zero so that encoding is
 * canonical (encode/decode round-trips exactly).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    std::uint8_t dst = 0;   //!< destination register (or SetP pred index)
    std::uint8_t srcA = 0;  //!< first source register / address register
    std::uint8_t srcB = 0;  //!< second source register / store-data reg
    std::uint8_t pred = predTrue; //!< guard predicate (0 = always)
    bool predNegate = false;      //!< execute when predicate is false
    bool immB = false;            //!< srcB replaced by imm
    std::uint8_t flags = 0;       //!< CmpOp for SetP; SpecialReg for S2R
    std::int32_t imm = 0;         //!< immediate / address offset / target

    /**
     * Reconvergence point for Bra (instruction index); carried beside
     * the binary encoding the way real hardware carries it in SSY-style
     * control blocks. Not part of the 64-bit encoding's information
     * content for non-branches.
     */
    std::int32_t reconv = 0;

    bool operator==(const Instruction &o) const = default;

    /** Assembly-like rendering for debugging. */
    std::string toString() const;
};

/** Does the guard read a predicate register (not the PT sentinel)? */
constexpr bool
readsGuard(const Instruction &instr)
{
    return instr.pred != predTrue || instr.predNegate;
}

// Operand def/use as register/predicate bit sets, for the liveness
// passes. Out-of-range operand numbers (possible only in non-canonical
// programs) contribute no bit.

/** Registers read: srcA, a register srcB, the FFMA/IMAD accumulator. */
std::uint64_t regUses(const Instruction &instr);

/** Predicate read by the guard. */
std::uint8_t predUses(const Instruction &instr);

/** Register an unpredicated write certainly overwrites. */
std::uint64_t regKills(const Instruction &instr);

/** Predicate an unpredicated SetP certainly overwrites. */
std::uint8_t predKills(const Instruction &instr);

} // namespace bvf::isa

#endif // BVF_ISA_INSTRUCTION_HH
