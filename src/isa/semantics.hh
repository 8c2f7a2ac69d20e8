/**
 * @file
 * The one definition of BVFK per-lane ALU semantics.
 *
 * Each piece of BVFK meaning is defined once:
 *
 *  - per-lane ALU results: evalLane, here;
 *  - the functional warp (registers, predicates, guard mask, S2R
 *    values, SIMT divergence and reconvergence, the per-lane register
 *    and predicate write) and the memory-space address rules (global
 *    out-of-range, shared wrap, constant/texture modulo-and-align):
 *    isa/machine.hh;
 *  - operand def/use (guard read, register/predicate uses and certain
 *    kills): isa/instruction.hh;
 *  - the static instruction rules lint reports and admission enforces
 *    (canonical form, branch shape, def-before-use, segment bounds):
 *    analysis/rules.hh;
 *  - the abstract register/predicate write: analysis::transferWrite.
 *
 * The cycle-level SM (gpu/sm.cc) and the reference interpreter the
 * translation validator runs (analysis/equiv.cc) both execute on
 * isa::WarpState, which computes every data-path result through
 * evalLane, and the abstract-transfer soundness tests check their
 * transfer functions against evalLane, so the simulator, the
 * validator's oracle and the analysis agree on what an opcode means by
 * construction.
 *
 * fp32 NaN propagation is pinned here rather than left to the compiler.
 * x86 SSE returns the first source operand's NaN when both operands
 * are NaN, and which operand lands first depends on register
 * allocation, so two textually identical copies of "a * b" could
 * disagree (the SM and the reference interpreter did). The rule below
 * is the one the SM has always executed: FADD/FMUL return B's NaN,
 * else A's; FFMA's add returns the product's NaN, else the addend's;
 * every NaN is returned quieted.
 */

#ifndef BVF_ISA_SEMANTICS_HH
#define BVF_ISA_SEMANTICS_HH

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "isa/opcode.hh"

namespace bvf::isa
{

namespace detail
{

constexpr Word kFloatQuietBit = 0x00400000u;

constexpr bool
isNaN(Word w)
{
    return (w & 0x7fffffffu) > 0x7f800000u;
}

/** @p computed, unless an operand is NaN: then the first NaN, quieted. */
constexpr Word
pinNaN(Word first, Word second, Word computed)
{
    if (isNaN(first))
        return first | kFloatQuietBit;
    if (isNaN(second))
        return second | kFloatQuietBit;
    return computed;
}

} // namespace detail

/**
 * One lane of an ALU instruction.
 *
 * @param a     source A
 * @param b     source B (register or immediate)
 * @param c     the destination register's old value (FFMA/IMAD addend)
 * @param flags the instruction's flags field (SETP comparison)
 * @return the result word, or for SETP the predicate as 0/1
 */
[[gnu::always_inline]] inline Word
evalLane(Opcode op, Word a, Word b, Word c, std::uint8_t flags)
{
    using detail::pinNaN;
    const auto f = [](Word w) { return std::bit_cast<float>(w); };
    const auto w = [](float x) { return std::bit_cast<Word>(x); };
    const auto s = [](Word x) { return static_cast<std::int32_t>(x); };
    switch (op) {
      case Opcode::Ffma: {
        const Word product = pinNaN(b, a, w(f(a) * f(b)));
        return pinNaN(product, c, w(f(product) + f(c)));
      }
      case Opcode::Fadd:
        return pinNaN(b, a, w(f(a) + f(b)));
      case Opcode::Fmul:
        return pinNaN(b, a, w(f(a) * f(b)));
      case Opcode::IAdd:
        return a + b;
      case Opcode::ISub:
        return a - b;
      case Opcode::IMul:
        return a * b;
      case Opcode::IMad:
        return a * b + c;
      case Opcode::Mov:
        return b;
      case Opcode::Shl:
        return a << (b & 31u);
      case Opcode::Shr:
        return a >> (b & 31u);
      case Opcode::And:
        return a & b;
      case Opcode::Or:
        return a | b;
      case Opcode::Xor:
        return a ^ b;
      case Opcode::I2F:
        return w(static_cast<float>(s(a)));
      case Opcode::F2I:
        return static_cast<Word>(static_cast<std::int32_t>(f(a)));
      case Opcode::Clz:
        return static_cast<Word>(std::countl_zero(a));
      case Opcode::Min:
        return static_cast<Word>(std::min(s(a), s(b)));
      case Opcode::Max:
        return static_cast<Word>(std::max(s(a), s(b)));
      case Opcode::SetP:
        switch (static_cast<CmpOp>(flags)) {
          case CmpOp::Lt: return s(a) < s(b);
          case CmpOp::Le: return s(a) <= s(b);
          case CmpOp::Gt: return s(a) > s(b);
          case CmpOp::Ge: return s(a) >= s(b);
          case CmpOp::Eq: return s(a) == s(b);
          case CmpOp::Ne: return s(a) != s(b);
        }
        return 0;
      default:
        panic("evalLane: %s is not a per-lane ALU opcode",
              opcodeName(op).c_str());
    }
}

} // namespace bvf::isa

#endif // BVF_ISA_SEMANTICS_HH
