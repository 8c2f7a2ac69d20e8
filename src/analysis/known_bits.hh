/**
 * @file
 * The known-bits abstract domain for 32-bit GPU words.
 *
 * An abstract value tracks, per bit position, whether the bit is proven
 * 0, proven 1, or unknown, together with an unsigned value interval
 * [lo, hi]. The two components refine each other: agreeing leading bits
 * of the interval endpoints become known bits, and the known-bit masks
 * clamp the interval (normalize()).
 *
 * This is the domain the static bit-density predictor lowers through the
 * paper's coder transforms: popcount(knownOne) bounds the bit-1 ratio of
 * any word drawn from the abstraction from below, and
 * 32 - popcount(knownZero) bounds it from above, so every on-chip stream
 * whose words are covered by a set of abstractions has a provable
 * density interval regardless of how the stream mixes them.
 */

#ifndef BVF_ANALYSIS_KNOWN_BITS_HH
#define BVF_ANALYSIS_KNOWN_BITS_HH

#include <string>

#include "common/bitops.hh"
#include "isa/opcode.hh"

namespace bvf::analysis
{

/** Three-valued boolean for predicate registers and carry chains. */
enum class Bool3
{
    False,
    True,
    Unknown,
};

/** Join (least upper bound) of two three-valued booleans. */
constexpr Bool3
join(Bool3 a, Bool3 b)
{
    return a == b ? a : Bool3::Unknown;
}

/** Negate, preserving Unknown. */
constexpr Bool3
not3(Bool3 a)
{
    switch (a) {
      case Bool3::False:
        return Bool3::True;
      case Bool3::True:
        return Bool3::False;
      case Bool3::Unknown:
        return Bool3::Unknown;
    }
    return Bool3::Unknown;
}

/**
 * One abstract 32-bit word: per-bit knowledge plus an unsigned interval.
 *
 * Invariant (established by normalized()): knownZero & knownOne == 0,
 * lo <= hi, lo >= knownOne and hi <= ~knownZero. An abstraction whose
 * refinement is contradictory (no concrete word satisfies it) reports
 * empty().
 */
struct KnownBits
{
    Word knownZero = 0;          //!< bits proven 0
    Word knownOne = 0;           //!< bits proven 1
    Word lo = 0;                 //!< unsigned interval lower bound
    Word hi = 0xffffffffu;       //!< unsigned interval upper bound

    /** The completely unknown word. */
    static KnownBits top() { return {}; }

    /** Exact constant. */
    static KnownBits constant(Word v);

    /** Abstraction of the unsigned range [lo, hi]. */
    static KnownBits range(Word lo, Word hi);

    Word knownMask() const { return knownZero | knownOne; }
    bool isConstant() const { return knownMask() == 0xffffffffu; }

    /** No concrete word satisfies the constraints. */
    bool
    empty() const
    {
        return (knownZero & knownOne) != 0 || lo > hi;
    }

    /** Does the concrete word @p v satisfy every constraint? */
    bool
    contains(Word v) const
    {
        return (v & knownZero) == 0 && (v & knownOne) == knownOne
               && v >= lo && v <= hi;
    }

    /** Minimum possible Hamming weight of a contained word. */
    int minOnes() const { return hammingWeight(knownOne); }

    /** Maximum possible Hamming weight of a contained word. */
    int maxOnes() const { return 32 - hammingWeight(knownZero); }

    /**
     * Mutually refine interval and bit masks. Always call after
     * combining components by hand; the transfer functions below return
     * normalized values.
     */
    KnownBits normalized() const;

    bool operator==(const KnownBits &o) const = default;

    /** "[0x0,0xfff] 0b??..01" style rendering for diagnostics. */
    std::string toString() const;
};

/** Join (least upper bound): forgets bits/ranges the sides disagree on. */
KnownBits join(const KnownBits &a, const KnownBits &b);

/**
 * Widening for the interval component: if @p next still grows past
 * @p prev, the interval is sent straight to [0, 2^32) so loops
 * terminate. The bit masks live in a finite lattice and pass through.
 */
KnownBits widen(const KnownBits &prev, const KnownBits &next);

// --- transfer functions (sound abstractions of isa::evalLane) ----------

/** a + b (32-bit wrapping). */
KnownBits kbAdd(const KnownBits &a, const KnownBits &b);

/** a - b (32-bit wrapping). */
KnownBits kbSub(const KnownBits &a, const KnownBits &b);

KnownBits kbAnd(const KnownBits &a, const KnownBits &b);
KnownBits kbOr(const KnownBits &a, const KnownBits &b);
KnownBits kbXor(const KnownBits &a, const KnownBits &b);
KnownBits kbNot(const KnownBits &a);

/** a << (b & 31). */
KnownBits kbShl(const KnownBits &a, const KnownBits &b);

/** a >> (b & 31), logical. */
KnownBits kbShr(const KnownBits &a, const KnownBits &b);

/** a * b (32-bit wrapping). */
KnownBits kbMul(const KnownBits &a, const KnownBits &b);

/** countl_zero(a). */
KnownBits kbClz(const KnownBits &a);

/** min(a, b) / max(a, b), signed, as Opcode::Min/Max compute them. */
KnownBits kbMinSigned(const KnownBits &a, const KnownBits &b);
KnownBits kbMaxSigned(const KnownBits &a, const KnownBits &b);

/** Signed comparison as Opcode::SetP evaluates it. */
Bool3 kbCompare(isa::CmpOp cmp, const KnownBits &a, const KnownBits &b);

// --- coder transforms --------------------------------------------------

/**
 * Known bits of NvCoder::encode applied to any word of @p a. A body bit
 * of the encoding is known only when both the source bit and the sign
 * bit are known (the encoder XNORs each body bit with the sign).
 */
KnownBits nvEncodeKnownBits(const KnownBits &a);

/** Inclusive bounds on a fraction in [0, 1]. */
struct RatioBound
{
    double lo = 0.0;
    double hi = 1.0;
};

/** Bit-1 ratio bounds of a raw (uncoded) word drawn from @p a. */
RatioBound ratioBounds(const KnownBits &a);

/**
 * Bit-1 ratio bounds of NvCoder::encode(w) for w drawn from @p a.
 * Tighter than ratioBounds(nvEncodeKnownBits(a)): when the sign is
 * unknown the two sign cases are analyzed separately and hulled.
 */
RatioBound nvRatioBounds(const KnownBits &a);

/**
 * Number of bit positions guaranteed to agree between any word drawn
 * from @p a and any word drawn from @p b. XNORing two such words yields
 * at least this many 1 bits -- the VS coder's lower bound.
 */
int agreeKnownCount(const KnownBits &a, const KnownBits &b);

/**
 * Bit-1 ratio bounds of a XNOR b -- the VS coder's non-pivot output:
 * positions known to agree force 1s, positions known to disagree force
 * 0s, the rest float.
 */
RatioBound xnorRatioBounds(const KnownBits &a, const KnownBits &b);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_KNOWN_BITS_HH
