/**
 * @file
 * Unit and property tests for the known-bits abstract domain.
 *
 * Every transfer function is checked two ways: hand-picked cases with
 * exact expected facts, and a randomized soundness sweep -- draw random
 * abstractions, random concrete members of each, apply the concrete
 * operation the SM executes and assert the abstract result contains it.
 */

#include <gtest/gtest.h>

#include "analysis/known_bits.hh"
#include "coder/nv_coder.hh"
#include "common/rng.hh"
#include "isa/semantics.hh"

using namespace bvf;
using namespace bvf::analysis;

namespace
{

/** Random abstraction guaranteed to contain @p v. */
KnownBits
abstractionAround(Rng &rng, Word v)
{
    KnownBits kb;
    const Word mask = rng.nextU32();
    kb.knownZero = ~v & mask;
    kb.knownOne = v & mask;
    const Word down = static_cast<Word>(rng.nextBounded(1u << 16));
    const Word up = static_cast<Word>(rng.nextBounded(1u << 16));
    kb.lo = v >= down ? v - down : 0;
    kb.hi = v <= 0xffffffffu - up ? v + up : 0xffffffffu;
    kb = kb.normalized();
    EXPECT_TRUE(kb.contains(v)) << kb.toString();
    return kb;
}

constexpr int propertyRounds = 2000;

} // namespace

TEST(KnownBitsTest, ConstantIsExact)
{
    const auto kb = KnownBits::constant(0xdeadbeefu);
    EXPECT_TRUE(kb.isConstant());
    EXPECT_TRUE(kb.contains(0xdeadbeefu));
    EXPECT_FALSE(kb.contains(0xdeadbeeeu));
    EXPECT_EQ(kb.lo, 0xdeadbeefu);
    EXPECT_EQ(kb.hi, 0xdeadbeefu);
    EXPECT_EQ(kb.minOnes(), kb.maxOnes());
}

TEST(KnownBitsTest, TopContainsEverything)
{
    const auto kb = KnownBits::top();
    EXPECT_TRUE(kb.contains(0));
    EXPECT_TRUE(kb.contains(0xffffffffu));
    EXPECT_EQ(kb.minOnes(), 0);
    EXPECT_EQ(kb.maxOnes(), 32);
}

TEST(KnownBitsTest, RangeDerivesLeadingBits)
{
    // [0, 4095]: the 20 leading bits are provably zero.
    const auto kb = KnownBits::range(0, 4095);
    EXPECT_EQ(kb.knownZero, 0xfffff000u);
    EXPECT_EQ(kb.knownOne, 0u);
}

TEST(KnownBitsTest, NormalizeRefinesBothDirections)
{
    // Interval [0x100, 0x1ff] forces bit 8 known-one and bits 9..31
    // known-zero.
    KnownBits kb;
    kb.lo = 0x100;
    kb.hi = 0x1ff;
    kb = kb.normalized();
    EXPECT_TRUE(kb.knownOne & 0x100u);
    EXPECT_EQ(kb.knownZero & 0xfffffe00u, 0xfffffe00u);

    // Known bits clamp the interval: bit 31 known-one lifts lo.
    KnownBits hi_bit;
    hi_bit.knownOne = 0x80000000u;
    hi_bit = hi_bit.normalized();
    EXPECT_GE(hi_bit.lo, 0x80000000u);
}

TEST(KnownBitsTest, JoinForgetsDisagreement)
{
    const auto a = KnownBits::constant(0x0f);
    const auto b = KnownBits::constant(0xf0);
    const auto j = join(a, b);
    EXPECT_TRUE(j.contains(0x0f));
    EXPECT_TRUE(j.contains(0xf0));
    // Bits 8..31 still known zero; bits 0..7 unknown.
    EXPECT_EQ(j.knownZero, 0xffffff00u);
    EXPECT_EQ(j.knownOne, 0u);
    EXPECT_EQ(j.lo, 0x0fu);
    EXPECT_EQ(j.hi, 0xf0u);
}

TEST(KnownBitsTest, JoinWithEmptyIsIdentity)
{
    KnownBits empty;
    empty.knownZero = 1;
    empty.knownOne = 1;
    ASSERT_TRUE(empty.empty());
    const auto a = KnownBits::constant(42);
    EXPECT_EQ(join(a, empty), a);
    EXPECT_EQ(join(empty, a), a);
}

TEST(KnownBitsTest, Bool3Join)
{
    EXPECT_EQ(join(Bool3::True, Bool3::True), Bool3::True);
    EXPECT_EQ(join(Bool3::False, Bool3::False), Bool3::False);
    EXPECT_EQ(join(Bool3::True, Bool3::False), Bool3::Unknown);
    EXPECT_EQ(not3(Bool3::True), Bool3::False);
    EXPECT_EQ(not3(Bool3::Unknown), Bool3::Unknown);
}

TEST(KnownBitsTest, AddExactOnConstants)
{
    const auto r = kbAdd(KnownBits::constant(7), KnownBits::constant(9));
    EXPECT_TRUE(r.isConstant());
    EXPECT_TRUE(r.contains(16));
}

TEST(KnownBitsTest, AddTracksLowZeros)
{
    // Both addends have the low 4 bits zero: so does the sum.
    KnownBits a;
    a.knownZero = 0xf;
    KnownBits b;
    b.knownZero = 0xf;
    const auto r = kbAdd(a.normalized(), b.normalized());
    EXPECT_EQ(r.knownZero & 0xfu, 0xfu);
}

TEST(KnownBitsTest, SubExactOnConstants)
{
    const auto r = kbSub(KnownBits::constant(5), KnownBits::constant(9));
    EXPECT_TRUE(r.contains(static_cast<Word>(5u - 9u)));
    EXPECT_TRUE(r.isConstant());
}

TEST(KnownBitsTest, BitwiseFacts)
{
    const auto a = KnownBits::range(0, 0xff);
    const auto m = KnownBits::constant(0x0f);
    const auto r = kbAnd(a, m);
    EXPECT_EQ(r.knownZero & 0xfffffff0u, 0xfffffff0u);
    EXPECT_LE(r.hi, 0x0fu);

    const auto o = kbOr(KnownBits::constant(0x80), a);
    EXPECT_TRUE(o.knownOne & 0x80u);
    EXPECT_GE(o.lo, 0x80u);

    const auto x = kbXor(KnownBits::constant(0xff), KnownBits::constant(0x0f));
    EXPECT_TRUE(x.contains(0xf0));
    EXPECT_TRUE(x.isConstant());

    const auto n = kbNot(KnownBits::constant(0));
    EXPECT_TRUE(n.contains(0xffffffffu));
}

TEST(KnownBitsTest, ShiftsWithKnownAmount)
{
    const auto r = kbShl(KnownBits::constant(1), KnownBits::constant(4));
    EXPECT_TRUE(r.contains(16));
    EXPECT_TRUE(r.isConstant());

    const auto s = kbShr(KnownBits::constant(0x80), KnownBits::constant(3));
    EXPECT_TRUE(s.contains(0x10));
}

TEST(KnownBitsTest, ShiftsWithUnknownAmountStaySound)
{
    // Shifting [0, 15] left by an unknown amount keeps the low bit only
    // when the amount could be zero.
    const auto r = kbShl(KnownBits::range(0, 15), KnownBits::top());
    EXPECT_TRUE(r.contains(0));
    EXPECT_TRUE(r.contains(15u << 31));
}

TEST(KnownBitsTest, MulTracksTrailingZeros)
{
    // (8k) * (4m) has at least 5 trailing zero bits.
    KnownBits a;
    a.knownZero = 0x7;
    KnownBits b;
    b.knownZero = 0x3;
    const auto r = kbMul(a.normalized(), b.normalized());
    EXPECT_EQ(r.knownZero & 0x1fu, 0x1fu);
}

TEST(KnownBitsTest, ClzAntitone)
{
    const auto r = kbClz(KnownBits::range(0x10, 0xff));
    // clz(0xff)=24 .. clz(0x10)=27
    EXPECT_EQ(r.lo, 24u);
    EXPECT_EQ(r.hi, 27u);
}

TEST(KnownBitsTest, MinMaxSignedCrossClass)
{
    // a in [1, 10] (non-negative), b = -5 (negative as unsigned).
    const auto a = KnownBits::range(1, 10);
    const auto b = KnownBits::constant(static_cast<Word>(-5));
    const auto mn = kbMinSigned(a, b);
    EXPECT_TRUE(mn.isConstant());
    EXPECT_TRUE(mn.contains(static_cast<Word>(-5)));
    const auto mx = kbMaxSigned(a, b);
    EXPECT_TRUE(mx.contains(1));
    EXPECT_TRUE(mx.contains(10));
    EXPECT_FALSE(mx.contains(static_cast<Word>(-5)));
}

TEST(KnownBitsTest, CompareSignedClasses)
{
    const auto small = KnownBits::range(0, 10);
    const auto big = KnownBits::range(100, 200);
    const auto neg = KnownBits::constant(static_cast<Word>(-1));
    EXPECT_EQ(kbCompare(isa::CmpOp::Lt, small, big), Bool3::True);
    EXPECT_EQ(kbCompare(isa::CmpOp::Ge, small, big), Bool3::False);
    EXPECT_EQ(kbCompare(isa::CmpOp::Lt, neg, small), Bool3::True);
    EXPECT_EQ(kbCompare(isa::CmpOp::Eq, small, big), Bool3::False);
    EXPECT_EQ(kbCompare(isa::CmpOp::Lt, small, small), Bool3::Unknown);
    EXPECT_EQ(kbCompare(isa::CmpOp::Eq, KnownBits::constant(4),
                        KnownBits::constant(4)),
              Bool3::True);
}

TEST(KnownBitsTest, NvEncodeKnownBits)
{
    const coder::NvCoder nv;
    // Known non-negative constant: encoding fully known.
    const auto c = KnownBits::constant(0x1234u);
    const auto e = nvEncodeKnownBits(c);
    EXPECT_TRUE(e.contains(nv.encode(0x1234u)));
    EXPECT_TRUE(e.isConstant());

    // Unknown sign: body bits unknown even when source bits are known.
    const auto t = nvEncodeKnownBits(KnownBits::top());
    EXPECT_EQ(t.knownMask() & 0x7fffffffu, 0u);
}

TEST(KnownBitsTest, RatioBoundsFromMasks)
{
    KnownBits kb;
    kb.knownOne = 0xff;        // >= 8 ones
    kb.knownZero = 0xff000000; // <= 24 ones
    const auto b = ratioBounds(kb.normalized());
    EXPECT_DOUBLE_EQ(b.lo, 8.0 / 32.0);
    EXPECT_DOUBLE_EQ(b.hi, 24.0 / 32.0);
}

TEST(KnownBitsTest, XnorRatioBounds)
{
    // Identical constants agree everywhere: XNOR is all ones.
    const auto c = KnownBits::constant(0xabcd1234u);
    EXPECT_EQ(agreeKnownCount(c, c), 32);
    const auto b = xnorRatioBounds(c, c);
    EXPECT_DOUBLE_EQ(b.lo, 1.0);
    EXPECT_DOUBLE_EQ(b.hi, 1.0);

    // Complementary constants disagree everywhere.
    const auto d = xnorRatioBounds(c, kbNot(c));
    EXPECT_DOUBLE_EQ(d.lo, 0.0);
    EXPECT_DOUBLE_EQ(d.hi, 0.0);
}

// --- randomized soundness sweeps ---------------------------------------

TEST(KnownBitsPropertyTest, BinaryTransferSoundness)
{
    Rng rng(0xb1750001);
    // The concrete side is the lane semantics the SM executes.
    struct Case
    {
        const char *name;
        KnownBits (*abs)(const KnownBits &, const KnownBits &);
        isa::Opcode op;
    };
    const Case cases[] = {
        {"add", kbAdd, isa::Opcode::IAdd},
        {"sub", kbSub, isa::Opcode::ISub},
        {"and", kbAnd, isa::Opcode::And},
        {"or", kbOr, isa::Opcode::Or},
        {"xor", kbXor, isa::Opcode::Xor},
        {"shl", kbShl, isa::Opcode::Shl},
        {"shr", kbShr, isa::Opcode::Shr},
        {"mul", kbMul, isa::Opcode::IMul},
        {"min", kbMinSigned, isa::Opcode::Min},
        {"max", kbMaxSigned, isa::Opcode::Max},
    };
    for (const Case &c : cases) {
        for (int i = 0; i < propertyRounds; ++i) {
            const Word x = rng.nextU32();
            const Word y = rng.nextU32();
            const auto a = abstractionAround(rng, x);
            const auto b = abstractionAround(rng, y);
            const Word result = isa::evalLane(c.op, x, y, 0, 0);
            const auto r = c.abs(a, b);
            ASSERT_TRUE(r.contains(result))
                << c.name << "(" << x << ", " << y << ") = " << result
                << " not in " << r.toString() << " from " << a.toString()
                << " x " << b.toString();
        }
    }
}

TEST(KnownBitsPropertyTest, UnaryTransferSoundness)
{
    Rng rng(0xb1750002);
    for (int i = 0; i < propertyRounds; ++i) {
        const Word x = rng.nextU32();
        const auto a = abstractionAround(rng, x);
        ASSERT_TRUE(kbNot(a).contains(~x));
        ASSERT_TRUE(kbClz(a).contains(
            isa::evalLane(isa::Opcode::Clz, x, 0, 0, 0)));
    }
}

TEST(KnownBitsPropertyTest, CompareSoundness)
{
    Rng rng(0xb1750003);
    const isa::CmpOp ops[] = {isa::CmpOp::Lt, isa::CmpOp::Le,
                              isa::CmpOp::Gt, isa::CmpOp::Ge,
                              isa::CmpOp::Eq, isa::CmpOp::Ne};
    for (int i = 0; i < propertyRounds; ++i) {
        // Narrow ranges so definite verdicts actually occur.
        const Word x = static_cast<Word>(rng.nextBounded(512))
                       - static_cast<Word>(rng.nextBounded(2)) * 256u;
        const Word y = static_cast<Word>(rng.nextBounded(512))
                       - static_cast<Word>(rng.nextBounded(2)) * 256u;
        const auto a = abstractionAround(rng, x);
        const auto b = abstractionAround(rng, y);
        for (const auto op : ops) {
            const bool conc =
                isa::evalLane(isa::Opcode::SetP, x, y, 0,
                              static_cast<std::uint8_t>(op))
                != 0;
            const Bool3 abs = kbCompare(op, a, b);
            if (abs != Bool3::Unknown) {
                ASSERT_EQ(abs, conc ? Bool3::True : Bool3::False)
                    << "cmp " << static_cast<int>(op) << " of "
                    << static_cast<std::int32_t>(x) << ", "
                    << static_cast<std::int32_t>(y);
            }
        }
    }
}

TEST(KnownBitsPropertyTest, NvEncodeSoundness)
{
    Rng rng(0xb1750004);
    const coder::NvCoder nv;
    for (int i = 0; i < propertyRounds; ++i) {
        const Word x = rng.nextU32();
        const auto a = abstractionAround(rng, x);
        const Word enc = nv.encode(x);
        ASSERT_TRUE(nvEncodeKnownBits(a).contains(enc));
        const auto rb = nvRatioBounds(a);
        const double ratio = hammingWeight(enc) / 32.0;
        ASSERT_GE(ratio, rb.lo - 1e-12);
        ASSERT_LE(ratio, rb.hi + 1e-12);
    }
}

TEST(KnownBitsPropertyTest, RatioAndXnorSoundness)
{
    Rng rng(0xb1750005);
    for (int i = 0; i < propertyRounds; ++i) {
        const Word x = rng.nextU32();
        const Word y = rng.nextU32();
        const auto a = abstractionAround(rng, x);
        const auto b = abstractionAround(rng, y);

        const auto rb = ratioBounds(a);
        const double r = hammingWeight(x) / 32.0;
        ASSERT_GE(r, rb.lo - 1e-12);
        ASSERT_LE(r, rb.hi + 1e-12);

        const auto xb = xnorRatioBounds(a, b);
        const double xr = hammingWeight(~(x ^ y)) / 32.0;
        ASSERT_GE(xr, xb.lo - 1e-12);
        ASSERT_LE(xr, xb.hi + 1e-12);
    }
}

TEST(KnownBitsPropertyTest, JoinIsUpperBound)
{
    Rng rng(0xb1750006);
    for (int i = 0; i < propertyRounds; ++i) {
        const Word x = rng.nextU32();
        const Word y = rng.nextU32();
        const auto a = abstractionAround(rng, x);
        const auto b = abstractionAround(rng, y);
        const auto j = join(a, b);
        ASSERT_TRUE(j.contains(x));
        ASSERT_TRUE(j.contains(y));
    }
}
