/**
 * @file
 * Translation validator: the identity translation validates on every
 * suite kernel, genuine optimizer edit sets validate, and unjustified
 * rewrites -- changed constants, deleted stores, malformed source
 * maps -- are refused with a reason. The reference interpreter
 * backing the differential layer is deterministic and actually
 * distinguishes behaviorally different programs.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "analysis/equiv.hh"
#include "analysis/optimizer.hh"
#include "gpu/gpu.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

isa::Program
mustParse(const std::string &text)
{
    auto parsed = isa::parseAsm(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    return parsed.ok() ? parsed.value() : isa::Program{};
}

std::vector<int>
identityMap(const isa::Program &p)
{
    std::vector<int> id(p.body.size());
    std::iota(id.begin(), id.end(), 0);
    return id;
}

/** A small kernel whose store value flows through some arithmetic. */
const char *const kStoreKernel = ".kernel store\n"
                                 ".launch 1 32\n"
                                 ".shared 256\n"
                                 "    S2R R1, SR_TIDX\n"
                                 "    AND R2, R1, #31\n"
                                 "    SHL R2, R2, #2\n"
                                 "    IADD R3, R1, #5\n"
                                 "    STS [R2 + 0], R3\n"
                                 "    EXIT\n";

// Identity validation over the whole suite -- the "58/58" acceptance
// criterion. Split by index parity to stay inside the per-test
// timeout under sanitizers (the differential layer simulates every
// kernel on several seeded inputs).
void
identityValidatesSuiteHalf(std::size_t parity)
{
    const auto &suite = workload::evaluationSuite();
    for (std::size_t i = parity; i < suite.size(); i += 2) {
        const auto &spec = suite[i];
        const isa::Program p = workload::buildProgram(spec);
        const auto v =
            analysis::validateTranslation(p, p, identityMap(p));
        EXPECT_TRUE(v.equivalent) << spec.abbr << ": " << v.reason;
        EXPECT_GT(v.simulatedSeeds, 0) << spec.abbr;
    }
}

} // namespace

TEST(Equiv, IdentityValidatesEverySuiteKernelFirstHalf)
{
    identityValidatesSuiteHalf(0);
}

TEST(Equiv, IdentityValidatesEverySuiteKernelSecondHalf)
{
    identityValidatesSuiteHalf(1);
}

TEST(Equiv, AcceptsGenuineOptimizerEditSet)
{
    const isa::Program p = mustParse(".kernel edit\n"
                                     ".launch 1 32\n"
                                     ".shared 256\n"
                                     "    S2R R1, SR_TIDX\n"
                                     "    MOV R2, #5\n"
                                     "    IADD R3, R2, #7\n"
                                     "    AND R4, R1, #31\n"
                                     "    SHL R4, R4, #2\n"
                                     "    STS [R4 + 0], R3\n"
                                     "    MOV R9, #1\n"
                                     "    EXIT\n");
    analysis::OptimizeOptions opts;
    opts.validate = false; // produce the edit, validate it here
    const auto res = analysis::optimizeProgram(p, opts);
    ASSERT_TRUE(res.originalAdmitted);
    ASSERT_TRUE(res.changed);
    const auto v =
        analysis::validateTranslation(p, res.program, res.sourcePc);
    EXPECT_TRUE(v.equivalent) << v.reason;
}

TEST(Equiv, RejectsChangedConstant)
{
    const isa::Program p = mustParse(kStoreKernel);
    isa::Program wrong = p;
    wrong.body[3].imm = 6; // IADD R3, R1, #5 -> #6: different store
    const auto v =
        analysis::validateTranslation(p, wrong, identityMap(p));
    EXPECT_FALSE(v.equivalent);
    EXPECT_FALSE(v.reason.empty());
}

TEST(Equiv, RejectsDeletedStore)
{
    const isa::Program p = mustParse(kStoreKernel);
    isa::Program wrong = p;
    std::vector<int> map = identityMap(p);
    // Drop the STS (index 4): observable behavior disappears.
    wrong.body.erase(wrong.body.begin() + 4);
    map.erase(map.begin() + 4);
    const auto v = analysis::validateTranslation(p, wrong, map);
    EXPECT_FALSE(v.equivalent);
}

TEST(Equiv, RejectsMalformedSourceMaps)
{
    const isa::Program p = mustParse(kStoreKernel);

    // Wrong length.
    std::vector<int> tooShort = identityMap(p);
    tooShort.pop_back();
    EXPECT_FALSE(
        analysis::validateTranslation(p, p, tooShort).equivalent);

    // Not strictly increasing.
    std::vector<int> repeated = identityMap(p);
    repeated[1] = repeated[0];
    EXPECT_FALSE(
        analysis::validateTranslation(p, p, repeated).equivalent);

    // Out of range.
    std::vector<int> oob = identityMap(p);
    oob.back() = static_cast<int>(p.body.size()) + 3;
    EXPECT_FALSE(analysis::validateTranslation(p, p, oob).equivalent);
}

TEST(Equiv, ReferenceInterpreterIsDeterministic)
{
    const isa::Program p = mustParse(kStoreKernel);
    const auto a = analysis::runReference(p, 1u << 20);
    const auto b = analysis::runReference(p, 1u << 20);
    EXPECT_TRUE(a.finished);
    EXPECT_TRUE(a == b);
}

TEST(Equiv, ReferenceInterpreterSeesBehavioralDifferences)
{
    const isa::Program p = mustParse(kStoreKernel);
    isa::Program other = p;
    other.body[3].imm = 6; // stored values differ by one
    const auto a = analysis::runReference(p, 1u << 20);
    const auto b = analysis::runReference(other, 1u << 20);
    ASSERT_TRUE(a.finished);
    ASSERT_TRUE(b.finished);
    EXPECT_FALSE(a == b);
}

/**
 * Regression: on x86 an fp32 op on two NaNs returns whichever NaN the
 * compiler put in the first operand register, and the SM and the
 * reference interpreter compiled FADD/FMUL/FFMA with opposite operand
 * orders -- so the validator's oracle disagreed with the simulator on
 * NaN payloads. Both now run isa::evalLane, whose NaN choice is
 * pinned: B's NaN, else A's; FFMA's add prefers the product; quieted.
 */
TEST(Equiv, ReferenceMatchesTheSmOnNaNOperands)
{
    const isa::Program p = mustParse(".kernel nan-operands\n"
                                     ".launch 1 32\n"
                                     ".global 16\n"
                                     "    MOV R1, #-32767\n" // NaN a
                                     "    MOV R2, #-32766\n" // NaN b
                                     "    MOV R3, #32640\n"
                                     "    SHL R3, R3, #16\n"
                                     "    IADD R3, R3, #1\n" // SNaN
                                     "    FMUL R4, R1, R2\n"
                                     "    FADD R5, R1, R3\n"
                                     "    MOV R6, #-32765\n" // NaN c
                                     "    FFMA R6, R1, R2\n"
                                     "    MOV R7, #-32765\n"
                                     "    MOV R8, #0\n"
                                     "    FFMA R7, R8, R8\n"
                                     "    MOV R9, #1\n"
                                     "    SHL R9, R9, #16\n"
                                     "    STG [R9 + 0], R4\n"
                                     "    STG [R9 + 4], R5\n"
                                     "    STG [R9 + 8], R6\n"
                                     "    STG [R9 + 12], R7\n"
                                     "    EXIT\n");
    const auto ref = analysis::runReference(p, 1u << 16);
    ASSERT_TRUE(ref.finished);

    gpu::GpuConfig config = gpu::baselineConfig();
    config.numSms = 1;
    sram::NullSink sink;
    gpu::Gpu gpu(config, p, sink);
    gpu.run();
    const std::vector<Word> &sm = gpu.program().global;
    ASSERT_GE(sm.size(), 4u);
    EXPECT_EQ(sm[0], 0xffff8002u); // FMUL: B's NaN
    EXPECT_EQ(sm[1], 0x7fc00001u); // FADD: B's signaling NaN, quieted
    EXPECT_EQ(sm[2], 0xffff8002u); // FFMA: the product's NaN
    EXPECT_EQ(sm[3], 0xffff8003u); // FFMA: 0 * 0 + NaN c
    EXPECT_EQ(ref.globalFinal, sm);
}
