/**
 * @file
 * Static admission verifier: the whole evaluation suite is admitted,
 * crafted hostile kernels are rejected with the right machine-readable
 * reason, and -- the heart -- a 1000-random-kernel soundness property:
 * every kernel the verifier admits simulates to completion under a
 * ContractProbe without ever exceeding its proven trip bound or
 * leaving its proven memory footprint.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/lint.hh"
#include "analysis/verifier.hh"
#include "common/rng.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "gpu/gpu_config.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "workload/kernel_builder.hh"

#include "random_kernel.hh"

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

bool
rejectedFor(const analysis::Verdict &verdict,
            analysis::RejectReason reason)
{
    if (verdict.admitted)
        return false;
    for (const auto &rej : verdict.rejections)
        if (rej.reason == reason)
            return true;
    return false;
}

std::string
describe(const analysis::Verdict &verdict)
{
    std::string out;
    for (const auto &rej : verdict.rejections)
        out += rej.toString() + "\n";
    return out;
}

} // namespace

namespace
{

// The whole suite must be admitted; split by index parity so each
// half stays well inside the per-test ctest timeout under sanitizers
// (abstract loop peeling makes suite-kernel verification expensive).
void
admitsSuiteHalf(std::size_t parity)
{
    const auto &suite = workload::evaluationSuite();
    int checked = 0;
    for (std::size_t i = parity; i < suite.size(); i += 2) {
        const auto &spec = suite[i];
        const isa::Program program = workload::buildProgram(spec);
        const auto verdict = analysis::verifyProgram(program);
        ASSERT_TRUE(verdict.admitted)
            << spec.abbr << ":\n" << describe(verdict);
        EXPECT_GT(verdict.certificate.warpTripBound, 0u) << spec.abbr;
        ++checked;
    }
    EXPECT_EQ(checked, static_cast<int>((suite.size() + 1 - parity) / 2));
}

} // namespace

TEST(Verifier, AdmitsEverySuiteKernelFirstHalf)
{
    admitsSuiteHalf(0);
}

TEST(Verifier, AdmitsEverySuiteKernelSecondHalf)
{
    admitsSuiteHalf(1);
}

// One test per sampled app: simulation under ASan is slow enough that
// bundling them risks the per-test ctest timeout.
void suiteKernelRunsInsideItsCertificate(const std::string &abbr)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    int checked = 0;
    for (const auto &spec : workload::evaluationSuite()) {
        if (spec.abbr != abbr)
            continue;
        const isa::Program program = workload::buildProgram(spec);
        const auto verdict = analysis::verifyProgram(program);
        ASSERT_TRUE(verdict.admitted) << spec.abbr;

        core::ContractProbe probe(verdict.certificate);
        core::RunOptions options;
        options.probe = &probe;
        auto run = driver.runProgramChecked(program, options);
        ASSERT_TRUE(run.ok())
            << spec.abbr << ": " << run.error().message;
        EXPECT_GT(probe.maxIssued(), 0u) << spec.abbr;
        EXPECT_LE(probe.maxIssued(), verdict.certificate.warpTripBound)
            << spec.abbr;
        ++checked;
    }
    EXPECT_EQ(checked, 1);
}

TEST(Verifier, BckRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("BCK");
}

TEST(Verifier, BfsRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("BFS");
}

TEST(Verifier, KmnRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("KMN");
}

TEST(Verifier, NonTerminatingLoopIsBudgetExceeded)
{
    const isa::Program program = mustParse(".kernel nonterm\n"
                                           ".launch 1 32\n"
                                           "L0:\n"
                                           "    BRA L0, join=L1\n"
                                           "L1:\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::BudgetExceeded))
        << describe(verdict);
}

TEST(Verifier, DataDependentBackwardBranchIsBudgetExceeded)
{
    // The loop bound is loaded from a lane-divergent address whose
    // image values span [1, 1000000]: either the guard stays unknown
    // (unknown backward branch) or peeling a million abstract
    // iterations exhausts the step budget. Both must reject as
    // budget-exceeded -- the bound is not provable within budget.
    const isa::Program program = mustParse(".kernel datadep\n"
                                           ".launch 1 32\n"
                                           ".global 2\n"
                                           ".data global 0 1 1000000\n"
                                           "    S2R R1, SR_TIDX\n"
                                           "    AND R2, R1, #1\n"
                                           "    SHL R2, R2, #2\n"
                                           "    MOV R3, #1\n"
                                           "    SHL R3, R3, #16\n"
                                           "    IADD R3, R3, R2\n"
                                           "    LDG R4, [R3 + 0]\n"
                                           "    MOV R5, #0\n"
                                           "Lloop:\n"
                                           "    IADD R5, R5, #1\n"
                                           "    SETP.LT P1, R5, R4\n"
                                           "    @P1 BRA Lloop, join=Ld\n"
                                           "Ld:\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::BudgetExceeded))
        << describe(verdict);
}

TEST(Verifier, UninitializedReadIsRejectedWithItsPc)
{
    const isa::Program program = mustParse(".kernel uninit\n"
                                           ".launch 1 32\n"
                                           "    IADD R2, R3, R4\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    ASSERT_TRUE(rejectedFor(verdict, analysis::RejectReason::UninitRead))
        << describe(verdict);
    bool sawPcZero = false;
    for (const auto &rej : verdict.rejections)
        sawPcZero |= rej.pc == 0;
    EXPECT_TRUE(sawPcZero) << describe(verdict);
}

TEST(Verifier, SharedStoreBeyondTheDeclaredSegmentIsOutOfBounds)
{
    const isa::Program program = mustParse(".kernel oob\n"
                                           ".launch 1 32\n"
                                           ".shared 64\n"
                                           "    MOV R2, #0\n"
                                           "    STS [R2 + 4096], R2\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::MemoryOutOfBounds))
        << describe(verdict);
}

TEST(Verifier, GlobalAccessOutsideTheImageIsOutOfBounds)
{
    // .global 4 declares 16 bytes at the segment base; byte 64 is out.
    const isa::Program program = mustParse(".kernel goob\n"
                                           ".launch 1 32\n"
                                           ".global 4\n"
                                           "    MOV R2, #1\n"
                                           "    SHL R2, R2, #16\n"
                                           "    LDG R3, [R2 + 64]\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::MemoryOutOfBounds))
        << describe(verdict);
}

TEST(Verifier, FallingOffTheEndIsRejected)
{
    isa::Program program = mustParse(".kernel noexit\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #1\n"
                                     "    EXIT\n");
    program.body.pop_back(); // now ends without EXIT
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::FallsOffEnd))
        << describe(verdict);
}

TEST(Verifier, MalformedBranchTargetIsRejected)
{
    isa::Program program = mustParse(".kernel badbra\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #1\n"
                                     "    EXIT\n");
    isa::Instruction bra;
    bra.op = isa::Opcode::Bra;
    bra.imm = 99; // far outside the body
    bra.reconv = 1;
    program.body.insert(program.body.begin() + 1, bra);
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(rejectedFor(verdict, analysis::RejectReason::BadBranch))
        << describe(verdict);
}

TEST(Verifier, OverSizedLaunchGeometryIsRejected)
{
    isa::Program program = mustParse(".kernel badlaunch\n"
                                     ".launch 1 32\n"
                                     "    EXIT\n");
    program.launch.blockThreads = 4096;
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(rejectedFor(verdict, analysis::RejectReason::BadLaunch))
        << describe(verdict);
}

TEST(Verifier, ResourceCapsAreEnforced)
{
    isa::Program program = mustParse(".kernel big\n"
                                     ".launch 1 32\n"
                                     "    EXIT\n");
    program.sharedBytesPerBlock = 1u << 20;
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::ResourceLimit))
        << describe(verdict);
}

TEST(Verifier, RejectsExactlyTheRuleFindingsLintReports)
{
    // Lint and admission share one rule set: on arbitrary field values,
    // every non-canonical / bad-reconv finding is a malformed-instruction
    // / bad-branch rejection at the same pc with the same text, and the
    // other way round. A structurally clean program goes on to
    // def-before-use, where every uninit-* finding is an uninit-read.
    Rng rng(0x1a7);
    const auto field = [&rng](std::uint64_t canonical) {
        if (rng.nextBool(0.6))
            return std::uint8_t{0};
        return static_cast<std::uint8_t>(
            rng.nextBounded(rng.nextBool(0.2) ? 70 : canonical));
    };
    int clean = 0;
    for (int k = 0; k < 1000; ++k) {
        isa::Program p;
        p.name = "fields";
        const int len = static_cast<int>(rng.nextRange(1, 8));
        for (int i = 0; i < len; ++i) {
            isa::Instruction in;
            in.op = static_cast<isa::Opcode>(rng.nextBounded(
                static_cast<std::uint64_t>(isa::Opcode::NumOpcodes)));
            in.dst = field(4);
            in.srcA = field(4);
            in.srcB = field(4);
            in.pred = field(2);
            in.predNegate = rng.nextBool(0.1);
            in.immB = rng.nextBool(0.2);
            in.flags = field(2);
            if (in.op == isa::Opcode::Bra || rng.nextBool(0.2)) {
                in.imm = static_cast<int>(rng.nextRange(-1, len));
                in.reconv = static_cast<int>(rng.nextRange(0, len));
            }
            p.body.push_back(in);
        }

        using analysis::LintCode;
        using analysis::RejectReason;
        const analysis::Verdict verdict = analysis::verifyProgram(p);
        std::vector<std::string> rejected;
        bool structural = false;
        for (const auto &r : verdict.rejections) {
            structural |= r.reason == RejectReason::MalformedInstruction
                          || r.reason == RejectReason::BadBranch;
            if (r.reason == RejectReason::MalformedInstruction
                || r.reason == RejectReason::BadBranch
                || r.reason == RejectReason::UninitRead)
                rejected.push_back(std::to_string(r.pc) + ": " + r.message);
        }
        clean += !structural;
        std::vector<std::string> linted;
        for (const auto &f : analysis::lintProgram(p)) {
            const bool uninit = f.code == LintCode::UninitRegRead
                                || f.code == LintCode::UninitPredRead;
            if (f.code == LintCode::NonCanonical
                || f.code == LintCode::BadReconv || (uninit && !structural))
                linted.push_back(std::to_string(f.pc) + ": " + f.message);
        }
        EXPECT_EQ(linted, rejected) << "program " << k;
    }
    EXPECT_GE(clean, 50);
}

TEST(Verifier, RejectionNamesAreStableAndKebabCase)
{
    for (int i = 0; i < analysis::kNumRejectReasons; ++i) {
        const std::string name = analysis::rejectReasonName(
            static_cast<analysis::RejectReason>(i));
        EXPECT_FALSE(name.empty()) << i;
        for (const char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-')
                << name << " has '" << c << "'";
    }
    EXPECT_EQ(analysis::rejectReasonName(
                  analysis::RejectReason::BudgetExceeded),
              "budget-exceeded");
}


namespace {

// One shard of the 1000-kernel soundness property. Sharded so each
// piece stays well inside the per-test ctest timeout under ASan.
void randomKernelProperty(std::uint64_t seed, int count,
                          int minAdmitted, int minRejected)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    Rng rng(seed);
    int admitted = 0;
    int rejected = 0;

    for (int k = 0; k < count; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        auto parsed = isa::parseAsm(text);
        ASSERT_TRUE(parsed.ok())
            << "kernel " << k << ": " << parsed.error().message
            << "\n" << text;

        // The bytecode layer must round-trip whatever the generator
        // produced before admission even starts.
        const std::string bytes = isa::encodeProgram(parsed.value());
        auto decoded = isa::decodeProgram(bytes);
        ASSERT_TRUE(decoded.ok()) << "kernel " << k;
        ASSERT_EQ(isa::encodeProgram(decoded.value()), bytes)
            << "kernel " << k;

        const auto verdict = analysis::verifyProgram(decoded.value());
        if (!verdict.admitted) {
            ++rejected;
            ASSERT_FALSE(verdict.rejections.empty()) << "kernel " << k;
            continue;
        }
        ++admitted;

        // Soundness: the machine must stay inside the certificate. A
        // ContractProbe violation fatal()s, which runProgramChecked
        // reports as a structured error -- so ok() is the property.
        core::ContractProbe probe(verdict.certificate);
        core::RunOptions options;
        options.probe = &probe;
        auto run = driver.runProgramChecked(decoded.value(), options);
        ASSERT_TRUE(run.ok()) << "kernel " << k << ": "
                              << run.error().message << "\n" << text;
        EXPECT_LE(probe.maxIssued(), verdict.certificate.warpTripBound)
            << "kernel " << k;
        EXPECT_GT(probe.maxIssued(), 0u) << "kernel " << k;
    }

    // The generator is biased toward admissible kernels with a seeded
    // hostile minority; both populations must actually show up.
    EXPECT_GE(admitted, minAdmitted)
        << "generator drift: rejected=" << rejected;
    EXPECT_GE(rejected, minRejected)
        << "generator drift: admitted=" << admitted;
}

} // namespace

// 4 x 250 = 1000 random kernels total, distinct seed per shard.
TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard0)
{
    randomKernelProperty(0xb1f0001u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard1)
{
    randomKernelProperty(0xb1f0002u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard2)
{
    randomKernelProperty(0xb1f0003u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard3)
{
    randomKernelProperty(0xb1f0004u, 250, 125, 25);
}
