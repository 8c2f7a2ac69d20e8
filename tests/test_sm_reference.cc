/**
 * @file
 * The cycle-level SM and the validator's reference interpreter run the
 * same functional machine (isa/machine.hh), so on every kernel whose
 * result does not depend on warp order they must leave the same final
 * global image: every suite kernel under each warp scheduler, and the
 * admitted seeded random kernels, whose only global store writes back
 * the value just loaded.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/equiv.hh"
#include "analysis/verifier.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "isa/asm.hh"
#include "random_kernel.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

/** Final global image of @p program on the cycle-level GPU. */
std::vector<Word>
smGlobalFinal(const isa::Program &program, gpu::SchedulerPolicy policy)
{
    gpu::GpuConfig config = gpu::baselineConfig();
    config.scheduler = policy;
    sram::NullSink sink;
    gpu::Gpu gpu(config, program, sink);
    gpu.run();
    return gpu.program().global;
}

std::vector<Word>
referenceGlobalFinal(const isa::Program &program)
{
    const auto ref = analysis::runReference(program, 1ull << 32);
    EXPECT_TRUE(ref.finished) << program.name;
    return ref.globalFinal;
}

class SmMatchesReference : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SmMatchesReference, FinalGlobalImageUnderEveryScheduler)
{
    const auto &spec = workload::evaluationSuite()[GetParam()];
    const isa::Program program = workload::buildProgram(spec);
    const std::vector<Word> reference = referenceGlobalFinal(program);
    for (const auto policy :
         {gpu::SchedulerPolicy::Gto, gpu::SchedulerPolicy::Lrr,
          gpu::SchedulerPolicy::TwoLevel}) {
        EXPECT_EQ(smGlobalFinal(program, policy), reference)
            << spec.abbr << " under scheduler "
            << static_cast<int>(policy);
    }
}

std::vector<std::size_t>
suiteIndices()
{
    std::vector<std::size_t> indices(workload::evaluationSuite().size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    return indices;
}

// One test per app keeps each inside the per-test timeout and lets
// ctest -j spread the suite.
INSTANTIATE_TEST_SUITE_P(
    Suite, SmMatchesReference, ::testing::ValuesIn(suiteIndices()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workload::evaluationSuite()[info.param].abbr;
    });

TEST(SmMatchesReferenceRandom, AdmittedRandomKernels)
{
    Rng rng(0x5eed5);
    int compared = 0;
    for (int k = 0; k < 200; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        auto parsed = isa::parseAsm(text);
        ASSERT_TRUE(parsed.ok()) << "kernel " << k << ": "
                                 << parsed.error().message;
        const isa::Program &program = parsed.value();
        if (!analysis::verifyProgram(program).admitted)
            continue;
        ++compared;
        EXPECT_EQ(smGlobalFinal(program, gpu::SchedulerPolicy::Gto),
                  referenceGlobalFinal(program))
            << "kernel " << k << "\n"
            << text;
    }
    EXPECT_GE(compared, 100);
}

} // namespace
