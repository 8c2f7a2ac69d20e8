/**
 * @file
 * Tests of the benchmark's own parts: the suite split, the kernel
 * pool, the percentile rule and the traced campaign composition.
 *
 *   cmake --build .bench_build --target bvfbench_tests
 *   .bench_build/bvfbench_tests
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "campaign_bench.hh"
#include "gpu/gpu_config.hh"
#include "isa/bytecode.hh"
#include "kernel_pool.hh"
#include "server/kernel_store.hh"
#include "stats.hh"
#include "suite_split.hh"
#include "workload/app_spec.hh"

namespace bvfbench
{
namespace
{

TEST(SuiteSplit, ListsPartitionTheSuiteInSuiteOrder)
{
    std::vector<std::string> suite;
    for (const auto &spec : bvf::workload::evaluationSuite())
        suite.push_back(spec.abbr);
    ASSERT_EQ(suite.size(), 58u);

    const auto &stall = stallApps();
    const auto &dense = denseApps();
    EXPECT_EQ(stall.size(), 17u);
    EXPECT_EQ(dense.size(), 41u);

    std::multiset<std::string> both(stall.begin(), stall.end());
    both.insert(dense.begin(), dense.end());
    EXPECT_EQ(both, std::multiset<std::string>(suite.begin(), suite.end()));

    // Each list keeps the suite's order, so the reports do too.
    for (const auto *list : {&stall, &dense}) {
        std::vector<std::size_t> at;
        for (const std::string &abbr : *list)
            at.push_back(static_cast<std::size_t>(
                std::find(suite.begin(), suite.end(), abbr) - suite.begin()));
        EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
    }
}

TEST(KernelPool, IsAPureFunctionOfTheSeed)
{
    const auto a = makeKernelPool(7);
    const auto b = makeKernelPool(7);
    const auto c = makeKernelPool(8);
    ASSERT_EQ(a.size(), kPoolSize);
    ASSERT_EQ(b.size(), kPoolSize);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        EXPECT_EQ(a[i].bytecode, b[i].bytecode) << a[i].name;
        EXPECT_EQ(a[i].kind, b[i].kind) << a[i].name;
        differing += a[i].bytecode != c[i].bytecode ? 1 : 0;
    }
    EXPECT_EQ(differing, kPoolSize);
}

TEST(KernelPool, SizesAndMixAreTheSameForEverySeed)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto pool = makeKernelPool(seed);
        std::size_t hostile = 0;
        for (const PoolKernel &k : pool) {
            EXPECT_GE(k.bytecode.size(), 100000u) << k.name;
            EXPECT_LT(k.bytecode.size(), 1000000u) << k.name;
            hostile += k.kind == KernelKind::Admissible ? 0 : 1;
        }
        EXPECT_EQ(hostile, kHostileKernels);
    }
}

TEST(KernelPool, PlannedResidentSetStaysUnderTheStoreCap)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto pool = makeKernelPool(seed);
        EXPECT_LT(plannedResidentKernels(pool),
                  bvf::server::KernelStore::kMaxResident);
        // Each client's worker gets exactly its designated half.
        std::size_t bytes[kWorkers] = {};
        for (const PoolKernel &k : pool) {
            EXPECT_EQ(routedWorker(k), k.worker) << k.name;
            bytes[k.worker] += k.bytecode.size();
        }
        EXPECT_NEAR(static_cast<double>(bytes[0]) / bytes[1], 1.0, 0.05);
    }
}

TEST(KernelPool, KernelsDrawTheirIntendedVerdicts)
{
    for (const PoolKernel &k : makeKernelPool(3)) {
        auto program = bvf::isa::decodeProgram(k.bytecode);
        ASSERT_TRUE(program.ok()) << k.name;
        const auto verdict = bvf::analysis::verifyProgram(program.value());
        const auto want = expectedRejection(k.kind);
        if (!want) {
            EXPECT_TRUE(verdict.admitted) << k.name;
            const auto opt =
                bvf::analysis::optimizeProgram(program.value());
            EXPECT_TRUE(opt.accepted && opt.changed) << k.name << opt.note;
            continue;
        }
        EXPECT_FALSE(verdict.admitted) << k.name;
        bool found = false;
        for (const auto &r : verdict.rejections)
            found = found || r.reason == *want;
        EXPECT_TRUE(found) << k.name;
    }
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 1; i <= 19; ++i)
        samples.push_back(i);
    EXPECT_FALSE(percentile(samples, 0.5).ok()); // 9 beyond
    samples.push_back(20);
    ASSERT_TRUE(percentile(samples, 0.5).ok()); // 10 beyond
    EXPECT_EQ(percentile(samples, 0.5).value(), 10.0);

    std::vector<double> many(999, 1.0);
    EXPECT_FALSE(percentile(many, 0.99).ok());
    many.push_back(2.0);
    EXPECT_TRUE(percentile(many, 0.99).ok());
    EXPECT_FALSE(percentile(many, 1.0).ok());
    EXPECT_FALSE(percentile({}, 0.5).ok());
}

TEST(Median, AveragesTheMiddlePairAndBracketsTheQuartiles)
{
    EXPECT_EQ(median({3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0}), 2.5);
    EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);

    const Quartiles q = quartiles({9.0, 1.0, 5.0, 3.0, 7.0});
    EXPECT_EQ(q.q1, 3.0);
    EXPECT_EQ(q.median, 5.0);
    EXPECT_EQ(q.q3, 7.0);
    EXPECT_EQ(quartiles({2.0}).q3, 2.0);
}

TEST(CampaignPasses, PairedPassesRenderTheRunnerReport)
{
    const std::vector<bvf::workload::AppSpec> apps = {
        bvf::workload::findApp("NQU"), bvf::workload::findApp("NN")};
    const bvf::core::ExperimentDriver driver(bvf::gpu::baselineConfig());

    bvf::campaign::CampaignRunner runner(driver, {});
    auto whole = runner.run(apps);
    ASSERT_TRUE(whole.ok());
    const std::string want = whole.value().render();

    // App-by-app pairs render the runner's report on both sides, in
    // either order, and the traced counters repeat exactly.
    SpanLog log;
    const PairedPasses first = runPairedPasses(driver, apps, log, true);
    EXPECT_EQ(first.untraced.report.render(), want);
    EXPECT_EQ(first.traced.report.render(), want);
    EXPECT_GT(first.traced.counters.accountantWords, 0u);
    EXPECT_LE(first.traced.gpuSinkS, first.traced.layers.gpuRunS);
    EXPECT_EQ(first.overheadRatios.size(), apps.size());

    const PairedPasses second = runPairedPasses(driver, apps, log, false);
    EXPECT_EQ(second.untraced.report.render(), want);
    EXPECT_EQ(second.traced.report.render(), want);
    EXPECT_EQ(second.traced.counters, first.traced.counters);
}

} // namespace
} // namespace bvfbench
