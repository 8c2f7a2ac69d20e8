/**
 * @file
 * Unit tests for the tag-array cache with MSHRs.
 */

#include <gtest/gtest.h>

#include "gpu/cache.hh"

namespace bvf::gpu
{
namespace
{

TagCache
makeCache(int mshrs = 4)
{
    // 4KB, 4-way, 128B lines -> 8 sets.
    return TagCache("test", 4096, 4, 128, mshrs);
}

TEST(Cache, ColdMissThenHit)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Miss);
    EXPECT_TRUE(cache.missPending(0x1000));
    cache.fill(0x1000);
    EXPECT_FALSE(cache.missPending(0x1000));
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Hit);
    EXPECT_EQ(cache.access(0x1040), CacheOutcome::Hit); // same line
}

TEST(Cache, MissesToSameLineMerge)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x2004), CacheOutcome::MissMerged);
    EXPECT_EQ(cache.access(0x2008), CacheOutcome::MissMerged);
    cache.fill(0x2000);
}

TEST(Cache, MshrLimitEnforced)
{
    auto cache = makeCache(2);
    EXPECT_EQ(cache.access(0x0000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::MshrFull);
    cache.fill(0x0000);
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::Miss);
}

TEST(Cache, UnlimitedMshrsWhenZero)
{
    auto cache = makeCache(0);
    for (std::uint32_t i = 0; i < 64; ++i) {
        EXPECT_NE(cache.access(i * 0x1000), CacheOutcome::MshrFull);
    }
}

TEST(Cache, LruEviction)
{
    // One set is 4 ways; the 5th distinct line in a set evicts the LRU.
    auto cache = makeCache(0);
    // All map to set 0: stride = sets * lineBytes = 8 * 128 = 1KB.
    for (std::uint32_t i = 0; i < 4; ++i) {
        cache.access(i * 0x400);
        cache.fill(i * 0x400);
    }
    // Touch line 0 so line at 0x400 becomes LRU.
    EXPECT_EQ(cache.access(0x000), CacheOutcome::Hit);
    cache.access(0x1000);
    cache.fill(0x1000); // evicts 0x400
    EXPECT_EQ(cache.access(0x000), CacheOutcome::Hit);
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Hit);
    EXPECT_NE(cache.access(0x400), CacheOutcome::Hit);
}

TEST(Cache, InvalidateDropsLine)
{
    auto cache = makeCache();
    cache.access(0x3000);
    cache.fill(0x3000);
    EXPECT_TRUE(cache.probe(0x3000));
    cache.invalidate(0x3010); // any address within the line
    EXPECT_FALSE(cache.probe(0x3000));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    auto cache = makeCache();
    EXPECT_FALSE(cache.probe(0x4000));
    EXPECT_FALSE(cache.missPending(0x4000));
}

TEST(Cache, LineAddrAlignment)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.lineAddr(0x12345), 0x12300u);
    EXPECT_EQ(cache.lineAddr(0x1237f), 0x12300u);
    EXPECT_EQ(cache.lineAddr(0x12380), 0x12380u);
}

TEST(Cache, RedundantFillRefreshesLru)
{
    auto cache = makeCache();
    cache.access(0x1000);
    cache.fill(0x1000);
    cache.fill(0x1000);
    EXPECT_TRUE(cache.probe(0x1000));
}

TEST(Cache, GeometryValidation)
{
    EXPECT_EXIT(
        {
            TagCache bad("bad", 4096, 3, 100, 0); // non-pow2 line
            (void)bad;
        },
        ::testing::ExitedWithCode(1), "power of two");
}

} // namespace
} // namespace bvf::gpu
