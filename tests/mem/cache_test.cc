#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace vgiw
{
namespace
{

CacheGeometry
smallGeom(WritePolicy wp = WritePolicy::WriteBack,
          AllocPolicy ap = AllocPolicy::WriteAllocate)
{
    CacheGeometry g;
    g.sizeBytes = 1024;  // 2 sets x 4 ways x 128 B
    g.lineBytes = 128;
    g.ways = 4;
    g.banks = 4;
    g.writePolicy = wp;
    g.allocPolicy = ap;
    return g;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c("t", smallGeom());
    auto r1 = c.access(0x1000, false);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(r1.fill);
    auto r2 = c.access(0x1004, false);  // same line
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().readHits, 1u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", smallGeom());
    // 5 distinct lines mapping to set 0 (stride = 2 sets * 128 B).
    for (uint32_t i = 0; i < 5; ++i)
        c.access(i * 256, false);
    // Line 0 was LRU and must have been evicted; probing it refills the
    // set (evicting line 1, the new LRU), so check lines 2..4 afterwards.
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(2 * 256, false).hit);
    EXPECT_TRUE(c.access(3 * 256, false).hit);
    EXPECT_TRUE(c.access(4 * 256, false).hit);
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache c("t", smallGeom());
    for (uint32_t i = 0; i < 4; ++i)
        c.access(i * 256, false);
    c.access(0, false);  // touch line 0: line 1 becomes LRU
    c.access(4 * 256, false);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(1 * 256, false).hit);
}

TEST(Cache, WriteBackDirtyEviction)
{
    Cache c("t", smallGeom());
    c.access(0, true);  // write-allocate, line dirty
    EXPECT_EQ(c.stats().writeMisses, 1u);
    // Evict set 0 by filling 4 more lines.
    Cache::Result last;
    for (uint32_t i = 1; i <= 4; ++i)
        last = c.access(i * 256, false);
    EXPECT_TRUE(last.writeback);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c("t", smallGeom());
    for (uint32_t i = 0; i <= 4; ++i) {
        auto r = c.access(i * 256, false);
        EXPECT_FALSE(r.writeback);
    }
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteThroughForwardsEveryWrite)
{
    Cache c("t", smallGeom(WritePolicy::WriteThrough,
                           AllocPolicy::WriteNoAllocate));
    c.access(0, false);            // fill the line
    auto r = c.access(4, true);    // write hit still forwards
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.forwardWrite);
    EXPECT_EQ(c.stats().writethroughs, 1u);
}

TEST(Cache, WriteNoAllocateMissDoesNotFill)
{
    Cache c("t", smallGeom(WritePolicy::WriteThrough,
                           AllocPolicy::WriteNoAllocate));
    auto r = c.access(0x2000, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.fill);
    EXPECT_TRUE(r.forwardWrite);
    // The line was not allocated: a read misses.
    EXPECT_FALSE(c.access(0x2000, false).hit);
}

TEST(Cache, WriteAllocateMissFillsAndDirties)
{
    Cache c("t", smallGeom());
    auto r = c.access(0x2000, true);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.fill);
    EXPECT_FALSE(r.forwardWrite);
    EXPECT_TRUE(c.access(0x2000, false).hit);
}

TEST(Cache, BankInterleavingByLine)
{
    Cache c("t", smallGeom());
    EXPECT_EQ(c.bankOf(0), 0u);
    EXPECT_EQ(c.bankOf(128), 1u);
    EXPECT_EQ(c.bankOf(256), 2u);
    EXPECT_EQ(c.bankOf(4 * 128), 0u);
    EXPECT_EQ(c.bankOf(64), 0u);  // same line, same bank
}

TEST(Cache, BankOfMatchesLineModuloBanks)
{
    // Lines interleave across banks, whatever the bank count.
    for (const uint32_t banks : {1u, 2u, 3u, 4u, 5u, 32u}) {
        CacheGeometry g = smallGeom();
        g.banks = banks;
        const Cache c("t", g);
        for (uint32_t addr = 0; addr < 64 * 128; addr += 36)
            EXPECT_EQ(c.bankOf(addr), addr / 128 % banks) << banks;
        EXPECT_EQ(c.bankOf(0xFFFFFFFFu), 0xFFFFFFFFu / 128 % banks);
    }
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache c("t", smallGeom());
    c.access(0, false);
    c.reset();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_FALSE(c.access(0, false).hit);
}

} // namespace
} // namespace vgiw
