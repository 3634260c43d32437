#include <gtest/gtest.h>

#include "vgiw/live_value_cache.hh"

namespace vgiw
{
namespace
{

class LvcTest : public ::testing::Test
{
  protected:
    MemorySystem ms{vgiwL1Geometry()};
};

TEST_F(LvcTest, DefaultGeometryIs64KB)
{
    CacheGeometry g = lvcGeometry();
    EXPECT_EQ(g.sizeBytes, 64u * 1024);
    EXPECT_EQ(g.writePolicy, WritePolicy::WriteBack);
    EXPECT_EQ(g.allocPolicy, AllocPolicy::WriteAllocate);
}

TEST_F(LvcTest, WriteThenReadHits)
{
    LiveValueCache lvc(lvcGeometry(), ms, 1024);
    auto w = lvc.access(0, 42, true);
    EXPECT_FALSE(w.hit);  // cold
    auto r = lvc.access(0, 42, false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 6u);
    EXPECT_EQ(lvc.stats().accesses(), 2u);
}

TEST_F(LvcTest, ConsecutiveThreadsShareLines)
{
    LiveValueCache lvc(lvcGeometry(), ms, 1024);
    // 32 threads x 4 B = one 128 B line: 1 miss + 31 hits.
    for (uint32_t tid = 0; tid < 32; ++tid)
        lvc.access(0, tid, true);
    EXPECT_EQ(lvc.stats().writeMisses, 1u);
    EXPECT_EQ(lvc.stats().writeHits, 31u);
}

TEST_F(LvcTest, DistinctLiveValuesUseDistinctRows)
{
    LiveValueCache lvc(lvcGeometry(), ms, 1024);
    lvc.access(0, 0, true);
    auto r = lvc.access(1, 0, true);
    EXPECT_FALSE(r.hit);  // different row of the live-value matrix
}

TEST_F(LvcTest, SpillsToL2WhenContended)
{
    // A 1 KB LVC with thousands of live-value slots must spill; the L2
    // then absorbs the traffic (Section 3.4's cache-backed design).
    LiveValueCache lvc(lvcGeometry(1024), ms, 4096);
    for (uint16_t lv = 0; lv < 8; ++lv)
        for (uint32_t tid = 0; tid < 4096; tid += 32)
            lvc.access(lv, tid, true);
    EXPECT_GT(lvc.stats().writebacks, 0u);
    EXPECT_GT(ms.l2().stats().accesses(), 0u);
}

TEST_F(LvcTest, MissLatencyIncludesL2)
{
    LiveValueCache lvc(lvcGeometry(), ms, 1024);
    auto r = lvc.access(3, 0, false);
    EXPECT_FALSE(r.hit);
    EXPECT_GT(r.latency, ms.timings().l2HitLatency);
}

TEST_F(LvcTest, BanksSpreadAcrossThreads)
{
    LiveValueCache lvc(lvcGeometry(), ms, 4096);
    // Threads 32 apart land on consecutive lines -> different banks.
    EXPECT_NE(lvc.bankOf(0, 0), lvc.bankOf(0, 32));
}

} // namespace
} // namespace vgiw
