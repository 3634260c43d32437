#include <gtest/gtest.h>

#include "vgiw/control_vector_table.hh"

namespace vgiw
{
namespace
{

TEST(Cvt, SeedsEntryVector)
{
    ControlVectorTable cvt(4, 100);
    cvt.seedEntry(100);
    EXPECT_EQ(cvt.pendingCount(0), 100u);
    EXPECT_EQ(cvt.pendingCount(1), 0u);
    EXPECT_EQ(cvt.firstPendingBlock(), 0);
}

TEST(Cvt, SchedulerPicksSmallestBlockId)
{
    ControlVectorTable cvt(6, 64);
    cvt.set(4, 7);
    cvt.set(2, 3);
    cvt.set(5, 1);
    EXPECT_EQ(cvt.firstPendingBlock(), 2);
    cvt.drain(2);
    EXPECT_EQ(cvt.firstPendingBlock(), 4);
}

TEST(Cvt, DrainIsReadAndReset)
{
    ControlVectorTable cvt(3, 128);
    cvt.set(1, 5);
    cvt.set(1, 70);
    auto tids = cvt.drain(1);
    ASSERT_EQ(tids.size(), 2u);
    EXPECT_EQ(tids[0], 5u);
    EXPECT_EQ(tids[1], 70u);
    EXPECT_EQ(cvt.pendingCount(1), 0u);
    EXPECT_FALSE(cvt.anyPending());
}

TEST(Cvt, OrBatchMergesMultipleControlFlows)
{
    // A block reached by two different control flows must accumulate
    // both thread sets (the OR requirement of Section 3.2).
    ControlVectorTable cvt(3, 64);
    cvt.orBatch(2, ThreadBatch{0, 0b0011});
    cvt.orBatch(2, ThreadBatch{0, 0b1010});
    EXPECT_EQ(cvt.pendingCount(2), 3u);
    auto tids = cvt.drain(2);
    EXPECT_EQ(std::vector<uint32_t>(tids.begin(), tids.end()),
              (std::vector<uint32_t>{0, 1, 3}));
}

TEST(Cvt, ThreadRegisteredInOnlyOneVector)
{
    // Drain-then-register keeps the invariant that a thread ID's bit is
    // set in at most one table entry.
    ControlVectorTable cvt(4, 64);
    cvt.seedEntry(8);
    auto tids = cvt.drain(0);
    for (uint32_t t : tids)
        cvt.set(t % 2 ? 1 : 2, t);
    size_t total = 0;
    for (int b = 0; b < 4; ++b)
        total += cvt.pendingCount(b);
    EXPECT_EQ(total, 8u);
}

TEST(Cvt, CountsWordAccesses)
{
    ControlVectorTable cvt(2, 256);
    cvt.seedEntry(256);            // 4 word writes
    cvt.drain(0);                  // 4 word reads
    cvt.orBatch(1, ThreadBatch{0, 1});  // 1 word write
    EXPECT_EQ(cvt.stats().wordWrites, 5u);
    EXPECT_EQ(cvt.stats().wordReads, 4u);
}

TEST(Cvt, ResetStartsAnEmptySmallerTile)
{
    // A table sized for 192 threads runs a 70-thread last tile: the
    // vectors empty, drains scan the tile's 2 words, and the word
    // counters keep running.
    ControlVectorTable cvt(3, 192);
    cvt.seedEntry(192);  // 3 word writes
    cvt.set(2, 191);     // 1 word write
    cvt.reset(70);
    EXPECT_EQ(cvt.tileSize(), 70);
    EXPECT_FALSE(cvt.anyPending());
    cvt.seedEntry(70);   // 2 word writes
    auto tids = cvt.drain(0);  // 2 word reads
    ASSERT_EQ(tids.size(), 70u);
    EXPECT_EQ(tids.front(), 0u);
    EXPECT_EQ(tids.back(), 69u);
    EXPECT_EQ(cvt.stats().wordWrites, 6u);
    EXPECT_EQ(cvt.stats().wordReads, 2u);
}

} // namespace
} // namespace vgiw
