#include <gtest/gtest.h>

#include "mem/ldst_path.hh"

namespace vgiw
{
namespace
{

// The VGIW L1 has 128 B lines over 32 banks: line n sits on bank n % 32.
constexpr uint32_t kLine = 128;
constexpr uint32_t kBanks = 32;

/** Lines 0, 32, 64 and 96: four sets of one bank. */
uint32_t
sameBankLine(uint32_t i)
{
    return i * kBanks * kLine;
}

TEST(LdstPath, IssueWinsOverHits)
{
    LdstPath p(8);
    p.access(0, false, false);  // cold: fills the line
    p.beginVector();
    for (int i = 0; i < 3; ++i)
        p.access(4 * uint32_t(i), false, false);  // hits, merged on bank 0
    EXPECT_EQ(p.cycles(7), 7u);
    EXPECT_EQ(p.cycles(0), 1u);  // the one bank transaction
}

TEST(LdstPath, OneBankOfL1WordsWins)
{
    LdstPath p(8);
    for (uint32_t i = 0; i < 4; ++i)
        p.access(sameBankLine(i), false, false);
    p.beginVector();
    // Alternating lines on one bank never merge: one cycle per word,
    // and every word hits, so no miss latency.
    for (int round = 0; round < 2; ++round)
        for (uint32_t i = 0; i < 4; ++i)
            p.access(sameBankLine(i), false, false);
    EXPECT_EQ(p.cycles(1), 8u);
    EXPECT_EQ(p.memory().l1().stats().misses(), 4u);  // the warm-up only
}

TEST(LdstPath, OneBankOfScratchpadWordsWins)
{
    LdstPath p(8);
    // Word 32 * i is on scratchpad bank 0.
    for (uint32_t i = 0; i < 10; ++i)
        p.access(i * 4 * LdstPath::kSharedBanks, true, true);
    EXPECT_EQ(p.cycles(1), 10u);
    EXPECT_EQ(p.cycles(11), 11u);
}

TEST(LdstPath, ColdMissesOverTheWindowWin)
{
    constexpr uint32_t kWindow = 4;
    LdstPath p(kWindow);
    MemorySystem ref(vgiwL1Geometry());
    uint64_t latency = 0;
    for (uint32_t i = 0; i < 8; ++i) {  // eight lines on eight banks
        p.access(i * kLine, false, false);
        latency += ref.access(i * kLine, false).latency;
    }
    ASSERT_GT(latency / kWindow, 8u);
    EXPECT_EQ(p.cycles(1), latency / kWindow);

    p.addMissLatency(4 * kWindow);
    EXPECT_EQ(p.cycles(1), latency / kWindow + 4);
}

TEST(LdstPath, BeginVectorRestartsTheBoundButKeepsTheCaches)
{
    LdstPath p(1);
    for (uint32_t i = 0; i < 8; ++i)
        p.access(i * kLine, true, false);
    EXPECT_GT(p.cycles(0), 8u);  // cold misses
    p.beginVector();
    EXPECT_EQ(p.cycles(0), 0u);

    // The same lines again: all hits, one transaction per bank.
    for (uint32_t i = 0; i < 8; ++i)
        p.access(i * kLine, false, false);
    EXPECT_EQ(p.cycles(0), 1u);
    const CacheStats &l1 = p.memory().l1().stats();
    EXPECT_EQ(l1.misses(), 8u);
    EXPECT_EQ(l1.readHits, 8u);
}

TEST(LdstPath, ScratchpadWordsCountAndNeverTouchTheL1)
{
    LdstPath p(8);
    for (uint32_t i = 0; i < 5; ++i)
        p.access(i * 4, i % 2 == 0, true);
    p.beginVector();
    p.access(0, false, true);
    EXPECT_EQ(p.sharedWords(), 6u);  // running across vectors
    EXPECT_EQ(p.memory().l1().stats().accesses(), 0u);
    EXPECT_EQ(p.memory().l2().stats().accesses(), 0u);

    p.access(0, false, false);  // a global word does not count
    EXPECT_EQ(p.sharedWords(), 6u);
    EXPECT_EQ(p.memory().l1().stats().accesses(), 1u);
}

} // namespace
} // namespace vgiw
