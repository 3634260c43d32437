#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "helpers/test_kernels.hh"
#include "simt/simt_stack.hh"

namespace vgiw
{
namespace
{

/** A stack over its own storage, sized for @p num_blocks blocks. */
struct OwnedStack
{
    OwnedStack(uint32_t mask, int entry_block, int num_blocks = 8)
        : buf(SimtStack::capacityFor(num_blocks)), s(buf, "test")
    {
        s.reset(mask, entry_block);
    }

    std::vector<SimtStack::Entry> buf;
    SimtStack s;
};

std::array<int, 32>
succs(std::initializer_list<std::pair<int, int>> lane_to_succ)
{
    std::array<int, 32> out;
    out.fill(SimtStack::kLaneInactive);
    for (auto [lane, succ] : lane_to_succ)
        out[lane] = succ;
    return out;
}

TEST(SimtStack, StartsAtEntryWithFullMask)
{
    OwnedStack os(0xff, 0);
    SimtStack &s = os.s;
    EXPECT_FALSE(s.done());
    EXPECT_EQ(s.currentBlock(), 0);
    EXPECT_EQ(s.activeMask(), 0xffu);
    EXPECT_EQ(s.activeLanes(), 8);
}

TEST(SimtStack, UniformBranchKeepsOneEntry)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    OwnedStack os(0b11, 0);
    SimtStack &s = os.s;
    s.advance(succs({{0, 1}, {1, 1}}), pd);
    EXPECT_EQ(s.currentBlock(), 1);
    EXPECT_EQ(s.activeMask(), 0b11u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStack, DivergenceExecutesBothPathsThenReconverges)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    // Lanes 0-2 take BB2 (id 1), lanes 3-4 take BB3 (id 2); ipdom(BB1)
    // is BB6 (id 5).
    OwnedStack os(0b11111, 0);
    SimtStack &s = os.s;
    s.advance(succs({{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}}), pd);

    // Smallest block first: BB2 under mask {0,1,2}.
    EXPECT_EQ(s.currentBlock(), 1);
    EXPECT_EQ(s.activeMask(), 0b00111u);
    s.advance(succs({{0, 5}, {1, 5}, {2, 5}}), pd);

    // Then BB3 under the complementary mask.
    EXPECT_EQ(s.currentBlock(), 2);
    EXPECT_EQ(s.activeMask(), 0b11000u);
    s.advance(succs({{3, 5}, {4, 5}}), pd);

    // Reconverged: BB6 with the full mask.
    EXPECT_EQ(s.currentBlock(), 5);
    EXPECT_EQ(s.activeMask(), 0b11111u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStack, NestedDivergenceMatchesFig1b)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    // The paper's 8-thread pattern: {0,2,7}->BB2, {1,6}->BB4, {3,4,5}->BB5.
    OwnedStack os(0xff, 0);
    SimtStack &s = os.s;
    s.advance(succs({{0, 1}, {1, 2}, {2, 1}, {3, 2}, {4, 2},
                     {5, 2}, {6, 2}, {7, 1}}),
              pd);
    EXPECT_EQ(s.currentBlock(), 1);  // BB2 mask {0,2,7}
    EXPECT_EQ(s.activeMask(), 0b10000101u);
    s.advance(succs({{0, 5}, {2, 5}, {7, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 2);  // BB3 mask {1,3,4,5,6}
    EXPECT_EQ(s.activeMask(), 0b01111010u);
    s.advance(succs({{1, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 3}}), pd);

    EXPECT_EQ(s.currentBlock(), 3);  // BB4 mask {1,6}
    EXPECT_EQ(s.activeMask(), 0b01000010u);
    s.advance(succs({{1, 5}, {6, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 4);  // BB5 mask {3,4,5}
    EXPECT_EQ(s.activeMask(), 0b00111000u);
    s.advance(succs({{3, 5}, {4, 5}, {5, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 5);  // BB6, everyone back
    EXPECT_EQ(s.activeMask(), 0xffu);
    s.advance(succs({{0, -1}, {1, -1}, {2, -1}, {3, -1}, {4, -1},
                     {5, -1}, {6, -1}, {7, -1}}),
              pd);
    EXPECT_TRUE(s.done());
}

TEST(SimtStack, LoopIteratesUntilAllLanesExit)
{
    Kernel k = testing::makeLoopKernel();
    PostDominators pd(k);
    // head=1, body=2, done=3. Lane 0 iterates twice, lane 1 once.
    OwnedStack os(0b11, 1);
    SimtStack &s = os.s;
    s.advance(succs({{0, 2}, {1, 2}}), pd);   // both enter body
    EXPECT_EQ(s.currentBlock(), 2);
    s.advance(succs({{0, 1}, {1, 1}}), pd);   // back edge
    EXPECT_EQ(s.currentBlock(), 1);
    s.advance(succs({{0, 2}, {1, 3}}), pd);   // lane 1 leaves the loop
    EXPECT_EQ(s.currentBlock(), 2);           // body first (smaller id)
    EXPECT_EQ(s.activeMask(), 0b01u);
    s.advance(succs({{0, 1}}), pd);
    EXPECT_EQ(s.currentBlock(), 1);
    s.advance(succs({{0, 3}}), pd);           // lane 0 exits the loop
    EXPECT_EQ(s.currentBlock(), 3);
    EXPECT_EQ(s.activeMask(), 0b11u);         // reconverged in 'done'
}

TEST(SimtStack, ThreadExitDropsLanes)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    OwnedStack os(0b111, 5);
    SimtStack &s = os.s;
    s.advance(succs({{0, -1}, {1, -1}, {2, -1}}), pd);
    EXPECT_TRUE(s.done());
}

TEST(SimtStack, PartialExitKeepsRemainingLanes)
{
    Kernel k = testing::makeLoopKernel();
    PostDominators pd(k);
    OwnedStack os(0b11, 1);
    SimtStack &s = os.s;
    // Lane 1's thread exits immediately (succ -1 through 'done' path is
    // modelled here as exit); lane 0 continues to body.
    s.advance(succs({{0, 2}, {1, -1}}), pd);
    EXPECT_EQ(s.currentBlock(), 2);
    EXPECT_EQ(s.activeMask(), 0b01u);
}

TEST(SimtStack, CapacityCoversEveryLaneAndReconvergencePoint)
{
    // 32 non-empty entries (one per lane) plus one empty reconvergence
    // entry per block, plus one entry of headroom.
    EXPECT_EQ(SimtStack::capacityFor(1), 34u);
    EXPECT_EQ(SimtStack::capacityFor(6), 39u);
}

/** Fig. 1b's nested divergence on a stack of @p capacity entries;
 * returns the deepest the stack got. */
size_t
runFig1bOn(size_t capacity)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    std::vector<SimtStack::Entry> buf(capacity);
    SimtStack s(buf, k.name);
    s.reset(0xff, 0);
    size_t deepest = s.depth();
    auto step = [&](std::array<int, 32> lane_succ) {
        s.advance(lane_succ, pd);
        deepest = std::max(deepest, s.depth());
    };
    step(succs({{0, 1}, {1, 2}, {2, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2},
                {7, 1}}));
    step(succs({{0, 5}, {2, 5}, {7, 5}}));
    step(succs({{1, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 3}}));
    step(succs({{1, 5}, {6, 5}}));
    step(succs({{3, 5}, {4, 5}, {5, 5}}));
    EXPECT_EQ(s.activeMask(), 0xffu);
    return deepest;
}

TEST(SimtStack, RunsAtExactlyItsCapacity)
{
    // The walk peaks at 3 entries: the reconvergence entry at BB6 and
    // the two sides of a branch. A 3-entry stack holds it.
    EXPECT_EQ(runFig1bOn(3), 3u);
}

TEST(SimtStack, OnePushPastCapacityIsATypedError)
{
    try {
        runFig1bOn(2);
        FAIL() << "a 2-entry stack took a 3-entry walk";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Internal);
        EXPECT_NE(std::string(e.what()).find(
                      "kernel '" + testing::makeFig1Kernel().name + "'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("SIMT stack overflow"),
                  std::string::npos);
    }
}

} // namespace
} // namespace vgiw
