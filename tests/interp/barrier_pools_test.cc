#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "interp/barrier_pools.hh"

namespace vgiw
{
namespace
{

using Released = std::vector<std::pair<uint32_t, int>>;  // (tid, succ)

/** Collects released threads in release order. */
struct Recorder
{
    Released released;
    void
    operator()(uint32_t tid, int succ)
    {
        released.emplace_back(tid, succ);
    }
};

TEST(BarrierPools, ReleasesWhenTheLastLiveThreadArrives)
{
    // One CTA of 4 threads; each thread leaves for its own successor.
    BarrierPools pools(1, 4, 3);
    Recorder rec;
    pools.arrive(2, 1, 0, rec);
    pools.arrive(0, 1, 2, rec);
    pools.arrive(1, 1, 2, rec);
    EXPECT_TRUE(rec.released.empty());
    EXPECT_EQ(pools.waiting(), 3);
    pools.arrive(3, 1, 0, rec);
    EXPECT_EQ(rec.released, (Released{{0, 2}, {1, 2}, {2, 0}, {3, 0}}));
    EXPECT_EQ(pools.waiting(), 0);

    // The pool is reusable: the next barrier round starts empty.
    rec.released.clear();
    for (uint32_t t = 0; t < 3; ++t)
        pools.arrive(t, 1, 2, rec);
    EXPECT_TRUE(rec.released.empty());
    pools.arrive(3, 1, 2, rec);
    EXPECT_EQ(rec.released.size(), 4u);
}

TEST(BarrierPools, StragglerExitReleasesAFullPool)
{
    BarrierPools pools(1, 4, 3);
    Recorder rec;
    for (uint32_t t = 0; t < 3; ++t)
        pools.arrive(t, 2, 1, rec);
    EXPECT_TRUE(rec.released.empty());
    pools.exit(3, rec);  // the one thread not waiting retires
    EXPECT_EQ(rec.released, (Released{{0, 1}, {1, 1}, {2, 1}}));
    EXPECT_EQ(pools.waiting(), 0);
}

TEST(BarrierPools, ExitOfAnotherCtaReleasesNothing)
{
    BarrierPools pools(2, 2, 2);
    Recorder rec;
    pools.arrive(0, 1, 0, rec);  // CTA 0 waits for thread 1
    pools.exit(2, rec);          // CTA 1 shrinks
    pools.exit(3, rec);
    EXPECT_TRUE(rec.released.empty());
    pools.exit(1, rec);          // CTA 0's straggler
    EXPECT_EQ(rec.released, (Released{{0, 0}}));
}

TEST(BarrierPools, ArrivalReleasesOnlyItsOwnPool)
{
    // Two CTAs of 2 threads over 3 blocks.
    BarrierPools pools(2, 2, 3);
    Recorder rec;
    pools.arrive(0, 1, 0, rec);  // CTA 0 at block 1
    pools.arrive(2, 1, 0, rec);  // CTA 1 at block 1
    pools.arrive(3, 2, 0, rec);  // CTA 1 at block 2
    // Every live thread of CTA 1 now waits, but at two blocks: an
    // arrival at block 2 does not release block 1.
    EXPECT_TRUE(rec.released.empty());
    EXPECT_EQ(pools.waiting(), 3);
    // Completing (CTA 0, block 1) leaves (CTA 1, block 1) waiting.
    pools.arrive(1, 1, 2, rec);
    EXPECT_EQ(rec.released, (Released{{0, 0}, {1, 2}}));
    EXPECT_EQ(pools.waiting(), 2);
}

TEST(BarrierPools, OneCtaWaitsAtTwoBarrierBlocks)
{
    BarrierPools pools(1, 4, 3);
    Recorder rec;
    pools.arrive(0, 1, 2, rec);
    pools.arrive(1, 1, 2, rec);
    pools.arrive(2, 2, 0, rec);
    EXPECT_EQ(pools.waiting(), 3);
    // Thread 3 exits: the CTA has 3 live threads, 2 at block 1 and 1 at
    // block 2. Neither pool holds them all, so both keep waiting (the
    // caller reports the deadlock).
    pools.exit(3, rec);
    EXPECT_TRUE(rec.released.empty());
    EXPECT_EQ(pools.waiting(), 3);
}

TEST(BarrierPools, ResetRestartsEveryCtaFullyLive)
{
    BarrierPools pools(2, 2, 2);
    Recorder rec;
    pools.exit(0, rec);
    pools.exit(1, rec);
    pools.reset(1);  // a smaller tile: CTA 0 only
    pools.arrive(0, 1, 0, rec);
    EXPECT_TRUE(rec.released.empty());  // thread 1 is live again
    pools.arrive(1, 1, 0, rec);
    EXPECT_EQ(rec.released.size(), 2u);
}

TEST(BarrierPools, WithoutBarriersExitsAreFree)
{
    BarrierPools pools(4, 32, 5, /*has_barrier=*/false);
    Recorder rec;
    for (uint32_t t = 0; t < 128; ++t)
        pools.exit(t, rec);
    EXPECT_TRUE(rec.released.empty());
    EXPECT_EQ(pools.waiting(), 0);
}

} // namespace
} // namespace vgiw
