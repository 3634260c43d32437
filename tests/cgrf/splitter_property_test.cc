/**
 * @file
 * Property test: for any random structured kernel, the block-splitting
 * compiler pass must preserve the kernel's semantics exactly — the split
 * and unsplit versions produce bit-identical memory — and the split
 * kernel must satisfy the fitting invariant on every block.
 */

#include <gtest/gtest.h>

#include "cgrf/block_splitter.hh"
#include "cgrf/placer.hh"
#include "helpers/random_kernel.hh"
#include "interp/interpreter.hh"

namespace vgiw
{
namespace
{

class SplitterPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SplitterPropertyTest, SplittingPreservesSemantics)
{
    Rng rng(uint64_t(GetParam()) * 2654435761u);
    const int regions = 3 + int(rng.nextUInt(5));
    Kernel k = testing::randomKernel(rng, regions);

    // Force aggressive splitting with a tiny grid so even modest blocks
    // are cut: 2x2 of each memory/control kind, few ALUs.
    GridConfig tiny;
    tiny.width = 6;
    tiny.height = 6;
    countOf(tiny.counts, UnitKind::FpAlu) = 8;
    countOf(tiny.counts, UnitKind::Scu) = 4;
    countOf(tiny.counts, UnitKind::LdSt) = 6;
    countOf(tiny.counts, UnitKind::Lvu) = 8;
    countOf(tiny.counts, UnitKind::Sju) = 6;
    countOf(tiny.counts, UnitKind::Cvu) = 4;
    tiny.kindAt.clear();
    for (int kind = 0; kind < kNumUnitKinds; ++kind) {
        for (int i = 0; i < tiny.counts[kind]; ++i)
            tiny.kindAt.push_back(UnitKind(kind));
    }
    tiny.positions.resize(size_t(tiny.numUnits()));
    for (int c = 0; c < tiny.numUnits(); ++c)
        tiny.positions[size_t(c)] = {c % tiny.width, c / tiny.width};

    Kernel split = splitOversizedBlocks(k, tiny);

    // Every split block fits one replica of the tiny grid.
    Placer placer(tiny);
    for (const auto &blk : split.blocks) {
        EXPECT_TRUE(placer.place(buildBlockDfg(blk), 1).fits)
            << "block " << blk.name;
    }

    // Bit-identical results on the same inputs.
    auto run = [](const Kernel &kk, uint64_t seed) {
        const int threads = 128;
        MemoryImage mem;
        const uint32_t in = mem.allocWords(threads);
        const uint32_t out = mem.allocWords(threads);
        Rng data(seed);
        for (int i = 0; i < threads; ++i)
            mem.storeI32(in, uint32_t(i), int32_t(data.next() & 0xffff));
        LaunchParams lp;
        lp.numCtas = 2;
        lp.ctaSize = 64;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
        Interpreter{}.run(kk, lp, mem);
        std::vector<uint32_t> result;
        for (int i = 0; i < threads; ++i)
            result.push_back(mem.loadU32(out, uint32_t(i)));
        return result;
    };

    EXPECT_EQ(run(k, 99), run(split, 99));
}

TEST_P(SplitterPropertyTest, SplitKernelStillVerifiesAndOrders)
{
    Rng rng(uint64_t(GetParam()) * 40503u + 7);
    Kernel k = testing::randomKernel(rng, 4);
    Kernel split = splitOversizedBlocks(k);  // Table 1 grid
    // Forward-edge numbering survives (verifyKernel ran inside, but the
    // RPO property is checked explicitly here).
    for (int b = 0; b < split.numBlocks(); ++b) {
        const auto &t = split.blocks[b].term;
        for (int s = 0; s < t.numTargets(); ++s) {
            if (t.target[s] <= b) {
                // Back edges must target a block that can reach b again
                // (a loop head) — in our generator, only loop heads are
                // back-edge targets.
                EXPECT_LT(t.target[s], b);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitterPropertyTest,
                         ::testing::Range(1, 11));

} // namespace
} // namespace vgiw
