#include <gtest/gtest.h>

#include "cgrf/block_splitter.hh"
#include "cgrf/placer.hh"
#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"

namespace vgiw
{
namespace
{

/** A single-block kernel with @p fp_ops chained FP adds. */
Kernel
bigBlockKernel(int fp_ops)
{
    KernelBuilder kb("big", 2);
    BlockRef b = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand acc = b.load(Type::F32, b.elemAddr(Operand::param(0), tid));
    for (int i = 0; i < fp_ops; ++i)
        acc = b.fadd(acc, Operand::constF32(float(i + 1)));
    b.store(Type::F32, b.elemAddr(Operand::param(1), tid), acc);
    b.exit();
    return kb.finish();
}

bool
allBlocksFit(const Kernel &k)
{
    Placer placer(GridConfig::makeTable1());
    for (const auto &blk : k.blocks) {
        if (!placer.place(buildBlockDfg(blk), 1).fits)
            return false;
    }
    return true;
}

TEST(BlockSplitter, FittingKernelIsUntouched)
{
    Kernel k = testing::makeFig1Kernel();
    Kernel split = splitOversizedBlocks(k);
    EXPECT_EQ(split.numBlocks(), k.numBlocks());
    EXPECT_EQ(split.numLiveValues, k.numLiveValues);
}

TEST(BlockSplitter, OversizedBlockIsSplitUntilItFits)
{
    Kernel k = bigBlockKernel(80);  // 80 FP adds >> 32 FPU-ALUs
    EXPECT_FALSE(allBlocksFit(k));
    Kernel split = splitOversizedBlocks(k);
    EXPECT_GT(split.numBlocks(), k.numBlocks());
    EXPECT_TRUE(allBlocksFit(split));
    // Cut values cross through fresh live values.
    EXPECT_GT(split.numLiveValues, k.numLiveValues);
}

TEST(BlockSplitter, SplitKernelComputesTheSameResult)
{
    Kernel k = bigBlockKernel(80);
    Kernel split = splitOversizedBlocks(k);

    auto run = [](const Kernel &kk) {
        MemoryImage mem;
        uint32_t in = mem.allocWords(16), out = mem.allocWords(16);
        for (int i = 0; i < 16; ++i)
            mem.storeF32(in, uint32_t(i), float(i) * 0.5f);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = 16;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
        Interpreter{}.run(kk, lp, mem);
        std::vector<float> vals;
        for (int i = 0; i < 16; ++i)
            vals.push_back(mem.loadF32(out, uint32_t(i)));
        return vals;
    };

    EXPECT_EQ(run(k), run(split));
}

TEST(BlockSplitter, PreservesForwardEdgeNumbering)
{
    Kernel k = bigBlockKernel(100);
    Kernel split = splitOversizedBlocks(k);
    for (int b = 0; b < split.numBlocks(); ++b) {
        const auto &t = split.blocks[b].term;
        for (int s = 0; s < t.numTargets(); ++s)
            EXPECT_GT(t.target[s], b);
    }
}

TEST(BlockSplitter, SplitsOversizedLoopBodyKeepingBackEdge)
{
    // A loop whose body is too large: the suffix must still branch back
    // to the (shifted) head.
    KernelBuilder kb("bigloop", 2);
    const uint16_t lv_i = kb.newLiveValue();
    const uint16_t lv_acc = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef head = kb.block("head");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");
    Operand tid = Operand::special(SpecialReg::Tid);
    entry.out(lv_i, Operand::constI32(0));
    entry.out(lv_acc, Operand::constF32(0.0f));
    entry.jump(head);
    head.branch(head.ilt(head.in(lv_i), Operand::constI32(5)), body,
                done);
    Operand acc = body.in(lv_acc);
    for (int i = 0; i < 60; ++i)
        acc = body.fadd(acc, Operand::constF32(1.0f));
    body.out(lv_acc, acc);
    body.out(lv_i, body.iadd(body.in(lv_i), Operand::constI32(1)));
    body.jump(head);
    done.store(Type::F32, done.elemAddr(Operand::param(1), tid),
               done.in(lv_acc));
    done.exit();
    Kernel k = kb.finish();

    Kernel split = splitOversizedBlocks(k);
    EXPECT_TRUE(allBlocksFit(split));

    MemoryImage mem;
    uint32_t in = mem.allocWords(4), out = mem.allocWords(4);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 4;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    Interpreter{}.run(split, lp, mem);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(mem.loadF32(out, uint32_t(i)), 300.0f);
}

} // namespace
} // namespace vgiw
