/**
 * @file
 * Property tests over randomly generated structured kernels: for any
 * kernel the generator can produce, the four timing models must agree
 * on the dynamic work (they replay identical traces), the VGIW core must
 * execute every trace entry exactly once despite the coalescing
 * scheduler, and the SIMT stack replay must never diverge from the
 * per-thread traces.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "driver/system_config.hh"
#include "interp/interpreter.hh"
#include "helpers/random_kernel.hh"
#include "ir/builder.hh"

namespace vgiw
{
namespace
{


class RandomKernelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomKernelTest, AllModelsReplayIdenticalWork)
{
    Rng rng(uint64_t(GetParam()) * 7919);
    const int regions = 2 + int(rng.nextUInt(4));
    Kernel k = testing::randomKernel(rng, regions);

    const int threads = 256;
    MemoryImage mem;
    const uint32_t in = mem.allocWords(threads);
    const uint32_t out = mem.allocWords(threads);
    for (int i = 0; i < threads; ++i)
        mem.storeI32(in, uint32_t(i), int32_t(rng.next() & 0xffff));

    LaunchParams lp;
    lp.numCtas = threads / 64;
    lp.ctaSize = 64;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);

    RunStats v = VgiwCore{}.run(traces);
    RunStats f = FermiCore{}.run(traces);
    EXPECT_EQ(v.dynBlockExecs, traces.totalBlockExecs());
    EXPECT_EQ(f.dynBlockExecs, traces.totalBlockExecs());
    EXPECT_GT(v.cycles, 0u);
    EXPECT_GT(f.cycles, 0u);

    RunStats s = SgmfCore{}.run(traces);
    if (s.supported) {
        EXPECT_EQ(s.dynBlockExecs, traces.totalBlockExecs());
    }

    // DICE folds any block onto its array, so unlike SGMF it must
    // support (and agree on) every generated kernel.
    RunStats d = DiceCore{}.run(traces);
    EXPECT_TRUE(d.supported);
    EXPECT_EQ(d.dynBlockExecs, traces.totalBlockExecs());
    EXPECT_EQ(d.dynThreadOps, v.dynThreadOps);
    EXPECT_GT(d.cycles, 0u);

    // Energy accounting is internally consistent.
    EXPECT_NEAR(v.energy.systemPj(),
                v.energy.diePj() + v.energy.get(EnergyComponent::Dram),
                1e-6);
    EXPECT_GT(f.energy.get(EnergyComponent::RegisterFile), 0.0);
}

TEST_P(RandomKernelTest, TilingDoesNotChangeWork)
{
    Rng rng(uint64_t(GetParam()) * 104729);
    Kernel k = testing::randomKernel(rng, 3);

    const int threads = 512;
    MemoryImage mem;
    const uint32_t in = mem.allocWords(threads);
    const uint32_t out = mem.allocWords(threads);
    for (int i = 0; i < threads; ++i)
        mem.storeI32(in, uint32_t(i), int32_t(rng.next() & 0xffff));
    LaunchParams lp;
    lp.numCtas = threads / 64;
    lp.ctaSize = 64;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);

    VgiwConfig big;
    VgiwConfig small;
    small.cvtCapacityBits = uint32_t(k.numBlocks()) * 64;
    RunStats a = VgiwCore(big).run(traces);
    RunStats b = VgiwCore(small).run(traces);
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs);
    EXPECT_EQ(a.dynThreadOps, b.dynThreadOps);
    EXPECT_GE(b.reconfigs, a.reconfigs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest,
                         ::testing::Range(1, 13));

} // namespace
} // namespace vgiw
