/**
 * @file
 * Tests for the divergence-visibility statistics: Fermi's SIMD lane
 * occupancy (Figure 1b's masked lanes) and VGIW's coalesced vector
 * sizes (Figure 1d) must move in opposite directions as control flow
 * diverges.
 */

#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{
namespace
{

TraceSet
fig1Traces(MemoryImage &mem, const std::vector<int32_t> &inputs)
{
    static Kernel k = testing::makeFig1Kernel();
    const int n = int(inputs.size());
    uint32_t in = mem.allocWords(uint32_t(n));
    uint32_t out = mem.allocWords(uint32_t(n));
    uint32_t out2 = mem.allocWords(uint32_t(n));
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, uint32_t(i), inputs[i]);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(OccupancyStats, UniformWarpHasFullLaneOccupancy)
{
    MemoryImage mem;
    TraceSet t = fig1Traces(mem, std::vector<int32_t>(32, 1));
    RunStats f = FermiCore{}.run(t);
    EXPECT_DOUBLE_EQ(f.extra.get("fermi.lane_occupancy"), 1.0);
}

TEST(OccupancyStats, DivergenceDropsLaneOccupancy)
{
    std::vector<int32_t> div(32);
    const int32_t pattern[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < 32; ++i)
        div[size_t(i)] = pattern[i % 8];
    MemoryImage mem;
    TraceSet t = fig1Traces(mem, div);
    RunStats f = FermiCore{}.run(t);
    const double occ = f.extra.get("fermi.lane_occupancy");
    EXPECT_LT(occ, 0.8);
    EXPECT_GT(occ, 0.3);
}

TEST(OccupancyStats, VgiwVectorsCoalesceRegardlessOfDivergence)
{
    std::vector<int32_t> div(256);
    const int32_t pattern[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < 256; ++i)
        div[size_t(i)] = pattern[i % 8];

    MemoryImage m1, m2;
    TraceSet uniform = fig1Traces(m1, std::vector<int32_t>(256, 1));
    TraceSet divergent = fig1Traces(m2, div);

    RunStats u = VgiwCore{}.run(uniform);
    RunStats d = VgiwCore{}.run(divergent);
    // Uniform: 3 vectors of 256 threads. Divergent: 6 vectors, but the
    // average stays high because every vector is fully coalesced.
    EXPECT_DOUBLE_EQ(u.extra.get("vgiw.avg_vector_size"), 256.0);
    EXPECT_GT(d.extra.get("vgiw.avg_vector_size"), 100.0);
}

} // namespace
} // namespace vgiw
