#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{
namespace
{

/** Functionally execute the Figure 1a kernel on 8 threads with the
 * paper's divergence pattern and return the traces. */
TraceSet
fig1Traces(MemoryImage &mem)
{
    static Kernel k = testing::makeFig1Kernel();
    const int n = 8;
    uint32_t in = mem.allocWords(n);
    uint32_t out = mem.allocWords(n);
    uint32_t out2 = mem.allocWords(n);
    // Threads {0,2,7} -> BB2; {1,6} -> BB3,BB4; {3,4,5} -> BB3,BB5.
    const int32_t raw[n] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, raw[i]);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(VgiwCore, Fig2MachineStateWalkthrough)
{
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);

    // Record the BBS schedule and the coalesced thread vectors.
    std::vector<std::pair<int, std::vector<uint32_t>>> schedule;
    VgiwConfig cfg;
    cfg.blockObserver = [&schedule](int b,
                                    const std::vector<uint32_t> &tids) {
        schedule.emplace_back(b, tids);
    };
    VgiwCore core(cfg);
    RunStats rs = core.run(traces);

    // Figure 2: BB1 runs all 8 threads, BB2 runs {0,2,7}, BB3 runs
    // {1,3,4,5,6}, BB4 runs {1,6}, BB5 runs {3,4,5}, BB6 runs all 8 —
    // each block is scheduled exactly once despite the divergence.
    ASSERT_EQ(schedule.size(), 6u);
    EXPECT_EQ(schedule[0].first, 0);
    EXPECT_EQ(schedule[0].second.size(), 8u);
    EXPECT_EQ(schedule[1].first, 1);
    EXPECT_EQ(schedule[1].second, (std::vector<uint32_t>{0, 2, 7}));
    EXPECT_EQ(schedule[2].first, 2);
    EXPECT_EQ(schedule[2].second,
              (std::vector<uint32_t>{1, 3, 4, 5, 6}));
    EXPECT_EQ(schedule[3].first, 3);
    EXPECT_EQ(schedule[3].second, (std::vector<uint32_t>{1, 6}));
    EXPECT_EQ(schedule[4].first, 4);
    EXPECT_EQ(schedule[4].second, (std::vector<uint32_t>{3, 4, 5}));
    EXPECT_EQ(schedule[5].first, 5);
    EXPECT_EQ(schedule[5].second.size(), 8u);

    // 6 scheduled blocks -> 6 reconfigurations.
    EXPECT_EQ(rs.reconfigs, 6u);
    EXPECT_EQ(rs.configCycles, 6u * 34u);
    EXPECT_GT(rs.cycles, rs.configCycles);
}

TEST(VgiwCore, CvtWordWritesAreOnePerSuccessorWindow)
{
    // 256 threads of the Figure 1a kernel, their branch outcomes mixed
    // so every successor is reached from all four 64-thread windows,
    // over a 192-thread tile and a 64-thread last tile. The terminator
    // CVUs must write one CVT word per (successor, window) of each
    // drained vector: the <base, bitmap> batches of Section 3.2.
    static Kernel k = testing::makeFig1Kernel();
    const int n = 256;
    MemoryImage mem;
    const uint32_t in = mem.allocWords(n);
    const uint32_t out = mem.allocWords(n);
    const uint32_t out2 = mem.allocWords(n);
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, uint32_t(i), (i * 7 + i / 5) % 3);
    LaunchParams lp;
    lp.numCtas = 4;
    lp.ctaSize = 64;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    const TraceSet traces = Interpreter{}.run(k, lp, mem);

    VgiwConfig cfg;
    cfg.cvtCapacityBits = uint32_t(k.numBlocks()) * 192;
    const int tile = 192;
    ASSERT_EQ(VgiwCore(cfg).tileSizeFor(k, lp), tile);

    // Oracle: follow each thread's trace through the schedule and count
    // the batches of every drained vector, plus the seed writes and one
    // word read per tile word per drain.
    std::vector<ThreadCursor> cur;
    for (int t = 0; t < n; ++t)
        cur.push_back(traces.thread(uint32_t(t)));
    auto tile_words = [&](uint32_t gtid) {
        const int start = int(gtid) / tile * tile;
        return uint64_t(std::min(tile, n - start) + 63) / 64;
    };
    uint64_t expected = tile_words(0) + tile_words(tile);  // seeds
    uint64_t multi_window_vectors = 0;
    cfg.blockObserver = [&](int b, const std::vector<uint32_t> &gtids) {
        expected += tile_words(gtids.front());
        std::set<std::pair<int, uint32_t>> batches;  // (succ, window)
        std::set<uint32_t> windows;
        for (uint32_t g : gtids) {
            ASSERT_EQ(cur[g].block(), b);
            const int succ = cur[g].succ();
            cur[g].nextExec();
            if (succ >= 0) {
                batches.emplace(succ, g % uint32_t(tile) / 64);
                windows.insert(g % uint32_t(tile) / 64);
            }
        }
        expected += batches.size();
        multi_window_vectors += windows.size() > 1;
    };
    const RunStats rs = VgiwCore(cfg).run(traces);
    EXPECT_GT(multi_window_vectors, 0u);
    EXPECT_EQ(rs.events.cvtWords, expected);
}

TEST(VgiwCore, ThreadVectorCoalescesAcrossControlFlows)
{
    // BB6's vector unites threads arriving from BB2, BB4 and BB5: the
    // number of reconfigurations depends on the number of basic blocks,
    // not the number of control paths (Section 2).
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);
    RunStats rs = VgiwCore{}.run(traces);
    EXPECT_EQ(rs.reconfigs, 6u);  // not 1 + 1 + 1 + 1 + 1 + 3 paths
    EXPECT_EQ(rs.dynBlockExecs, traces.totalBlockExecs());
}

TEST(VgiwCore, LoopReconfiguresPerIterationButCoalescesThreads)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    const int n = 64, trips = 3;
    uint32_t out = mem.allocWords(n);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(trips)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);

    RunStats rs = VgiwCore{}.run(traces);
    // Schedule: entry, (head, body) x trips, head, done.
    EXPECT_EQ(rs.reconfigs, uint64_t(1 + 2 * trips + 2));
    EXPECT_EQ(rs.dynBlockExecs, traces.totalBlockExecs());
}

TEST(VgiwCore, LvcTrafficOnlyForCrossBlockValues)
{
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);
    RunStats rs = VgiwCore{}.run(traces);
    // lv_x: written once per thread in BB1 (8), read once per thread in
    // BB2/BB4/BB5 (8) and in BB6 (8) = 24 LVC accesses. BB3 also reads
    // lv_x for its branch (5 threads) => 29.
    EXPECT_EQ(rs.lvcStats.accesses(), 29u);
}

TEST(VgiwCore, ReplicationAblationSlowsExecution)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    const int n = 2048;
    uint32_t out = mem.allocWords(n);
    LaunchParams lp;
    lp.numCtas = n / 256;
    lp.ctaSize = 256;
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(8)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);

    VgiwConfig with;
    VgiwConfig without;
    without.enableReplication = false;
    RunStats fast = VgiwCore(with).run(traces);
    RunStats slow = VgiwCore(without).run(traces);
    EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(VgiwCore, TileSizeFollowsSection32Formula)
{
    Kernel k = testing::makeFig1Kernel();  // 6 blocks
    VgiwConfig cfg;
    cfg.cvtCapacityBits = 6 * 600;  // 600 threads per block vector
    VgiwCore core(cfg);
    LaunchParams lp;
    lp.numCtas = 100;
    lp.ctaSize = 64;
    // 3600 / 6 = 600 -> rounded down to 9 CTAs = 576 threads.
    EXPECT_EQ(core.tileSizeFor(k, lp), 576);
    // Small launches are a single tile.
    lp.numCtas = 2;
    EXPECT_EQ(core.tileSizeFor(k, lp), 128);
}

TEST(VgiwCore, TilingPreservesWorkAndBarriers)
{
    const int cta = 32, ctas = 8;
    Kernel k = testing::makeBarrierKernel(cta);
    MemoryImage mem;
    uint32_t in = mem.allocWords(cta * ctas);
    uint32_t out = mem.allocWords(cta * ctas);
    for (int i = 0; i < cta * ctas; ++i)
        mem.storeI32(in, i, i);
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);

    VgiwConfig tiny;
    tiny.cvtCapacityBits = 2 * 64;  // tiles of 64 threads (2 blocks)
    RunStats rs = VgiwCore(tiny).run(traces);
    EXPECT_EQ(rs.dynBlockExecs, traces.totalBlockExecs());
    // More tiles -> more reconfigurations than the single-tile run.
    RunStats big = VgiwCore{}.run(traces);
    EXPECT_GT(rs.reconfigs, big.reconfigs);
}

TEST(VgiwCore, EnergyComponentsArePopulated)
{
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);
    RunStats rs = VgiwCore{}.run(traces);
    EXPECT_GT(rs.energy.get(EnergyComponent::Datapath), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::TokenFabric), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::Lvc), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::Cvt), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::Config), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::Dram), 0.0);
    // No von Neumann structures on VGIW.
    EXPECT_EQ(rs.energy.get(EnergyComponent::Frontend), 0.0);
    EXPECT_EQ(rs.energy.get(EnergyComponent::RegisterFile), 0.0);
    EXPECT_EQ(rs.energy.systemPj(),
              rs.energy.diePj() + rs.energy.get(EnergyComponent::Dram));
}

} // namespace
} // namespace vgiw
