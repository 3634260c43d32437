/**
 * @file
 * DiceCore unit tests: compile/replay key separation, reservation-table
 * initiation intervals, predication accounting, configuration-cache
 * behaviour, artifact serde round-trips and replay determinism.
 */

#include <gtest/gtest.h>

#include "dice/dice_core.hh"
#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{
namespace
{

/** Figure 1a traces with caller-chosen per-thread inputs. */
TraceSet
traceFig1(const Kernel &k, const std::vector<int32_t> &inputs)
{
    MemoryImage mem;
    const int n = int(inputs.size());
    uint32_t in = mem.allocWords(uint32_t(n));
    uint32_t out = mem.allocWords(uint32_t(n));
    uint32_t out2 = mem.allocWords(uint32_t(n));
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, inputs[i]);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    return Interpreter{}.run(k, lp, mem);
}

/** The paper's divergence mix, tiled to @p n threads. */
std::vector<int32_t>
paperMix(int n)
{
    const int32_t raw[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    std::vector<int32_t> v(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        v[size_t(i)] = raw[i % 8];
    return v;
}

TEST(DiceCore, KeysSeparateCompileSideFromReplaySide)
{
    const DiceCore base;

    // Replay-only knobs must not invalidate compile artifacts.
    DiceConfig c;
    c.laneWidth = 16;
    c.missWindow = 64;
    c.switchCycles = 9;
    const DiceCore replay_tweaked(c);
    EXPECT_EQ(replay_tweaked.compileKey(), base.compileKey());
    EXPECT_NE(replay_tweaked.replayKey(), base.replayKey());

    // The array shape feeds the reservation tables at compile time.
    DiceConfig a;
    a.arrayCounts[0] = 2;
    const DiceCore compile_tweaked(a);
    EXPECT_NE(compile_tweaked.compileKey(), base.compileKey());
    EXPECT_EQ(compile_tweaked.replayKey(), base.replayKey());
}

TEST(DiceCore, ReservationTablesBoundTheInitiationInterval)
{
    const Kernel k = testing::makeFig1Kernel();
    const TraceSet t = traceFig1(k, paperMix(32));

    const RunStats wide = DiceCore{}.run(t);
    // A one-unit-per-kind array forces every multi-op block to fold,
    // so the worst II must grow and the schedule must slow down.
    DiceConfig narrow;
    narrow.arrayCounts = UnitCounts{1, 1, 1, 1, 1, 1};
    const RunStats folded = DiceCore(narrow).run(t);

    EXPECT_GT(folded.extra.get("dice.max_ii"),
              wide.extra.get("dice.max_ii"));
    EXPECT_GT(folded.cycles, wide.cycles);
    // Work is schedule-invariant: only the timing changes.
    EXPECT_EQ(folded.dynBlockExecs, wide.dynBlockExecs);
    EXPECT_EQ(folded.dynThreadOps, wide.dynThreadOps);
}

TEST(DiceCore, UniformGroupsHaveNoPredicationWaste)
{
    const Kernel k = testing::makeFig1Kernel();
    // All threads take BB1 -> BB2 -> BB6: every alive lane is active at
    // every scheduled visit, so predication never wastes a slot.
    const TraceSet t = traceFig1(k, std::vector<int32_t>(32, 1));
    const RunStats rs = DiceCore{}.run(t);
    EXPECT_EQ(rs.extra.get("dice.predication_waste_ops"), 0.0);
    EXPECT_EQ(rs.extra.get("dice.avg_active_lanes"), 32.0);
}

TEST(DiceCore, DivergentLanesRidePredicatedAndCountAsWaste)
{
    const Kernel k = testing::makeFig1Kernel();
    const TraceSet t = traceFig1(k, paperMix(32));
    const RunStats rs = DiceCore{}.run(t);
    // Three-way divergence: some visits run with most lanes predicated
    // off, so waste is positive and mean occupancy drops below full.
    EXPECT_GT(rs.extra.get("dice.predication_waste_ops"), 0.0);
    EXPECT_LT(rs.extra.get("dice.avg_active_lanes"), 32.0);

    // Predication wastes slots, never work: the functional counters
    // still match the von Neumann replay of the same traces.
    const RunStats v = VgiwCore{}.run(t);
    EXPECT_EQ(rs.dynBlockExecs, v.dynBlockExecs);
    EXPECT_EQ(rs.dynThreadOps, v.dynThreadOps);
}

TEST(DiceCore, ConfigCacheLoadsEachGraphOnceThenSwitches)
{
    const Kernel k = testing::makeFig1Kernel();

    // One lane group, divergent: every block visited once, each a cold
    // configuration load, no cache switches.
    const RunStats one = DiceCore{}.run(traceFig1(k, paperMix(32)));
    EXPECT_EQ(one.reconfigs, uint64_t(k.numBlocks()));
    EXPECT_EQ(one.extra.get("dice.graph_switches"), 0.0);

    // A second lane group revisits the same graphs: its block switches
    // hit the configuration cache instead of reloading rows.
    const RunStats two = DiceCore{}.run(traceFig1(k, paperMix(64)));
    EXPECT_EQ(two.extra.get("dice.graph_switches"),
              double(k.numBlocks()));
    EXPECT_EQ(two.reconfigs, uint64_t(2 * k.numBlocks()));
    // The cached switch is far cheaper than the row-parallel load.
    EXPECT_LT(two.configCycles, 2 * one.configCycles);
}

TEST(DiceCore, ArtifactRoundTripReplaysBitIdentically)
{
    const Kernel k = testing::makeFig1Kernel();
    const TraceSet t = traceFig1(k, paperMix(32));
    const DiceCore core;

    auto compiled = core.compile(k);
    const std::string bytes = core.serializeArtifact(*compiled);
    ASSERT_FALSE(bytes.empty());
    auto restored = core.deserializeArtifact(bytes);
    ASSERT_NE(restored, nullptr);

    const RunStats a = core.run(t, *compiled);
    const RunStats b = core.run(t, *restored);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.reconfigs, b.reconfigs);
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs);
    EXPECT_EQ(a.dynThreadOps, b.dynThreadOps);
    EXPECT_EQ(a.energy.systemPj(), b.energy.systemPj());
    EXPECT_EQ(a.extra.get("dice.max_ii"), b.extra.get("dice.max_ii"));
    EXPECT_EQ(a.extra.get("dice.predication_waste_ops"),
              b.extra.get("dice.predication_waste_ops"));

    // And a second serialization of the restored artifact is stable.
    EXPECT_EQ(core.serializeArtifact(*restored), bytes);
}

TEST(DiceCore, MalformedArtifactBytesAreRejectedNotTrusted)
{
    const Kernel k = testing::makeFig1Kernel();
    const DiceCore core;
    const std::string bytes = core.serializeArtifact(*core.compile(k));
    ASSERT_FALSE(bytes.empty());

    // Empty and truncated payloads (every proper prefix).
    EXPECT_EQ(core.deserializeArtifact({}), nullptr);
    for (size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_EQ(core.deserializeArtifact(
                      std::string_view(bytes.data(), len)),
                  nullptr)
            << "prefix of " << len << " bytes parsed";
    }

    // Trailing garbage and version skew.
    EXPECT_EQ(core.deserializeArtifact(bytes + "x"), nullptr);
    std::string skewed = bytes;
    skewed[0] = char(skewed[0] + 1);  // little-endian version word
    EXPECT_EQ(core.deserializeArtifact(skewed), nullptr);
}

TEST(DiceCore, ReplayIsDeterministic)
{
    const Kernel k = testing::makeFig1Kernel();
    const TraceSet t = traceFig1(k, paperMix(64));
    const DiceCore core;
    auto compiled = core.compile(k);
    const RunStats a = core.run(t, *compiled);
    const RunStats b = core.run(t, *compiled);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy.systemPj(), b.energy.systemPj());
    EXPECT_EQ(a.extra.get("dice.avg_active_lanes"),
              b.extra.get("dice.avg_active_lanes"));
}

} // namespace
} // namespace vgiw
