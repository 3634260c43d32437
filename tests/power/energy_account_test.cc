#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <vector>

#include "driver/run_stats.hh"
#include "power/energy_model.hh"

namespace vgiw
{
namespace
{

TEST(EnergyAccount, StartsEmpty)
{
    EnergyAccount a;
    EXPECT_EQ(a.corePj(), 0.0);
    EXPECT_EQ(a.diePj(), 0.0);
    EXPECT_EQ(a.systemPj(), 0.0);
}

TEST(EnergyAccount, AddAccumulatesPerComponent)
{
    EnergyAccount a;
    a.add(EnergyComponent::Datapath, 10.0);
    a.add(EnergyComponent::Datapath, 5.0);
    a.add(EnergyComponent::L1, 7.0);
    EXPECT_EQ(a.get(EnergyComponent::Datapath), 15.0);
    EXPECT_EQ(a.get(EnergyComponent::L1), 7.0);
    EXPECT_EQ(a.get(EnergyComponent::Dram), 0.0);
}

TEST(EnergyAccount, LevelAggregationMatchesFig10Definitions)
{
    // Fig. 10: core = compute engine (incl. LVC/CVT or RF); die = core +
    // caches; system = die + DRAM.
    EnergyAccount a;
    a.add(EnergyComponent::Datapath, 1.0);
    a.add(EnergyComponent::Frontend, 2.0);
    a.add(EnergyComponent::RegisterFile, 4.0);
    a.add(EnergyComponent::TokenFabric, 8.0);
    a.add(EnergyComponent::Lvc, 16.0);
    a.add(EnergyComponent::Cvt, 32.0);
    a.add(EnergyComponent::Config, 64.0);
    a.add(EnergyComponent::Scratchpad, 128.0);
    a.add(EnergyComponent::L1, 256.0);
    a.add(EnergyComponent::L2, 512.0);
    a.add(EnergyComponent::Dram, 1024.0);

    EXPECT_EQ(a.corePj(), 255.0);
    EXPECT_EQ(a.diePj(), 255.0 + 256.0 + 512.0);
    EXPECT_EQ(a.systemPj(), a.diePj() + 1024.0);
}

TEST(EnergyAccount, MergeSums)
{
    EnergyAccount a, b;
    a.add(EnergyComponent::L1, 3.0);
    b.add(EnergyComponent::L1, 4.0);
    b.add(EnergyComponent::Dram, 9.0);
    a.merge(b);
    EXPECT_EQ(a.get(EnergyComponent::L1), 7.0);
    EXPECT_EQ(a.get(EnergyComponent::Dram), 9.0);
}

TEST(EnergyTable, VonNeumannOverheadsDominatePerOpCosts)
{
    // The premise the paper builds on ([3,4]): the per-warp front-end
    // and RF costs dwarf the per-op datapath energy, so removing them
    // (dataflow) and replacing with cheap token movement wins.
    EnergyTable t;
    EXPECT_GT(t.frontendWarpInstr, 10 * t.fpAluOp);
    EXPECT_GT(t.rfAccessWarp, 10 * t.fpAluOp);
    EXPECT_LT(t.tokenBufferRw + 2 * t.tokenHop, t.fpAluOp);
    EXPECT_LT(t.lvcAccessWord, t.rfAccessWarp / 32);
    // Memory hierarchy energies are ordered.
    EXPECT_LT(t.l1AccessWord, t.l2AccessLine);
    EXPECT_LT(t.l2AccessLine, t.dramAccessLine);
}

/** Every EnergyTable entry, so a test can rewrite the whole table. */
constexpr double EnergyTable::*kAllEntries[] = {
    &EnergyTable::intAluOp,          &EnergyTable::fpAluOp,
    &EnergyTable::scuOp,             &EnergyTable::ldstIssue,
    &EnergyTable::tokenBufferRw,     &EnergyTable::tokenHop,
    &EnergyTable::lvcAccessWord,     &EnergyTable::cvtAccessWord,
    &EnergyTable::configPerUnit,     &EnergyTable::rfAccessWarp,
    &EnergyTable::frontendWarpInstr, &EnergyTable::sharedAccessWord,
    &EnergyTable::operandBufferWord, &EnergyTable::l1AccessWord,
    &EnergyTable::l1AccessLine,      &EnergyTable::l2AccessLine,
    &EnergyTable::dramAccessLine,
};

static_assert(sizeof(EnergyTable) == sizeof(kAllEntries) / sizeof(void *) *
                                         sizeof(double),
              "kAllEntries must list every EnergyTable entry");

/** One priced event: how to count it, and where its energy must land. */
struct PricedEvent
{
    const char *name;
    std::function<void(RunStats &, uint64_t)> count;
    EnergyComponent component;
    double EnergyTable::*entry;
};

std::vector<PricedEvent>
allPricedEvents()
{
    using C = EnergyComponent;
    using T = EnergyTable;
    return {
        {"intOps", [](RunStats &r, uint64_t n) { r.events.intOps = n; },
         C::Datapath, &T::intAluOp},
        {"fpOps", [](RunStats &r, uint64_t n) { r.events.fpOps = n; },
         C::Datapath, &T::fpAluOp},
        {"scuOps", [](RunStats &r, uint64_t n) { r.events.scuOps = n; },
         C::Datapath, &T::scuOp},
        {"ldstIssues",
         [](RunStats &r, uint64_t n) { r.events.ldstIssues = n; },
         C::Datapath, &T::ldstIssue},
        {"dynWarpInstrs",
         [](RunStats &r, uint64_t n) { r.dynWarpInstrs = n; },
         C::Frontend, &T::frontendWarpInstr},
        {"rfAccesses", [](RunStats &r, uint64_t n) { r.rfAccesses = n; },
         C::RegisterFile, &T::rfAccessWarp},
        {"operandBufferWords",
         [](RunStats &r, uint64_t n) { r.events.operandBufferWords = n; },
         C::RegisterFile, &T::operandBufferWord},
        {"tokenRws", [](RunStats &r, uint64_t n) { r.events.tokenRws = n; },
         C::TokenFabric, &T::tokenBufferRw},
        {"tokenHops",
         [](RunStats &r, uint64_t n) { r.events.tokenHops = n; },
         C::TokenFabric, &T::tokenHop},
        {"lvc", [](RunStats &r, uint64_t n) { r.lvcStats.readHits = n; },
         C::Lvc, &T::lvcAccessWord},
        {"cvtWords", [](RunStats &r, uint64_t n) { r.events.cvtWords = n; },
         C::Cvt, &T::cvtAccessWord},
        {"configuredUnits",
         [](RunStats &r, uint64_t n) { r.events.configuredUnits = n; },
         C::Config, &T::configPerUnit},
        {"sharedWords",
         [](RunStats &r, uint64_t n) { r.events.sharedWords = n; },
         C::Scratchpad, &T::sharedAccessWord},
        {"l1 words", [](RunStats &r, uint64_t n) { r.l1Stats.readHits = n; },
         C::L1, &T::l1AccessWord},
        {"l1 lines",
         [](RunStats &r, uint64_t n) {
             r.events.l1PerLine = true;
             r.l1Stats.writeMisses = n;
         },
         C::L1, &T::l1AccessLine},
        {"l2", [](RunStats &r, uint64_t n) { r.l2Stats.readMisses = n; },
         C::L2, &T::l2AccessLine},
        {"dram", [](RunStats &r, uint64_t n) { r.dramStats.accesses = n; },
         C::Dram, &T::dramAccessLine},
    };
}

TEST(EnergyAccount, PriceEnergyMapsEachEventToOneComponent)
{
    // Distinct powers of two: a count priced with the wrong entry, or
    // landing in the wrong component, cannot produce the expected value.
    EnergyTable t;
    double p = 1.0;
    for (double EnergyTable::*entry : kAllEntries) {
        t.*entry = p;
        p *= 2.0;
    }
    const std::vector<PricedEvent> events = allPricedEvents();
    ASSERT_EQ(events.size(), std::size(kAllEntries));
    for (const PricedEvent &ev : events) {
        RunStats rs;
        ev.count(rs, 3);
        const EnergyAccount a = priceEnergy(rs, t);
        for (size_t i = 0; i < kNumEnergyComponents; ++i) {
            const EnergyComponent c = EnergyComponent(i);
            EXPECT_EQ(a.get(c), c == ev.component ? 3 * (t.*ev.entry) : 0.0)
                << ev.name << " -> " << energyComponentName(c);
        }
    }
}

TEST(EnergyAccount, RepricingChangesOnlyTheMatchingComponents)
{
    // Stored counts repriced with other energies: only the components
    // whose entries changed may move.
    RunStats rs;
    uint64_t n = 1;
    for (const PricedEvent &ev : allPricedEvents())
        ev.count(rs, n++);
    rs.events.l1PerLine = false;

    const EnergyAccount base = priceEnergy(rs);
    const EnergyAccount same = priceEnergy(rs, EnergyTable{});
    EnergyTable t;
    t.fpAluOp *= 2;
    t.operandBufferWord += 1;
    t.l1AccessLine *= 3;  // unused: this L1 is priced per word
    t.dramAccessLine /= 2;
    const EnergyAccount repriced = priceEnergy(rs, t);

    for (size_t i = 0; i < kNumEnergyComponents; ++i) {
        const EnergyComponent c = EnergyComponent(i);
        EXPECT_GT(base.get(c), 0.0) << energyComponentName(c);
        EXPECT_EQ(same.get(c), base.get(c)) << energyComponentName(c);
        const bool moves = c == EnergyComponent::Datapath ||
                           c == EnergyComponent::RegisterFile ||
                           c == EnergyComponent::Dram;
        if (moves)
            EXPECT_NE(repriced.get(c), base.get(c)) << energyComponentName(c);
        else
            EXPECT_EQ(repriced.get(c), base.get(c)) << energyComponentName(c);
    }
    EXPECT_EQ(repriced.get(EnergyComponent::Datapath) -
                  base.get(EnergyComponent::Datapath),
              double(rs.events.fpOps) * EnergyTable{}.fpAluOp);
}

TEST(EnergyComponentNames, AllDistinct)
{
    for (size_t i = 0; i < kNumEnergyComponents; ++i) {
        for (size_t j = i + 1; j < kNumEnergyComponents; ++j) {
            EXPECT_STRNE(energyComponentName(EnergyComponent(i)),
                         energyComponentName(EnergyComponent(j)));
        }
    }
}

} // namespace
} // namespace vgiw
