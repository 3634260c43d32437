/**
 * @file
 * Suite-wide property tests: invariants that must hold for every Table 2
 * kernel on every architecture — identical work across models, internally
 * consistent energy accounting, all threads retired, configuration
 * overhead within sane bounds, and the coalescing/replication extensions
 * never making things worse.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "driver/experiment_engine.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

class SuiteTest : public ::testing::TestWithParam<std::string>
{
  protected:
    static ArchComparison &
    comparisonFor(const std::string &name)
    {
        // Cache: each workload is traced and replayed once per binary.
        static std::map<std::string, ArchComparison> cache;
        auto it = cache.find(name);
        if (it == cache.end()) {
            ArchComparison c = ExperimentEngine{}.compare({name}).front();
            it = cache.emplace(name, std::move(c)).first;
        }
        return it->second;
    }
};

TEST_P(SuiteTest, IdenticalWorkAcrossArchitectures)
{
    const ArchComparison &c = comparisonFor(GetParam());
    EXPECT_TRUE(c.goldenPassed) << c.goldenError;
    EXPECT_EQ(c.vgiw.dynBlockExecs, c.fermi.dynBlockExecs);
    if (c.sgmf.supported) {
        EXPECT_EQ(c.sgmf.dynBlockExecs, c.vgiw.dynBlockExecs);
    }
    // DICE predicates divergent lanes but must still execute (and
    // count) exactly the work the trace prescribes.
    EXPECT_EQ(c.dice.dynBlockExecs, c.vgiw.dynBlockExecs);
    EXPECT_EQ(c.dice.dynThreadOps, c.vgiw.dynThreadOps);
    EXPECT_GT(c.vgiw.dynThreadOps, 0u);
}

TEST_P(SuiteTest, EnergyAccountingIsConsistent)
{
    const ArchComparison &c = comparisonFor(GetParam());
    for (const RunStats *rs : {&c.vgiw, &c.fermi}) {
        EXPECT_GT(rs->energy.corePj(), 0.0) << rs->arch;
        EXPECT_GE(rs->energy.diePj(), rs->energy.corePj()) << rs->arch;
        EXPECT_GE(rs->energy.systemPj(), rs->energy.diePj()) << rs->arch;
    }
    // Architecture-specific components stay in their lane.
    EXPECT_EQ(c.vgiw.energy.get(EnergyComponent::Frontend), 0.0);
    EXPECT_EQ(c.vgiw.energy.get(EnergyComponent::RegisterFile), 0.0);
    EXPECT_EQ(c.fermi.energy.get(EnergyComponent::TokenFabric), 0.0);
    EXPECT_EQ(c.fermi.energy.get(EnergyComponent::Lvc), 0.0);
    EXPECT_EQ(c.fermi.energy.get(EnergyComponent::Cvt), 0.0);
    EXPECT_EQ(c.fermi.energy.get(EnergyComponent::Config), 0.0);
    // DICE: static schedule, so no fetch/decode frontend; predication
    // instead of CVT coalescing; operand buffers instead of an LVC.
    EXPECT_GT(c.dice.energy.corePj(), 0.0);
    EXPECT_GE(c.dice.energy.systemPj(), c.dice.energy.diePj());
    EXPECT_EQ(c.dice.energy.get(EnergyComponent::Frontend), 0.0);
    EXPECT_EQ(c.dice.energy.get(EnergyComponent::Lvc), 0.0);
    EXPECT_EQ(c.dice.energy.get(EnergyComponent::Cvt), 0.0);
    EXPECT_GT(c.dice.energy.get(EnergyComponent::Config), 0.0);
}

/** tests/data/energy_parts.tsv: (workload, arch) -> the 11 parts in pJ. */
using EnergyParts = std::array<double, kNumEnergyComponents>;

const std::map<std::string, EnergyParts> &
referenceEnergyParts()
{
    static const std::map<std::string, EnergyParts> ref = [] {
        std::map<std::string, EnergyParts> out;
        std::ifstream in(VGIW_TEST_DATA_DIR "/energy_parts.tsv");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream row(line);
            std::string workload, arch;
            std::getline(row, workload, '\t');
            std::getline(row, arch, '\t');
            EnergyParts &parts = out[workload + "\t" + arch];
            for (double &pj : parts)
                row >> pj;
        }
        return out;
    }();
    return ref;
}

TEST_P(SuiteTest, EnergyPartsMatchReference)
{
    // The golden suite output pins only the core/die/system sums; this
    // pins the split, so energy moved between components cannot hide.
    // Every part is a multiple of 0.5 pJ, so %.1f text is exact.
    const auto &ref = referenceEnergyParts();
    ASSERT_EQ(ref.size(), 4 * workloadRegistry().size())
        << "tests/data/energy_parts.tsv is missing rows";
    const ArchComparison &c = comparisonFor(GetParam());
    ASSERT_TRUE(c.goldenPassed) << c.goldenError;
    for (const RunStats *rs : {&c.vgiw, &c.fermi, &c.sgmf, &c.dice}) {
        auto it = ref.find(GetParam() + "\t" + rs->arch);
        ASSERT_NE(it, ref.end()) << GetParam() << " " << rs->arch;
        for (size_t i = 0; i < kNumEnergyComponents; ++i) {
            const EnergyComponent comp = EnergyComponent(i);
            char got[32];
            std::snprintf(got, sizeof got, "%.1f", rs->energy.get(comp));
            EXPECT_EQ(rs->energy.get(comp), it->second[i])
                << GetParam() << " " << rs->arch << " "
                << energyComponentName(comp) << ": got " << got;
        }
    }
}

TEST_P(SuiteTest, VgiwStructuralInvariants)
{
    const ArchComparison &c = comparisonFor(GetParam());
    // One reconfiguration at minimum; config cycles consistent with the
    // 34-cycle model; overhead bounded (Section 3.2 argues it is tiny
    // at scale; at our input sizes allow up to a third).
    EXPECT_GE(c.vgiw.reconfigs, 1u);
    EXPECT_EQ(c.vgiw.configCycles, c.vgiw.reconfigs * 34u);
    EXPECT_LT(c.vgiw.configOverheadFraction(), 0.34);
    // The LVC never sees more traffic per thread-word than the RF
    // (Fig. 3's direction).
    EXPECT_LT(c.lvcToRfRatio(), 0.6);
}

TEST_P(SuiteTest, MemoryTrafficStaysExplainable)
{
    // Same traces => both architectures touch the same global lines.
    // Fermi's depth-first warp execution preserves temporal locality;
    // VGIW's breadth-first block vectors can thrash the L1 when a
    // tile's aggregate working set exceeds it (the locality cost of
    // control-flow coalescing — the effect behind the paper's call for
    // "further research on power efficient memory systems", Fig. 10).
    // VGIW may therefore move more DRAM lines, but never unboundedly
    // more than the per-access worst case, and Fermi must never move
    // meaningfully more than VGIW.
    const ArchComparison &c = comparisonFor(GetParam());
    const double v = double(c.vgiw.dramStats.accesses) + 1.0;
    const double f = double(c.fermi.dramStats.accesses) + 1.0;
    EXPECT_LT(f / v, 4.0);
    // Every DRAM access is an L2 fill, forwarded write or writeback.
    EXPECT_LE(c.vgiw.dramStats.accesses,
              c.vgiw.l2Stats.misses() + c.vgiw.l2Stats.writethroughs +
                  c.vgiw.l2Stats.writebacks);
    EXPECT_LE(c.fermi.dramStats.accesses,
              c.fermi.l2Stats.misses() + c.fermi.l2Stats.writethroughs +
                  c.fermi.l2Stats.writebacks);
}

TEST_P(SuiteTest, CoalescingExtensionNeverHurtsMuch)
{
    WorkloadInstance w = makeWorkload(GetParam());
    TraceResult traced = traceWorkload(w);
    const TraceSet &traces = *traced.traces;
    VgiwConfig base;
    VgiwConfig coal;
    coal.enableMemoryCoalescing = true;
    RunStats a = VgiwCore(base).run(traces);
    RunStats b = VgiwCore(coal).run(traces);
    // Idealised coalescing can only reduce transactions; cycles may
    // shift marginally from eviction-order effects.
    EXPECT_LE(b.l1Stats.accesses(), a.l1Stats.accesses());
    EXPECT_LT(double(b.cycles), double(a.cycles) * 1.05);
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs);
}

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const auto &e : workloadRegistry())
        out.push_back(e.name);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteTest, ::testing::ValuesIn(names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &ch : n)
            if (ch == '/' || ch == '-')
                ch = '_';
        return n;
    });

} // namespace
} // namespace vgiw
