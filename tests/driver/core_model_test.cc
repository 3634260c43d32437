/**
 * @file
 * CoreModel interface tests: the four architectures are reachable
 * through one polymorphic surface, the factory validates names, and a
 * virtual-dispatch replay matches a direct one.
 */

#include <gtest/gtest.h>

#include "driver/core_model.hh"
#include "driver/system_config.hh"
#include "driver/trace_cache.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

TEST(CoreModel, FactoryCoversAllArchitecturesAndRejectsUnknown)
{
    SystemConfig cfg;
    EXPECT_EQ(knownArchitectures(),
              (std::vector<std::string>{"vgiw", "fermi", "sgmf", "dice"}));
    for (const auto &arch : knownArchitectures()) {
        EXPECT_TRUE(isKnownArchitecture(arch));
        auto m = makeCoreModel(arch, cfg);
        ASSERT_NE(m, nullptr) << arch;
        EXPECT_EQ(m->name(), arch);
    }
    EXPECT_FALSE(isKnownArchitecture("bogus"));
    EXPECT_FALSE(isKnownArchitecture("all"));
    EXPECT_EQ(makeCoreModel("bogus", cfg), nullptr);
    EXPECT_EQ(makeCoreModels(cfg, "all").size(), 4u);
    EXPECT_EQ(makeCoreModels(cfg, "fermi").size(), 1u);
    EXPECT_TRUE(makeCoreModels(cfg, "bogus").empty());
}

TEST(CoreModel, VirtualDispatchMatchesDirectCalls)
{
    SystemConfig cfg;
    WorkloadInstance w = makeWorkload("NN/euclid");
    TraceResult traced = traceWorkload(w);
    ASSERT_TRUE(traced.ok());

    RunStats direct = VgiwCore(cfg.vgiw).run(*traced.traces);
    RunStats via = makeCoreModel("vgiw", cfg)->run(*traced.traces);
    EXPECT_EQ(direct.cycles, via.cycles);
    EXPECT_EQ(direct.arch, via.arch);
    EXPECT_EQ(direct.energy.systemPj(), via.energy.systemPj());

    // The configuration flows through the factory.
    SystemConfig ablated = cfg;
    ablated.vgiw.enableReplication = false;
    RunStats no_rep = makeCoreModel("vgiw", ablated)->run(*traced.traces);
    EXPECT_GE(no_rep.cycles, via.cycles);
}

TEST(CoreModel, RunStatsArchMatchesModelName)
{
    SystemConfig cfg;
    WorkloadInstance w = makeWorkload("GE/Fan1");
    TraceResult traced = traceWorkload(w);
    ASSERT_TRUE(traced.ok());
    for (const auto &m : makeCoreModels(cfg)) {
        RunStats rs = m->run(*traced.traces);
        EXPECT_EQ(rs.arch, m->name());
    }
}

} // namespace
} // namespace vgiw
