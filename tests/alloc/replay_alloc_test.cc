/**
 * @file
 * Allocation ceilings for replay, counted by the replaced global
 * operator new of alloc_counter.cc. Every core model sizes its replay
 * state from the launch shape once per job: the VGIW CVT and barrier
 * pools per tile, the Fermi SIMT stacks and cursors per resident CTA.
 * No allocation count may grow with the threads, CTAs, warps, tiles or
 * block vectors a replay walks, so each job stays under a small fixed
 * ceiling whatever the workload's size.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc/alloc_counter.hh"
#include "driver/core_model.hh"
#include "driver/system_config.hh"
#include "interp/interpreter.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

/** Ceiling on operator new calls of one CoreModel::run. */
constexpr uint64_t kMaxAllocsPerReplay = 64;

/** Per architecture, in registry order: (workload, operator new calls
 * of its replay). */
using ReplayAllocs =
    std::map<std::string, std::vector<std::pair<std::string, uint64_t>>>;

/** Trace every registry workload once and replay it on every model. */
const ReplayAllocs &
registryReplayAllocs()
{
    static const ReplayAllocs counts = [] {
        ReplayAllocs out;
        const SystemConfig cfg{};
        for (const WorkloadEntry &entry : workloadRegistry()) {
            WorkloadInstance w = entry.make();
            const TraceSet ts =
                Interpreter{}.run(w.kernel, w.launch, w.memory);
            for (const std::string &arch : knownArchitectures()) {
                const auto model = makeCoreModel(arch, cfg);
                const auto ck = model->compile(w.kernel);
                const uint64_t before = testing::allocCount();
                model->run(ts, *ck);
                out[arch].emplace_back(entry.name,
                                       testing::allocCount() - before);
            }
        }
        return out;
    }();
    return counts;
}

/** Print @p arch's per-workload counts; returns their sum. */
uint64_t
printCounts(const std::string &arch)
{
    uint64_t total = 0;
    std::printf("%s replay\n", arch.c_str());
    for (const auto &[name, n] : registryReplayAllocs().at(arch)) {
        total += n;
        std::printf("  %-28s %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(n));
    }
    std::printf("  %-28s %8llu\n", "total",
                static_cast<unsigned long long>(total));
    return total;
}

/** Every workload under the per-job ceiling, the registry under @p max. */
void
expectReplayCeilings(const std::string &arch, uint64_t max_total)
{
    const uint64_t total = printCounts(arch);
    for (const auto &[name, n] : registryReplayAllocs().at(arch))
        EXPECT_LE(n, kMaxAllocsPerReplay) << arch << " " << name;
    EXPECT_LE(total, max_total) << arch;
}

TEST(ReplayAllocs, VgiwReplaysEachWorkloadInFixedAllocations)
{
    expectReplayCeilings("vgiw", 600);
}

TEST(ReplayAllocs, FermiReplaysEachWorkloadInFixedAllocations)
{
    expectReplayCeilings("fermi", 350);
}

TEST(ReplayAllocs, SgmfReplaysEachWorkloadInFixedAllocations)
{
    expectReplayCeilings("sgmf", 200);
}

TEST(ReplayAllocs, DiceReplaysEachWorkloadInFixedAllocations)
{
    expectReplayCeilings("dice", 450);
}

} // namespace
} // namespace vgiw
