/**
 * @file
 * The common result record every core model produces. The bench harnesses
 * compare RunStats across architectures to regenerate the paper's tables
 * and figures.
 */

#ifndef VGIW_DRIVER_RUN_STATS_HH
#define VGIW_DRIVER_RUN_STATS_HH

#include <cstdint>
#include <string>

#include "common/stat_set.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "power/energy_model.hh"

namespace vgiw
{

/**
 * Energy events RunStats does not already count elsewhere. A core counts
 * them during replay; priceEnergy() turns them into picojoules.
 */
struct EnergyEvents
{
    uint64_t intOps = 0;   ///< integer ALU firings
    uint64_t fpOps = 0;    ///< FPU firings
    uint64_t scuOps = 0;   ///< div/sqrt/transcendental firings
    uint64_t ldstIssues = 0;
    uint64_t tokenRws = 0;  ///< token-buffer write+read pairs
    uint64_t tokenHops = 0;
    uint64_t cvtWords = 0;
    uint64_t configuredUnits = 0;  ///< units loaded with a configuration
    uint64_t sharedWords = 0;      ///< scratchpad word accesses
    uint64_t operandBufferWords = 0;  ///< DICE live-value words
    /** L1 accesses are 128 B coalesced transactions (Fermi), not words. */
    bool l1PerLine = false;
};

/** Result of running one kernel launch on one core model. */
struct RunStats
{
    std::string arch;        ///< "vgiw", "fermi", "sgmf" or "dice"
    std::string kernelName;
    /** SGMF cannot map kernels larger than its fabric. */
    bool supported = true;

    uint64_t cycles = 0;
    uint64_t configCycles = 0;  ///< included in cycles (VGIW/SGMF)
    uint64_t reconfigs = 0;

    uint64_t dynBlockExecs = 0;  ///< thread-level block executions
    uint64_t dynThreadOps = 0;   ///< per-thread dynamic operations
    uint64_t dynWarpInstrs = 0;  ///< warp-level instructions (Fermi)

    /** Register-file accesses, one per warp operand (Fermi, Fig. 3). */
    uint64_t rfAccesses = 0;
    /** LVC word accesses (VGIW, Fig. 3). */
    uint64_t lvcAccesses = 0;

    EnergyEvents events;
    EnergyAccount energy;  ///< priceEnergy(*this) with the default table
    CacheStats l1Stats;
    CacheStats l2Stats;
    CacheStats lvcStats;
    DramStats dramStats;

    /** Free-form per-architecture extras (utilisation, replicas, ...). */
    StatSet extra;

    double
    configOverheadFraction() const
    {
        return cycles ? double(configCycles) / double(cycles) : 0.0;
    }
};

/**
 * Price @p rs's activity counts with @p table: events from rs.events,
 * plus dynWarpInstrs (front end), rfAccesses, lvcAccesses and the
 * L1/L2/DRAM counters. The only code that reads an EnergyTable entry, so
 * stored results can be repriced with other energies without a replay.
 */
EnergyAccount priceEnergy(const RunStats &rs,
                          const EnergyTable &table = EnergyTable{});

} // namespace vgiw

#endif // VGIW_DRIVER_RUN_STATS_HH
