/**
 * @file
 * Top-level system configuration (Table 1) shared by the bench harnesses:
 * clock domains plus the per-architecture core configurations. The VGIW
 * and Fermi processors share the uncore (L2, DRAM); the cores differ.
 */

#ifndef VGIW_DRIVER_SYSTEM_CONFIG_HH
#define VGIW_DRIVER_SYSTEM_CONFIG_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/watchdog.hh"
#include "dice/dice_core.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{

/** Clock domains and core configurations (Table 1). */
struct SystemConfig
{
    double coreGhz = 1.4;
    double interconnectGhz = 1.4;
    double l2Ghz = 0.7;
    double dramGhz = 0.924;

    VgiwConfig vgiw{};
    FermiConfig fermi{};
    SgmfConfig sgmf{};
    DiceConfig dice{};

    /**
     * Replay ceilings (cycle budget / wall-clock deadline) of whichever
     * core runs the job; makeCoreModel hands them to the core. The
     * experiment engine sets the deadline's anchor to the job-entry
     * time, so tracing, compilation and replay share one per-job
     * budget.
     */
    WatchdogConfig watchdog{};

    /**
     * Well-formedness check of the clock domains plus every core
     * configuration. Returns an empty string when valid, otherwise the
     * first diagnostic found.
     */
    std::string validate() const;

    /**
     * Validation scoped to one job: the clock domains plus only the
     * named architecture's core config — a sweep varying VGIW knobs
     * must not fail its Fermi baseline jobs over a VGIW diagnostic.
     * Unknown names (caught separately as a config error) and "all"
     * validate every core.
     */
    std::string validate(std::string_view arch) const;

    /**
     * Stable fingerprint of every configuration field that can change
     * a job's statistics on @p arch: the clock domains plus the named
     * architecture's compile and replay keys. This is the config slice
     * of the result journal's job key (see ExperimentEngine::jobKey);
     * watchdog budgets are excluded by contract — a resume may widen
     * them without invalidating completed results.
     */
    std::string jobFingerprint(std::string_view arch) const;

    /** Print the Table 1 configuration summary. */
    void printTable1(std::ostream &os) const;
};

} // namespace vgiw

#endif // VGIW_DRIVER_SYSTEM_CONFIG_HH
