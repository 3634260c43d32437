/**
 * @file
 * A DICE-style statically scheduled CGRA core (PAPERS.md: "DICE:
 * Enabling Efficient General-Purpose SIMT Execution with Statically
 * Scheduled Coarse-Grained Reconfigurable Arrays"), the repo's fourth
 * timing model and the modern cousin of SGMF: SIMT execution on a
 * reconfigurable array, but with every operation assigned a compile-time
 * slot in a per-unit reservation table instead of dynamically dataflow-
 * scheduled tokens.
 *
 * Where the other models sit (docs/architectures.md has the full map):
 *
 *  - VGIW coalesces control flow at run time: the CVT gathers every
 *    thread waiting on a block, then replays the block's graph once for
 *    the whole vector.
 *  - SGMF maps the *entire* kernel CDFG spatially and lets tokens find
 *    their own timing; divergence means untaken-path units fire anyway.
 *  - Fermi serialises divergent paths through a reconvergence stack.
 *  - DICE (this model) keeps SIMT lane groups, but executes each basic
 *    block as a statically scheduled dataflow graph: a modulo schedule
 *    with a fixed initiation interval (II) admits one lane into the
 *    array every II cycles, and divergent lanes ride through the
 *    schedule *predicated off* — the compile-time alternative to both
 *    the CVT and the reconvergence stack.
 *
 * Modelled consequences, each with its own metrics counter:
 *
 *  - II stalls: a block whose DFG needs more units of some kind than
 *    the array has gets II > 1 from the reservation table, so every
 *    lane after the first waits II-1 extra cycles per block visit;
 *  - predication waste: lanes that did not take a block still occupy
 *    their schedule slots (and burn datapath energy) whenever any lane
 *    in their group visits it — DICE pays in lanes for what VGIW
 *    avoids by coalescing across the whole core;
 *  - reconfiguration: each lane-group block switch swaps the array's
 *    static schedule; first use of a graph loads it (row-parallel, like
 *    VGIW), later uses hit the configuration cache at a small fixed
 *    cost. Per-group switching is the price of not coalescing.
 */

#ifndef VGIW_DICE_DICE_CORE_HH
#define VGIW_DICE_DICE_CORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgrf/dataflow_graph.hh"
#include "cgrf/grid.hh"
#include "cgrf/placer.hh"
#include "common/watchdog.hh"
#include "driver/core_model.hh"
#include "driver/run_stats.hh"
#include "interp/trace.hh"
#include "ir/op_counts.hh"

namespace vgiw
{

/** Configuration of the DICE core model. */
struct DiceConfig
{
    /**
     * Placement substrate: block DFGs are routed on the same MT-CGRF
     * template the VGIW/SGMF compilers use (shared src/cgrf layer), so
     * critical paths and hop counts are directly comparable.
     */
    GridConfig grid = GridConfig::makeTable1();
    CgrfTiming timing{};

    /**
     * Physical units per kind of the statically scheduled array. DICE
     * trades a smaller array for time-multiplexing: the modulo
     * scheduler folds each placed graph onto these units via per-kind
     * reservation tables, so a block needing more units of a kind than
     * the array owns gets a proportionally larger initiation interval.
     * Default: a quarter of the Table 1 grid per kind.
     */
    UnitCounts arrayCounts{8, 3, 4, 4, 4, 4};

    /** SIMT lane-group width: lanes admitted into one static schedule
     * together, divergence handled by predication (replay-side). */
    int laneWidth = 32;

    /** Outstanding-miss window (same reservation buffers as VGIW). */
    uint32_t missWindow = 512;

    /**
     * Cycles to swap in an already-loaded dataflow-graph schedule from
     * the configuration cache (a lane-group block switch). First use
     * of a graph pays the full row-parallel load instead.
     */
    int switchCycles = 4;

    /** Well-formedness check, run at job entry by the experiment
     * engine. Empty string when valid. */
    std::string validate() const;
};

/** The static schedule compile() derives for one basic block. */
struct DiceBlockSchedule
{
    /**
     * Initiation interval: reservation-table bound, i.e. the max over
     * unit kinds of ceil(units the DFG needs / units the array has).
     * One lane enters the array every ii cycles.
     */
    int ii = 1;
    /** Makespan of one lane through the folded schedule: the placed
     * graph's critical path plus the fold's worst slot wait (ii - 1). */
    int scheduleCycles = 0;
};

/**
 * DICE compile artifact: per-block placements on the shared CGRF
 * template plus the static modulo schedule (II, makespan) the
 * reservation tables produce, static op counts and live-value counts.
 */
struct DiceCompiledKernel final : CompiledKernel
{
    std::vector<PlacedBlock> placed;       ///< one replica per block
    std::vector<OpCounts> ops;             ///< static ops per block
    std::vector<DiceBlockSchedule> sched;  ///< per-block static schedule
    std::vector<uint32_t> liveInCount;     ///< distinct live-ins read
    std::vector<uint32_t> liveOutCount;    ///< live-outs written
    int maxIi = 1;       ///< worst initiation interval over all blocks
    double avgIi = 1.0;  ///< unweighted mean II over all blocks
};

/** Cycle-approximate DICE core model. */
class DiceCore final : public CoreModel
{
  public:
    /** @p watchdog bounds each replay (cycle budget / wall-clock
     * deadline); the default is unlimited. */
    explicit DiceCore(const DiceConfig &cfg = {},
                      const WatchdogConfig &watchdog = {})
        : cfg_(cfg), watchdog_(watchdog)
    {
    }

    std::string name() const override { return "dice"; }

    std::string compileKey() const override;
    std::string replayKey() const override;

    /** Per-block placement + modulo schedule (reservation-table II). */
    std::shared_ptr<const CompiledKernel>
    compile(const Kernel &kernel) const override;

    /**
     * Replay @p traces through the static schedules: lane groups walk
     * the CFG in reconvergent (min-block-first) order, divergent lanes
     * predicated. Unlike SGMF there is no unsupported verdict — blocks
     * that exceed the array fold onto it with a larger II, so every
     * kernel the per-block placer handles runs.
     */
    RunStats run(const TraceSet &traces,
                 const CompiledKernel &compiled) const override;
    using CoreModel::run;

    /** Persist / rehydrate a DiceCompiledKernel (artifact store). */
    std::string
    serializeArtifact(const CompiledKernel &compiled) const override;
    std::shared_ptr<const CompiledKernel>
    deserializeArtifact(std::string_view bytes) const override;

    const DiceConfig &config() const { return cfg_; }

  private:
    DiceConfig cfg_;
    WatchdogConfig watchdog_;
};

} // namespace vgiw

#endif // VGIW_DICE_DICE_CORE_HH
