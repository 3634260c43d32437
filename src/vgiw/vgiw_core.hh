/**
 * @file
 * The VGIW core timing/energy model — the paper's primary contribution.
 *
 * The model replays the functional traces under the machine organisation
 * of Section 3: the BBS repeatedly selects the smallest-numbered basic
 * block with a non-empty CVT vector, reconfigures the MT-CGRF with the
 * block's (replicated) dataflow graph, and streams the pending thread
 * vector through the grid. Execution time of one block vector is
 *
 *     max(ceil(V / replicas),            -- injection: 1 thread/replica/cyc
 *         max_bank L1 accesses,          -- banked-L1 throughput
 *         miss latency / MLP window,     -- latency not hidden by dynamic
 *         max_bank scratchpad accesses)      dataflow
 *     + placed critical path             -- pipeline drain
 *
 * plus 34 reconfiguration cycles whenever the scheduled block differs
 * from the currently loaded configuration. Threads are tiled so the CVT
 * capacity is never exceeded (Section 3.2's tile-size formula).
 */

#ifndef VGIW_VGIW_VGIW_CORE_HH
#define VGIW_VGIW_VGIW_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
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

/** Configuration of one VGIW core. */
struct VgiwConfig
{
    GridConfig grid = GridConfig::makeTable1();
    CgrfTiming timing{};

    /** Total CVT bit capacity; tile = capacity / #blocks (Section 3.2). */
    uint32_t cvtCapacityBits = 64 * 1024;
    int cvtBanks = 8;

    /** Replication cap (the 16 CVUs allow at most 8 initiator pairs). */
    int maxReplicas = 8;
    /** Set false to ablate basic-block replication. */
    bool enableReplication = true;

    /**
     * Outstanding-miss window: LDST reservation buffers let this many
     * missing threads be overtaken (inter-thread dynamic dataflow).
     */
    uint32_t missWindow = 512;

    /**
     * EXTENSION (the paper's future work, Section 5: "We leave the
     * exploration of methods for memory coalescing on MT-CGRFs for
     * future work"): when enabled, the LDST crossbar merges a block
     * vector's accesses to the same cache line into one transaction —
     * an idealised inter-thread coalescer. Off by default to match the
     * paper's evaluated design; bench/ablation_coalescing quantifies
     * the headroom.
     */
    bool enableMemoryCoalescing = false;

    /** LVC capacity; sweepable for the design-space ablation. */
    uint32_t lvcBytes = 64 * 1024;
    uint32_t lvcHitLatency = 6;

    /**
     * Well-formedness check, run at job entry by the experiment engine
     * so a malformed sweep point fails fast as a `config`-kind error
     * instead of detonating as a deep assertion (zero CVT capacity
     * divides by zero in tiling, a degenerate grid breaks the placer,
     * an undersized LVC breaks the cache geometry). Returns an empty
     * string when valid, otherwise a one-line diagnostic.
     */
    std::string validate() const;

    /**
     * Observer invoked whenever the BBS schedules a block vector, with
     * the block ID and the (global) thread IDs streamed through the
     * grid — the Figure 2 machine-state walkthrough hook.
     */
    std::function<void(int block, const std::vector<uint32_t> &tids)>
        blockObserver;
};

/**
 * VGIW compile artifact: the per-block graph instruction words after
 * place-and-route, plus the static per-block properties replay consumes.
 * Immutable once built; shared across concurrent replays.
 */
struct VgiwCompiledKernel final : CompiledKernel
{
    std::vector<PlacedBlock> placed;          ///< one per basic block
    std::vector<OpCounts> ops;                ///< static op counts
    std::vector<std::vector<uint16_t>> liveIns;  ///< distinct live-in IDs
    double avgUtilization = 0.0;  ///< mean grid utilisation over blocks
};

/** Cycle-approximate VGIW core model. */
class VgiwCore final : public CoreModel
{
  public:
    /** @p watchdog bounds each replay (cycle budget / wall-clock
     * deadline); the default is unlimited. */
    explicit VgiwCore(const VgiwConfig &cfg = {},
                      const WatchdogConfig &watchdog = {})
        : cfg_(cfg), watchdog_(watchdog)
    {
    }

    std::string name() const override { return "vgiw"; }
    std::string compileKey() const override;
    std::string replayKey() const override;

    /** Build + place each block's DFG (Section 3.1's compiler step). */
    std::shared_ptr<const CompiledKernel>
    compile(const Kernel &kernel) const override;

    /** Replay @p traces against a compile() artifact. */
    RunStats run(const TraceSet &traces,
                 const CompiledKernel &compiled) const override;
    using CoreModel::run;

    /** Persist / rehydrate a VgiwCompiledKernel (artifact store). */
    std::string
    serializeArtifact(const CompiledKernel &compiled) const override;
    std::shared_ptr<const CompiledKernel>
    deserializeArtifact(std::string_view bytes) const override;

    /** Tile size for a kernel/launch pair (Section 3.2 formula). */
    int tileSizeFor(const Kernel &kernel, const LaunchParams &launch) const;

    const VgiwConfig &config() const { return cfg_; }

  private:
    VgiwConfig cfg_;
    WatchdogConfig watchdog_;
};

} // namespace vgiw

#endif // VGIW_VGIW_VGIW_CORE_HH
