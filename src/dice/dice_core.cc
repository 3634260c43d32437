#include "dice/dice_core.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "cgrf/config_cost.hh"
#include "cgrf/placed_serde.hh"
#include "cgrf/placer.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/sim_error.hh"
#include "mem/ldst_path.hh"

namespace vgiw
{

namespace
{

/**
 * Reservation-table initiation interval of one block: the modulo
 * scheduler folds the placed graph onto the array, so each unit kind
 * needs ceil(demand / supply) schedule slots and the widest kind sets
 * the II. Demand comes from the DFG (one node per op, exactly what the
 * spatial placers consume), supply from DiceConfig::arrayCounts.
 */
int
reservationIi(const UnitCounts &needs, const UnitCounts &array)
{
    int ii = 1;
    for (int kind = 0; kind < kNumUnitKinds; ++kind) {
        if (needs[size_t(kind)] <= 0)
            continue;
        const int supply = array[size_t(kind)];
        ii = std::max(ii, (needs[size_t(kind)] + supply - 1) / supply);
    }
    return ii;
}

} // namespace

std::string
DiceConfig::validate() const
{
    if (std::string d = validateGridConfig(grid); !d.empty())
        return "dice: " + d;
    for (int kind = 0; kind < kNumUnitKinds; ++kind) {
        if (arrayCounts[size_t(kind)] < 1) {
            return std::string("dice: arrayCounts[") +
                   unitKindName(UnitKind(kind)) +
                   "] must be at least 1 (the reservation table divides "
                   "by it)";
        }
    }
    if (laneWidth < 1)
        return "dice: laneWidth must be at least 1";
    if (missWindow == 0)
        return "dice: missWindow must be positive (latency hiding "
               "divides by it)";
    if (switchCycles < 0)
        return "dice: switchCycles must be non-negative";
    return {};
}

std::string
DiceCore::compileKey() const
{
    // compile() reads the grid (placement), the unit timings (critical
    // paths) and the array shape (reservation tables / II). Lane width,
    // switch cost and the miss window are replay-side.
    std::string arr;
    for (int c : cfg_.arrayCounts)
        arr += "," + std::to_string(c);
    return "dice|" + gridFingerprint(cfg_.grid) + "|" +
           timingFingerprint(cfg_.timing) + "|arr" + arr;
}

std::string
DiceCore::replayKey() const
{
    // Everything run() reads that compileKey() does not: the lane-group
    // width, the outstanding-miss window and the configuration-cache
    // switch cost. Watchdog budgets are excluded by contract (see
    // CoreModel::replayKey).
    return "lanes:" + std::to_string(cfg_.laneWidth) +
           "|mw:" + std::to_string(cfg_.missWindow) +
           "|sw:" + std::to_string(cfg_.switchCycles);
}

std::shared_ptr<const CompiledKernel>
DiceCore::compile(const Kernel &k) const
{
    auto ck = std::make_shared<DiceCompiledKernel>();
    Placer placer(cfg_.grid);
    ck->placed.reserve(k.blocks.size());
    ck->ops.reserve(k.blocks.size());
    ck->sched.reserve(k.blocks.size());
    ck->liveInCount.reserve(k.blocks.size());
    ck->liveOutCount.reserve(k.blocks.size());
    double ii_sum = 0.0;
    for (const auto &blk : k.blocks) {
        const Dfg dfg = buildBlockDfg(blk, cfg_.timing);
        // One replica on the shared CGRF template: DICE never
        // replicates — throughput comes from pipelining lanes at II.
        ck->placed.push_back(placer.place(dfg, 1));
        if (!ck->placed.back().fits) {
            // Same per-job compile error contract as VGIW: a kernel
            // whose block exceeds the routing template fails this job,
            // never the sweep.
            throw SimError(SimErrorKind::Compile,
                           "kernel '" + k.name + "' block '" + blk.name +
                               "' does not fit the DICE routing "
                               "template");
        }
        DiceBlockSchedule s;
        s.ii = reservationIi(dfg.unitNeeds(), cfg_.arrayCounts);
        // The fold can delay any op by up to ii-1 cycles waiting for
        // its reservation slot, on top of the placed critical path.
        s.scheduleCycles =
            ck->placed.back().criticalPathCycles + (s.ii - 1);
        ck->sched.push_back(s);
        ck->maxIi = std::max(ck->maxIi, s.ii);
        ii_sum += double(s.ii);

        ck->ops.push_back(staticOpCounts(blk));
        uint32_t live_in = 0, live_out = 0;
        for (const DfgNode &n : dfg.nodes) {
            if (n.role == DfgRole::LiveInRead)
                ++live_in;
            else if (n.role == DfgRole::LiveOutWrite)
                ++live_out;
        }
        ck->liveInCount.push_back(live_in);
        ck->liveOutCount.push_back(live_out);
    }
    ck->avgIi = k.numBlocks() ? ii_sum / double(k.numBlocks()) : 1.0;
    return ck;
}

namespace
{
/** Bumped when the DICE artifact payload layout changes. */
constexpr uint32_t kDiceArtifactVersion = 1;
} // namespace

std::string
DiceCore::serializeArtifact(const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const DiceCompiledKernel *>(&compiled);
    if (!ck)
        return {};
    std::string out;
    ByteWriter w(out);
    w.u32(kDiceArtifactVersion);
    // placed/ops/sched/live counts are parallel per-block arrays: one
    // count.
    w.u64(ck->placed.size());
    for (const PlacedBlock &b : ck->placed)
        writePlacedBlock(w, b);
    for (const OpCounts &oc : ck->ops) {
        w.u32(oc.intAlu);
        w.u32(oc.fpAlu);
        w.u32(oc.scu);
        w.u32(oc.loads);
        w.u32(oc.stores);
    }
    for (const DiceBlockSchedule &s : ck->sched) {
        w.i32(s.ii);
        w.i32(s.scheduleCycles);
    }
    for (uint32_t v : ck->liveInCount)
        w.u32(v);
    for (uint32_t v : ck->liveOutCount)
        w.u32(v);
    w.i32(ck->maxIi);
    w.f64(ck->avgIi);
    return out;
}

std::shared_ptr<const CompiledKernel>
DiceCore::deserializeArtifact(std::string_view bytes) const
{
    ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kDiceArtifactVersion)
        return nullptr;
    const uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining())
        return nullptr;
    auto ck = std::make_shared<DiceCompiledKernel>();
    ck->placed.resize(size_t(n));
    for (PlacedBlock &b : ck->placed)
        readPlacedBlock(r, b);
    ck->ops.resize(size_t(n));
    for (OpCounts &oc : ck->ops) {
        oc.intAlu = r.u32();
        oc.fpAlu = r.u32();
        oc.scu = r.u32();
        oc.loads = r.u32();
        oc.stores = r.u32();
    }
    ck->sched.resize(size_t(n));
    for (DiceBlockSchedule &s : ck->sched) {
        s.ii = r.i32();
        s.scheduleCycles = r.i32();
        if (s.ii < 1)
            return nullptr;
    }
    ck->liveInCount.resize(size_t(n));
    for (uint32_t &v : ck->liveInCount)
        v = r.u32();
    ck->liveOutCount.resize(size_t(n));
    for (uint32_t &v : ck->liveOutCount)
        v = r.u32();
    ck->maxIi = r.i32();
    ck->avgIi = r.f64();
    if (!r.done())
        return nullptr;
    return ck;
}

RunStats
DiceCore::run(const TraceSet &traces, const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const DiceCompiledKernel *>(&compiled);
    vgiw_assert(ck, "DiceCore::run needs a DICE compile artifact");

    const Kernel &k = *traces.kernel;
    const int num_blocks = k.numBlocks();
    const int num_threads = traces.launch.numThreads();
    vgiw_assert(int(ck->placed.size()) == num_blocks,
                "compile artifact/kernel mismatch");

    RunStats rs;
    rs.arch = "dice";
    rs.kernelName = k.name;

    // --- Runtime structures. -------------------------------------------
    LdstPath ldst(cfg_.missWindow);  // the same LDST units as VGIW
    EnergyEvents &ev = rs.events;
    const int array_units = totalUnits(cfg_.arrayCounts);
    const int graph_load_cost = reconfigCycles(array_units);
    const int lane_width = cfg_.laneWidth;

    // Livelock containment, polled once per scheduled block visit (the
    // lane-group loop's unit of forward progress).
    Watchdog wd(watchdog_, "dice", k.name);

    // Per-block attribution for the observability layer: visit counts
    // and active-lane occupancy. Deterministic replay statistics only —
    // safe for the "metrics" JSON contract.
    JobMetrics *jm = currentMetricSink();
    std::vector<double> m_visits, m_active;
    if (jm) {
        m_visits.assign(size_t(num_blocks), 0.0);
        m_active.assign(size_t(num_blocks), 0.0);
    }

    // One forward-only decode cursor per lane of the current group.
    std::vector<ThreadCursor> lanes(static_cast<size_t>(lane_width));

    // First use of a block's schedule loads it row-parallel into the
    // configuration cache; later lane groups switch to it at the cached
    // cost. The cache is sized for the kernel (DICE's config memory),
    // so a graph is loaded at most once per launch.
    std::vector<uint8_t> loaded(size_t(num_blocks), 0);

    uint64_t compute_cycles = 0;
    uint64_t config_cycles = 0;
    uint64_t graph_loads = 0;
    uint64_t graph_switches = 0;  // cache hits: swaps after first load
    uint64_t block_visits = 0;
    uint64_t ii_stall_cycles = 0;
    uint64_t pred_waste_ops = 0;
    uint64_t active_lane_sum = 0;
    uint64_t lane_groups = 0;

    for (int group_start = 0; group_start < num_threads;
         group_start += lane_width) {
        const int width =
            std::min(lane_width, num_threads - group_start);
        ++lane_groups;
        for (int l = 0; l < width; ++l)
            lanes[size_t(l)] =
                traces.thread(uint32_t(group_start + l));

        int configured = -1;
        while (true) {
            // Reconvergent schedule order: the earliest pending block
            // over the group (blocks are in reverse post-order, so the
            // minimum is always a block no lane has passed — divergent
            // paths and loop iterations reconverge without a stack).
            int b = -1;
            int alive = 0;
            for (int l = 0; l < width; ++l) {
                if (lanes[size_t(l)].done())
                    continue;
                ++alive;
                const int blk = lanes[size_t(l)].block();
                if (b < 0 || blk < b)
                    b = blk;
            }
            if (b < 0)
                break;
            ++block_visits;

            // Swap in this block's static schedule.
            if (b != configured) {
                if (!loaded[size_t(b)]) {
                    loaded[size_t(b)] = 1;
                    ++graph_loads;
                    config_cycles += uint64_t(graph_load_cost);
                    ev.configuredUnits += uint64_t(array_units);
                } else {
                    ++graph_switches;
                    config_cycles += uint64_t(cfg_.switchCycles);
                }
                ++rs.reconfigs;
                configured = b;
            }

            // --- Replay this block visit. -----------------------------
            ldst.beginVector();
            int active = 0;
            const OpCounts &oc = ck->ops[size_t(b)];
            for (int l = 0; l < width; ++l) {
                ThreadCursor &cur = lanes[size_t(l)];
                if (cur.done() || cur.block() != b)
                    continue;  // predicated off: occupies a slot only
                ++active;

                // Predication suppresses untaken-path memory accesses,
                // so only active lanes reach the LDST reservation
                // tables.
                const uint32_t nacc = cur.numAccesses();
                for (uint32_t a = 0; a < nacc; ++a) {
                    const MemAccess acc = cur.nextAccess();
                    ldst.access(acc.addr, acc.isStore, acc.isShared);
                }

                // Live values move through the schedule's operand
                // buffers (DICE has no LVC and no vector RF).
                ev.operandBufferWords += ck->liveInCount[size_t(b)] +
                                         ck->liveOutCount[size_t(b)];
                cur.nextExec();
            }

            // --- Cycle model for this visit. --------------------------
            // The reservation table admits one lane every II cycles;
            // every *alive* lane occupies a slot (predication), so the
            // issue bound scales with the group, not the taken count.
            const DiceBlockSchedule &s = ck->sched[size_t(b)];
            compute_cycles += ldst.cycles(uint64_t(alive) * uint64_t(s.ii)) +
                              uint64_t(s.scheduleCycles);
            ii_stall_cycles += uint64_t(alive) * uint64_t(s.ii - 1);
            pred_waste_ops +=
                uint64_t(alive - active) * uint64_t(oc.total());
            active_lane_sum += uint64_t(active);
            if (jm) {
                ++m_visits[size_t(b)];
                m_active[size_t(b)] += double(active);
            }

            // --- Energy events for this visit. ------------------------
            // Predicated-off lanes still stream through the compute
            // schedule (the divergence waste the predication counter
            // quantifies); only active lanes issue memory and operand
            // traffic.
            const uint64_t n_alive = uint64_t(alive);
            ev.intOps += n_alive * oc.intAlu;
            ev.fpOps += n_alive * oc.fpAlu;
            ev.scuOps += n_alive * oc.scu;
            ev.ldstIssues += uint64_t(active) * oc.mem();
            const PlacedBlock &pb = ck->placed[size_t(b)];
            ev.tokenRws += n_alive * uint64_t(pb.edgesPerThread);
            ev.tokenHops += n_alive * uint64_t(pb.edgeHopsPerThread);
            rs.dynBlockExecs += uint64_t(active);
            rs.dynThreadOps += uint64_t(active) * uint64_t(oc.total());

            wd.poll(compute_cycles + config_cycles, rs.dynBlockExecs,
                    rs.dynThreadOps);
        }
    }

    // --- Totals. ---------------------------------------------------------
    rs.configCycles = config_cycles;
    ev.sharedWords = ldst.sharedWords();

    rs.extra.set("dice.max_ii", double(ck->maxIi));
    rs.extra.set("dice.avg_active_lanes",
                 block_visits ? double(active_lane_sum) / double(block_visits)
                              : 0.0);
    rs.extra.set("dice.predication_waste_ops", double(pred_waste_ops));
    rs.extra.set("dice.graph_switches", double(graph_switches));

    if (jm) {
        jm->set("dice.lane_groups", double(lane_groups));
        jm->set("dice.block_visits", double(block_visits));
        jm->set("dice.ii_stall_cycles", double(ii_stall_cycles));
        jm->set("dice.predication_waste_fraction",
                pred_waste_ops + rs.dynThreadOps
                    ? double(pred_waste_ops) /
                          double(pred_waste_ops + rs.dynThreadOps)
                    : 0.0);
        jm->set("dice.graph_loads", double(graph_loads));
        jm->set("dice.reconfig_cycles", double(config_cycles));
        jm->set("dice.avg_ii", ck->avgIi);
        for (int b = 0; b < num_blocks; ++b) {
            const std::string p = "dice.block" + std::to_string(b);
            jm->set(p + ".ii", double(ck->sched[size_t(b)].ii));
            jm->set(p + ".visits", m_visits[size_t(b)]);
            jm->set(p + ".active_lanes", m_active[size_t(b)]);
        }
    }
    closeReplay(rs, compute_cycles + config_cycles, ldst.memory());
    return rs;
}

} // namespace vgiw
