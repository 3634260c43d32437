#include "sgmf/sgmf_core.hh"

#include <algorithm>
#include <vector>

#include "cgrf/config_cost.hh"
#include "cgrf/placed_serde.hh"
#include "cgrf/placer.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "ir/op_counts.hh"
#include "mem/ldst_path.hh"

namespace vgiw
{

namespace
{

/** Longest path (in per-block critical-path cycles) over forward edges
 * of the CFG — the pipeline depth of the whole-kernel spatial graph. */
int
kernelCriticalPath(const Kernel &k, const std::vector<PlacedBlock> &placed)
{
    const int n = k.numBlocks();
    std::vector<int> dist(n, 0);
    int best = 0;
    // Blocks are in reverse post-order, so a forward scan settles all
    // forward edges; back edges are token recirculation, not pipeline
    // depth.
    for (int b = 0; b < n; ++b) {
        dist[b] += placed[b].criticalPathCycles;
        best = std::max(best, dist[b]);
        const Terminator &t = k.blocks[b].term;
        for (int s = 0; s < t.numTargets(); ++s) {
            if (t.target[s] > b)
                dist[t.target[s]] =
                    std::max(dist[t.target[s]], dist[b]);
        }
    }
    return best;
}

} // namespace

std::string
SgmfConfig::validate() const
{
    if (std::string d = validateGridConfig(grid); !d.empty())
        return "sgmf: " + d;
    if (missWindow == 0)
        return "sgmf: missWindow must be positive (latency hiding "
               "divides by it)";
    if (maxReplicas < 1)
        return "sgmf: maxReplicas must be at least 1";
    return {};
}

bool
SgmfCore::supports(const Kernel &kernel) const
{
    Placer placer(cfg_.grid);
    std::vector<Dfg> dfgs;
    for (const auto &blk : kernel.blocks)
        dfgs.push_back(buildBlockDfg(blk, cfg_.timing));
    return placer.placeKernel(dfgs).fits;
}

std::string
SgmfCore::compileKey() const
{
    // Placement, replication and critical path read the grid, the unit
    // timings and the replication cap; the miss window is replay-side.
    return "sgmf|" + gridFingerprint(cfg_.grid) + "|" +
           timingFingerprint(cfg_.timing) + "|rep:" +
           std::to_string(cfg_.maxReplicas);
}

std::string
SgmfCore::replayKey() const
{
    // The injection loop reads only the miss window beyond what the
    // compile artifact already fixes.
    return "mw:" + std::to_string(cfg_.missWindow);
}

std::shared_ptr<const CompiledKernel>
SgmfCore::compile(const Kernel &k) const
{
    auto ck = std::make_shared<SgmfCompiledKernel>();

    // --- Whole-kernel spatial mapping. --------------------------------
    Placer placer(cfg_.grid);
    std::vector<Dfg> dfgs;
    for (const auto &blk : k.blocks)
        dfgs.push_back(buildBlockDfg(blk, cfg_.timing));
    ck->placed = placer.placeKernel(dfgs);
    ck->fits = ck->placed.fits;
    if (!ck->fits) {
        ck->unitsNeeded = double(totalUnits(ck->placed.totalNeeds));
        return ck;
    }

    // Replication of the whole kernel graph when it is small enough.
    int replicas = cfg_.maxReplicas;
    for (int kind = 0; kind < kNumUnitKinds; ++kind) {
        if (ck->placed.totalNeeds[kind] > 0) {
            replicas = std::min(
                replicas,
                countOf(cfg_.grid.counts, UnitKind(kind)) /
                    ck->placed.totalNeeds[kind]);
        }
    }
    ck->replicas = std::max(replicas, 1);

    // Static whole-graph properties.
    ck->blockOps.reserve(k.blocks.size());
    for (int b = 0; b < k.numBlocks(); ++b) {
        const OpCounts oc = staticOpCounts(k.blocks[b]);
        ck->opsInt += oc.intAlu;
        ck->opsFp += oc.fpAlu;
        ck->opsScu += oc.scu;
        ck->edges += uint64_t(ck->placed.blocks[b].edgesPerThread);
        ck->hops += uint64_t(ck->placed.blocks[b].edgeHopsPerThread);
        ck->blockOps.push_back(oc.total());
    }
    ck->criticalPath = kernelCriticalPath(k, ck->placed.blocks);
    return ck;
}

namespace
{
/** Bumped when the SGMF artifact payload layout changes. */
constexpr uint32_t kSgmfArtifactVersion = 1;
} // namespace

std::string
SgmfCore::serializeArtifact(const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const SgmfCompiledKernel *>(&compiled);
    if (!ck)
        return {};
    std::string out;
    ByteWriter w(out);
    w.u32(kSgmfArtifactVersion);
    w.u8(ck->fits ? 1 : 0);
    w.f64(ck->unitsNeeded);
    writePlacedKernel(w, ck->placed);
    w.i32(ck->replicas);
    w.u64(ck->opsInt);
    w.u64(ck->opsFp);
    w.u64(ck->opsScu);
    w.u64(ck->edges);
    w.u64(ck->hops);
    w.i32(ck->criticalPath);
    w.u64(ck->blockOps.size());
    w.raw(ck->blockOps.data(),
          ck->blockOps.size() * sizeof(uint32_t));
    return out;
}

std::shared_ptr<const CompiledKernel>
SgmfCore::deserializeArtifact(std::string_view bytes) const
{
    ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kSgmfArtifactVersion)
        return nullptr;
    auto ck = std::make_shared<SgmfCompiledKernel>();
    ck->fits = r.u8() != 0;
    ck->unitsNeeded = r.f64();
    if (!readPlacedKernel(r, ck->placed))
        return nullptr;
    ck->replicas = r.i32();
    ck->opsInt = r.u64();
    ck->opsFp = r.u64();
    ck->opsScu = r.u64();
    ck->edges = r.u64();
    ck->hops = r.u64();
    ck->criticalPath = r.i32();
    const uint64_t n = r.u64();
    const uint8_t *p =
        r.ok() && n <= r.remaining() / sizeof(uint32_t)
            ? r.bytes(size_t(n) * sizeof(uint32_t))
            : nullptr;
    if (!p)
        return nullptr;
    ck->blockOps.resize(size_t(n));
    if (n)  // an empty vector's data() may be null
        std::memcpy(ck->blockOps.data(), p, size_t(n) * sizeof(uint32_t));
    if (!r.done())
        return nullptr;
    return ck;
}

RunStats
SgmfCore::run(const TraceSet &traces, const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const SgmfCompiledKernel *>(&compiled);
    vgiw_assert(ck, "SgmfCore::run needs an SGMF compile artifact");

    const Kernel &k = *traces.kernel;

    RunStats rs;
    rs.arch = "sgmf";
    rs.kernelName = k.name;

    JobMetrics *jm = currentMetricSink();

    if (!ck->fits) {
        rs.supported = false;
        rs.extra.set("sgmf.units_needed", ck->unitsNeeded);
        if (jm) {
            jm->set("sgmf.fits", 0.0);
            jm->set("sgmf.units_total",
                    double(cfg_.grid.numUnits()));
        }
        return rs;
    }

    const int replicas = ck->replicas;
    const int critical = ck->criticalPath;

    // --- Replay: injections + memory traffic. --------------------------
    // One LDST epoch for the whole run: every thread streams through
    // the one static configuration, so the bank queues and the miss
    // latency never restart.
    LdstPath ldst(cfg_.missWindow);
    uint64_t injections = 0;
    EnergyEvents &ev = rs.events;
    // Accumulated locally, published to rs only after the loop: the
    // watchdog polls rs.dynThreadOps and must keep seeing the replay
    // phase's value (0) exactly as before the loops were fused.
    uint64_t thread_ops = 0;

    // Livelock containment: the injection loop is not cycle-stepped,
    // so the cycle ceiling is checked against the issue-cycle proxy
    // (injections per replica), polled once per thread epoch.
    Watchdog wd(watchdog_, "sgmf", k.name);

    for (uint32_t tid = 0; tid < traces.numThreads(); ++tid) {
        wd.poll(injections / uint64_t(replicas), rs.dynBlockExecs,
                rs.dynThreadOps);
        // One injection to enter the graph, plus one per back-edge
        // traversal (token recirculation for loop iterations). Memory:
        // only the taken path's accesses issue (predication). A single
        // cursor pass covers both — exec bookkeeping touches no memory
        // state, so fusing the loops preserves the access stream order.
        injections += 1;
        for (ThreadCursor c = traces.thread(tid); !c.done();
             c.nextExec()) {
            if (c.succ() >= 0 && c.succ() <= c.block())
                injections += 1;
            ++rs.dynBlockExecs;
            thread_ops += ck->blockOps[c.block()];
            const uint32_t nacc = c.numAccesses();
            for (uint32_t a = 0; a < nacc; ++a) {
                const MemAccess acc = c.nextAccess();
                ldst.access(acc.addr, acc.isStore, acc.isShared);
            }
        }
    }

    rs.configCycles = uint64_t(reconfigCycles(cfg_.grid.numUnits()));
    rs.reconfigs = 1;  // one static configuration per kernel

    // --- Energy events. -------------------------------------------------
    // Every mapped compute node fires per injection, taken path or not:
    // the control-divergence waste of the all-paths spatial mapping.
    // LDST issue is counted per taken-path memory op, global (its L1
    // access) or shared (its scratchpad word), as the other cores do.
    ev.intOps = injections * ck->opsInt;
    ev.fpOps = injections * ck->opsFp;
    ev.scuOps = injections * ck->opsScu;
    ev.sharedWords = ldst.sharedWords();
    ev.ldstIssues = ldst.memory().l1().stats().accesses() + ev.sharedWords;
    ev.tokenRws = injections * ck->edges;
    ev.tokenHops = injections * ck->hops;
    ev.configuredUnits = uint64_t(cfg_.grid.numUnits());

    rs.dynThreadOps = thread_ops;

    rs.extra.set("sgmf.replicas", double(replicas));
    rs.extra.set("sgmf.injections", double(injections));
    rs.extra.set("sgmf.units_used", double(ck->placed.unitsUsed));

    // Static-placement utilisation: how much of the MT-CGRF the
    // whole-kernel spatial mapping actually occupies — the figure the
    // paper's SGMF comparison turns on.
    if (jm) {
        const double units_total = double(cfg_.grid.numUnits());
        jm->set("sgmf.fits", 1.0);
        jm->set("sgmf.units_total", units_total);
        jm->set("sgmf.placement_utilization",
                units_total > 0.0
                    ? double(ck->placed.unitsUsed) / units_total
                    : 0.0);
    }
    const uint64_t issue =
        (injections + uint64_t(replicas) - 1) / uint64_t(replicas);
    closeReplay(rs,
                ldst.cycles(issue) + uint64_t(critical) + rs.configCycles,
                ldst.memory());
    return rs;
}

} // namespace vgiw
