#include "vgiw/vgiw_core.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cgrf/config_cost.hh"
#include "cgrf/placed_serde.hh"
#include "cgrf/placer.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/scratch_set.hh"
#include "common/sim_error.hh"
#include "interp/barrier_pools.hh"
#include "ir/op_counts.hh"
#include "mem/bank_merge.hh"
#include "mem/memory_system.hh"
#include "vgiw/control_vector_table.hh"
#include "vgiw/live_value_cache.hh"

namespace vgiw
{

namespace
{

/**
 * Distinct live-value IDs a block reads (in first-use order). Linear in
 * the operand count: a seen-bitmap over the kernel's live-value ID space
 * replaces the quadratic find-in-output scan.
 */
std::vector<uint16_t>
liveInIds(const BasicBlock &blk, int num_live_values)
{
    std::vector<uint16_t> ids;
    std::vector<uint64_t> seen(size_t(num_live_values + 63) / 64, 0);
    auto note = [&](const Operand &o) {
        if (o.kind != OperandKind::LiveIn)
            return;
        vgiw_assert(int(o.index) < num_live_values, "live-value id ",
                    o.index, " out of range");
        uint64_t &word = seen[o.index / 64];
        const uint64_t bit = uint64_t{1} << (o.index % 64);
        if (!(word & bit)) {
            word |= bit;
            ids.push_back(o.index);
        }
    };
    for (const auto &in : blk.instrs)
        for (const auto &s : in.src)
            note(s);
    for (const auto &lo : blk.liveOuts)
        note(lo.value);
    note(blk.term.cond);
    return ids;
}

} // namespace

std::string
VgiwConfig::validate() const
{
    if (std::string d = validateGridConfig(grid); !d.empty())
        return "vgiw: " + d;
    if (cvtCapacityBits == 0)
        return "vgiw: cvtCapacityBits must be positive (the CVT tile "
               "formula divides by it)";
    if (cvtBanks <= 0)
        return "vgiw: cvtBanks must be positive";
    if (maxReplicas < 1)
        return "vgiw: maxReplicas must be at least 1";
    if (missWindow == 0)
        return "vgiw: missWindow must be positive (latency hiding "
               "divides by it)";
    const CacheGeometry lvc = lvcGeometry(lvcBytes);
    const uint32_t lvc_min = lvc.lineBytes * lvc.ways;
    if (lvcBytes < lvc_min || lvcBytes % lvc_min != 0) {
        return "vgiw: lvcBytes (" + std::to_string(lvcBytes) +
               ") must be a positive multiple of lineBytes*ways (" +
               std::to_string(lvc_min) + ")";
    }
    return {};
}

std::string
VgiwCore::compileKey() const
{
    // Everything compile() reads: grid shape/counts (placement), unit
    // timings (critical paths), and the replication policy. LVC/CVT
    // sizes and the miss window are replay-side and deliberately absent.
    return "vgiw|" + gridFingerprint(cfg_.grid) + "|" +
           timingFingerprint(cfg_.timing) + "|rep:" +
           std::to_string(cfg_.enableReplication ? cfg_.maxReplicas : 1);
}

std::string
VgiwCore::replayKey() const
{
    // Everything run() reads that compileKey() does not: LVC capacity
    // and hit latency, CVT capacity/banking, the outstanding-miss
    // window and the coalescing extension. Watchdog budgets are
    // excluded by contract (see CoreModel::replayKey).
    return "lvc:" + std::to_string(cfg_.lvcBytes) + "," +
           std::to_string(cfg_.lvcHitLatency) +
           "|cvt:" + std::to_string(cfg_.cvtCapacityBits) + "," +
           std::to_string(cfg_.cvtBanks) +
           "|mw:" + std::to_string(cfg_.missWindow) +
           "|coal:" + (cfg_.enableMemoryCoalescing ? "1" : "0");
}

std::shared_ptr<const CompiledKernel>
VgiwCore::compile(const Kernel &k) const
{
    auto ck = std::make_shared<VgiwCompiledKernel>();
    Placer placer(cfg_.grid);
    double total_util = 0.0;
    ck->placed.reserve(k.blocks.size());
    ck->ops.reserve(k.blocks.size());
    ck->liveIns.reserve(k.blocks.size());
    for (const auto &blk : k.blocks) {
        const Dfg dfg = buildBlockDfg(blk, cfg_.timing);
        ck->placed.push_back(placer.place(
            dfg, cfg_.enableReplication ? cfg_.maxReplicas : 1));
        if (!ck->placed.back().fits) {
            // A compile-kind SimError, not vgiw_fatal: one oversized
            // kernel in a tile-size sweep is a per-job failure the
            // engine records and skips, never a sweep abort.
            throw SimError(SimErrorKind::Compile,
                           "kernel '" + k.name + "' block '" + blk.name +
                               "' does not fit the MT-CGRF grid");
        }
        ck->ops.push_back(staticOpCounts(blk));
        ck->liveIns.push_back(liveInIds(blk, k.numLiveValues));
        total_util += ck->placed.back().utilization(cfg_.grid.numUnits());
    }
    ck->avgUtilization = total_util / double(k.numBlocks());
    return ck;
}

namespace
{
/** Bumped when the VGIW artifact payload layout changes. */
constexpr uint32_t kVgiwArtifactVersion = 1;
} // namespace

std::string
VgiwCore::serializeArtifact(const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const VgiwCompiledKernel *>(&compiled);
    if (!ck)
        return {};
    std::string out;
    ByteWriter w(out);
    w.u32(kVgiwArtifactVersion);
    // placed/ops/liveIns are parallel per-block arrays: one count.
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
    for (const auto &li : ck->liveIns) {
        w.u32(uint32_t(li.size()));
        w.raw(li.data(), li.size() * sizeof(uint16_t));
    }
    w.f64(ck->avgUtilization);
    return out;
}

std::shared_ptr<const CompiledKernel>
VgiwCore::deserializeArtifact(std::string_view bytes) const
{
    ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kVgiwArtifactVersion)
        return nullptr;
    const uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining())
        return nullptr;
    auto ck = std::make_shared<VgiwCompiledKernel>();
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
    ck->liveIns.resize(size_t(n));
    for (auto &li : ck->liveIns) {
        const uint32_t cnt = r.u32();
        const uint8_t *p = r.bytes(size_t(cnt) * sizeof(uint16_t));
        if (!p)
            return nullptr;
        li.resize(cnt);
        if (cnt)  // an empty vector's data() may be null
            std::memcpy(li.data(), p, size_t(cnt) * sizeof(uint16_t));
    }
    ck->avgUtilization = r.f64();
    if (!r.done())
        return nullptr;
    return ck;
}

int
VgiwCore::tileSizeFor(const Kernel &kernel, const LaunchParams &launch) const
{
    // tile = CVT capacity / #blocks, in threads (Section 3.2). Tiles are
    // rounded to whole CTAs so barriers never span tile boundaries.
    const int raw = int(cfg_.cvtCapacityBits) / kernel.numBlocks();
    int tile = (raw / launch.ctaSize) * launch.ctaSize;
    if (tile < launch.ctaSize) {
        vgiw_warn("kernel '", kernel.name, "': CTA of ", launch.ctaSize,
                  " threads exceeds the CVT tile budget; tiling by CTA");
        tile = launch.ctaSize;
    }
    return std::min(tile, launch.numThreads());
}

RunStats
VgiwCore::run(const TraceSet &traces, const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const VgiwCompiledKernel *>(&compiled);
    vgiw_assert(ck, "VgiwCore::run needs a VGIW compile artifact");

    const Kernel &k = *traces.kernel;
    const LaunchParams &launch = traces.launch;
    const int num_blocks = k.numBlocks();
    const int num_threads = launch.numThreads();
    vgiw_assert(int(ck->placed.size()) == num_blocks,
                "compile artifact/kernel mismatch");

    RunStats rs;
    rs.arch = "vgiw";
    rs.kernelName = k.name;
    rs.extra.set("placement.avg_utilization", ck->avgUtilization);

    // --- Runtime structures. -------------------------------------------
    MemorySystem ms(vgiwL1Geometry());
    LiveValueCache lvc(lvcGeometry(cfg_.lvcBytes), ms,
                       uint32_t(num_threads), cfg_.lvcHitLatency);
    const uint32_t l1_banks = ms.l1().geometry().banks;
    EnergyEvents &ev = rs.events;
    const int reconfig_cost = reconfigCycles(cfg_.grid.numUnits());

    BankMergeModel l1_banks_model(l1_banks);
    BankMergeModel shared_banks_model(32);

    // Per-job replay state, sized once for the largest tile and reset
    // for each tile: nothing in the loops below allocates.
    const int tile = tileSizeFor(k, launch);
    ControlVectorTable cvt(num_blocks, tile, cfg_.cvtBanks);
    BarrierPools pools(tile / launch.ctaSize, launch.ctaSize, num_blocks,
                       k.hasBarrier());
    // One forward-only decode cursor per thread of the tile; the BBS
    // consumes each thread's trace strictly in order, one block
    // execution per drain.
    std::vector<ThreadCursor> cursor(size_t{unsigned(tile)});
    // The terminator CVU's batch under construction for each successor
    // block: the 64-thread window it covers and the bits set so far.
    // A drained vector is ascending, so a successor's batch for one
    // window is complete once a thread of a later window reaches it.
    std::vector<ThreadBatch> succ_batch(static_cast<size_t>(num_blocks));
    std::vector<uint32_t> gtids;  // observer scratch
    if (cfg_.blockObserver)
        gtids.reserve(size_t(tile));
    // Lines already serviced for this vector when the (future-work)
    // coalescer is enabled; key = line*2 + isStore.
    ScratchSet coalesced;

    // Livelock containment: a ceiling on model cycles and/or wall
    // clock, polled once per scheduled block vector (the BBS loop's
    // unit of forward progress).
    std::optional<Watchdog> wd;
    if (watchdog_.enabled())
        wd.emplace(watchdog_, "vgiw replay of '" + k.name + "'");

    // Per-block attribution for the observability layer: CVT drains,
    // LVC hit/miss traffic per block and the coalesced-vector-size
    // histogram (batch occupancy, power-of-two buckets). Deterministic
    // replay statistics only — safe for the "metrics" JSON contract.
    JobMetrics *jm = currentMetricSink();
    std::vector<double> m_drains, m_lvc_hits, m_lvc_misses;
    std::array<uint64_t, 32> m_vhist{};
    if (jm) {
        m_drains.assign(size_t(num_blocks), 0.0);
        m_lvc_hits.assign(size_t(num_blocks), 0.0);
        m_lvc_misses.assign(size_t(num_blocks), 0.0);
    }

    uint64_t compute_cycles = 0;
    uint64_t vector_sum = 0;       // Fig. 1d: coalesced vector sizes
    uint64_t vectors_scheduled = 0;

    for (int tile_start = 0; tile_start < num_threads;
         tile_start += tile) {
        const int tile_threads =
            std::min(tile, num_threads - tile_start);
        const int ctas_in_tile = tile_threads / launch.ctaSize;

        cvt.reset(tile_threads);
        cvt.seedEntry(tile_threads);
        pools.reset(ctas_in_tile);
        for (int t = 0; t < tile_threads; ++t)
            cursor[size_t(t)] = traces.thread(uint32_t(tile_start + t));
        auto release = [&](uint32_t rel, int succ) { cvt.set(succ, rel); };

        int configured = -1;
        while (true) {
            const int b = cvt.firstPendingBlock();
            if (b < 0) {
                vgiw_assert(pools.waiting() == 0, "kernel '", k.name,
                            "': barrier deadlock in VGIW replay");
                break;
            }

            const std::span<const uint32_t> rel_tids = cvt.drain(b);
            const uint64_t v = rel_tids.size();
            vector_sum += v;
            ++vectors_scheduled;
            if (jm) {
                ++m_drains[size_t(b)];
                ++m_vhist[v ? size_t(std::bit_width(v)) - 1 : 0];
            }
            if (cfg_.blockObserver) {
                gtids.clear();
                for (uint32_t rel : rel_tids)
                    gtids.push_back(uint32_t(tile_start) + rel);
                cfg_.blockObserver(b, gtids);
            }
            const PlacedBlock &pb = ck->placed[b];
            const int replicas =
                cfg_.enableReplication ? pb.replicas : 1;
            const BasicBlock &blk = k.blocks[b];

            // Reconfiguration (prefetched by the BBS; charged when the
            // loaded graph changes).
            if (b != configured) {
                rs.configCycles += uint64_t(reconfig_cost);
                ++rs.reconfigs;
                ev.configuredUnits += uint64_t(cfg_.grid.numUnits());
                configured = b;
            }

            // --- Replay this block vector. ---------------------------
            l1_banks_model.reset();
            shared_banks_model.reset();
            uint64_t miss_latency = 0;
            coalesced.clear();

            for (uint32_t rel : rel_tids) {
                const uint32_t gtid = uint32_t(tile_start) + rel;
                ThreadCursor &cur = cursor[rel];
                vgiw_assert(!cur.done(), "trace underrun");
                vgiw_assert(cur.block() == b, "trace/schedule divergence");

                // Global/shared memory accesses (word granularity; the
                // VGIW LDST units do not coalesce).
                const uint32_t nacc = cur.numAccesses();
                for (uint32_t a = 0; a < nacc; ++a) {
                    const MemAccess acc = cur.nextAccess();
                    if (acc.isShared) {
                        shared_banks_model.access((acc.addr / 4) % 32,
                                                  acc.addr / 4);
                        ++ev.sharedWords;
                        continue;
                    }
                    if (cfg_.enableMemoryCoalescing) {
                        const uint64_t key =
                            uint64_t(acc.addr / 128) * 2 + acc.isStore;
                        if (!coalesced.insert(key))
                            continue;  // merged into an earlier request
                    }
                    const MemAccessResult r =
                        ms.access(acc.addr, acc.isStore);
                    l1_banks_model.access(ms.l1().bankOf(acc.addr),
                                          acc.addr / 128);
                    if (r.servicedBy != MemLevel::L1)
                        miss_latency += r.latency;
                }

                // Live-value traffic through the LVC.
                for (uint16_t lvid : ck->liveIns[b]) {
                    auto r = lvc.access(lvid, gtid, false);
                    if (!r.hit)
                        miss_latency += r.latency;
                    if (jm)
                        ++(r.hit ? m_lvc_hits
                                 : m_lvc_misses)[size_t(b)];
                }
                for (const auto &lo : blk.liveOuts) {
                    auto r = lvc.access(lo.lvid, gtid, true);
                    if (!r.hit)
                        miss_latency += r.latency;
                    if (jm)
                        ++(r.hit ? m_lvc_hits
                                 : m_lvc_misses)[size_t(b)];
                }

                // Successor registration via the terminator CVU.
                // One CVT word write per (successor, 64-thread
                // window) batch.
                const int succ = cur.succ();
                cur.nextExec();
                if (succ < 0) {
                    pools.exit(rel, release);
                } else if (blk.term.barrier) {
                    pools.arrive(rel, b, succ, release);
                } else {
                    ThreadBatch &batch = succ_batch[size_t(succ)];
                    const uint32_t base = rel & ~63u;
                    if (batch.bitmap != 0 && batch.base != base) {
                        cvt.orBatch(succ, batch);
                        batch.bitmap = 0;
                    }
                    batch.base = base;
                    batch.bitmap |= uint64_t{1} << (rel & 63u);
                }
            }
            for (int s = 0; s < num_blocks; ++s) {
                ThreadBatch &batch = succ_batch[size_t(s)];
                if (batch.bitmap != 0) {
                    cvt.orBatch(s, batch);
                    batch.bitmap = 0;
                }
            }

            // --- Cycle model for this vector. -------------------------
            const uint64_t issue = (v + replicas - 1) / replicas;
            const uint64_t bw = l1_banks_model.maxCycles();
            const uint64_t shared_cyc = shared_banks_model.maxCycles();
            const uint64_t lat = miss_latency / cfg_.missWindow;
            compute_cycles +=
                std::max({issue, bw, lat, shared_cyc}) +
                uint64_t(pb.criticalPathCycles);

            // --- Energy events for this vector. -----------------------
            const OpCounts &oc = ck->ops[b];
            ev.intOps += v * oc.intAlu;
            ev.fpOps += v * oc.fpAlu;
            ev.scuOps += v * oc.scu;
            ev.ldstIssues += v * oc.mem();
            ev.tokenRws += v * uint64_t(pb.edgesPerThread);
            ev.tokenHops += v * uint64_t(pb.edgeHopsPerThread);
            rs.dynBlockExecs += v;
            rs.dynThreadOps += v * oc.total();

            if (wd) {
                wd->poll(compute_cycles + rs.configCycles,
                         rs.dynBlockExecs, rs.dynThreadOps);
            }
        }
    }
    ev.cvtWords = cvt.stats().accesses();

    // --- Totals. ---------------------------------------------------------
    rs.cycles = compute_cycles + rs.configCycles;
    rs.cycles = std::max(rs.cycles, ms.dramServiceCycles());

    rs.lvcAccesses = lvc.accesses();
    rs.l1Stats = ms.l1().stats();
    rs.l2Stats = ms.l2().stats();
    rs.lvcStats = lvc.stats();
    rs.dramStats = ms.dram().stats();
    // Fig. 1d quantified: how many threads each scheduled block vector
    // coalesced. Large numbers are what amortise reconfiguration.
    rs.extra.set("vgiw.avg_vector_size",
                 vectors_scheduled ? double(vector_sum) /
                                         double(vectors_scheduled)
                                   : 0.0);

    if (jm) {
        jm->set("vgiw.vectors_scheduled", double(vectors_scheduled));
        jm->set("vgiw.avg_vector_size",
                vectors_scheduled ? double(vector_sum) /
                                        double(vectors_scheduled)
                                  : 0.0);
        jm->set("vgiw.tile_threads", double(tile));
        for (int b = 0; b < num_blocks; ++b) {
            const std::string p = "vgiw.block" + std::to_string(b);
            jm->set(p + ".cvt_drains", m_drains[size_t(b)]);
            jm->set(p + ".lvc_hits", m_lvc_hits[size_t(b)]);
            jm->set(p + ".lvc_misses", m_lvc_misses[size_t(b)]);
        }
        // Bucket i counts drained vectors of size [2^i, 2^(i+1));
        // empty buckets are omitted.
        for (size_t i = 0; i < m_vhist.size(); ++i) {
            if (m_vhist[i]) {
                jm->set("vgiw.vector_size_hist.p2_" + std::to_string(i),
                        double(m_vhist[i]));
            }
        }
    }
    rs.energy = priceEnergy(rs);
    return rs;
}

} // namespace vgiw
