#include "simt/fermi_core.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "driver/artifact_store.hh"
#include "ir/post_dominators.hh"
#include "mem/memory_system.hh"
#include "simt/simt_stack.hh"

namespace vgiw
{

namespace
{

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/** Execution state of the warp in one resident warp slot. */
struct Warp
{
    int id = 0;    ///< launch-wide warp ID
    int slot = 0;  ///< CTA slot of its CTA
    std::array<int, 32> lanes{};  ///< cursor slot per lane, -1 = none
    SimtStack stack;
    size_t instrIdx = 0;
    bool blockStarted = false;
    uint64_t readyAt = 0;
    bool atBarrier = false;
    bool done = false;
};

/**
 * Insert @p v into the ascending array @p vals of length @p n unless
 * already present; returns the new length. The coalescer's sorted line
 * stack (at most 32 lanes -> no heap).
 */
size_t
insertSortedUnique(uint32_t *vals, size_t n, uint32_t v)
{
    size_t pos = 0;
    while (pos < n && vals[pos] < v)
        ++pos;
    if (pos < n && vals[pos] == v)
        return n;
    for (size_t j = n; j > pos; --j)
        vals[j] = vals[j - 1];
    vals[pos] = v;
    return n + 1;
}

} // namespace

std::string
FermiConfig::validate() const
{
    if (warpSize < 1 || warpSize > 32) {
        return "fermi: warpSize (" + std::to_string(warpSize) +
               ") must be in [1, 32] (lane state is 32 wide)";
    }
    if (maxResidentWarps < 1)
        return "fermi: maxResidentWarps must be at least 1";
    if (maxResidentCtas < 1)
        return "fermi: maxResidentCtas must be at least 1";
    if (scuIssueCycles < 1)
        return "fermi: scuIssueCycles must be at least 1 (a zero-cost "
               "issue stalls the clock)";
    return {};
}

std::string
FermiCore::compileKey() const
{
    // Decode and the post-dominator tree depend on the kernel alone:
    // one artifact serves every Fermi configuration point.
    return "fermi";
}

std::string
FermiCore::replayKey() const
{
    // The scheduler limits and latencies the issue loop reads; the
    // compile artifact is configuration-independent (see compileKey).
    return "warp:" + std::to_string(cfg_.warpSize) +
           "|res:" + std::to_string(cfg_.maxResidentWarps) + "," +
           std::to_string(cfg_.maxResidentCtas) +
           "|scu:" + std::to_string(cfg_.scuIssueCycles) +
           "|dep:" + std::to_string(cfg_.aluDependencyLatency) +
           "|shm:" + std::to_string(cfg_.sharedLatency);
}

std::shared_ptr<const CompiledKernel>
FermiCore::compile(const Kernel &k) const
{
    auto ck = std::make_shared<FermiCompiledKernel>(k);
    ck->decoded.reserve(k.blocks.size());
    ck->branchCondRf.reserve(k.blocks.size());
    for (const auto &blk : k.blocks) {
        std::vector<FermiDecodedInstr> ds;
        ds.reserve(blk.instrs.size());
        for (const Instr &in : blk.instrs) {
            FermiDecodedInstr d;
            for (const auto &s : in.src)
                if (s.isRegisterRead())
                    ++d.rfAccesses;
            if (in.op != Opcode::Store)
                ++d.rfAccesses;  // destination write
            d.isMemory = in.isMemory();
            d.isShared = in.space == MemSpace::Shared;
            d.isStore = in.op == Opcode::Store;
            d.resource = opcodeResource(in.op, in.type);
            ds.push_back(d);
        }
        ck->decoded.push_back(std::move(ds));
        ck->branchCondRf.push_back(blk.term.kind == TermKind::Branch &&
                                   blk.term.cond.isRegisterRead());
    }
    return ck;
}

namespace
{
/** Bumped when the Fermi artifact payload layout changes. */
constexpr uint32_t kFermiArtifactVersion = 1;
} // namespace

std::string
FermiCore::serializeArtifact(const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const FermiCompiledKernel *>(&compiled);
    if (!ck)
        return {};
    std::string out;
    ByteWriter w(out);
    w.u32(kFermiArtifactVersion);
    const std::vector<int> &ipd = ck->pd.ipdoms();
    w.u64(ipd.size());
    w.raw(ipd.data(), ipd.size() * sizeof(int));
    w.u64(ck->decoded.size());
    for (const auto &ds : ck->decoded) {
        w.u64(ds.size());
        for (const FermiDecodedInstr &d : ds) {
            w.u32(d.rfAccesses);
            w.u8(uint8_t(d.isMemory) | uint8_t(d.isShared) << 1 |
                 uint8_t(d.isStore) << 2);
            w.u8(uint8_t(d.resource));
        }
    }
    w.u64(ck->branchCondRf.size());
    w.raw(ck->branchCondRf.data(), ck->branchCondRf.size());
    return out;
}

std::shared_ptr<const CompiledKernel>
FermiCore::deserializeArtifact(std::string_view bytes) const
{
    ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kFermiArtifactVersion)
        return nullptr;
    const uint64_t n_ipd = r.u64();
    const uint8_t *p =
        r.ok() && n_ipd <= r.remaining() / sizeof(int)
            ? r.bytes(size_t(n_ipd) * sizeof(int))
            : nullptr;
    if (!p)
        return nullptr;
    std::vector<int> ipd;
    ipd.resize(size_t(n_ipd));
    if (n_ipd)  // an empty vector's data() may be null
        std::memcpy(ipd.data(), p, size_t(n_ipd) * sizeof(int));
    auto ck = std::make_shared<FermiCompiledKernel>(
        PostDominators::fromIpdoms(std::move(ipd)));

    const uint64_t n_blocks = r.u64();
    if (!r.ok() || n_blocks > r.remaining())
        return nullptr;
    ck->decoded.resize(size_t(n_blocks));
    for (auto &ds : ck->decoded) {
        const uint64_t n = r.u64();
        // 6 wire bytes per decoded instruction.
        if (!r.ok() || n > r.remaining() / 6)
            return nullptr;
        ds.resize(size_t(n));
        for (FermiDecodedInstr &d : ds) {
            d.rfAccesses = r.u32();
            const uint8_t flags = r.u8();
            const uint8_t res = r.u8();
            if (flags > 7 || res > uint8_t(ResourceClass::Mem))
                return nullptr;
            d.isMemory = flags & 1;
            d.isShared = (flags >> 1) & 1;
            d.isStore = (flags >> 2) & 1;
            d.resource = ResourceClass(res);
        }
    }
    const uint64_t n_br = r.u64();
    p = r.ok() && n_br <= r.remaining() ? r.bytes(size_t(n_br))
                                        : nullptr;
    if (!p)
        return nullptr;
    ck->branchCondRf.assign(p, p + n_br);
    if (!r.done())
        return nullptr;
    return ck;
}

RunStats
FermiCore::run(const TraceSet &traces, const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const FermiCompiledKernel *>(&compiled);
    vgiw_assert(ck, "FermiCore::run needs a Fermi compile artifact");

    const Kernel &k = *traces.kernel;
    const LaunchParams &launch = traces.launch;

    RunStats rs;
    rs.arch = "fermi";
    rs.kernelName = k.name;
    EnergyEvents &ev = rs.events;
    ev.l1PerLine = true;  // the coalescer issues whole 128 B lines

    const PostDominators &pd = ck->pd;
    MemorySystem ms(fermiL1Geometry());

    // CTAs are scheduled in order under the residency limits; warps of
    // resident CTAs interleave on the issue port. CTAs [0, cta_hi) have
    // been admitted, and each completing CTA admits the next one.
    const int warps_per_cta =
        (launch.ctaSize + cfg_.warpSize - 1) / cfg_.warpSize;
    const int total_warps = launch.numCtas * warps_per_cta;
    const int resident_ctas = std::min(
        {launch.numCtas, cfg_.maxResidentCtas,
         std::max(1, cfg_.maxResidentWarps / warps_per_cta)});
    int cta_hi = 0;

    // Replay state exists only for resident CTAs. CTA slot s holds warp
    // slots [s*warps_per_cta, (s+1)*warps_per_cta), their SIMT stacks
    // (fixed stretches of one buffer) and one forward-only decode
    // cursor per thread: block entry peeks the current exec, memory
    // instructions pull its accesses lane by lane, and the terminator
    // advances it. A completed CTA's slot passes to the CTA it admits.
    const size_t stack_cap = SimtStack::capacityFor(k.numBlocks());
    const size_t warp_slots = size_t(resident_ctas) * size_t(warps_per_cta);
    std::vector<SimtStack::Entry> stack_buf(warp_slots * stack_cap);
    std::vector<Warp> warps(warp_slots);
    for (size_t w = 0; w < warp_slots; ++w) {
        warps[w].stack = SimtStack(
            std::span(stack_buf).subspan(w * stack_cap, stack_cap), k.name);
    }
    std::vector<ThreadCursor> cursor(size_t(resident_ctas) *
                                     size_t(launch.ctaSize));
    std::vector<int> live_warps(static_cast<size_t>(resident_ctas));  // per slot

    uint64_t clock = 0;
    uint64_t active_lane_slots = 0;  // Fig. 1b: occupied lanes per issue
    uint64_t issued_slots = 0;

    // Observability counters (deterministic scheduling statistics):
    // SIMT-stack pushes/pops across advance() — the divergence and
    // reconvergence events the paper's Fig. 1b waste stems from — and
    // the residency-window pick scans the round-robin issue performs.
    JobMetrics *jm = currentMetricSink();
    uint64_t m_divergence = 0;
    uint64_t m_reconvergence = 0;
    uint64_t m_scans = 0;
    uint64_t m_scan_steps = 0;

    // Scheduler candidates: the slots of the live warps of resident
    // CTAs, in ascending warp-ID order. Residency is a prefix of CTA
    // (hence warp) IDs, so an admitted CTA's warps append at the end
    // and a completed warp is erased where it was picked: the list
    // stays sorted with no search, and the pick scan is bounded by the
    // resident window (<= maxResidentWarps), not the launch size.
    std::vector<int> resident;
    resident.reserve(warp_slots);
    auto admit_cta = [&](int slot) {
        const int cta = cta_hi++;
        const int first_tid = cta * launch.ctaSize;
        for (int t = 0; t < launch.ctaSize; ++t) {
            cursor[size_t(slot * launch.ctaSize + t)] =
                traces.thread(uint32_t(first_tid + t));
        }
        live_warps[size_t(slot)] = warps_per_cta;
        for (int i = 0; i < warps_per_cta; ++i) {
            const int ws = slot * warps_per_cta + i;
            Warp &warp = warps[size_t(ws)];
            warp.id = cta * warps_per_cta + i;
            warp.slot = slot;
            uint32_t mask = 0;
            for (int lane = 0; lane < cfg_.warpSize; ++lane) {
                const int in_cta = i * cfg_.warpSize + lane;
                warp.lanes[lane] = in_cta < launch.ctaSize
                                       ? slot * launch.ctaSize + in_cta
                                       : -1;
                if (warp.lanes[lane] >= 0)
                    mask |= uint32_t(1) << lane;
            }
            warp.stack.reset(mask, 0);
            warp.instrIdx = 0;
            warp.blockStarted = false;
            warp.readyAt = 0;
            warp.atBarrier = false;
            warp.done = warp.stack.done();
            resident.push_back(ws);
        }
    };
    for (int slot = 0; slot < resident_ctas; ++slot)
        admit_cta(slot);
    // Index in resident of the next round-robin candidate: the first
    // warp after the last pick in warp-ID order (past the end wraps to
    // the smallest ID).
    size_t next_idx = 0;

    // Barrier release: when every live warp of a CTA is waiting. A
    // CTA's warps occupy the contiguous slot range [slot*warps_per_cta,
    // (slot+1)*warps_per_cta).
    auto try_release_barrier = [&](int slot) {
        const int lo = slot * warps_per_cta;
        const int hi = lo + warps_per_cta;
        int waiting = 0, live = 0;
        for (int w = lo; w < hi; ++w) {
            if (warps[w].done)
                continue;
            ++live;
            if (warps[w].atBarrier)
                ++waiting;
        }
        if (live > 0 && waiting == live) {
            for (int w = lo; w < hi; ++w) {
                if (!warps[w].done && warps[w].atBarrier) {
                    warps[w].atBarrier = false;
                    warps[w].readyAt = clock + 1;
                }
            }
        }
    };

    auto on_warp_done = [&](size_t idx) {
        Warp &warp = warps[resident[idx]];
        warp.done = true;
        resident.erase(resident.begin() + long(idx));
        next_idx = idx;  // its successor moved into the erased slot
        if (--live_warps[size_t(warp.slot)] == 0) {
            if (cta_hi < launch.numCtas)
                admit_cta(warp.slot);
        } else {
            try_release_barrier(warp.slot);  // it may have been the straggler
        }
    };

    // Livelock containment: polled once per scheduler iteration (every
    // issue, terminator or idle-advance — the loop's unit of work).
    Watchdog wd(watchdog_, "fermi", k.name);

    while (!resident.empty()) {
        wd.poll(clock, rs.dynBlockExecs, rs.dynThreadOps);
        // Pick the next ready, resident warp: the first candidate in
        // circular warp-ID order from next_idx — the same round-robin
        // greedy policy as scanning every warp. The earliest-wakeup
        // fallback folds into the same pass.
        const size_t n = resident.size();
        const size_t start = next_idx < n ? next_idx : 0;
        size_t pick_idx = n;
        uint64_t next = kNever;
        if (jm)
            ++m_scans;
        for (size_t i = 0; i < n; ++i) {
            const size_t j = start + i < n ? start + i : start + i - n;
            if (jm)
                ++m_scan_steps;
            const Warp &warp = warps[resident[j]];
            if (warp.atBarrier)
                continue;
            if (warp.readyAt <= clock) {
                pick_idx = j;
                break;
            }
            next = std::min(next, warp.readyAt);
        }
        if (pick_idx == n) {
            vgiw_assert(next != kNever, "kernel '", k.name,
                        "': SM deadlock (barrier without release?)");
            clock = next;
            continue;
        }
        const int pick = resident[pick_idx];
        next_idx = pick_idx + 1;

        Warp &warp = warps[pick];
        const int b = warp.stack.currentBlock();
        const BasicBlock &blk = k.blocks[b];
        const uint32_t mask = warp.stack.activeMask();
        const int active = warp.stack.activeLanes();

        // On block entry, check each active lane sits on its next trace
        // exec; the per-thread cursors already point at its accesses.
        if (!warp.blockStarted) {
            for (int lane = 0; lane < 32; ++lane) {
                if (!((mask >> lane) & 1))
                    continue;
                const ThreadCursor &c = cursor[size_t(warp.lanes[lane])];
                vgiw_assert(!c.done(),
                            "trace underrun (SIMT replay diverged)");
                vgiw_assert(c.block() == b, "SIMT replay off-trace: warp ",
                            warp.id, " block ", b, " trace ", c.block());
            }
            warp.blockStarted = true;
            warp.instrIdx = 0;
        }

        if (warp.instrIdx < blk.instrs.size()) {
            // ---- Issue one warp instruction. -------------------------
            const FermiDecodedInstr &in = ck->decoded[b][warp.instrIdx];
            ++warp.instrIdx;
            ++rs.dynWarpInstrs;
            rs.dynThreadOps += uint64_t(active);
            active_lane_slots += uint64_t(active);
            ++issued_slots;

            // Register file: one access per warp register operand plus
            // the result write (Fig. 3's counting rule), pre-counted at
            // decode time.
            rs.rfAccesses += in.rfAccesses;

            uint64_t issue_cost = 1;

            if (in.isMemory) {
                const bool is_store = in.isStore;
                if (in.isShared) {
                    // Scratchpad: serialised by bank conflicts.
                    std::array<uint32_t, 32> bank{};
                    for (int lane = 0; lane < 32; ++lane) {
                        if (!((mask >> lane) & 1))
                            continue;
                        const MemAccess acc =
                            cursor[size_t(warp.lanes[lane])].nextAccess();
                        ++bank[(acc.addr / 4) % 32];
                        ++ev.sharedWords;
                    }
                    const uint32_t passes =
                        *std::max_element(bank.begin(), bank.end());
                    issue_cost = std::max<uint64_t>(1, passes);
                    if (!is_store) {
                        warp.readyAt =
                            clock + issue_cost + cfg_.sharedLatency;
                    }
                } else {
                    // Coalescer: merge the warp's accesses into 128 B
                    // transactions, issued in ascending line order. At
                    // most 32 lanes -> a sorted stack array, no heap.
                    std::array<uint32_t, 32> lines;
                    int num_lines = 0;
                    for (int lane = 0; lane < 32; ++lane) {
                        if (!((mask >> lane) & 1))
                            continue;
                        const MemAccess acc =
                            cursor[size_t(warp.lanes[lane])].nextAccess();
                        num_lines = int(insertSortedUnique(
                            lines.data(), size_t(num_lines),
                            acc.addr / 128));
                    }
                    uint32_t max_lat = 0;
                    for (int i = 0; i < num_lines; ++i) {
                        const MemAccessResult r =
                            ms.access(lines[i] * 128, is_store);
                        max_lat = std::max(max_lat, r.latency);
                    }
                    issue_cost = std::max<uint64_t>(1, uint64_t(num_lines));
                    if (!is_store)
                        warp.readyAt = clock + issue_cost + max_lat;
                    // Stores retire through the write-through path
                    // without stalling the warp.
                }
                ev.ldstIssues += uint64_t(active);
            } else {
                switch (in.resource) {
                  case ResourceClass::Scu:
                    issue_cost = uint64_t(cfg_.scuIssueCycles);
                    ev.scuOps += uint64_t(active);
                    break;
                  case ResourceClass::FpAlu:
                    ev.fpOps += uint64_t(active);
                    break;
                  default:
                    ev.intOps += uint64_t(active);
                    break;
                }
                // The scoreboard blocks this warp until the result can
                // be forwarded to the (almost always dependent) next
                // instruction; other warps fill the gap.
                warp.readyAt = clock + cfg_.aluDependencyLatency;
            }

            clock += issue_cost;
            warp.readyAt = std::max(warp.readyAt, clock);
            continue;
        }

        // ---- Terminator: one branch instruction on the SM. -----------
        if (blk.term.kind == TermKind::Branch) {
            ++rs.dynWarpInstrs;
            if (ck->branchCondRf[b])
                ++rs.rfAccesses;
            clock += 1;
        }

        // Consume the execs and collect per-lane successors.
        std::array<int, 32> lane_succ;
        lane_succ.fill(SimtStack::kLaneInactive);
        for (int lane = 0; lane < 32; ++lane) {
            if (!((mask >> lane) & 1))
                continue;
            ThreadCursor &c = cursor[size_t(warp.lanes[lane])];
            const int succ = c.succ();
            c.nextExec();
            lane_succ[lane] =
                succ < 0 ? SimtStack::kLaneExit : succ;
        }
        rs.dynBlockExecs += uint64_t(active);

        if (jm) {
            const size_t before = warp.stack.depth();
            warp.stack.advance(lane_succ, pd);
            const size_t after = warp.stack.depth();
            if (after > before)
                m_divergence += after - before;
            else
                m_reconvergence += before - after;
        } else {
            warp.stack.advance(lane_succ, pd);
        }
        warp.blockStarted = false;
        warp.readyAt = std::max(warp.readyAt, clock);

        if (warp.stack.done()) {
            on_warp_done(pick_idx);
        } else if (blk.term.barrier) {
            warp.atBarrier = true;
            try_release_barrier(warp.slot);
        }
    }

    rs.extra.set("fermi.warps", double(total_warps));
    rs.extra.set("fermi.shared_accesses", double(ev.sharedWords));
    // SIMD lane occupancy: 1.0 means no divergence waste (Fig. 1b's
    // masked-off lanes push this below 1).
    rs.extra.set("fermi.lane_occupancy",
                 issued_slots ? double(active_lane_slots) /
                                    (32.0 * double(issued_slots))
                              : 0.0);

    if (jm) {
        jm->set("fermi.divergence_events", double(m_divergence));
        jm->set("fermi.reconvergence_events", double(m_reconvergence));
        jm->set("fermi.residency_scans", double(m_scans));
        jm->set("fermi.residency_scan_steps", double(m_scan_steps));
    }
    closeReplay(rs, clock, ms);
    return rs;
}

} // namespace vgiw
