/**
 * @file
 * The paper's evaluation rendered from one engine run: Tables 1 and 2,
 * Figures 3 and 7-11, the Section 3.2 reconfiguration statistic, the
 * Figure 1b/1d divergence and placement inventories, and the ablations
 * (replication, coalescing, tile size, LVC size, divergence sweep).
 * Every claim ends in an `ok|OUT` verdict: a band on a mean, an exact
 * value, or a property that must hold on every kernel. The five bar
 * figures are rows of one table that holds each figure's paper claim
 * beside a band on its measured arithmetic mean. Header-only so that
 * the unit tests render synthetic results through the same code.
 */

#ifndef VGIW_BENCH_PAPER_FIGURES_HH
#define VGIW_BENCH_PAPER_FIGURES_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "bench_util.hh"

#include "cgrf/config_cost.hh"
#include "cgrf/placer.hh"
#include "common/rng.hh"
#include "driver/experiment_engine.hh"
#include "ir/builder.hh"
#include "sgmf/sgmf_core.hh"
#include "vgiw/vgiw_core.hh"
#include "workloads/workload.hh"

namespace vgiw::bench
{

inline constexpr const char *kTileKernels[] = {
    "BFS/Kernel", "HOTSPOT/hotspot_kernel", "NN/euclid", "LUD/lud_diagonal"};
inline constexpr uint32_t kCvtBits[] = {4096, 16384, 65536, 262144};
inline constexpr const char *kLvcKernels[] = {
    "BFS/Kernel", "CFD/compute_flux", "LUD/lud_perimeter", "SM/compute_cost"};
inline constexpr uint32_t kLvcBytes[] = {1024, 4096, 16384, 65536, 262144};
inline constexpr int kDivergencePcts[] = {0, 25, 50, 75, 100};

/** Four-arm switch kernel: arm = in[tid] & 3, out = f_arm(in[tid]). */
inline Kernel
buildSwitchKernel()
{
    KernelBuilder kb("divergence_sweep", 2);
    const uint16_t lv_x = kb.newLiveValue();
    BlockRef entry = kb.block("entry"), test1 = kb.block("test1"),
             arm0 = kb.block("arm0"), arm1 = kb.block("arm1"),
             test2 = kb.block("test2"), arm2 = kb.block("arm2"),
             arm3 = kb.block("arm3"), merge = kb.block("merge");

    Operand tid = Operand::special(SpecialReg::Tid);
    Operand x = entry.load(Type::I32, entry.elemAddr(Operand::param(0), tid));
    entry.out(lv_x, x);
    entry.branch(entry.ilt(entry.iand(x, Operand::constI32(3)),
                           Operand::constI32(2)),
                 test1, test2);
    auto arm_body = [&](BlockRef b, int mul, int add) {
        Operand v = b.iadd(b.imul(b.in(lv_x), Operand::constI32(mul)),
                           Operand::constI32(add));
        // A little extra arithmetic so arms have real weight.
        v = b.ixor(b.ishl(v, Operand::constI32(1)), v);
        b.out(lv_x, v);
        b.jump(merge);
    };
    auto arm_test = [&](BlockRef b, int arm, BlockRef yes, BlockRef no) {
        b.branch(b.ieq(b.iand(b.in(lv_x), Operand::constI32(3)),
                       Operand::constI32(arm)),
                 yes, no);
    };
    arm_test(test1, 0, arm0, arm1);
    arm_body(arm0, 3, 1);
    arm_body(arm1, 5, 7);
    arm_test(test2, 2, arm2, arm3);
    arm_body(arm2, 7, 3);
    arm_body(arm3, 9, 11);
    merge.store(Type::I32, merge.elemAddr(Operand::param(1), tid),
                merge.in(lv_x));
    merge.exit();
    return kb.finish();
}

/** The switch kernel over 4096 threads, @p pct% of which draw a random
 * arm while the rest take arm 0. */
inline WorkloadInstance
divergenceWorkload(const Kernel &k, int pct)
{
    const int threads = 4096;
    Rng rng(99 + uint64_t(pct));
    WorkloadInstance w;
    w.kernel = k;
    const uint32_t in = w.memory.allocWords(threads);
    const uint32_t out = w.memory.allocWords(threads);
    for (int i = 0; i < threads; ++i) {
        int32_t v = int32_t(rng.next() & 0x7ffc);  // arm bits 0
        if (int(rng.nextUInt(100)) < pct)
            v |= int32_t(rng.nextUInt(4));
        w.memory.storeI32(in, uint32_t(i), v);
    }
    w.launch.numCtas = threads / 256;
    w.launch.ctaSize = 256;
    w.launch.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    return w;
}

/**
 * The ablations' jobs, labelled by row: VGIW without replication and
 * with coalescing on every registry kernel, the CVT and LVC sweeps, and
 * the divergence sweep on VGIW, Fermi and SGMF, each point a change
 * to @p base. Run on the engine that ran the suite comparison, every
 * registry trace is reused from its cache. @p switchKernel must outlive
 * the run.
 */
inline std::vector<ExperimentJob>
ablationJobs(const SystemConfig &base, const Kernel &switchKernel)
{
    std::vector<ExperimentJob> jobs;
    auto add = [&](const std::string &workload, const char *label,
                   auto setVgiw) {
        ExperimentJob &job = jobs.emplace_back();
        job.workload = workload;
        job.configLabel = label;
        job.config = base;
        setVgiw(job.config.vgiw);
    };
    for (const auto &entry : workloadRegistry()) {
        add(entry.name, "no-replication",
            [](VgiwConfig &c) { c.enableReplication = false; });
        add(entry.name, "coalescing",
            [](VgiwConfig &c) { c.enableMemoryCoalescing = true; });
    }
    for (const char *name : kTileKernels)
        for (uint32_t bits : kCvtBits)
            add(name, "cvt",
                [bits](VgiwConfig &c) { c.cvtCapacityBits = bits; });
    for (const char *name : kLvcKernels)
        for (uint32_t bytes : kLvcBytes)
            add(name, "lvc", [bytes](VgiwConfig &c) { c.lvcBytes = bytes; });
    for (int pct : kDivergencePcts) {
        for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
            add("SYNTH/divergence_" + std::to_string(pct) + "pct",
                "divergence", [](VgiwConfig &) {});
            jobs.back().arch = arch;
            jobs.back().make = [&switchKernel, pct] {
                return divergenceWorkload(switchKernel, pct);
            };
        }
    }
    return jobs;
}

/** What one paper_figures run renders. */
struct PaperResults
{
    std::vector<ArchComparison> suite;
    std::vector<JobResult> ablations;  ///< ablationJobs() results, in order
    SystemConfig config{};  ///< the suite's, and the ablations' base
};

/** The stats of every ablation job labelled @p label, in job order. */
inline std::vector<const RunStats *>
labelled(const PaperResults &r, const char *label)
{
    std::vector<const RunStats *> out;
    for (const JobResult &j : r.ablations)
        if (j.configLabel == label)
            out.push_back(&j.stats);
    return out;
}

/** Print a `<claim> / measured <v> / band [lo, hi] ok|OUT` verdict. */
inline bool
inBand(std::FILE *out, const std::string &claim, double v, double lo,
       double hi, const char *unit = "x")
{
    const bool ok = v >= lo && v <= hi;
    std::fprintf(out, "  %s / measured %.2f%s / band [%.2f, %.2f] %s\n",
                 claim.c_str(), v, unit, lo, hi, ok ? "ok" : "OUT");
    return ok;
}

/** Print a `<claim> / measured <v> / exact <want> ok|OUT` verdict. */
inline bool
isExactly(std::FILE *out, const std::string &claim, long long v,
          long long want)
{
    std::fprintf(out, "  %s / measured %lld / exact %lld %s\n",
                 claim.c_str(), v, want, v == want ? "ok" : "OUT");
    return v == want;
}

/** The verdict of a claim that must hold on every kernel: one OUT line
 * per entry of @p failed ("<kernel>: <what broke>"), then the count. */
inline bool
everyKernel(std::FILE *out, const std::string &claim,
            const std::vector<std::string> &failed, size_t total)
{
    for (const std::string &f : failed)
        std::fprintf(out, "  OUT %s\n", f.c_str());
    std::fprintf(out,
                 "  %s / measured on %zu of %zu kernels / band every "
                 "kernel %s\n",
                 claim.c_str(), total - failed.size(), total,
                 failed.empty() ? "ok" : "OUT");
    return failed.empty();
}

/** Checks that @p field never rises from one point of a @p param sweep
 * to the next; @p pts holds @p n points per kernel of @p kernels. */
template <size_t K>
bool
neverRises(std::FILE *out, const char *const (&kernels)[K],
           const std::vector<const RunStats *> &pts, size_t n,
           const std::string &field, const std::string &param,
           double (*get)(const RunStats &))
{
    std::vector<std::string> failed;
    for (size_t k = 0; k < K; ++k)
        for (size_t p = 1; p < n; ++p)
            if (get(*pts.at(k * n + p)) > get(*pts.at(k * n + p - 1))) {
                failed.push_back(std::string(kernels[k]) + ": " + field +
                                 " goes up with " + param);
                break;
            }
    return everyKernel(out, field + " non-increasing in " + param, failed,
                       K);
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : vals)
        log_sum += std::log(v);
    return std::exp(log_sum / double(vals.size()));
}

/** Print one paper-style bar row: name, value, ASCII bar. */
inline void
printBar(std::FILE *out, const std::string &name, double value,
         double full_scale, const char *unit)
{
    const int width = 40;
    const int n = std::clamp(int(value / full_scale * width + 0.5), 0, width);
    std::fprintf(out, "  %-28s %7.2f%-2s |%.*s%*s|\n", name.c_str(), value,
                 unit, n, "########################################",
                 width - n, "");
}

/** One per-kernel bar chart of the paper and the band on its mean. */
struct BarFigure
{
    const char *title;
    const char *paperRef;
    double (ArchComparison::*metric)() const;
    /** Skip kernels whose CDFG exceeds the SGMF fabric. */
    bool sgmfOnly;
    double fullScale;
    /** An architecture ratio (printed "x", arithmetic and geometric
     * mean) rather than a fraction (three decimals, arithmetic only:
     * zero bars make a geometric mean meaningless). */
    bool ratio;
    const char *paperClaim;
    /** The arithmetic mean must lie in [lo, hi]. */
    double lo, hi;
};

/**
 * The bands bracket this model's measured means, not the paper's:
 * they catch a model change that flips a figure's conclusion. Fig. 11's
 * band records the known gap to the paper's 1.33x (SGMF prices LDST
 * issue energy per L1 access), so fixing that must move it on purpose.
 */
inline constexpr BarFigure kBarFigures[] = {
    {"LVC accesses as a fraction of GPGPU RF accesses", "Figure 3",
     &ArchComparison::lvcToRfRatio, false, 0.5, false, "~0.1 average",
     0.03, 0.15},
    {"Speedup of VGIW over a Fermi SM", "Figure 7",
     &ArchComparison::speedupVsFermi, false, 12.0, true,
     ">3x average, 0.9x-11x range", 1.8, 2.8},
    {"Speedup of VGIW over SGMF (SGMF-mappable kernels)", "Figure 8",
     &ArchComparison::speedupVsSgmf, true, 4.0, true,
     "~1.45x average, 0.4x-3.1x", 1.0, 1.6},
    {"Energy efficiency of VGIW over a Fermi SM", "Figure 9",
     &ArchComparison::energyEfficiencyVsFermi, false, 8.0, true,
     "1.75x average, 0.7x-7x", 1.5, 2.5},
    {"Energy efficiency of VGIW over SGMF", "Figure 11",
     &ArchComparison::energyEfficiencyVsSgmf, true, 3.0, true,
     "~1.33x average", 0.8, 1.2},
};

/** Render one bar figure; false if its mean leaves the band. */
inline bool
renderBarFigure(std::FILE *out, const BarFigure &fig,
                const std::vector<ArchComparison> &results)
{
    printHeader(fig.title, fig.paperRef, out);
    std::vector<double> vals;
    for (const auto &c : results) {
        if (fig.sgmfOnly && !c.sgmf.supported) {
            std::fprintf(out,
                         "  %-28s    (kernel CDFG exceeds the SGMF "
                         "fabric)\n",
                         c.workload.c_str());
            continue;
        }
        const double v = (c.*fig.metric)();
        printBar(out, c.workload, v, fig.fullScale, fig.ratio ? "x" : "");
        vals.push_back(v);
    }
    printRule(out);
    const double m = mean(vals);
    if (fig.ratio) {
        std::fprintf(out, "  %-28s %7.2fx\n", "AVERAGE (arith)", m);
        std::fprintf(out, "  %-28s %7.2fx\n", "AVERAGE (geo)",
                     geomean(vals));
    } else {
        std::fprintf(out, "  %-28s %7.3f\n", "AVERAGE", m);
    }
    if (fig.sgmfOnly)
        std::fprintf(out,
                     "  %zu of %zu kernels unmappable on SGMF (VGIW runs "
                     "all)\n",
                     results.size() - vals.size(), results.size());
    const bool ok = m >= fig.lo && m <= fig.hi;
    std::fprintf(out, "  paper %s / measured %.*f%s / band [%.2f, %.2f] %s\n",
                 fig.paperClaim, fig.ratio ? 2 : 3, m,
                 fig.ratio ? "x" : "", fig.lo, fig.hi, ok ? "ok" : "OUT");
    return ok;
}

/**
 * Figure 10: VGIW-over-Fermi energy efficiency at core, die and system
 * level. The paper's shape, core > die > system (the gain comes from
 * the compute engine and the shared memory system dilutes it), must
 * hold on every kernel; false and an OUT line per kernel otherwise.
 */
inline bool
renderEnergyLevels(std::FILE *out, const std::vector<ArchComparison> &results)
{
    printHeader(
        "Energy efficiency of VGIW over Fermi at core/die/system level",
        "Figure 10", out);
    std::vector<double> core_r, die_r, sys_r;
    std::vector<std::string> inverted;
    std::fprintf(out, "  %-28s %9s %9s %9s\n", "kernel", "core", "die",
                 "system");
    for (const auto &c : results) {
        const double core =
            c.fermi.energy.corePj() / c.vgiw.energy.corePj();
        const double die = c.fermi.energy.diePj() / c.vgiw.energy.diePj();
        const double sys =
            c.fermi.energy.systemPj() / c.vgiw.energy.systemPj();
        std::fprintf(out, "  %-28s %8.2fx %8.2fx %8.2fx\n",
                     c.workload.c_str(), core, die, sys);
        core_r.push_back(core);
        die_r.push_back(die);
        sys_r.push_back(sys);
        if (!(core > die && die > sys))
            inverted.push_back(c.workload + ": not core > die > system");
    }
    printRule(out);
    std::fprintf(out, "  %-28s %8.2fx %8.2fx %8.2fx\n", "AVERAGE (arith)",
                 mean(core_r), mean(die_r), mean(sys_r));
    return everyKernel(out, "paper core > die > system", inverted,
                       results.size());
}

/** Section 3.2: per-kernel reconfigurations and their share of VGIW
 * runtime. The band brackets this model's mean, which its small inputs
 * put far above the paper's (see EXPERIMENTS.md). */
inline bool
renderConfigOverhead(std::FILE *out,
                     const std::vector<ArchComparison> &results)
{
    printHeader("MT-CGRF reconfiguration overhead", "Section 3.2 statistic",
                out);
    std::vector<double> fracs;
    std::fprintf(out, "  %-28s %10s %12s %10s\n", "kernel", "reconfigs",
                 "cfg cycles", "overhead");
    for (const auto &c : results) {
        const double f = c.vgiw.configOverheadFraction();
        std::fprintf(out, "  %-28s %10llu %12llu %9.3f%%\n",
                     c.workload.c_str(),
                     (unsigned long long)c.vgiw.reconfigs,
                     (unsigned long long)c.vgiw.configCycles, 100.0 * f);
        fracs.push_back(f);
    }
    std::sort(fracs.begin(), fracs.end());
    printRule(out);
    std::fprintf(out, "  mean overhead   %.3f%%  (paper: 0.18%%)\n",
                 100.0 * mean(fracs));
    std::fprintf(out, "  median overhead %.3f%%  (paper: <0.1%%)\n",
                 100.0 * fracs[fracs.size() / 2]);
    return inBand(out, "mean reconfiguration overhead", 100.0 * mean(fracs),
                  4.5, 7.5, "%");
}

/**
 * Figures 1b/1d quantified: the Fermi SM's SIMD lane occupancy against
 * the average VGIW block-vector size. Low occupancy with large vectors
 * is the regime control-flow coalescing targets.
 */
inline bool
renderDivergenceInventory(std::FILE *out,
                          const std::vector<ArchComparison> &results)
{
    printHeader("Divergence inventory: SIMD lane occupancy vs coalesced "
                "vectors",
                "Figures 1b/1d, quantified", out);
    std::fprintf(out, "  %-28s %16s %18s %10s\n", "kernel",
                 "lane occupancy", "avg vector size", "speedup");
    std::vector<double> occs;
    for (const auto &c : results) {
        const double occ = c.fermi.extra.get("fermi.lane_occupancy");
        std::fprintf(out, "  %-28s %15.1f%% %18.0f %9.2fx\n",
                     c.workload.c_str(), 100.0 * occ,
                     c.vgiw.extra.get("vgiw.avg_vector_size"),
                     c.speedupVsFermi());
        occs.push_back(occ);
    }
    printRule(out);
    std::fprintf(out,
                 "  average lane occupancy %.1f%% — every point below "
                 "100%% is SIMT work\n  issued into masked-off lanes, "
                 "which VGIW's coalescing avoids.\n",
                 100.0 * mean(occs));
    return inBand(out, "average lane occupancy", 100.0 * mean(occs), 75.0,
                  90.0, "%");
}

/** Table 1 and its derived properties, checked exactly. */
inline bool
renderTable1(std::FILE *out, const SystemConfig &cfg)
{
    printHeader("VGIW system configuration", "Table 1", out);
    std::ostringstream table;
    cfg.printTable1(table);
    std::fputs(table.str().c_str(), out);
    std::fprintf(out, "  Fermi RF for comparison: %u KB (LVC is 4x smaller, "
                      "Section 3.4)\n",
                 4 * cfg.vgiw.lvcBytes / 1024);
    const int units = cfg.vgiw.grid.numUnits();
    bool ok = isExactly(out, "reconfiguration cycles (paper: 34, Section 2)",
                        reconfigCycles(units), 34);
    ok = isExactly(out, "config pass cycles, row-fed twice (paper: 11)",
                   configPassCycles(units), 11) && ok;
    return isExactly(out, "max block replication (16 CVUs / 2 per replica)",
                     cfg.vgiw.maxReplicas, 8) && ok;
}

/**
 * Table 2 with each kernel's placement on the grid: the data behind
 * Figure 1d's utilisation argument (replicating small blocks to fill
 * the fabric) and Figure 8's mappable kernels.
 */
inline bool
renderTable2(std::FILE *out, const SystemConfig &cfg)
{
    printHeader("Benchmark kernels and their MT-CGRF placement",
                "Table 2 and Figure 1d utilisation", out);
    std::fprintf(out, "  %-7s %-20s %-21s %6s %5s %5s %5s %4s %5s\n", "App",
                 "Domain", "Kernel", "blocks", "nodes", "repl", "crit",
                 "util", "SGMF?");
    const int units = cfg.vgiw.grid.numUnits();
    const Placer placer(cfg.vgiw.grid);
    std::set<std::string> apps;
    std::vector<std::string> over;
    long long mappable = 0;
    for (const auto &entry : workloadRegistry()) {
        const WorkloadInstance w = entry.make();
        int max_nodes = 0, max_crit = 0, max_repl = 0;
        double repl = 0.0, util = 0.0;
        for (const auto &blk : w.kernel.blocks) {
            const PlacedBlock pb = placer.place(buildBlockDfg(blk));
            max_nodes = std::max(max_nodes, pb.nodesPerReplica);
            max_crit = std::max(max_crit, pb.criticalPathCycles);
            max_repl = std::max(max_repl, pb.replicas);
            repl += pb.replicas;
            util += pb.utilization(units);
        }
        const int n = w.kernel.numBlocks();
        const bool sgmf = SgmfCore().supports(w.kernel);
        std::fprintf(out, "  %-7s %-20s %-21s %6d %5d %4.1fx %5d %3.0f%% %5s\n",
                     w.suite.c_str(), w.domain.c_str(), w.kernel.name.c_str(),
                     n, max_nodes, repl / n, max_crit, 100.0 * util / n,
                     sgmf ? "yes" : "no");
        apps.insert(w.suite);
        mappable += sgmf;
        if (max_repl > cfg.vgiw.maxReplicas)
            over.push_back(entry.name + ": " + std::to_string(max_repl) +
                           " replicas");
    }
    printRule(out);
    std::fprintf(out, "  nodes and crit are per-replica maxima over blocks; "
                      "util is the share of the\n  %d-unit grid a block "
                      "occupies, replicas included\n",
                 units);
    const size_t kernels = workloadRegistry().size();
    bool ok = isExactly(out, "Table 2 kernels", kernels, 21);
    ok = isExactly(out, "Table 2 applications", apps.size(), 12) && ok;
    ok = isExactly(out, "SGMF-mappable kernels (Figure 8)", mappable, 11) && ok;
    return everyKernel(out, "replicas <= max block replication", over,
                       kernels) && ok;
}

/**
 * Two VGIW features against the suite's default configuration, by the
 * cycles each saves. Replication (Section 3.1) multiplies a small
 * block's injection rate. The idealised inter-thread coalescer (Section
 * 5's future work) gains little: the LDST reservation buffers'
 * same-line merge window already captures unit-stride locality. A
 * kernel that coalescing slows is printed, not hidden.
 */
inline bool
renderFeatureAblations(std::FILE *out, const PaperResults &r)
{
    printHeader("Ablations: block replication and inter-thread memory "
                "coalescing",
                "Section 3.1 design choice, Section 5 future work", out);
    std::fprintf(out, "  %-28s %10s %10s %6s %10s %6s %9s\n", "kernel",
                 "replicated", "1 replica", "gain", "coalesced", "gain",
                 "vs Fermi");
    const auto one = labelled(r, "no-replication");
    const auto coal = labelled(r, "coalescing");
    std::vector<double> repl_gains, coal_gains;
    std::vector<std::string> faster, slower;
    for (size_t k = 0; k < r.suite.size(); ++k) {
        const ArchComparison &c = r.suite[k];
        const uint64_t base = c.vgiw.cycles, b = one.at(k)->cycles,
                       co = coal.at(k)->cycles;
        repl_gains.push_back(double(b) / double(base));
        coal_gains.push_back(double(base) / double(co));
        std::fprintf(out,
                     "  %-28s %10llu %10llu %5.2fx %10llu %5.2fx %8.2fx\n",
                     c.workload.c_str(), (unsigned long long)base,
                     (unsigned long long)b, repl_gains.back(),
                     (unsigned long long)co, coal_gains.back(),
                     double(c.fermi.cycles) / double(co));
        if (b < base)
            faster.push_back(c.workload + ": faster with 1 replica");
        if (co > base)
            slower.push_back(c.workload + " " + std::to_string(base) +
                             " -> " + std::to_string(co) + " cycles");
    }
    printRule(out);
    for (const std::string &k : slower)
        std::fprintf(out, "  slower coalesced: %s\n", k.c_str());
    bool ok = everyKernel(out, "replication never slows a kernel", faster,
                          r.suite.size());
    ok = inBand(out, "replication mean gain", mean(repl_gains), 2.2, 3.3) &&
         ok;
    return inBand(out, "coalescing mean gain", mean(coal_gains), 1.0, 1.15) &&
           ok;
}

/**
 * Section 3.2's tiling: the CVT capacity sets the tile. Two opposing
 * forces: bigger tiles amortise reconfiguration, but inflate the
 * in-flight working set past the L1, so some kernel's DRAM traffic
 * rises. The CVT size is a locality knob, not just a capacity limit.
 */
inline bool
renderTileSweep(std::FILE *out, const PaperResults &r)
{
    printHeader("Ablation: CVT capacity / thread-tile size",
                "Section 3.2 tiling formula", out);
    const auto pts = labelled(r, "cvt");
    const size_t n = std::size(kCvtBits);
    std::vector<std::string> rising;
    for (size_t k = 0; k < std::size(kTileKernels); ++k) {
        const WorkloadInstance w = makeWorkload(kTileKernels[k]);
        std::fprintf(out, "\n  %s (%d blocks, %d threads)\n", kTileKernels[k],
                     w.kernel.numBlocks(), w.launch.numThreads());
        std::fprintf(out, "    %12s %8s %10s %10s %8s %9s %10s\n", "CVT bits",
                     "tile", "cycles", "reconfigs", "cfg ovh", "L1 miss",
                     "DRAM ln");
        for (size_t c = 0; c < n; ++c) {
            VgiwConfig cfg = r.config.vgiw;
            cfg.cvtCapacityBits = kCvtBits[c];
            const RunStats &rs = *pts.at(k * n + c);
            std::fprintf(out,
                         "    %12u %8d %10llu %10llu %7.2f%% %8.1f%% %10llu\n",
                         kCvtBits[c],
                         VgiwCore(cfg).tileSizeFor(w.kernel, w.launch),
                         (unsigned long long)rs.cycles,
                         (unsigned long long)rs.reconfigs,
                         100.0 * rs.configOverheadFraction(),
                         100.0 * rs.l1Stats.missRate(),
                         (unsigned long long)rs.dramStats.accesses);
        }
        const uint64_t first = pts.at(k * n)->dramStats.accesses;
        const uint64_t last = pts.at(k * n + n - 1)->dramStats.accesses;
        if (last > first)
            rising.push_back(std::string(kTileKernels[k]) + " " +
                             std::to_string(first) + " -> " +
                             std::to_string(last));
    }
    printRule(out);
    bool ok = neverRises(out, kTileKernels, pts, n, "reconfigs", "CVT bits",
                         [](const RunStats &s) { return double(s.reconfigs); });
    ok = neverRises(out, kTileKernels, pts, n, "cfg ovh", "CVT bits",
                    [](const RunStats &s) {
                        return s.configOverheadFraction();
                    }) && ok;
    for (const std::string &k : rising)
        std::fprintf(out, "  DRAM lines rise: %s\n", k.c_str());
    std::fprintf(out, "  DRAM lines rise with CVT bits / measured on %zu of "
                      "%zu kernels / band at least one %s\n",
                 rising.size(), std::size(kTileKernels),
                 rising.empty() ? "OUT" : "ok");
    return !rising.empty() && ok;
}

/**
 * Section 3.4's LVC size, which the paper omits "for brevity": miss
 * rate and L2 spills must never rise with capacity. Where they
 * flatten is not checked: the LVC's set conflicts (ROADMAP item 2)
 * hold CFD/compute_flux's spills level from 1 to 16 KB.
 */
inline bool
renderLvcSweep(std::FILE *out, const PaperResults &r)
{
    printHeader("Ablation: LVC capacity sweep", "Section 3.4 (LVC size)", out);
    const auto pts = labelled(r, "lvc");
    const size_t n = std::size(kLvcBytes);
    for (size_t k = 0; k < std::size(kLvcKernels); ++k) {
        std::fprintf(out, "\n  %s\n    %10s %12s %12s %12s\n", kLvcKernels[k],
                     "LVC size", "cycles", "miss rate", "L2 spills");
        for (size_t s = 0; s < n; ++s) {
            const RunStats &rs = *pts.at(k * n + s);
            std::fprintf(out, "    %8uKB %12llu %11.1f%% %12llu\n",
                         kLvcBytes[s] / 1024, (unsigned long long)rs.cycles,
                         100.0 * rs.lvcStats.missRate(),
                         (unsigned long long)rs.lvcStats.writebacks);
        }
    }
    printRule(out);
    const bool ok = neverRises(out, kLvcKernels, pts, n, "miss rate",
                               "LVC size", [](const RunStats &s) {
                                   return s.lvcStats.missRate();
                               });
    return neverRises(out, kLvcKernels, pts, n, "L2 spills", "LVC size",
                      [](const RunStats &s) {
                          return double(s.lvcStats.writebacks);
                      }) && ok;
}

/**
 * The Figure 1 argument measured on the 4-arm switch kernel: as more
 * threads leave the common path, VGIW's cycles stay flat (coalescing)
 * and Fermi's grow (serialised arms under masks).
 */
inline bool
renderDivergenceSweep(std::FILE *out, const PaperResults &r)
{
    printHeader("Ablation: divergence sweep on a 4-arm switch kernel",
                "the Figure 1 argument, quantitative", out);
    std::fprintf(out, "  %10s %12s %12s %12s %14s\n", "divergent", "VGIW cyc",
                 "Fermi cyc", "SGMF cyc", "VGIW/Fermi");
    const auto pts = labelled(r, "divergence");  // vgiw, fermi, sgmf
    const size_t last = 3 * (std::size(kDivergencePcts) - 1);
    uint64_t vgiw_min = UINT64_MAX, vgiw_max = 0;
    for (size_t p = 0; p <= last; p += 3) {
        const RunStats &v = *pts.at(p), &f = *pts.at(p + 1),
                       &s = *pts.at(p + 2);
        std::fprintf(out, "  %9d%% %12llu %12llu %12llu %13.2fx\n",
                     kDivergencePcts[p / 3], (unsigned long long)v.cycles,
                     (unsigned long long)f.cycles,
                     (unsigned long long)(s.supported ? s.cycles : 0),
                     double(f.cycles) / double(v.cycles));
        vgiw_min = std::min(vgiw_min, v.cycles);
        vgiw_max = std::max(vgiw_max, v.cycles);
    }
    printRule(out);
    const bool flat = inBand(out, "VGIW max/min cycles",
                             double(vgiw_max) / double(vgiw_min), 1.0, 1.15);
    return inBand(out, "Fermi 100%/0% cycles",
                  double(pts.at(last + 1)->cycles) / double(pts.at(1)->cycles),
                  1.4, HUGE_VAL) && flat;
}

/**
 * Every figure compares the architectures on the same traces, so each
 * one that runs a kernel must report VGIW's block executions and
 * thread ops, and all but Fermi (coalesced transactions) its L1 word
 * accesses. An OUT line names the kernel and the field.
 */
inline bool
renderEqualWork(std::FILE *out, const std::vector<ArchComparison> &suite)
{
    printHeader("Equal work on every architecture",
                "the footing of Figures 3 and 7-11", out);
    std::vector<std::string> failed;
    for (const ArchComparison &c : suite) {
        const std::pair<std::string, const RunStats *> archs[] = {
            {"fermi", &c.fermi}, {"sgmf", &c.sgmf}, {"dice", &c.dice}};
        for (const auto &[arch, s] : archs) {
            const char *field =
                s->dynBlockExecs != c.vgiw.dynBlockExecs ? "dyn_block_execs"
                : s->dynThreadOps != c.vgiw.dynThreadOps ? "dyn_thread_ops"
                : arch != "fermi" &&
                        s->l1Stats.accesses() != c.vgiw.l1Stats.accesses()
                    ? "l1_accesses"
                    : nullptr;
            if (s->supported && field) {
                failed.push_back(c.workload + ": " + field + " differs on " +
                                 arch + " and vgiw");
                break;
            }
        }
    }
    return everyKernel(out, "equal work across architectures", failed,
                       suite.size());
}

/**
 * Render every table, figure and ablation and return the exit code: 0,
 * or 1 if a job failed or a check is OUT. A failed job holds default
 * RunStats (cycles 0) that would average in as zeros, so it is reported
 * and nothing is rendered.
 */
inline int
renderPaperFigures(std::FILE *out, const PaperResults &r)
{
    bool failed = false;
    for (const auto &c : r.suite) {
        if (!c.goldenPassed) {
            std::fprintf(out, "FAILED %s: %s\n", c.workload.c_str(),
                         c.goldenError.c_str());
            failed = true;
        }
    }
    for (const JobResult &j : r.ablations) {
        if (!j.ok()) {
            std::fprintf(out, "FAILED %s %s %s: %s\n", j.workload.c_str(),
                         j.arch.c_str(), j.configLabel.c_str(),
                         j.error.c_str());
            failed = true;
        }
    }
    if (failed)
        return 1;

    bool ok = renderTable1(out, r.config);
    ok = renderTable2(out, r.config) && ok;
    for (const BarFigure &fig : kBarFigures)
        ok = renderBarFigure(out, fig, r.suite) && ok;
    ok = renderEnergyLevels(out, r.suite) && ok;
    ok = renderConfigOverhead(out, r.suite) && ok;
    ok = renderDivergenceInventory(out, r.suite) && ok;
    ok = renderFeatureAblations(out, r) && ok;
    ok = renderTileSweep(out, r) && ok;
    ok = renderLvcSweep(out, r) && ok;
    ok = renderDivergenceSweep(out, r) && ok;
    ok = renderEqualWork(out, r.suite) && ok;
    return ok ? 0 : 1;
}

} // namespace vgiw::bench

#endif // VGIW_BENCH_PAPER_FIGURES_HH
