/**
 * @file
 * The paper's evaluation rendered from one suite sweep: Figures 3 and
 * 7-11, the Section 3.2 reconfiguration statistic and the Figure 1b/1d
 * divergence inventory, all computed from the same
 * std::vector<ArchComparison>. The five bar figures are rows of one
 * table that holds each figure's paper claim beside a band on its
 * measured arithmetic mean; Figure 10's core > die > system shape is
 * checked on every kernel. Header-only so that the unit tests render
 * synthetic comparisons through the same code.
 */

#ifndef VGIW_BENCH_PAPER_FIGURES_HH
#define VGIW_BENCH_PAPER_FIGURES_HH

#include <algorithm>
#include <cmath>

#include "bench_util.hh"

namespace vgiw::bench
{

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
            inverted.push_back(c.workload);
    }
    printRule(out);
    std::fprintf(out, "  %-28s %8.2fx %8.2fx %8.2fx\n", "AVERAGE (arith)",
                 mean(core_r), mean(die_r), mean(sys_r));
    for (const std::string &w : inverted)
        std::fprintf(out, "  OUT %s: not core > die > system\n", w.c_str());
    std::fprintf(out,
                 "  paper core > die > system / measured on %zu of %zu "
                 "kernels / band every kernel %s\n",
                 results.size() - inverted.size(), results.size(),
                 inverted.empty() ? "ok" : "OUT");
    return inverted.empty();
}

/** Section 3.2: per-kernel reconfigurations and their share of VGIW
 * runtime. */
inline void
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
}

/**
 * Figures 1b/1d quantified: the Fermi SM's SIMD lane occupancy against
 * the average VGIW block-vector size. Low occupancy with large vectors
 * is the regime control-flow coalescing targets.
 */
inline void
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
}

/**
 * Render every figure from one suite comparison and return the exit
 * code: 0, or 1 if a comparison failed or a figure left its band. A
 * failed comparison holds default RunStats (cycles 0) that would
 * average in as zeros, so it is reported and nothing is rendered.
 */
inline int
renderPaperFigures(std::FILE *out, const std::vector<ArchComparison> &results)
{
    bool failed = false;
    for (const auto &c : results) {
        if (!c.goldenPassed) {
            std::fprintf(out, "FAILED %s: %s\n", c.workload.c_str(),
                         c.goldenError.c_str());
            failed = true;
        }
    }
    if (failed)
        return 1;

    bool ok = true;
    for (const BarFigure &fig : kBarFigures)
        ok = renderBarFigure(out, fig, results) && ok;
    ok = renderEnergyLevels(out, results) && ok;
    renderConfigOverhead(out, results);
    renderDivergenceInventory(out, results);
    return ok ? 0 : 1;
}

} // namespace vgiw::bench

#endif // VGIW_BENCH_PAPER_FIGURES_HH
