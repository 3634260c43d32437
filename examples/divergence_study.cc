/**
 * @file
 * Divergence study: the Figure 1 argument as an experiment. A kernel
 * whose threads scatter across four branch arms is swept from fully
 * uniform to fully divergent control flow; the example prints how each
 * architecture's runtime and energy respond.
 *
 *  - Fermi serialises the taken arms under execution masks, so its
 *    runtime grows with the number of arms exercised;
 *  - SGMF maps all arms spatially, so its runtime is flat but every
 *    injection burns the whole graph's energy;
 *  - VGIW coalesces each arm's threads into one block vector: flat
 *    runtime AND energy proportional to the work actually done.
 *
 * The kernel and its inputs are bench::buildSwitchKernel and
 * bench::divergenceWorkload, the divergence sweep that paper_figures
 * checks.
 *
 * Run:  ./build/examples/example_divergence_study
 */

#include <cstdio>

#include "interp/interpreter.hh"
#include "paper_figures.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

using namespace vgiw;

int
main()
{
    std::printf("Control-divergence study (the Figure 1 argument)\n");
    std::printf("================================================\n\n");

    const Kernel k = bench::buildSwitchKernel();

    std::printf("%9s | %21s | %21s | %21s\n", "",
                "VGIW", "Fermi SIMT", "SGMF");
    std::printf("%9s | %9s %11s | %9s %11s | %9s %11s\n", "divergent",
                "cycles", "core pJ", "cycles", "core pJ", "cycles",
                "core pJ");

    for (int pct : bench::kDivergencePcts) {
        WorkloadInstance w = bench::divergenceWorkload(k, pct);
        TraceSet traces = Interpreter{}.run(w.kernel, w.launch, w.memory);

        RunStats v = VgiwCore{}.run(traces);
        RunStats f = FermiCore{}.run(traces);
        RunStats s = SgmfCore{}.run(traces);
        std::printf("%8d%% | %9llu %11.0f | %9llu %11.0f | %9llu "
                    "%11.0f\n",
                    pct, (unsigned long long)v.cycles,
                    v.energy.corePj(), (unsigned long long)f.cycles,
                    f.energy.corePj(),
                    (unsigned long long)(s.supported ? s.cycles : 0),
                    s.supported ? s.energy.corePj() : 0.0);
    }

    std::printf("\nReading the table: VGIW stays flat in both columns "
                "(control flow\ncoalescing); Fermi's cycles grow with "
                "divergence (masked serial arms);\nSGMF's cycles stay "
                "flat but its energy never drops below the whole-graph\n"
                "cost, uniform or not.\n");
    return 0;
}
