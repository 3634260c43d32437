/**
 * @file
 * Multi-kernel host program: a full LU-decomposition step as a real
 * application would run it — three dependent kernel launches (diagonal,
 * perimeter, internal) sharing one memory image, with the VGIW core
 * timed per launch. This mirrors how the Rodinia host code drives the
 * LUD kernels, and shows the library's multi-launch usage pattern.
 *
 * Run:  ./build/examples/example_lud_pipeline
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "driver/trace_cache.hh"
#include "vgiw/vgiw_core.hh"
#include "workloads/workload.hh"

using namespace vgiw;

int
main()
{
    std::printf("LU decomposition: a three-kernel pipeline on VGIW\n");
    std::printf("=================================================\n\n");

    // The packaged workloads already chain the pipeline stages: each
    // instance's memory starts from the previous stages' (natively
    // computed) output. Here we run the three kernels back to back and
    // aggregate their VGIW statistics like a host program would.
    const char *stages[] = {"LUD/lud_diagonal", "LUD/lud_perimeter",
                            "LUD/lud_internal"};

    uint64_t total_cycles = 0, total_reconfigs = 0;
    EnergyAccount total_energy;
    std::printf("  %-22s %9s %10s %10s %9s\n", "kernel launch", "threads",
                "cycles", "reconfigs", "L1 miss");
    for (const char *stage : stages) {
        WorkloadInstance w = makeWorkload(stage);
        TraceResult traced = traceWorkload(w);
        if (!traced.ok()) {
            std::printf("golden check failed for %s: %s\n", stage,
                        traced.error.c_str());
            return 1;
        }
        RunStats rs = VgiwCore{}.run(*traced.traces);
        std::printf("  %-22s %9d %10llu %10llu %8.1f%%\n",
                    w.kernel.name.c_str(), w.launch.numThreads(),
                    (unsigned long long)rs.cycles,
                    (unsigned long long)rs.reconfigs,
                    100.0 * rs.l1Stats.missRate());
        total_cycles += rs.cycles;
        total_reconfigs += rs.reconfigs;
        total_energy.merge(rs.energy);
    }

    std::printf("\nPipeline totals: %llu cycles, %llu reconfigurations, "
                "%.1f nJ system energy\n",
                (unsigned long long)total_cycles,
                (unsigned long long)total_reconfigs,
                total_energy.systemPj() / 1000.0);
    std::printf("\nNote the per-launch pattern: the BBS reloads each "
                "kernel's block sequence\nand the MT-CGRF is reconfigured "
                "per scheduled block — the host only ever\nsupplies the "
                "kernel and its launch geometry, exactly as with CUDA.\n");
    return 0;
}
