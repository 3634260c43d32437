/**
 * @file
 * Ablation: thread-tile size (Section 3.2). The CVT capacity bounds how
 * many threads can be in flight; smaller tiles mean more reconfiguration
 * rounds and less coalescing per block vector.
 */

#include "bench_util.hh"

int
main()
{
    using namespace vgiw;
    using namespace vgiw::bench;

    printHeader("Ablation: CVT capacity / thread-tile size",
                "Section 3.2 tiling formula");

    const char *kernels[] = {"BFS/Kernel", "HOTSPOT/hotspot_kernel",
                             "NN/euclid", "LUD/lud_diagonal"};
    const uint32_t capacities[] = {4096, 16384, 65536, 262144};

    // One job per (kernel, CVT capacity), sharded over the engine; the
    // shared trace cache functionally executes each kernel only once.
    std::vector<ExperimentJob> jobs;
    for (const char *name : kernels) {
        for (uint32_t cap : capacities) {
            ExperimentJob job;
            job.workload = name;
            job.configLabel = "cvt=" + std::to_string(cap);
            job.config.vgiw.cvtCapacityBits = cap;
            jobs.push_back(std::move(job));
        }
    }
    ExperimentEngine engine;
    auto results = engine.run(jobs);
    if (!allJobsOk(results))
        return 1;

    const size_t n_caps = std::size(capacities);
    for (size_t k = 0; k < std::size(kernels); ++k) {
        WorkloadInstance w = makeWorkload(kernels[k]);
        std::printf("\n  %s (%d blocks, %d threads)\n", kernels[k],
                    w.kernel.numBlocks(), w.launch.numThreads());
        std::printf("    %12s %8s %10s %10s %8s %9s %10s\n", "CVT bits",
                    "tile", "cycles", "reconfigs", "cfg ovh", "L1 miss",
                    "DRAM ln");
        for (size_t c = 0; c < n_caps; ++c) {
            VgiwConfig cfg;
            cfg.cvtCapacityBits = capacities[c];
            const RunStats &rs = results[k * n_caps + c].stats;
            std::printf("    %12u %8d %10llu %10llu %7.2f%% %8.1f%% "
                        "%10llu\n",
                        capacities[c],
                        VgiwCore(cfg).tileSizeFor(w.kernel, w.launch),
                        (unsigned long long)rs.cycles,
                        (unsigned long long)rs.reconfigs,
                        100.0 * rs.configOverheadFraction(),
                        100.0 * rs.l1Stats.missRate(),
                        (unsigned long long)rs.dramStats.accesses);
        }
    }
    std::printf("\n  Two opposing forces: bigger tiles amortise "
                "reconfiguration (cfg ovh\n  falls) but inflate the "
                "in-flight working set past the L1 (miss rate and\n  "
                "DRAM traffic rise — see lud_diagonal). The CVT size is "
                "a locality knob,\n  not just a capacity limit.\n");
    return 0;
}
