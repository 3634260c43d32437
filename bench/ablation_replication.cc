/**
 * @file
 * Ablation: basic-block replication (Section 3.1/3.5). Replicating a
 * small block's dataflow graph multiplies injection throughput; this
 * harness disables it and reports the per-kernel slowdown.
 */

#include "bench_util.hh"

int
main()
{
    using namespace vgiw;
    using namespace vgiw::bench;

    printHeader("Ablation: block replication on the MT-CGRF",
                "Section 3.1 design choice");

    SystemConfig with;
    SystemConfig without;
    without.vgiw.enableReplication = false;

    // Two VGIW config points per kernel, one functional execution each
    // thanks to the engine's trace cache.
    std::vector<ExperimentJob> jobs;
    for (const auto &entry : workloadRegistry()) {
        for (const auto *cfg : {&with, &without}) {
            ExperimentJob job;
            job.workload = entry.name;
            job.configLabel =
                cfg == &with ? "replicated" : "no-replication";
            job.config = *cfg;
            jobs.push_back(std::move(job));
        }
    }
    ExperimentEngine engine;
    auto results = engine.run(jobs);
    if (!allJobsOk(results))
        return 1;

    std::vector<double> slowdowns;
    std::printf("  %-28s %12s %12s %9s\n", "kernel", "replicated",
                "1 replica", "speedup");
    for (size_t k = 0; k < workloadRegistry().size(); ++k) {
        const RunStats &a = results[2 * k].stats;
        const RunStats &b = results[2 * k + 1].stats;
        const double s = double(b.cycles) / double(a.cycles);
        std::printf("  %-28s %12llu %12llu %8.2fx\n",
                    workloadRegistry()[k].name.c_str(),
                    (unsigned long long)a.cycles,
                    (unsigned long long)b.cycles, s);
        slowdowns.push_back(s);
    }
    printRule();
    std::printf("  replication delivers %.2fx average throughput\n",
                mean(slowdowns));
    return 0;
}
