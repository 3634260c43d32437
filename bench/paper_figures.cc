/**
 * @file
 * Every table, figure and ablation (see paper_figures.hh) from one
 * engine: the suite comparison, then the ablation jobs replayed from
 * the same trace cache. Takes no arguments; exits 1 if a job failed or
 * a check is OUT.
 */

#include "paper_figures.hh"

int
main()
{
    using namespace vgiw;

    std::vector<std::string> names;
    for (const auto &entry : workloadRegistry())
        names.push_back(entry.name);
    const Kernel switch_kernel = bench::buildSwitchKernel();
    ExperimentEngine engine;
    bench::PaperResults r;
    r.suite = engine.compare(names, r.config);
    r.ablations = engine.run(bench::ablationJobs(r.config, switch_kernel));
    return bench::renderPaperFigures(stdout, r);
}
