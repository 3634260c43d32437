/**
 * @file
 * Every paper figure from one suite sweep (see paper_figures.hh). Takes
 * no arguments; exits 1 if a comparison failed or a figure left its
 * band.
 */

#include "paper_figures.hh"

int
main()
{
    using namespace vgiw;

    std::vector<std::string> names;
    for (const auto &entry : workloadRegistry())
        names.push_back(entry.name);
    return bench::renderPaperFigures(stdout,
                                     ExperimentEngine{}.compare(names));
}
