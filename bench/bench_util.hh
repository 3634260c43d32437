/**
 * @file
 * Shared harness utilities for the bench binaries: a section header,
 * the arithmetic mean, and the failure check every engine sweep runs
 * before it reads a single RunStats.
 */

#ifndef VGIW_BENCH_BENCH_UTIL_HH
#define VGIW_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "driver/experiment_engine.hh"
#include "workloads/workload.hh"

namespace vgiw::bench
{

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double s = 0.0;
    for (double v : vals)
        s += v;
    return s / double(vals.size());
}

inline void
printRule(std::FILE *out = stdout)
{
    std::fprintf(out, "%s\n", std::string(76, '-').c_str());
}

inline void
printHeader(const char *title, const char *paper_ref,
            std::FILE *out = stdout)
{
    std::fprintf(out, "\n%s\n", title);
    std::fprintf(out, "(reproduces %s)\n", paper_ref);
    printRule(out);
}

/**
 * Print `FAILED <workload>: <error>` for every job that did not run
 * cleanly and return false if there was one. A failed job carries
 * default RunStats (cycles 0), so a table built from it would divide
 * by zero or average in a silent 0.
 */
inline bool
allJobsOk(const std::vector<JobResult> &results)
{
    bool ok = true;
    for (const JobResult &r : results) {
        if (!r.ok()) {
            std::printf("FAILED %s: %s\n", r.workload.c_str(),
                        r.error.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace vgiw::bench

#endif // VGIW_BENCH_BENCH_UTIL_HH
