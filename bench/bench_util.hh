/**
 * @file
 * Shared harness utilities for the per-figure bench binaries: run the
 * whole Table 2 suite through the three core models, and print
 * paper-style rows (one bar per kernel plus the average).
 */

#ifndef VGIW_BENCH_BENCH_UTIL_HH
#define VGIW_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/experiment_engine.hh"
#include "workloads/workload.hh"

namespace vgiw::bench
{

/**
 * Run every Table 2 kernel on every architecture through
 * ExperimentEngine::compare. The sweep is sharded over the engine's
 * worker pool (hardware concurrency); results come back in registry
 * order and are bit-identical to a serial run.
 */
inline std::vector<ArchComparison>
runSuite(const SystemConfig &cfg = {})
{
    std::vector<std::string> names;
    for (const auto &entry : workloadRegistry())
        names.push_back(entry.name);
    return ExperimentEngine{}.compare(names, cfg);
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

/** Print one paper-style bar row: name, value, ASCII bar. */
inline void
printBar(const std::string &name, double value, double full_scale,
         const char *unit = "x")
{
    const int width = 40;
    int n = int(value / full_scale * width + 0.5);
    if (n > width)
        n = width;
    if (n < 0)
        n = 0;
    std::printf("  %-28s %7.2f%-2s |%.*s%*s|\n", name.c_str(), value,
                unit, n,
                "########################################", width - n, "");
}

inline void
printHeader(const char *title, const char *paper_ref)
{
    std::printf("\n%s\n", title);
    std::printf("(reproduces %s)\n", paper_ref);
    std::printf("%s\n", std::string(76, '-').c_str());
}

} // namespace vgiw::bench

#endif // VGIW_BENCH_BENCH_UTIL_HH
