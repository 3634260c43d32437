/**
 * @file
 * Shared harness utilities for the bench binaries: a section header
 * and the arithmetic mean.
 */

#ifndef VGIW_BENCH_BENCH_UTIL_HH
#define VGIW_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

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

} // namespace vgiw::bench

#endif // VGIW_BENCH_BENCH_UTIL_HH
