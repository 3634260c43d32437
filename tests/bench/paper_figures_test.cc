/**
 * @file
 * Tests for the paper-figure renderer: synthetic comparisons inside
 * every band render with exit 0, and a failed comparison, a bar mean
 * outside its band and a Figure 10 inversion each give exit 1 with a
 * line that names the workload or the figure.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "paper_figures.hh"

namespace vgiw
{
namespace
{

struct Rendered
{
    int exitCode;
    std::string text;
};

Rendered
render(const std::vector<ArchComparison> &results)
{
    char *buf = nullptr;
    size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    const int code = bench::renderPaperFigures(out, results);
    std::fclose(out);
    Rendered r{code, std::string(buf, len)};
    std::free(buf);
    return r;
}

size_t
count(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1))
        ++n;
    return n;
}

/** A kernel whose every figure sits inside its band. */
ArchComparison
inBand(const std::string &workload)
{
    ArchComparison c;
    c.workload = workload;
    c.goldenPassed = true;
    c.vgiw.cycles = 100;
    c.fermi.cycles = 226;  // Fig. 7: 2.26x
    c.sgmf.cycles = 112;   // Fig. 8: 1.12x
    c.fermi.rfAccesses = 1000;
    c.vgiw.lvcAccesses = 2144;  // Fig. 3: 2144 / (32 * 1000) = 0.067
    // VGIW core/die/system 10/20/100 pJ against Fermi's 70/100/200:
    // Fig. 10 core 7x > die 5x > system 2x, Fig. 9 2x. SGMF's 100 pJ
    // system energy gives Fig. 11 1x.
    c.vgiw.energy.add(EnergyComponent::Datapath, 10);
    c.vgiw.energy.add(EnergyComponent::L1, 10);
    c.vgiw.energy.add(EnergyComponent::Dram, 80);
    c.fermi.energy.add(EnergyComponent::Datapath, 70);
    c.fermi.energy.add(EnergyComponent::L1, 30);
    c.fermi.energy.add(EnergyComponent::Dram, 100);
    c.sgmf.energy.add(EnergyComponent::Dram, 100);
    return c;
}

std::vector<ArchComparison>
inBandSuite()
{
    return {inBand("A/one"), inBand("B/two"), inBand("C/three")};
}

TEST(PaperFigures, SuiteInsideEveryBandExitsZero)
{
    const Rendered r = render(inBandSuite());
    EXPECT_EQ(r.exitCode, 0) << r.text;
    // Five bar figures and Fig. 10, each with one verdict line.
    EXPECT_EQ(count(r.text, "/ band "), 6u) << r.text;
    EXPECT_EQ(count(r.text, " ok\n"), 6u) << r.text;
    EXPECT_EQ(count(r.text, "OUT"), 0u) << r.text;
    EXPECT_NE(r.text.find("measured 2.26x / band [1.80, 2.80] ok"),
              std::string::npos)
        << r.text;
}

TEST(PaperFigures, FailedComparisonExitsOneAndNamesWorkload)
{
    std::vector<ArchComparison> results = inBandSuite();
    results[1] = ArchComparison{};
    results[1].workload = "B/two";
    results[1].goldenError = "golden mismatch at out[3]";
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("FAILED B/two: golden mismatch at out[3]"),
              std::string::npos)
        << r.text;
    // Nothing is averaged over the failed kernel's zero cycles.
    EXPECT_EQ(r.text.find("AVERAGE"), std::string::npos) << r.text;
}

TEST(PaperFigures, BarMeanOutsideBandIsOut)
{
    std::vector<ArchComparison> results = inBandSuite();
    for (auto &c : results)
        c.fermi.cycles = 500;  // Fig. 7: 5x, above [1.8, 2.8]
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("measured 5.00x / band [1.80, 2.80] OUT"),
              std::string::npos)
        << r.text;
    EXPECT_EQ(count(r.text, "OUT"), 1u) << r.text;
}

TEST(PaperFigures, Fig10InversionIsOutAndNamesKernel)
{
    std::vector<ArchComparison> results = inBandSuite();
    // Move 40 pJ of Fermi's core energy into its L1: core 3x < die 5x.
    ArchComparison &c = results[2];
    c.fermi.energy = EnergyAccount{};
    c.fermi.energy.add(EnergyComponent::Datapath, 30);
    c.fermi.energy.add(EnergyComponent::L1, 70);
    c.fermi.energy.add(EnergyComponent::Dram, 100);
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("OUT C/three: not core > die > system"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("measured on 2 of 3 kernels / band every "
                          "kernel OUT"),
              std::string::npos)
        << r.text;
    // The bar figures are unaffected.
    EXPECT_EQ(count(r.text, " ok\n"), 5u) << r.text;
}

} // namespace
} // namespace vgiw
