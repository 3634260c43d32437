/**
 * @file
 * Tests for the paper-figure renderer: synthetic results inside every
 * band render with exit 0, and a failed job, a bar or ablation mean
 * outside its band, a Figure 10 inversion, a sweep quantity that rises,
 * a Table 1 value off its exact figure and unequal work across
 * architectures each give exit 1 with a line that names the row.
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
render(const bench::PaperResults &results)
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
    c.vgiw.configCycles = 6;  // Section 3.2: 6% overhead
    c.fermi.cycles = 226;  // Fig. 7: 2.26x
    c.sgmf.cycles = 112;   // Fig. 8: 1.12x
    c.fermi.rfAccesses = 1000;
    c.vgiw.lvcStats.readHits = 2144;  // Fig. 3: 2144 / (32 * 1000) = 0.067
    c.fermi.extra.add("fermi.lane_occupancy", 0.83);
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

/** Every registry kernel in band, and every ablation job: replication
 * 2.74x, coalescing 1.05x, flat sweeps whose DRAM lines rise, and a
 * divergence sweep where Fermi grows 1.63x and VGIW stays flat. */
bench::PaperResults
inBandResults()
{
    bench::PaperResults r;
    for (const auto &entry : workloadRegistry())
        r.suite.push_back(inBand(entry.name));
    static const Kernel switch_kernel = bench::buildSwitchKernel();
    for (const ExperimentJob &job :
         bench::ablationJobs(r.config, switch_kernel)) {
        JobResult &j = r.ablations.emplace_back();
        j.workload = job.workload;
        j.arch = job.arch;
        j.configLabel = job.configLabel;
        j.ran = true;
        j.stats.cycles = 100;
        j.stats.dramStats.accesses = r.ablations.size();
        if (job.configLabel == "no-replication")
            j.stats.cycles = 274;
        else if (job.configLabel == "coalescing")
            j.stats.cycles = 95;
        else if (job.arch == "fermi" &&
                 job.workload != "SYNTH/divergence_0pct")
            j.stats.cycles = 163;
    }
    return r;
}

TEST(PaperFigures, ResultsInsideEveryBandExitZero)
{
    const Rendered r = render(inBandResults());
    EXPECT_EQ(r.exitCode, 0) << r.text;
    // Five bar figures, Fig. 10, Section 3.2, Figs. 1b/1d, Table 2's
    // replica cap, replication (two checks), coalescing, the CVT sweep
    // (three), the LVC sweep (two), the divergence sweep (two) and equal
    // work: 20 bands. Tables 1 and 2 hold six exact checks.
    EXPECT_EQ(count(r.text, "/ band "), 20u) << r.text;
    EXPECT_EQ(count(r.text, "/ exact "), 6u) << r.text;
    EXPECT_EQ(count(r.text, " ok\n"), 26u) << r.text;
    EXPECT_EQ(count(r.text, "OUT"), 0u) << r.text;
    EXPECT_NE(r.text.find("measured 2.26x / band [1.80, 2.80] ok"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("replication mean gain / measured 2.74x / band "
                          "[2.20, 3.30] ok"),
              std::string::npos)
        << r.text;
}

TEST(PaperFigures, FailedJobsExitOneAndNameWorkload)
{
    bench::PaperResults results = inBandResults();
    results.suite[1] = ArchComparison{};
    results.suite[1].workload = "BFS/Kernel2";
    results.suite[1].goldenError = "golden mismatch at out[3]";
    results.ablations[5].error = "watchdog";  // KMEANS coalescing
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("FAILED BFS/Kernel2: golden mismatch at out[3]"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("FAILED KMEANS/invert_mapping vgiw coalescing: "
                          "watchdog"),
              std::string::npos)
        << r.text;
    // Nothing is averaged over the failed kernel's zero cycles.
    EXPECT_EQ(r.text.find("AVERAGE"), std::string::npos) << r.text;
}

TEST(PaperFigures, BarMeanOutsideBandIsOut)
{
    bench::PaperResults results = inBandResults();
    for (auto &c : results.suite)
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
    bench::PaperResults results = inBandResults();
    // Move 40 pJ of Fermi's core energy into its L1: core 3x < die 5x.
    ArchComparison &c = results.suite[2];
    c.fermi.energy = EnergyAccount{};
    c.fermi.energy.add(EnergyComponent::Datapath, 30);
    c.fermi.energy.add(EnergyComponent::L1, 70);
    c.fermi.energy.add(EnergyComponent::Dram, 100);
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("OUT KMEANS/invert_mapping: not core > die > "
                          "system"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("measured on 20 of 21 kernels / band every "
                          "kernel OUT"),
              std::string::npos)
        << r.text;
    // Every other check is unaffected.
    EXPECT_EQ(count(r.text, " ok\n"), 25u) << r.text;
}

TEST(PaperFigures, AblationMeanOutsideBandIsOut)
{
    bench::PaperResults results = inBandResults();
    for (JobResult &j : results.ablations)
        if (j.configLabel == "no-replication")
            j.stats.cycles = 100;  // no gain, below [2.2, 3.3]
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("replication mean gain / measured 1.00x / band "
                          "[2.20, 3.30] OUT"),
              std::string::npos)
        << r.text;
    EXPECT_EQ(count(r.text, "OUT"), 1u) << r.text;
}

TEST(PaperFigures, SweepQuantityThatRisesIsOutAndNamesKernel)
{
    bench::PaperResults results = inBandResults();
    // NN/euclid's reconfigs rise at its third CVT point.
    int point = 0;
    for (JobResult &j : results.ablations)
        if (j.configLabel == "cvt" && j.workload == "NN/euclid")
            j.stats.reconfigs = point++ == 2 ? 5 : 1;
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("OUT NN/euclid: reconfigs goes up with CVT bits"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("reconfigs non-increasing in CVT bits / measured "
                          "on 3 of 4 kernels / band every kernel OUT"),
              std::string::npos)
        << r.text;
}

TEST(PaperFigures, Table1ValueOffItsExactFigureIsOut)
{
    bench::PaperResults results = inBandResults();
    results.config.vgiw.maxReplicas = 9;
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("max block replication (16 CVUs / 2 per replica) "
                          "/ measured 9 / exact 8 OUT"),
              std::string::npos)
        << r.text;
    EXPECT_EQ(count(r.text, "OUT"), 1u) << r.text;
}

TEST(PaperFigures, UnequalWorkIsOutAndNamesKernelAndField)
{
    bench::PaperResults results = inBandResults();
    results.suite[1].dice.dynThreadOps = 7;
    results.suite[3].sgmf.l1Stats.readHits = 7;
    // An SGMF that cannot map the kernel does not count.
    results.suite[4].sgmf.supported = false;
    results.suite[4].sgmf.dynBlockExecs = 7;
    const Rendered r = render(results);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.text.find("OUT BFS/Kernel2: dyn_thread_ops differs on dice "
                          "and vgiw"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("OUT CFD/compute_step_factor: l1_accesses differs "
                          "on sgmf and vgiw"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("equal work across architectures / measured on 19 "
                          "of 21 kernels / band every kernel OUT"),
              std::string::npos)
        << r.text;
}

} // namespace
} // namespace vgiw
