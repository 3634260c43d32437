/**
 * @file
 * Experiment-engine tests: a parallel sweep must be bit-identical to a
 * serial one (same traces, same replays, deterministic result order), a
 * golden-failing workload must be skipped rather than abort the sweep,
 * and the JSON-lines emission must produce one well-formed object per
 * result. The multi-worker trace fetches must contain every failure a
 * functional execution can raise, charge their time to the job they
 * traced for, honour a stop request, and dispatch jobs longest-first,
 * each as soon as its own workload is traced. A stop request mid-sweep
 * finishes the in-flight job and drains the rest; SIGTERM sets it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <thread>

#include "common/signal_drain.hh"
#include "driver/experiment_engine.hh"
#include "driver/result_journal.hh"
#include "ir/builder.hh"
#include "power/energy_model.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

void
expectBitIdentical(const RunStats &a, const RunStats &b,
                   const std::string &what)
{
    EXPECT_EQ(a.arch, b.arch) << what;
    EXPECT_EQ(a.supported, b.supported) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.configCycles, b.configCycles) << what;
    EXPECT_EQ(a.reconfigs, b.reconfigs) << what;
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs) << what;
    EXPECT_EQ(a.dynThreadOps, b.dynThreadOps) << what;
    EXPECT_EQ(a.dynWarpInstrs, b.dynWarpInstrs) << what;
    EXPECT_EQ(a.rfAccesses, b.rfAccesses) << what;
    for (size_t c = 0; c < kNumEnergyComponents; ++c) {
        EXPECT_EQ(a.energy.get(EnergyComponent(c)),
                  b.energy.get(EnergyComponent(c)))
            << what << " energy component " << c;
    }
    for (const CacheStats RunStats::*m :
         {&RunStats::l1Stats, &RunStats::l2Stats, &RunStats::lvcStats}) {
        EXPECT_EQ((a.*m).readHits, (b.*m).readHits) << what;
        EXPECT_EQ((a.*m).readMisses, (b.*m).readMisses) << what;
        EXPECT_EQ((a.*m).writeHits, (b.*m).writeHits) << what;
        EXPECT_EQ((a.*m).writeMisses, (b.*m).writeMisses) << what;
        EXPECT_EQ((a.*m).fills, (b.*m).fills) << what;
        EXPECT_EQ((a.*m).writebacks, (b.*m).writebacks) << what;
        EXPECT_EQ((a.*m).writethroughs, (b.*m).writethroughs) << what;
    }
    EXPECT_EQ(a.dramStats.accesses, b.dramStats.accesses) << what;
    EXPECT_EQ(a.dramStats.rowHits, b.dramStats.rowHits) << what;
    EXPECT_EQ(a.dramStats.rowMisses, b.dramStats.rowMisses) << what;
    EXPECT_EQ(a.extra.entries(), b.extra.entries()) << what;
}

/** A registry-shaped entry whose golden check always fails. */
ExperimentJob
failingJob()
{
    ExperimentJob job;
    job.workload = "SYNTH/always_fails";
    job.arch = "vgiw";
    job.make = []() {
        WorkloadInstance w = makeWorkload("NN/euclid");
        w.suite = "SYNTH";
        w.check = [](const MemoryImage &, std::string &err) {
            err = "intentional mismatch";
            return false;
        };
        return w;
    };
    return job;
}

TEST(ExperimentEngine, ParallelRunIsBitIdenticalToSerial)
{
    // The acceptance criterion: N>=4 workers produce bit-identical
    // RunStats to the serial path across the full registry x all
    // architectures, in the same (submission) order.
    SystemConfig cfg;
    auto jobs = ExperimentEngine::suiteJobs(cfg);
    ASSERT_EQ(jobs.size(), workloadRegistry().size() * 4);

    ExperimentEngine serial{EngineOptions{1}};
    ExperimentEngine parallel{EngineOptions{4}};
    auto a = serial.run(jobs);
    auto b = parallel.run(jobs);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload) << i;
        EXPECT_EQ(a[i].arch, b[i].arch) << i;
        EXPECT_TRUE(a[i].ok()) << a[i].workload << ": " << a[i].error;
        EXPECT_TRUE(b[i].ok()) << b[i].workload << ": " << b[i].error;
        expectBitIdentical(a[i].stats, b[i].stats,
                           a[i].workload + "/" + a[i].arch);
    }
}

TEST(ExperimentEngine, GoldenFailureIsSkippedNotFatal)
{
    std::vector<ExperimentJob> jobs;
    jobs.push_back(failingJob());
    ExperimentJob good;
    good.workload = "NN/euclid";
    good.arch = "vgiw";
    jobs.push_back(good);

    std::atomic<int> failures{0};
    EngineOptions opts;
    opts.jobs = 2;
    opts.onResult = [&failures](size_t, const JobResult &r) {
        if (r.ok())
            return;
        ++failures;
        EXPECT_EQ(r.workload, "SYNTH/always_fails");
    };
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_FALSE(results[0].goldenPassed);
    EXPECT_FALSE(results[0].ran);
    EXPECT_NE(results[0].error.find("intentional mismatch"),
              std::string::npos);
    EXPECT_TRUE(results[1].ok());
    EXPECT_GT(results[1].stats.cycles, 0u);
    EXPECT_EQ(failures.load(), 1);
}

TEST(ExperimentEngine, UnknownWorkloadAndArchAreReportedNotFatal)
{
    std::vector<ExperimentJob> jobs(2);
    jobs[0].workload = "NOPE/nope";
    jobs[0].arch = "vgiw";
    jobs[1].workload = "NN/euclid";
    jobs[1].arch = "bogus";

    ExperimentEngine engine;
    auto results = engine.run(jobs);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("unknown workload"),
              std::string::npos);
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("unknown architecture"),
              std::string::npos);
}

TEST(ExperimentEngine, ProgressCallbackSeesEveryJobOnce)
{
    SystemConfig cfg;
    auto jobs = ExperimentEngine::suiteJobs(cfg, {"vgiw"});
    std::vector<int> seen(jobs.size(), 0);
    EngineOptions opts;
    opts.jobs = 4;
    opts.onResult = [&seen](size_t index, const JobResult &r) {
        ASSERT_LT(index, seen.size());
        ++seen[index];
        EXPECT_TRUE(r.ok()) << r.workload;
    };
    ExperimentEngine engine(opts);
    engine.run(jobs);
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << i;
}

TEST(ExperimentEngine, CompareMatchesSerialReplayOfOneTrace)
{
    // compare() must agree with a serial reference — one functional
    // execution, then every core model replaying those traces — on
    // every field the figure harnesses consume.
    SystemConfig cfg;
    std::vector<std::string> names;
    for (const auto &e : workloadRegistry())
        names.push_back(e.name);
    ExperimentEngine engine{EngineOptions{4}};
    auto suite = engine.compare(names, cfg);
    ASSERT_EQ(suite.size(), workloadRegistry().size());

    for (size_t i = 0; i < 3; ++i) {  // spot-check a prefix; full
                                      // equality is covered above
        const WorkloadInstance w = workloadRegistry()[i].make();
        const TraceResult traced = traceWorkload(w);
        ASSERT_TRUE(traced.ok()) << traced.error;
        EXPECT_EQ(suite[i].workload, workloadRegistry()[i].name);
        ASSERT_TRUE(suite[i].goldenPassed) << suite[i].goldenError;
        for (const auto &model : makeCoreModels(cfg, "all")) {
            const RunStats direct = model->run(*traced.traces);
            const RunStats &via = model->name() == "vgiw"    ? suite[i].vgiw
                                  : model->name() == "fermi" ? suite[i].fermi
                                  : model->name() == "sgmf"  ? suite[i].sgmf
                                                             : suite[i].dice;
            expectBitIdentical(via, direct,
                               suite[i].workload + "/" + model->name());
        }
    }
}

TEST(ExperimentEngine, ComparesAllArchitectures)
{
    ArchComparison c = ExperimentEngine{}.compare({"NN/euclid"}).front();
    ASSERT_TRUE(c.goldenPassed) << c.goldenError;
    EXPECT_EQ(c.workload, "NN/euclid");
    EXPECT_EQ(c.vgiw.arch, "vgiw");
    EXPECT_EQ(c.fermi.arch, "fermi");
    EXPECT_EQ(c.sgmf.arch, "sgmf");
    EXPECT_EQ(c.dice.arch, "dice");
    EXPECT_GT(c.vgiw.cycles, 0u);
    EXPECT_GT(c.fermi.cycles, 0u);
    EXPECT_GT(c.speedupVsFermi(), 0.0);
    EXPECT_GT(c.energyEfficiencyVsFermi(), 0.0);
}

TEST(ExperimentEngine, CompareReportsFailuresInsteadOfThrowing)
{
    // A workload that cannot run comes back flagged, in its place in
    // the order given, without disturbing its neighbours.
    std::vector<std::string> failed;
    EngineOptions opts;
    opts.onResult = [&](size_t, const JobResult &r) {
        if (!r.ok())
            failed.push_back(r.arch);
    };
    ExperimentEngine engine(opts);
    auto cs = engine.compare({"NN/euclid", "NOPE/nope"});
    ASSERT_EQ(cs.size(), 2u);
    EXPECT_TRUE(cs[0].goldenPassed);
    EXPECT_GT(cs[0].vgiw.cycles, 0u);
    EXPECT_EQ(cs[1].workload, "NOPE/nope");
    EXPECT_FALSE(cs[1].goldenPassed);
    EXPECT_NE(cs[1].goldenError.find("unknown workload"), std::string::npos);
    EXPECT_EQ(failed.size(), knownArchitectures().size());
}

TEST(ExperimentEngine, CompareFlagsReplayFailuresNotJustGoldenOnes)
{
    // The golden check passes here; every replay trips the watchdog.
    // The comparison must still come back failed, with the error.
    SystemConfig cfg;
    WatchdogConfig wd;
    wd.maxReplayCycles = 10;
    cfg.watchdog = wd;
    ArchComparison c = ExperimentEngine{}.compare({"BFS/Kernel"}, cfg)
                           .front();
    EXPECT_FALSE(c.goldenPassed);
    EXPECT_NE(c.goldenError.find("watchdog"), std::string::npos)
        << c.goldenError;
}

TEST(ExperimentEngine, CompareWorkIsIdenticalAcrossArchitectures)
{
    for (const ArchComparison &c : ExperimentEngine{}.compare(
             {"BFS/Kernel", "GE/Fan2", "SM/compute_cost"})) {
        ASSERT_TRUE(c.goldenPassed) << c.workload << ": " << c.goldenError;
        EXPECT_EQ(c.vgiw.dynBlockExecs, c.fermi.dynBlockExecs) << c.workload;
        if (c.sgmf.supported) {
            EXPECT_EQ(c.sgmf.dynBlockExecs, c.vgiw.dynBlockExecs)
                << c.workload;
        }
    }
}

TEST(ExperimentEngine, CompareLvcAccessesFarBelowRfAccesses)
{
    // Fig. 3's headline: the LVC is accessed on average ~10x less often
    // than a GPGPU register file. Check the direction on a couple of
    // kernels (the full sweep is bench/paper_figures).
    auto cs = ExperimentEngine{}.compare({"BFS/Kernel", "GE/Fan2",
                                          "NN/euclid"});
    ASSERT_EQ(cs.size(), 3u);
    for (const ArchComparison &c : cs)
        ASSERT_TRUE(c.goldenPassed) << c.workload << ": " << c.goldenError;
    // Kernels with cross-block values still sit far below the RF rate
    // (the paper's average is ~0.1).
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_LT(cs[i].lvcToRfRatio(), 0.5) << cs[i].workload;
        EXPECT_GT(cs[i].lvcToRfRatio(), 0.0) << cs[i].workload;
    }
    // Single-body kernels keep every value inside the fabric: zero LVC
    // traffic at all (the extreme the paper's Figure 3 bars approach).
    EXPECT_EQ(cs[2].vgiw.lvcStats.accesses(), 0u);
    EXPECT_GT(cs[2].fermi.rfAccesses, 0u);
}

TEST(ExperimentEngine, CompareConfigOverheadIsSmall)
{
    // Section 3.2: configuration overhead averaged 0.18% of runtime.
    ArchComparison c = ExperimentEngine{}.compare({"NN/euclid"}).front();
    ASSERT_TRUE(c.goldenPassed) << c.goldenError;
    EXPECT_LT(c.vgiw.configOverheadFraction(), 0.05);
}

TEST(ExperimentEngine, CompareSgmfRejectsLargeKernels)
{
    // compute_flux's 13-block kernel may exceed the SGMF fabric;
    // whether or not it fits, VGIW must run it.
    ArchComparison c =
        ExperimentEngine{}.compare({"CFD/compute_flux"}).front();
    ASSERT_TRUE(c.goldenPassed) << c.goldenError;
    EXPECT_GT(c.vgiw.cycles, 0u);
}

TEST(ExperimentEngine, JournaledParallelSweepRendersRowsRaceFree)
{
    // Regression test for a data race: with a journal attached, each
    // worker renders its own row for the journal line while other
    // workers are still filling theirs (interning strings and
    // appending stats extras). Row rendering must read only row-owned
    // state — under TSan this test is the canary; everywhere it also
    // pins journal lines == table renders.
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"NN/euclid", "BFS/Kernel", "GE/Fan1",
                          "KMEANS/invert_mapping"}) {
        // All four archs so every row carries arch-specific extras.
        for (const char *arch : {"vgiw", "fermi", "sgmf", "dice"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            jobs.push_back(j);
        }
    }
    const std::string path =
        ::testing::TempDir() + "vgiw_engine_journal_race.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    const std::string hash = ExperimentEngine::sweepHash(jobs);

    ResultJournal journal;
    ASSERT_TRUE(journal.create(path, hash));
    EngineOptions opts{4};
    opts.journal = &journal;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);
    journal.close();
    ASSERT_EQ(results.size(), jobs.size());

    // The line journaled mid-sweep must equal the row the table
    // renders at rest: one formatter, no divergence.
    ResultJournal readback;
    ASSERT_TRUE(readback.openForResume(path, hash));
    ASSERT_EQ(readback.entries().size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto it = readback.entries().find(ExperimentEngine::jobKey(jobs[i]));
        ASSERT_NE(it, readback.entries().end()) << jobs[i].workload;
        EXPECT_EQ(it->second.jsonLine, engine.resultTable().renderRow(i))
            << jobs[i].workload << "/" << jobs[i].arch;
    }
    std::remove(path.c_str());
}

TEST(ExperimentEngine, JsonLineIsWellFormedPerResult)
{
    ExperimentJob job;
    job.workload = "NN/euclid";
    job.arch = "vgiw";
    job.configLabel = "base \"quoted\"";
    ExperimentEngine engine;
    auto results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);

    const std::string line(engine.resultTable().renderRow(0));
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("\"workload\":\"NN/euclid\""), std::string::npos);
    EXPECT_NE(line.find("\"arch\":\"vgiw\""), std::string::npos);
    EXPECT_NE(line.find("\"config\":\"base \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(line.find("\"golden\":true"), std::string::npos);
    EXPECT_NE(line.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(line.find("\"energy_system_pj\":"), std::string::npos);

    // Balanced braces and quotes outside escapes => minimally parseable.
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);

    // A failed job still serialises, with its error attached.
    auto failed = engine.run({failingJob()});
    ASSERT_EQ(failed.size(), 1u);
    const std::string fline(engine.resultTable().renderRow(0));
    EXPECT_NE(fline.find("\"golden\":false"), std::string::npos);
    EXPECT_NE(fline.find("\"error\":"), std::string::npos);
    EXPECT_EQ(fline.find("\"cycles\":"), std::string::npos);
}

TEST(ExperimentEngine, LongestFirstOrdersByDescendingCost)
{
    const std::vector<uint64_t> cost = {5, 90, 12, 40};
    EXPECT_EQ(longestFirst({0, 1, 2, 3}, cost),
              (std::vector<size_t>{1, 3, 2, 0}));
    // Only the pending indices are ordered; cost covers every job.
    EXPECT_EQ(longestFirst({0, 2, 3}, cost), (std::vector<size_t>{3, 2, 0}));
}

TEST(ExperimentEngine, LongestFirstIsStableAmongEqualCosts)
{
    const std::vector<uint64_t> cost = {7, 9, 7, 9, 7};
    EXPECT_EQ(longestFirst({0, 1, 2, 3, 4}, cost),
              (std::vector<size_t>{1, 3, 0, 2, 4}));
}

TEST(ExperimentEngine, LongestFirstPutsZeroCostLast)
{
    // Zero cost = the workload failed to trace; those jobs fail fast.
    const std::vector<uint64_t> cost = {0, 3, 0, 1};
    EXPECT_EQ(longestFirst({0, 1, 2, 3}, cost),
              (std::vector<size_t>{1, 3, 0, 2}));
}

TEST(ExperimentEngine, LongestFirstHandlesEmptyAndSingleJob)
{
    EXPECT_TRUE(longestFirst({}, {}).empty());
    EXPECT_EQ(longestFirst({0}, {0}), (std::vector<size_t>{0}));
    EXPECT_EQ(longestFirst({2}, {4, 5, 6}), (std::vector<size_t>{2}));
}

/** Two jobs of the custom workload @p make plus one healthy job. */
std::vector<ExperimentJob>
withHealthyJob(const std::string &label,
               std::function<WorkloadInstance()> make)
{
    std::vector<ExperimentJob> jobs(3);
    jobs[0].workload = label;
    jobs[0].arch = "vgiw";
    jobs[0].make = make;
    jobs[1] = jobs[0];
    jobs[1].arch = "fermi";
    jobs[2].workload = "NN/euclid";
    jobs[2].arch = "vgiw";
    return jobs;
}

/**
 * Run @p jobs serially and on two workers (trace pre-pass on): both
 * must finish with the same per-job outcome and error, and the same
 * number of functional executions, @p execs.
 */
void
expectPrepassMatchesSerial(const std::vector<ExperimentJob> &jobs,
                           SimErrorKind kind, const std::string &needle,
                           uint64_t execs)
{
    ExperimentEngine serial{EngineOptions{1}};
    ExperimentEngine pooled{EngineOptions{2}};
    const auto a = serial.run(jobs);
    const auto b = pooled.run(jobs);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(a[i].ok(), b[i].ok()) << i;
        EXPECT_EQ(a[i].errorKind, b[i].errorKind) << i;
        EXPECT_EQ(a[i].error, b[i].error) << i;
    }
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(b[i].ok()) << i;
        EXPECT_EQ(b[i].errorKind, kind) << i;
        EXPECT_NE(b[i].error.find(needle), std::string::npos) << b[i].error;
    }
    EXPECT_TRUE(b[2].ok()) << b[2].error;
    EXPECT_EQ(serial.traceCache().functionalExecutions(), execs);
    EXPECT_EQ(pooled.traceCache().functionalExecutions(), execs);
}

TEST(ExperimentEngine, PrepassContainsInterpreterPanic)
{
    // An out-of-range load panics in the interpreter. Without a
    // PanicCaptureScope around the pre-pass fetch it would abort the
    // whole process.
    auto make = []() {
        KernelBuilder kb("oob", 0);
        BlockRef b = kb.block("entry");
        b.load(Type::I32, Operand::constU32(0x7ffffffc));
        b.exit();
        WorkloadInstance w;
        w.suite = "SYNTH";
        w.kernel = kb.finish();
        w.launch.numCtas = 1;
        w.launch.ctaSize = 1;
        w.check = [](const MemoryImage &, std::string &) { return true; };
        return w;
    };
    expectPrepassMatchesSerial(withHealthyJob("SYNTH/oob", make),
                               SimErrorKind::Internal, "out of range", 2);
}

TEST(ExperimentEngine, PrepassContainsThrowingMake)
{
    // A throwing make() is never cached, so it is not a functional
    // execution, and each job's own fetch reproduces the error.
    auto make = []() -> WorkloadInstance {
        throw std::runtime_error("make exploded");
    };
    expectPrepassMatchesSerial(withHealthyJob("SYNTH/throws", make),
                               SimErrorKind::Functional, "make exploded", 1);
}

TEST(ExperimentEngine, PrepassContainsGoldenFailure)
{
    const ExperimentJob bad = failingJob();
    expectPrepassMatchesSerial(withHealthyJob(bad.workload, bad.make),
                               SimErrorKind::Golden, "intentional mismatch",
                               2);
}

TEST(ExperimentEngine, PrepassTimeCountsAgainstTheTracedJobsDeadline)
{
    // The deadline covers the functional execution a job depends on.
    // The pre-pass traces on behalf of the workload's first dispatched
    // job, so that job must trip exactly as it does at --jobs 1.
    std::vector<ExperimentJob> jobs(2);
    jobs[0].workload = "SYNTH/slow_make";
    jobs[0].arch = "vgiw";
    jobs[0].make = []() {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return makeWorkload("NN/euclid");
    };
    WatchdogConfig wd;
    wd.deadlineMs = 20;
    jobs[0].config.watchdog = wd;
    jobs[1] = jobs[0];
    jobs[1].arch = "fermi";

    for (unsigned workers : {1u, 2u}) {
        ExperimentEngine engine{EngineOptions{workers}};
        const auto results = engine.run(jobs);
        EXPECT_EQ(results[0].errorKind, SimErrorKind::Watchdog) << workers;
        EXPECT_NE(results[0].error.find("wall-clock deadline"),
                  std::string::npos)
            << workers << ": " << results[0].error;
        EXPECT_EQ(engine.traceCache().functionalExecutions(), 1u);
    }
}

TEST(ExperimentEngine, PrepassSkipsJobsThatFailAdmission)
{
    // An invalid config or an unknown architecture fails fast without
    // a functional execution, with or without the pre-pass.
    std::vector<ExperimentJob> jobs(3);
    jobs[0].workload = "NN/euclid";
    jobs[0].arch = "vgiw";
    jobs[0].config.vgiw.lvcBytes = 100;
    jobs[1].workload = "NN/euclid";
    jobs[1].arch = "bogus";
    jobs[2].workload = "BFS/Kernel";
    jobs[2].arch = "vgiw";

    ExperimentEngine engine{EngineOptions{2}};
    const auto results = engine.run(jobs);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Config);
    EXPECT_EQ(results[1].errorKind, SimErrorKind::Config);
    EXPECT_TRUE(results[2].ok()) << results[2].error;
    EXPECT_EQ(engine.traceCache().functionalExecutions(), 1u);
}

TEST(ExperimentEngine, StopBeforeRunDrainsEveryJobWithoutTracing)
{
    SystemConfig cfg;
    auto jobs = ExperimentEngine::suiteJobs(cfg, {"vgiw", "fermi"});
    jobs.resize(8);
    std::atomic<bool> stop{true};
    EngineOptions opts{2};
    opts.stop = &stop;
    ExperimentEngine engine(opts);
    const auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].drained) << i;
        EXPECT_FALSE(results[i].ran) << i;
    }
    EXPECT_EQ(engine.traceCache().functionalExecutions(), 0u);
}

TEST(ExperimentEngine, PrepassTraceSpanLandsOnFirstDispatchedJob)
{
    // Two workloads, two archs each. The pre-pass fetch is a `trace`
    // span in the sink of each workload's first job, before the
    // (cache-hit) `trace` span every job records for itself; both sit
    // at depth 0.
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"NN/euclid", "BFS/Kernel"}) {
        for (const char *arch : {"vgiw", "fermi"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            jobs.push_back(j);
        }
    }
    MetricsCollector collector;
    EngineOptions opts{2};
    opts.metrics = &collector;
    ExperimentEngine engine(opts);
    for (const auto &r : engine.run(jobs))
        ASSERT_TRUE(r.ok()) << r.error;

    for (size_t i = 0; i < jobs.size(); ++i) {
        size_t traces = 0;
        for (const SpanRecord &s : collector.job(i).spans()) {
            EXPECT_EQ(s.depth, 0u) << i << " " << s.name;
            traces += s.name == "trace";
        }
        EXPECT_EQ(traces, i % 2 == 0 ? 2u : 1u) << i;
    }
}

/**
 * A make() of NN/euclid that first blocks until @p gate is released or
 * 10 s pass, and records in @p releasedInTime which came first.
 */
std::function<WorkloadInstance()>
gatedMake(std::shared_future<void> gate, std::atomic<bool> &releasedInTime)
{
    return [gate, &releasedInTime]() {
        releasedInTime = gate.wait_for(std::chrono::seconds(10)) ==
                         std::future_status::ready;
        return makeWorkload("NN/euclid");
    };
}

/**
 * Two custom workloads, A (jobs 0, 1) and B (jobs 2, 3), each NN/euclid
 * on vgiw and fermi; B's make() is gatedMake(@p gate).
 */
std::vector<ExperimentJob>
gatedPair(std::shared_future<void> gate, std::atomic<bool> &releasedInTime)
{
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"SYNTH/a", "SYNTH/b"}) {
        for (const char *arch : {"vgiw", "fermi"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            j.make = []() { return makeWorkload("NN/euclid"); };
            jobs.push_back(j);
        }
    }
    jobs[2].make = gatedMake(gate, releasedInTime);
    jobs[3].make = jobs[2].make;
    return jobs;
}

TEST(ExperimentEngine, ReadyJobRunsWhileAnotherWorkloadTraces)
{
    // B's trace can only finish once A's first job has been delivered,
    // so a pool that holds every job back until all traces are in
    // times the gate out instead.
    std::promise<void> release;
    std::atomic<bool> releasedInTime{false};
    const auto jobs = gatedPair(release.get_future().share(), releasedInTime);
    EngineOptions opts{2};
    opts.onResult = [&](size_t index, const JobResult &) {
        if (index == 0)
            release.set_value();
    };
    ExperimentEngine engine(opts);
    for (const auto &r : engine.run(jobs))
        EXPECT_TRUE(r.ok()) << r.workload << " " << r.arch << ": " << r.error;
    EXPECT_TRUE(releasedInTime);
    EXPECT_EQ(engine.traceCache().functionalExecutions(), 2u);
}

TEST(ExperimentEngine, ReadyJobsDispatchLongestFirst)
{
    // Jobs 0-3 are two registry workloads on two archs; job 4's gated
    // fetch holds one of the two workers until jobs 0-3 are delivered,
    // so the other worker dispatches those four alone, one at a time,
    // once both of their fetches have returned.
    std::promise<void> release;
    std::atomic<bool> releasedInTime{false};
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"NN/euclid", "BFS/Kernel"}) {
        for (const char *arch : {"vgiw", "fermi"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            jobs.push_back(j);
        }
    }
    jobs.push_back(jobs[0]);
    jobs[4].workload = "SYNTH/gated";
    jobs[4].make = gatedMake(release.get_future().share(), releasedInTime);

    std::vector<size_t> delivered;
    EngineOptions opts{2};
    opts.onResult = [&](size_t index, const JobResult &) {
        if (index >= 4)
            return;
        delivered.push_back(index);
        if (delivered.size() == 4)
            release.set_value();
    };
    ExperimentEngine engine(opts);
    for (const auto &r : engine.run(jobs))
        ASSERT_TRUE(r.ok()) << r.workload << " " << r.arch << ": " << r.error;
    ASSERT_TRUE(releasedInTime);

    std::vector<uint64_t> cost(jobs.size(), 0);
    for (size_t i = 0; i < 4; ++i) {
        const TraceResult t = engine.traceCache().get(
            jobs[i].workload,
            [&] { return makeWorkload(jobs[i].workload); },
            /*nameIsUnique=*/true);
        cost[i] = t.traces->totalBlockExecs() + t.traces->totalAccesses();
    }
    ASSERT_NE(cost[0], cost[2]);
    EXPECT_EQ(delivered, longestFirst({0, 1, 2, 3}, cost));
}

TEST(ExperimentEngine, StopWhileFetchInFlightDrainsWithoutHanging)
{
    // A's first delivered job asks the sweep to stop while B's fetch
    // is still blocked; run() must return with B's jobs undispatched.
    std::promise<void> release;
    std::atomic<bool> releasedInTime{false};
    const auto jobs = gatedPair(release.get_future().share(), releasedInTime);
    std::atomic<bool> stop{false};
    std::vector<bool> delivered(jobs.size(), false);
    EngineOptions opts{2};
    opts.stop = &stop;
    opts.onResult = [&](size_t index, const JobResult &) {
        delivered[index] = true;
        if (index == 0) {
            stop = true;
            release.set_value();
        }
    };
    ExperimentEngine engine(opts);
    const auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_TRUE(releasedInTime);
    EXPECT_TRUE(delivered[0]);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_NE(delivered[i], results[i].drained) << i;
        if (i >= 2) {
            EXPECT_TRUE(results[i].drained) << i;
            EXPECT_FALSE(results[i].ran) << i;
        }
    }
}

ExperimentJob
euclidOn(const std::string &arch)
{
    ExperimentJob j;
    j.workload = "NN/euclid";
    j.arch = arch;
    return j;
}

TEST(ExperimentEngine, MidSweepStopFinishesInFlightAndDrainsTheRest)
{
    const std::string path =
        ::testing::TempDir() + "vgiw_drain_journal.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    std::vector<ExperimentJob> jobs{euclidOn("vgiw"), euclidOn("fermi"),
                                    euclidOn("sgmf")};

    ResultJournal journal;
    std::string err;
    ASSERT_TRUE(
        journal.create(path, ExperimentEngine::sweepHash(jobs), &err))
        << err;

    // One worker: the stop raised from the first job's callback is
    // visible before the second dequeue, so exactly one job completes
    // (and is journaled) and the rest come back drained.
    std::atomic<bool> stop{false};
    EngineOptions opts{1};
    opts.stop = &stop;
    opts.journal = &journal;
    opts.onResult = [&stop](size_t, const JobResult &) {
        stop.store(true);
    };
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);
    journal.close();

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].drained);
    EXPECT_TRUE(results[1].drained);
    EXPECT_TRUE(results[2].drained);

    // Drained slots are not journaled: a resume re-enqueues them.
    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.entries.count(ExperimentEngine::jobKey(jobs[0])),
              1u);
}

TEST(ExperimentEngine, SigtermSetsTheDrainFlag)
{
    resetDrainFlag();
    installDrainHandlers();
    ASSERT_FALSE(drainRequested());

    std::raise(SIGTERM);

    EXPECT_TRUE(drainRequested());
    EXPECT_TRUE(drainFlag().load());
    EXPECT_EQ(drainSignal(), SIGTERM);

    resetDrainFlag();
    EXPECT_FALSE(drainRequested());
    EXPECT_EQ(drainSignal(), 0);
}

} // namespace
} // namespace vgiw
