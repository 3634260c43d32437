/**
 * @file
 * Fault-injection tests: one test per SimErrorKind, driven through the
 * experiment engine with the FaultInjector armed at each pipeline
 * point. The fault-tolerance contract under test: every failure lands
 * in exactly one JobResult with the right taxonomy kind, the sweep
 * completes, and the healthy jobs sharing the sweep are bit-identical
 * to an undisturbed run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "common/watchdog.hh"
#include "driver/experiment_engine.hh"
#include "driver/fault_injector.hh"

namespace vgiw
{
namespace
{

ExperimentJob
job(const std::string &workload, const std::string &arch)
{
    ExperimentJob j;
    j.workload = workload;
    j.arch = arch;
    return j;
}

void
expectSameStats(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.configCycles, b.configCycles) << what;
    EXPECT_EQ(a.reconfigs, b.reconfigs) << what;
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs) << what;
    EXPECT_EQ(a.dynThreadOps, b.dynThreadOps) << what;
    EXPECT_EQ(a.rfAccesses, b.rfAccesses) << what;
    EXPECT_EQ(a.lvcAccesses, b.lvcAccesses) << what;
    EXPECT_EQ(a.energy.systemPj(), b.energy.systemPj()) << what;
}

TEST(PanicCapture, ScopedPanicThrowsInsteadOfAborting)
{
    PanicCaptureScope capture;
    try {
        vgiw_panic("injected invariant violation");
        FAIL() << "vgiw_panic returned";
    } catch (const SimPanic &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Internal);
        EXPECT_NE(std::string(e.what()).find("injected invariant"),
                  std::string::npos);
    }
}

TEST(FaultInjector, RulesFireAtMostOnce)
{
    FaultInjector inj;
    inj.armThrow(FaultInjector::Point::Trace, 0, "boom");
    EXPECT_THROW(inj.fire(FaultInjector::Point::Trace, 0),
                 std::runtime_error);
    // The rule is consumed: firing again is a no-op.
    EXPECT_NO_THROW(inj.fire(FaultInjector::Point::Trace, 0));
    // Other (point, job) pairs never fire.
    EXPECT_NO_THROW(inj.fire(FaultInjector::Point::Compile, 0));
    EXPECT_NO_THROW(inj.fire(FaultInjector::Point::Trace, 1));
    EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultSpec, GrammarArmsEachActionAndRejectsMalformedSpecs)
{
    using A = FaultSpec::Action;
    const struct
    {
        const char *spec;
        A action;
        int signo;
        size_t job;
        int millis;
    } good[] = {
        {"segv:0", A::Raise, SIGSEGV, 0, 30000},
        {"kill:7", A::Raise, SIGKILL, 7, 30000},
        {"abort:12", A::Raise, SIGABRT, 12, 30000},
        {"mute:1", A::Raise, SIGSTOP, 1, 30000},
        {"stall:3", A::Stall, 0, 3, 30000},
        {"stall:3:250", A::Stall, 0, 3, 250},
    };
    for (const auto &g : good) {
        SCOPED_TRACE(g.spec);
        const auto f = FaultSpec::parse(g.spec);
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->action, g.action);
        EXPECT_EQ(f->signo, g.signo);
        EXPECT_EQ(f->job, g.job);
        EXPECT_EQ(f->millis, g.millis);
    }

    // Each malformed form arms nothing and says so once on stderr; the
    // retired frame-corruption action is refused like any unknown one.
    for (const char *bad :
         {"", "segv", "segv:", "segv:abc", "segv:3x", "segv:-1", "segv: 3",
          "bogus:3", "SEGV:3", ":3", "segv:1:5", "stall:1:", "stall:1:x",
          "stall:1:5:6", "stall:1:-5", "segv:99999999999999999999999",
          "badframe:5"}) {
        SCOPED_TRACE(bad);
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(FaultSpec::parse(bad).has_value());
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }
}

TEST(FaultInjection, TraceCorruptionIsFunctionalKind)
{
    FaultInjector inj;
    inj.armCorrupt(FaultInjector::Point::Trace, 0);
    EngineOptions opts{1};
    opts.injector = &inj;
    ExperimentEngine engine(opts);

    auto results = engine.run({job("NN/euclid", "vgiw")});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Functional);
    EXPECT_NE(results[0].error.find("injected corruption"),
              std::string::npos);
    EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultInjection, UntypedThrowAtTraceIsFunctionalKind)
{
    FaultInjector inj;
    inj.armThrow(FaultInjector::Point::Trace, 0, "plain failure");
    EngineOptions opts{1};
    opts.injector = &inj;
    ExperimentEngine engine(opts);

    auto results = engine.run({job("NN/euclid", "vgiw")});
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Functional);
    EXPECT_EQ(results[0].error, "plain failure");
}

TEST(FaultInjection, CompileCorruptionIsCompileKind)
{
    FaultInjector inj;
    inj.armCorrupt(FaultInjector::Point::Compile, 0);
    EngineOptions opts{1};
    opts.injector = &inj;
    ExperimentEngine engine(opts);

    auto results = engine.run({job("NN/euclid", "vgiw")});
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Compile);
    // The functional execution already happened and is cached — only
    // the compile stage failed.
    EXPECT_EQ(engine.traceCache().functionalExecutions(), 1u);
    EXPECT_TRUE(results[0].goldenPassed);
}

TEST(FaultInjection, GoldenMismatchIsGoldenKind)
{
    ExperimentJob j = job("SYNTH/always_fails", "vgiw");
    j.make = []() {
        WorkloadInstance w = makeWorkload("NN/euclid");
        w.suite = "SYNTH";
        w.check = [](const MemoryImage &, std::string &err) {
            err = "intentional mismatch";
            return false;
        };
        return w;
    };

    ExperimentEngine engine;
    auto results = engine.run({j});
    EXPECT_FALSE(results[0].ok());
    EXPECT_FALSE(results[0].goldenPassed);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Golden);
    EXPECT_NE(engine.resultTable().renderRow(0).find(
                  "\"error_kind\":\"golden\""),
              std::string::npos);
}

TEST(FaultInjection, PanicInReplayIsInternalAndIsolated)
{
    // The acceptance test of panic capture: a vgiw_panic in the middle
    // of one job's replay must not take down the process, and every
    // other job of the sweep must be bit-identical to an undisturbed
    // run.
    std::vector<ExperimentJob> jobs = {
        job("NN/euclid", "vgiw"),
        job("NN/euclid", "fermi"),
        job("BFS/Kernel", "vgiw"),
    };

    ExperimentEngine clean{EngineOptions{2}};
    auto baseline = clean.run(jobs);
    ASSERT_TRUE(baseline[0].ok());
    ASSERT_TRUE(baseline[1].ok());
    ASSERT_TRUE(baseline[2].ok());

    FaultInjector inj;
    inj.armPanic(FaultInjector::Point::Replay, 0, "injected replay panic");
    EngineOptions opts{2};
    opts.injector = &inj;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);

    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Internal);
    EXPECT_NE(results[0].error.find("injected replay panic"),
              std::string::npos);

    ASSERT_TRUE(results[1].ok());
    ASSERT_TRUE(results[2].ok());
    expectSameStats(results[1].stats, baseline[1].stats, "NN/euclid/fermi");
    expectSameStats(results[2].stats, baseline[2].stats, "BFS/Kernel/vgiw");
}

TEST(FaultInjection, CycleCeilingTripsWatchdogOnEveryArch)
{
    for (const std::string arch : {"vgiw", "fermi", "sgmf", "dice"}) {
        ExperimentJob j = job("NN/euclid", arch);
        WatchdogConfig wd;
        wd.maxReplayCycles = 10;  // absurdly small: a healthy replay is
                                  // indistinguishable from a livelock
        j.config.watchdog = wd;

        ExperimentEngine engine;
        auto results = engine.run({j});
        ASSERT_EQ(results.size(), 1u);
        EXPECT_FALSE(results[0].ok()) << arch;
        EXPECT_EQ(results[0].errorKind, SimErrorKind::Watchdog) << arch;
        EXPECT_NE(results[0].error.find("watchdog"), std::string::npos)
            << arch;
        // Partial progress is preserved: the job got somewhere before
        // the ceiling cut it off.
        EXPECT_TRUE(results[0].partial.valid) << arch;
        EXPECT_GT(results[0].partial.cycles, 10u) << arch;

        const std::string line(engine.resultTable().renderRow(0));
        EXPECT_NE(line.find("\"error_kind\":\"watchdog\""),
                  std::string::npos)
            << arch;
        EXPECT_NE(line.find("\"partial_cycles\":"), std::string::npos)
            << arch;
    }
}

TEST(FaultInjection, StallTripsWallClockDeadline)
{
    // The deadline is anchored at job entry, so a stall before replay
    // (here: injected at the replay point, before CoreModel::run)
    // counts against the budget and the first watchdog poll trips.
    ExperimentJob j = job("NN/euclid", "vgiw");
    WatchdogConfig wd;
    wd.deadlineMs = 20;
    j.config.watchdog = wd;

    FaultInjector inj;
    inj.armStall(FaultInjector::Point::Replay, 0, 200);
    EngineOptions opts{1};
    opts.injector = &inj;
    ExperimentEngine engine(opts);

    auto results = engine.run({j});
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Watchdog);
    EXPECT_NE(results[0].error.find("wall-clock deadline"),
              std::string::npos);
}

TEST(FaultInjection, DeadlinePastTheClockRangeNeverFires)
{
    // A budget too large to add to the anchor (about 3,170 years, and
    // 2^64 - 1 ms) once overflowed the steady_clock arithmetic and
    // expired on the first poll.
    for (double ms : {1e14, 18446744073709551615.0}) {
        WatchdogConfig wd;
        wd.deadlineMs = ms;
        Watchdog w(wd, "huge");
        EXPECT_NO_THROW(w.poll(0, 0, 0)) << ms;
    }
}

TEST(FaultInjection, ThrowingCallbacksAreGuarded)
{
    // An onResult that throws must not std::terminate the worker; the
    // job is demoted to an internal failure instead.
    FaultInjector inj;
    inj.armThrow(FaultInjector::Point::Callback, 0, "observer bug");
    int on_result_calls = 0;
    EngineOptions opts{1};
    opts.injector = &inj;
    opts.onResult = [&](size_t, const JobResult &) { ++on_result_calls; };
    ExperimentEngine engine(opts);

    auto results = engine.run({job("NN/euclid", "vgiw"),
                               job("NN/euclid", "fermi")});
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Internal);
    EXPECT_NE(results[0].error.find("callback threw"), std::string::npos);
    EXPECT_NE(results[0].error.find("observer bug"), std::string::npos);
    // Job 0's injected throw pre-empted its onResult; job 1 reported
    // normally.
    EXPECT_EQ(on_result_calls, 1);
    EXPECT_TRUE(results[1].ok());
}

TEST(FaultInjection, JsonEscapesControlDelAndHighBytes)
{
    JobResult r;
    r.workload = "W";
    r.arch = "vgiw";
    r.configLabel = std::string("a\x07") + "\x7f\xff" + "b";
    ResultTable table;
    table.reset(1);
    table.fill(0, r);
    const std::string line(table.renderRow(0));

    EXPECT_NE(line.find("\\u0007"), std::string::npos);
    EXPECT_NE(line.find("\\u007f"), std::string::npos);
    // The high byte must escape through unsigned char: 0xff comes out
    // as u00ff, not a sign-extended uffffffff.
    EXPECT_NE(line.find("\\u00ff"), std::string::npos);
    EXPECT_EQ(line.find("\\uff"), std::string::npos);
    for (char c : line)
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 &&
                    static_cast<unsigned char>(c) < 0x7f)
            << "raw unescaped byte in JSON line";
}

TEST(FaultInjection, HealthyJsonLineCarriesNoFailureFields)
{
    // Bit-identity guard for downstream parsers: the new failure-only
    // fields never appear on a healthy line.
    ExperimentEngine engine;
    auto results = engine.run({job("NN/euclid", "vgiw")});
    ASSERT_TRUE(results[0].ok());
    const std::string line(engine.resultTable().renderRow(0));
    EXPECT_EQ(line.find("error_kind"), std::string::npos);
    EXPECT_EQ(line.find("partial_"), std::string::npos);
}

TEST(FaultInjection, SweepSurvivesAMixedDisasterRun)
{
    // Acceptance: one sweep containing an invalid config, a livelocked
    // kernel, a panicking replay and a healthy job completes with every
    // failure classified and the healthy job intact.
    std::vector<ExperimentJob> jobs = {
        job("NN/euclid", "vgiw"),     // 0: invalid config
        job("NN/euclid", "fermi"),    // 1: livelock (tiny cycle budget)
        job("BFS/Kernel", "vgiw"),    // 2: panic mid-replay
        job("BFS/Kernel", "fermi"),   // 3: healthy
    };
    jobs[0].config.vgiw.lvcBytes = 100;
    WatchdogConfig wd;
    wd.maxReplayCycles = 10;
    jobs[1].config.watchdog = wd;

    FaultInjector inj;
    inj.armPanic(FaultInjector::Point::Replay, 2, "disaster panic");
    EngineOptions opts{2};
    opts.injector = &inj;
    ExperimentEngine engine(opts);

    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Config);
    EXPECT_EQ(results[1].errorKind, SimErrorKind::Watchdog);
    EXPECT_EQ(results[2].errorKind, SimErrorKind::Internal);
    EXPECT_TRUE(results[3].ok());
    EXPECT_EQ(results[3].errorKind, SimErrorKind::None);
}

} // namespace
} // namespace vgiw
