/**
 * @file
 * Retry/quarantine policy tests: only budget-sensitive failure kinds
 * retry, escalation multiplies the finite watchdog ceilings (zero stays
 * unlimited, huge products saturate), a transient fault recovers to a
 * result bit-identical to an undisturbed run, exhaustion quarantines,
 * and the drain flag stops the engine from dequeueing new jobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>

#include "common/signal_drain.hh"
#include "driver/experiment_engine.hh"
#include "driver/fault_injector.hh"
#include "driver/retry_policy.hh"

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

TEST(RetryPolicy, OnlyBudgetSensitiveKindsAreRetryable)
{
    EXPECT_TRUE(RetryPolicy::retryableKind(SimErrorKind::Watchdog));
    EXPECT_TRUE(RetryPolicy::retryableKind(SimErrorKind::Internal));

    EXPECT_FALSE(RetryPolicy::retryableKind(SimErrorKind::None));
    EXPECT_FALSE(RetryPolicy::retryableKind(SimErrorKind::Config));
    EXPECT_FALSE(RetryPolicy::retryableKind(SimErrorKind::Compile));
    EXPECT_FALSE(RetryPolicy::retryableKind(SimErrorKind::Functional));
    EXPECT_FALSE(RetryPolicy::retryableKind(SimErrorKind::Golden));
}

TEST(RetryPolicy, ShouldRetryRespectsBudgetAndKind)
{
    RetryPolicy rp;
    rp.maxAttempts = 3;
    EXPECT_TRUE(rp.shouldRetry(SimErrorKind::Watchdog, 1));
    EXPECT_TRUE(rp.shouldRetry(SimErrorKind::Watchdog, 2));
    EXPECT_FALSE(rp.shouldRetry(SimErrorKind::Watchdog, 3));
    EXPECT_FALSE(rp.shouldRetry(SimErrorKind::Golden, 1));

    RetryPolicy off;  // default maxAttempts == 1: retries disabled
    EXPECT_FALSE(off.shouldRetry(SimErrorKind::Watchdog, 1));
}

TEST(RetryPolicy, WorkerCrashAlwaysGetsOneRedispatch)
{
    // The shard supervisor's dispatch budget: maxAttempts, floored at
    // two, so the default policy re-dispatches a crashed job once.
    RetryPolicy off;
    EXPECT_EQ(off.attemptBudget(SimErrorKind::WorkerCrash), 2u);
    EXPECT_TRUE(off.shouldRetry(SimErrorKind::WorkerCrash, 1));
    EXPECT_FALSE(off.shouldRetry(SimErrorKind::WorkerCrash, 2));
    EXPECT_EQ(off.attemptBudget(SimErrorKind::Watchdog), 1u);

    RetryPolicy rp;
    rp.maxAttempts = 4;
    EXPECT_EQ(rp.attemptBudget(SimErrorKind::WorkerCrash), 4u);
    EXPECT_TRUE(rp.shouldRetry(SimErrorKind::WorkerCrash, 3));
    EXPECT_FALSE(rp.shouldRetry(SimErrorKind::WorkerCrash, 4));
}

TEST(RetryPolicy, EscalateScalesFiniteCeilingsPerRetry)
{
    RetryPolicy rp;  // cycle x4, deadline x2 per retry
    WatchdogConfig base;
    base.maxReplayCycles = 100;
    base.deadlineMs = 10.0;

    const WatchdogConfig a1 = rp.escalate(base, 1);
    EXPECT_EQ(a1.maxReplayCycles, 100u);
    EXPECT_DOUBLE_EQ(a1.deadlineMs, 10.0);

    const WatchdogConfig a2 = rp.escalate(base, 2);
    EXPECT_EQ(a2.maxReplayCycles, 400u);
    EXPECT_DOUBLE_EQ(a2.deadlineMs, 20.0);

    const WatchdogConfig a3 = rp.escalate(base, 3);
    EXPECT_EQ(a3.maxReplayCycles, 1600u);
    EXPECT_DOUBLE_EQ(a3.deadlineMs, 40.0);
}

TEST(RetryPolicy, EscalateKeepsUnlimitedCeilingsUnlimited)
{
    RetryPolicy rp;
    WatchdogConfig base;  // both ceilings zero = disabled
    const WatchdogConfig wd = rp.escalate(base, 4);
    EXPECT_EQ(wd.maxReplayCycles, 0u);
    EXPECT_DOUBLE_EQ(wd.deadlineMs, 0.0);
}

TEST(RetryPolicy, EscalateSaturatesInsteadOfWrapping)
{
    RetryPolicy rp;
    WatchdogConfig base;
    base.maxReplayCycles = std::numeric_limits<uint64_t>::max() / 2;
    const WatchdogConfig wd = rp.escalate(base, 2);
    EXPECT_EQ(wd.maxReplayCycles, std::numeric_limits<uint64_t>::max());
}

TEST(RetryPolicy, EscalateClearsDeadlineAnchor)
{
    RetryPolicy rp;
    WatchdogConfig base;
    base.deadlineMs = 5.0;
    base.anchor = std::chrono::steady_clock::now();
    // Every attempt — including the first — gets a fresh anchor, so a
    // retry's wall-clock budget restarts instead of inheriting the
    // already-exhausted window.
    EXPECT_EQ(rp.escalate(base, 1).anchor,
              std::chrono::steady_clock::time_point{});
    EXPECT_EQ(rp.escalate(base, 2).anchor,
              std::chrono::steady_clock::time_point{});
}

TEST(RetryPolicy, TransientFaultRecoversBitIdentically)
{
    // The fault fails the first replay attempt only; with one retry the
    // job must succeed and its JSON line must match an undisturbed run
    // exactly (a successful result carries no attempts/quarantine
    // residue).
    std::vector<ExperimentJob> jobs{job("NN/euclid", "vgiw")};

    ExperimentEngine reference{EngineOptions{1}};
    auto ref = reference.run(jobs);
    ASSERT_EQ(ref.size(), 1u);
    ASSERT_TRUE(ref[0].ok()) << ref[0].error;

    FaultInjector inj;
    inj.armTransient(FaultInjector::Point::Replay, 0, 1);
    EngineOptions opts{1};
    opts.injector = &inj;
    opts.retry.maxAttempts = 2;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_FALSE(results[0].quarantined);
    EXPECT_EQ(inj.fired(), 1u);
    EXPECT_EQ(engine.resultTable().renderRow(0),
              reference.resultTable().renderRow(0));
}

TEST(RetryPolicy, TransientFaultWithoutRetriesFailsOnce)
{
    FaultInjector inj;
    inj.armTransient(FaultInjector::Point::Replay, 0, 1);
    EngineOptions opts{1};
    opts.injector = &inj;  // default policy: maxAttempts == 1
    ExperimentEngine engine(opts);
    auto results = engine.run({job("NN/euclid", "vgiw")});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Internal);
    EXPECT_EQ(results[0].attempts, 1u);
    // maxAttempts == 1 means no retry budget existed to exhaust.
    EXPECT_FALSE(results[0].quarantined);
}

TEST(RetryPolicy, WatchdogExhaustionQuarantines)
{
    // A 10-cycle budget trips on every attempt even after x4/x16
    // escalation, so the job burns all three attempts and lands in
    // quarantine, with the failure fields in its JSON line.
    ExperimentJob j = job("NN/euclid", "vgiw");
    WatchdogConfig wd;
    wd.maxReplayCycles = 10;
    j.config.setWatchdog(wd);

    EngineOptions opts{1};
    opts.retry.maxAttempts = 3;
    ExperimentEngine engine(opts);
    auto results = engine.run({j});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Watchdog);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_TRUE(results[0].quarantined);

    const std::string line(engine.resultTable().renderRow(0));
    EXPECT_NE(line.find("\"attempts\":3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"quarantined\":true"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_kind\":\"watchdog\""),
              std::string::npos)
        << line;
}

TEST(RetryPolicy, DeterministicFailuresFailFast)
{
    // A golden mismatch retries the same deterministic computation; the
    // policy must not burn attempts on it, and it is never quarantined.
    ExperimentJob golden;
    golden.workload = "SYNTH/always_fails";
    golden.arch = "vgiw";
    golden.make = []() {
        WorkloadInstance w = makeWorkload("NN/euclid");
        w.suite = "SYNTH";
        w.check = [](const MemoryImage &, std::string &err) {
            err = "intentional mismatch";
            return false;
        };
        return w;
    };
    // Unknown architecture: a config-kind failure at job entry.
    ExperimentJob config = job("NN/euclid", "no-such-arch");

    EngineOptions opts{1};
    opts.retry.maxAttempts = 4;
    ExperimentEngine engine(opts);
    auto results = engine.run({golden, config});

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Golden);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_FALSE(results[0].quarantined);
    EXPECT_EQ(results[1].errorKind, SimErrorKind::Config);
    EXPECT_EQ(results[1].attempts, 1u);
    EXPECT_FALSE(results[1].quarantined);
}

TEST(RetryPolicy, PresetStopFlagDrainsEveryJob)
{
    std::atomic<bool> stop{true};
    EngineOptions opts{2};
    opts.stop = &stop;
    ExperimentEngine engine(opts);
    auto results = engine.run(
        {job("NN/euclid", "vgiw"), job("NN/euclid", "fermi"),
         job("NN/euclid", "sgmf")});

    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.drained);
        EXPECT_FALSE(r.ran);
        EXPECT_FALSE(r.quarantined);
    }
}

TEST(RetryPolicy, MidSweepStopFinishesInFlightAndDrainsTheRest)
{
    const std::string path =
        ::testing::TempDir() + "vgiw_drain_journal.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    std::vector<ExperimentJob> jobs{job("NN/euclid", "vgiw"),
                                    job("NN/euclid", "fermi"),
                                    job("NN/euclid", "sgmf")};

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

TEST(RetryPolicy, SigtermSetsTheDrainFlag)
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
