/**
 * @file
 * Shard-supervisor tests: a sharded sweep reproduces the
 * single-process engine byte-for-byte, a hard fault (SIGSEGV, SIGKILL,
 * SIGABRT) in a worker costs one job — quarantined as `worker_crash`
 * after its crash budget — not the sweep, silent workers are killed by
 * the heartbeat timeout, runaway jobs by the coordinator deadline,
 * drains leave every row terminal, journaled runs restore verbatim,
 * and the supervision counter names are a pinned surface. Fork-based:
 * these suites are deliberately outside the sanitizer allowlist
 * filters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment_engine.hh"
#include "driver/result_journal.hh"
#include "driver/worker_pool.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

std::vector<ExperimentJob>
smallJobs()
{
    std::vector<ExperimentJob> jobs;
    for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
        ExperimentJob j;
        j.workload = "NN/euclid";
        j.arch = arch;
        jobs.push_back(std::move(j));
    }
    ExperimentJob j;
    j.workload = "BFS/Kernel";
    j.arch = "vgiw";
    jobs.push_back(std::move(j));
    return jobs;
}

/** The single-process reference: the exact JSON-lines bytes the
 * in-process engine renders for @p jobs. */
std::vector<std::string>
referenceLines(const std::vector<ExperimentJob> &jobs)
{
    ExperimentEngine engine{EngineOptions{1}};
    auto results = engine.run(jobs);
    std::vector<std::string> lines;
    for (size_t i = 0; i < results.size(); ++i)
        lines.emplace_back(engine.resultTable().renderRow(i));
    return lines;
}

TEST(ShardSupervisor, ShardedSweepIsByteIdenticalToSingleProcess)
{
    const auto jobs = smallJobs();
    const auto ref = referenceLines(jobs);

    ShardOptions sopts;
    sopts.shards = 2;
    std::vector<int> seen(jobs.size(), 0);
    sopts.onResult = [&seen](size_t i, const ShardRow &) { ++seen[i]; };
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);

    ASSERT_EQ(rows.size(), jobs.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(rows[i].ok) << i << ": " << rows[i].error;
        EXPECT_TRUE(rows[i].golden) << i;
        EXPECT_EQ(rows[i].jsonLine, ref[i]) << i;
        // The coordinator's table re-emits the worker bytes verbatim.
        EXPECT_EQ(std::string(sup.resultTable().renderRow(i)), ref[i])
            << i;
        EXPECT_EQ(seen[i], 1) << i;  // exactly-once reporting
    }
    EXPECT_EQ(sup.stats().crashes, 0u);
    EXPECT_EQ(sup.stats().restarts, 0u);
    EXPECT_EQ(sup.stats().heartbeatMisses, 0u);
    EXPECT_GE(sup.stats().functionalExecutions, 1u);
}

TEST(ShardSupervisor, HardFaultIsContainedAndQuarantined)
{
    const auto jobs = smallJobs();
    const auto ref = referenceLines(jobs);
    constexpr size_t kPoisoned = 1;

    for (int sig : {SIGSEGV, SIGKILL, SIGABRT}) {
        SCOPED_TRACE(sig);
        ShardOptions sopts;
        sopts.shards = 2;
        sopts.respawnBackoffMs = 10;
        sopts.workerPreJob = [sig](size_t index) {
            if (index == kPoisoned)
                std::raise(sig);
        };
        ShardSupervisor sup(sopts);
        auto rows = sup.run(jobs);

        ASSERT_EQ(rows.size(), jobs.size());
        const ShardRow &bad = rows[kPoisoned];
        EXPECT_FALSE(bad.ok);
        EXPECT_TRUE(bad.quarantined);
        EXPECT_EQ(bad.errorKind, SimErrorKind::WorkerCrash);
        EXPECT_EQ(bad.attempts, 2u);  // default budget: one re-dispatch
        EXPECT_NE(bad.error.find("worker crashed"), std::string::npos)
            << bad.error;
        EXPECT_NE(bad.jsonLine.find("\"error_kind\":\"worker_crash\""),
                  std::string::npos)
            << bad.jsonLine;
        EXPECT_NE(bad.jsonLine.find("\"attempts\":2"), std::string::npos)
            << bad.jsonLine;
        EXPECT_NE(bad.jsonLine.find("\"quarantined\":true"),
                  std::string::npos)
            << bad.jsonLine;
        // Every surviving job is unharmed and byte-identical.
        for (size_t i = 0; i < rows.size(); ++i) {
            if (i == kPoisoned)
                continue;
            EXPECT_TRUE(rows[i].ok) << i << ": " << rows[i].error;
            EXPECT_EQ(rows[i].jsonLine, ref[i]) << i;
        }
        EXPECT_GE(sup.stats().crashes, 2u);
        EXPECT_GE(sup.stats().restarts, 1u);
    }
}

TEST(ShardSupervisor, SilentWorkerIsKilledByHeartbeatTimeout)
{
    const auto jobs = smallJobs();

    ShardOptions sopts;
    sopts.shards = 2;
    sopts.heartbeatIntervalMs = 25;
    sopts.heartbeatTimeoutMs = 200;
    sopts.respawnBackoffMs = 10;
    sopts.workerPreJob = [](size_t index) {
        if (index != 0)
            return;
        // Alive and busy but mute: only the coordinator's heartbeat
        // timeout can catch this failure mode.
        muteWorkerHeartbeatsForTest(true);
        std::this_thread::sleep_for(std::chrono::seconds(30));
    };
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);

    EXPECT_FALSE(rows[0].ok);
    EXPECT_TRUE(rows[0].quarantined);
    EXPECT_EQ(rows[0].errorKind, SimErrorKind::WorkerCrash);
    EXPECT_NE(rows[0].error.find("heartbeat silent"), std::string::npos)
        << rows[0].error;
    EXPECT_GE(sup.stats().heartbeatMisses, 2u);
    for (size_t i = 1; i < rows.size(); ++i)
        EXPECT_TRUE(rows[i].ok) << i << ": " << rows[i].error;
}

TEST(ShardSupervisor, JobDeadlineKillsRunawayJob)
{
    const auto jobs = smallJobs();

    ShardOptions sopts;
    sopts.shards = 2;
    sopts.jobDeadlineMs = 200;
    sopts.heartbeatIntervalMs = 25;
    sopts.respawnBackoffMs = 10;
    sopts.workerPreJob = [](size_t index) {
        // Heartbeats keep flowing (the beater thread is alive), so the
        // per-job deadline — not the heartbeat timeout — must fire.
        if (index == 0)
            std::this_thread::sleep_for(std::chrono::seconds(30));
    };
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);

    EXPECT_FALSE(rows[0].ok);
    EXPECT_TRUE(rows[0].quarantined);
    EXPECT_EQ(rows[0].errorKind, SimErrorKind::WorkerCrash);
    EXPECT_NE(rows[0].error.find("job deadline exceeded"),
              std::string::npos)
        << rows[0].error;
    for (size_t i = 1; i < rows.size(); ++i)
        EXPECT_TRUE(rows[i].ok) << i << ": " << rows[i].error;
}

TEST(ShardSupervisor, DrainLeavesEveryRowTerminalAndNoOrphans)
{
    // 2 workers x 6 jobs, each slowed enough that tripping the stop
    // flag after the first result leaves undispatched work behind.
    std::vector<ExperimentJob> jobs;
    for (int copy = 0; copy < 2; ++copy) {
        for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
            ExperimentJob j;
            j.workload = copy ? "BFS/Kernel" : "NN/euclid";
            j.arch = arch;
            jobs.push_back(std::move(j));
        }
    }

    std::atomic<bool> stop{false};
    ShardOptions sopts;
    sopts.shards = 2;
    sopts.stop = &stop;
    sopts.workerPreJob = [](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    std::atomic<size_t> resolved{0};
    sopts.onResult = [&](size_t, const ShardRow &) {
        ++resolved;
        stop.store(true, std::memory_order_release);
    };
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);

    size_t ok = 0, drained = 0;
    for (const auto &r : rows) {
        EXPECT_TRUE(r.ok || r.drained || !r.error.empty());
        ok += r.ok;
        drained += r.drained;
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(drained, 1u);
    EXPECT_EQ(ok + drained, rows.size());
    // run() returning implies every worker was reaped (waitpid) —
    // there is no one left to orphan by construction.
}

TEST(ShardSupervisor, JournaledShardSweepRestoresOnResume)
{
    const auto jobs = smallJobs();
    const std::string path =
        ::testing::TempDir() + "vgiw_shard_journal.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    const std::string hash = ExperimentEngine::sweepHash(jobs);

    std::vector<std::string> first_lines;
    {
        ResultJournal journal;
        std::string err;
        ASSERT_TRUE(journal.create(path, hash, &err)) << err;
        ShardOptions sopts;
        sopts.shards = 2;
        sopts.journal = &journal;
        ShardSupervisor sup(sopts);
        for (const auto &r : sup.run(jobs)) {
            ASSERT_TRUE(r.ok) << r.error;
            first_lines.push_back(r.jsonLine);
        }
    }

    ResultJournal journal;
    std::string err;
    ASSERT_TRUE(journal.openForResume(path, hash, &err)) << err;
    ASSERT_EQ(journal.entries().size(), jobs.size());

    ShardOptions sopts;
    sopts.shards = 2;
    sopts.journal = &journal;
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(rows[i].restored) << i;
        EXPECT_TRUE(rows[i].ok) << i;
        EXPECT_EQ(rows[i].jsonLine, first_lines[i]) << i;
    }
    // Everything restored: no worker forked, nothing traced.
    EXPECT_EQ(sup.stats().functionalExecutions, 0u);
    EXPECT_EQ(sup.stats().restarts, 0u);
}

TEST(ShardSupervisor, CounterNamesAreAStableSurface)
{
    // The *names* are the pinned contract (values are
    // timing-dependent): ops dashboards key on them. Sorted key order.
    SupervisorStats st;
    st.restarts = 1;
    st.crashes = 2;
    st.steals = 3;
    st.heartbeatMisses = 4;
    st.corruptFrames = 5;
    EXPECT_EQ(st.countersJson(),
              "{\"supervisor.corrupt_frames\":5,"
              "\"supervisor.crashes\":2,"
              "\"supervisor.heartbeat_misses\":4,"
              "\"supervisor.restarts\":1,"
              "\"supervisor.steals\":3}");
}

TEST(ShardSupervisor, CorruptFrameMidStreamSkipsOneRecordOnly)
{
    // A worker injects exactly one checksum-corrupt frame before job 1
    // (VGIW_TEST_FAULT=badframe grammar, armed here via the preJob
    // hook's process-global env). The coordinator must skip that one
    // record, count it, and parse every subsequent frame — all jobs
    // succeed, nothing is re-dispatched, no worker is killed.
    const auto jobs = smallJobs();
    const auto ref = referenceLines(jobs);

    ::setenv("VGIW_TEST_FAULT", "badframe:1", 1);
    ShardOptions sopts;
    sopts.shards = 2;
    ShardSupervisor sup(sopts);
    auto rows = sup.run(jobs);
    ::unsetenv("VGIW_TEST_FAULT");

    ASSERT_EQ(rows.size(), jobs.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(rows[i].ok) << i << ": " << rows[i].error;
        EXPECT_EQ(rows[i].jsonLine, ref[i]) << i;
    }
    EXPECT_EQ(sup.stats().corruptFrames, 1u);
    EXPECT_EQ(sup.stats().crashes, 0u);
    EXPECT_EQ(sup.stats().restarts, 0u);
}

} // namespace
} // namespace vgiw
