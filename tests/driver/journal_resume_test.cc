/**
 * @file
 * Kill-and-resume integration test: a sweep process SIGKILLed mid-run
 * must leave a journal whose intact prefix lets a resumed engine
 * produce output bit-identical to an uninterrupted run. SIGKILL is the
 * one signal no handler can soften — if bit-identity survives it, it
 * survives OOM kills and power loss too (each append is fsync'd).
 *
 * The child re-runs the sweep in a forked process (no gtest assertions
 * there; it exits via _exit so no parent state is torn down twice).
 * The parent waits for at least one journaled entry, kills the child,
 * resumes against the same journal, and compares every JSON line.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/experiment_engine.hh"
#include "driver/result_journal.hh"

namespace vgiw
{
namespace
{

std::vector<ExperimentJob>
sweepJobs()
{
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"NN/euclid", "BFS/Kernel"}) {
        for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            jobs.push_back(j);
        }
    }
    return jobs;
}

size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    return lines;
}

TEST(JournalResume, KilledSweepResumesBitIdentically)
{
    const std::string path =
        ::testing::TempDir() + "vgiw_kill_resume.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    const auto jobs = sweepJobs();
    const std::string hash = ExperimentEngine::sweepHash(jobs);

    // Uninterrupted reference, in-process.
    std::vector<std::string> reference;
    {
        ExperimentEngine engine{EngineOptions{1}};
        const auto results = engine.run(jobs);
        for (size_t i = 0; i < results.size(); ++i) {
            const JobResult &r = results[i];
            ASSERT_TRUE(r.ok()) << r.workload << "/" << r.arch << ": "
                                << r.error;
            reference.emplace_back(engine.resultTable().renderRow(i));
        }
    }

    const pid_t child = ::fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        // Child: journal the same sweep serially until killed. No
        // gtest, no exceptions escaping, and _exit (not exit) so the
        // parent's atexit/stream state is not run down twice.
        ResultJournal journal;
        if (!journal.create(path, hash))
            ::_exit(10);
        EngineOptions opts{1};
        opts.journal = &journal;
        ExperimentEngine engine(opts);
        engine.run(jobs);
        journal.close();
        ::_exit(0);
    }

    // Parent: wait until at least one entry (header + 1 line) is
    // durable, then SIGKILL mid-sweep. If the child is quick enough to
    // finish first, the kill is a no-op and resume degrades to "all
    // jobs restored" — still a valid bit-identity check.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (lineCount(path) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(lineCount(path), 2u)
        << "child never journaled an entry";
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    // Resume: the journal's intact prefix satisfies the jobs it holds;
    // the rest re-execute.
    ResultJournal journal;
    std::string err;
    ASSERT_TRUE(journal.openForResume(path, hash, &err)) << err;
    const auto journaled = journal.entries();  // pre-run snapshot
    EXPECT_GE(journaled.size(), 1u);

    EngineOptions opts{2};
    opts.journal = &journal;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);
    journal.close();

    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const std::string key = ExperimentEngine::jobKey(jobs[i]);
        EXPECT_EQ(results[i].restored, journaled.count(key) == 1)
            << key;
        EXPECT_TRUE(results[i].ok())
            << key << ": " << results[i].error;
        EXPECT_EQ(engine.resultTable().renderRow(i), reference[i])
            << key;
    }

    // After the resumed run the journal covers the whole sweep: a
    // second resume restores everything without executing anything.
    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_EQ(loaded.entries.size(), jobs.size());
}

} // namespace
} // namespace vgiw
