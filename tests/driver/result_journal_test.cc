/**
 * @file
 * Result-journal tests: the header must pin the sweep hash (stale
 * journals are rejected, never merged), entries must round-trip the
 * exact JSON bytes the run emitted (the bit-identity contract), a
 * torn final line must be dropped without losing the intact prefix,
 * and concurrent engine workers must journal every job exactly once.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "driver/experiment_engine.hh"
#include "driver/result_journal.hh"

namespace vgiw
{
namespace
{

std::string
journalPath(const std::string &name)
{
    return ::testing::TempDir() + "vgiw_journal_" + name + ".jsonl";
}

void
removeJournal(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

JournalEntry
entry(const std::string &key, bool ok, const std::string &jsonLine)
{
    JournalEntry e;
    e.key = key;
    e.ok = ok;
    e.golden = ok;
    e.jsonLine = jsonLine;
    return e;
}

TEST(ResultJournal, HeaderRoundTripsSweepHash)
{
    const std::string path = journalPath("header");
    removeJournal(path);

    ResultJournal j;
    std::string err;
    ASSERT_TRUE(j.create(path, "deadbeef01234567", &err)) << err;
    j.close();

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_EQ(loaded.sweepHash, "deadbeef01234567");
    EXPECT_TRUE(loaded.entries.empty());
}

TEST(ResultJournal, EntriesRoundTripExactJsonBytes)
{
    const std::string path = journalPath("roundtrip");
    removeJournal(path);

    // The jsonLine must survive byte-for-byte — including embedded
    // escapes and failure-only fields — because resume re-emits it
    // verbatim to keep merged output bit-identical.
    const std::string ok_line =
        "{\"workload\":\"NN/euclid\",\"arch\":\"vgiw\",\"ok\":true,"
        "\"cycles\":12345}";
    const std::string bad_line =
        "{\"workload\":\"SYNTH/x\",\"arch\":\"fermi\",\"ok\":false,"
        "\"error\":\"watchdog: \\\"budget\\\" exceeded\\n\","
        "\"attempts\":3,\"quarantined\":true}";

    ResultJournal j;
    std::string err;
    ASSERT_TRUE(j.create(path, "feedface00000000", &err)) << err;
    ASSERT_TRUE(j.append(entry("NN/euclid|vgiw||k1", true, ok_line)));
    JournalEntry quarantined = entry("SYNTH/x|fermi||k2", false, bad_line);
    quarantined.quarantined = true;
    ASSERT_TRUE(j.append(quarantined));
    EXPECT_TRUE(j.writeError().empty());
    j.close();

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    ASSERT_EQ(loaded.entries.size(), 2u);

    const auto &a = loaded.entries.at("NN/euclid|vgiw||k1");
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(a.golden);
    EXPECT_FALSE(a.quarantined);
    EXPECT_EQ(a.jsonLine, ok_line);

    const auto &b = loaded.entries.at("SYNTH/x|fermi||k2");
    EXPECT_FALSE(b.ok);
    EXPECT_TRUE(b.quarantined);
    EXPECT_EQ(b.jsonLine, bad_line);
}

TEST(ResultJournal, ResumeRejectsStaleSweepHash)
{
    const std::string path = journalPath("stale");
    removeJournal(path);

    ResultJournal writer;
    std::string err;
    ASSERT_TRUE(writer.create(path, "0000000000000aaa", &err)) << err;
    writer.close();

    // The sweep definition changed (different hash): the old results
    // belong to a different experiment and must not be merged.
    ResultJournal reader;
    EXPECT_FALSE(reader.openForResume(path, "0000000000000bbb", &err));
    EXPECT_NE(err.find("stale"), std::string::npos) << err;
    EXPECT_NE(err.find("refusing to merge"), std::string::npos) << err;
    EXPECT_FALSE(reader.isOpen());
}

TEST(ResultJournal, ResumeOnMissingFileDegradesToCreate)
{
    const std::string path = journalPath("fresh");
    removeJournal(path);

    ResultJournal j;
    std::string err;
    ASSERT_TRUE(j.openForResume(path, "cafe000000000000", &err)) << err;
    EXPECT_TRUE(j.isOpen());
    EXPECT_TRUE(j.entries().empty());
    j.close();

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_EQ(loaded.sweepHash, "cafe000000000000");
}

TEST(ResultJournal, TruncatedTailLineIsDroppedNotFatal)
{
    const std::string path = journalPath("torn");
    removeJournal(path);

    ResultJournal j;
    std::string err;
    ASSERT_TRUE(j.create(path, "abad1dea00000000", &err)) << err;
    ASSERT_TRUE(j.append(entry("k1", true, "{\"cycles\":1}")));
    ASSERT_TRUE(j.append(entry("k2", true, "{\"cycles\":2}")));
    j.close();

    // Simulate a crash mid-append: a half-written record with no
    // closing brace and no newline.
    {
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "{\"key\":\"k3\",\"ok\":tru";
    }

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries.count("k3"), 0u);
    EXPECT_EQ(loaded.entries.at("k2").jsonLine, "{\"cycles\":2}");
}

TEST(ResultJournal, DuplicateKeysResolveLastCompleteRecordWins)
{
    const std::string path = journalPath("dupes");
    removeJournal(path);

    // A restarted coordinator legitimately re-appends a key (the job
    // re-ran after the first record's writer died post-fsync). The
    // loader must keep the *last complete* record, and a torn
    // duplicate must never shadow a complete one.
    ResultJournal j;
    std::string err;
    ASSERT_TRUE(j.create(path, "d0d0d0d0d0d0d0d0", &err)) << err;
    ASSERT_TRUE(j.append(entry("k1", false, "{\"attempt\":1}")));
    ASSERT_TRUE(j.append(entry("k2", true, "{\"cycles\":7}")));
    ASSERT_TRUE(j.append(entry("k1", true, "{\"attempt\":2}")));
    j.close();

    // A torn re-append of k1 after the complete records: dropped, and
    // the complete k1 above still wins.
    {
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "{\"key\":\"k1\",\"ok\":false,\"gol";
    }

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_TRUE(loaded.entries.at("k1").ok);
    EXPECT_EQ(loaded.entries.at("k1").jsonLine, "{\"attempt\":2}");
    EXPECT_EQ(loaded.entries.at("k2").jsonLine, "{\"cycles\":7}");
}

TEST(ResultJournal, MalformedMidFileLineDoesNotHideLaterRecords)
{
    const std::string path = journalPath("midtorn");
    removeJournal(path);

    ResultJournal first;
    std::string err;
    ASSERT_TRUE(first.create(path, "beefbeefbeefbeef", &err)) << err;
    ASSERT_TRUE(first.append(entry("k1", true, "{\"cycles\":1}")));
    first.close();

    // A predecessor died mid-append (no newline), then a successor
    // re-opened the journal and kept appending. openAppend terminates
    // the torn fragment so the successor's records start on a fresh
    // line; load() must drop the bad line and keep everything after.
    {
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "{\"key\":\"k2\",\"ok\":tru";
    }
    ResultJournal second;
    ASSERT_TRUE(second.openForResume(path, "beefbeefbeefbeef", &err))
        << err;
    EXPECT_EQ(second.entries().size(), 1u);
    ASSERT_TRUE(second.append(entry("k2", true, "{\"cycles\":2}")));
    ASSERT_TRUE(second.append(entry("k3", true, "{\"cycles\":3}")));
    second.close();

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    ASSERT_EQ(loaded.entries.size(), 3u);
    EXPECT_EQ(loaded.entries.at("k2").jsonLine, "{\"cycles\":2}");
    EXPECT_EQ(loaded.entries.at("k3").jsonLine, "{\"cycles\":3}");
}

TEST(ResultJournal, CreateRotatesExistingJournalAside)
{
    const std::string path = journalPath("rotate");
    removeJournal(path);

    ResultJournal first;
    std::string err;
    ASSERT_TRUE(first.create(path, "1111111111111111", &err)) << err;
    ASSERT_TRUE(first.append(entry("old", true, "{\"cycles\":9}")));
    first.close();

    ResultJournal second;
    ASSERT_TRUE(second.create(path, "2222222222222222", &err)) << err;
    second.close();

    // The fresh journal took the path; the old one survives at .1.
    auto fresh = ResultJournal::load(path);
    ASSERT_TRUE(fresh.valid) << fresh.error;
    EXPECT_EQ(fresh.sweepHash, "2222222222222222");
    EXPECT_TRUE(fresh.entries.empty());

    auto rotated = ResultJournal::load(path + ".1");
    ASSERT_TRUE(rotated.valid) << rotated.error;
    EXPECT_EQ(rotated.sweepHash, "1111111111111111");
    EXPECT_EQ(rotated.entries.count("old"), 1u);
}

TEST(ResultJournal, EngineWorkersJournalEveryJobExactlyOnce)
{
    const std::string path = journalPath("engine");
    removeJournal(path);

    // A small real sweep on 4 workers: every job's terminal result must
    // land in the journal under its jobKey, with the exact bytes of its
    // result-table row, despite concurrent appends.
    SystemConfig cfg;
    std::vector<ExperimentJob> jobs;
    for (const char *w : {"NN/euclid", "BFS/Kernel", "NN/euclid"}) {
        for (const char *arch : {"vgiw", "fermi"}) {
            ExperimentJob j;
            j.workload = w;
            j.arch = arch;
            j.config = cfg;
            jobs.push_back(j);
        }
    }

    ResultJournal journal;
    std::string err;
    ASSERT_TRUE(
        journal.create(path, ExperimentEngine::sweepHash(jobs), &err))
        << err;

    EngineOptions opts{4};
    opts.journal = &journal;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);
    journal.close();
    ASSERT_EQ(results.size(), jobs.size());

    auto loaded = ResultJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    // Duplicate sweep points share a key (same workload/arch/config),
    // so the journal holds one entry per distinct key.
    std::map<std::string, size_t> byKey;
    for (size_t i = 0; i < jobs.size(); ++i)
        byKey[ExperimentEngine::jobKey(jobs[i])] = i;
    ASSERT_EQ(loaded.entries.size(), byKey.size());
    for (const auto &[key, index] : byKey) {
        ASSERT_EQ(loaded.entries.count(key), 1u) << key;
        const auto &e = loaded.entries.at(key);
        EXPECT_TRUE(e.ok) << key;
        EXPECT_EQ(e.jsonLine, engine.resultTable().renderRow(index))
            << key;
    }
}

TEST(ResultJournal, ResumedEngineRestoresJournaledJobsVerbatim)
{
    const std::string path = journalPath("resume");
    removeJournal(path);

    SystemConfig cfg;
    std::vector<ExperimentJob> jobs;
    for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
        ExperimentJob j;
        j.workload = "NN/euclid";
        j.arch = arch;
        j.config = cfg;
        jobs.push_back(j);
    }
    const std::string hash = ExperimentEngine::sweepHash(jobs);

    // Reference: one uninterrupted run, fully journaled.
    std::vector<std::string> reference;
    {
        ResultJournal journal;
        std::string err;
        ASSERT_TRUE(journal.create(path, hash, &err)) << err;
        EngineOptions opts{1};
        opts.journal = &journal;
        ExperimentEngine engine(opts);
        const auto results = engine.run(jobs);
        for (size_t i = 0; i < results.size(); ++i)
            reference.emplace_back(engine.resultTable().renderRow(i));
    }

    // Resume against the complete journal: every job is satisfied from
    // disk (restored), nothing re-executes, bytes match exactly.
    ResultJournal journal;
    std::string err;
    ASSERT_TRUE(journal.openForResume(path, hash, &err)) << err;
    EXPECT_EQ(journal.entries().size(), jobs.size());

    EngineOptions opts{2};
    opts.journal = &journal;
    ExperimentEngine engine(opts);
    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].restored) << i;
        EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].error;
        EXPECT_EQ(engine.resultTable().renderRow(i), reference[i])
            << i;
    }
}

} // namespace
} // namespace vgiw
