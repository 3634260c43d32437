/**
 * @file
 * Artifact-store tests: the byte codec is bounds-safe, blobs round-trip
 * through publish/load, every corruption mode (truncation, bit flips,
 * version skew, key collisions) demotes to a miss instead of crashing,
 * and the warm path through TraceCache / CompileCache / the engine
 * reproduces cold results byte-for-byte with zero functional executions
 * and zero compilations.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "driver/artifact_store.hh"
#include "driver/compile_cache.hh"
#include "driver/experiment_engine.hh"
#include "driver/system_config.hh"
#include "driver/trace_cache.hh"
#include "interp/trace.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

namespace fs = std::filesystem;

/** A fresh scratch store directory, removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path(::testing::TempDir() + "vgiw_store_" + tag)
    {
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string path;
};

const WorkloadEntry &
entryFor(const std::string &name)
{
    for (const auto &e : workloadRegistry())
        if (e.name == name)
            return e;
    throw std::runtime_error("no entry " + name);
}

/** Overwrite one byte of a file (corruption injection). */
void
flipByteAt(const std::string &path, uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(std::streamoff(offset));
    char c = 0;
    f.read(&c, 1);
    c = char(c ^ 0x5a);
    f.seekp(std::streamoff(offset));
    f.write(&c, 1);
}

void
truncateAt(const std::string &path, uint64_t len)
{
    fs::resize_file(path, len);
}

// --------------------------------------------------------------------
// Byte codec
// --------------------------------------------------------------------

TEST(ByteCodec, RoundTripsEveryFieldType)
{
    std::string buf;
    ByteWriter w(buf);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.f64(2.5);
    w.u8(7);
    const char raw[3] = {'a', 'b', 'c'};
    w.raw(raw, sizeof raw);

    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.f64(), 2.5);
    EXPECT_EQ(r.u8(), 7);
    const uint8_t *b = r.bytes(3);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(std::memcmp(b, raw, 3), 0);
    EXPECT_TRUE(r.done());
}

TEST(ByteCodec, TruncationIsStickyNotFatal)
{
    std::string buf;
    ByteWriter w(buf);
    w.u32(1);
    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u32(), 1u);
    // Reading past the end yields zeros and clears ok() permanently.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
    EXPECT_EQ(r.bytes(1), nullptr);
    // A subsequent in-bounds-sized read stays failed (sticky).
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, TrailingGarbageFailsDone)
{
    std::string buf;
    ByteWriter w(buf);
    w.u32(1);
    w.u8(0);
    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.done());  // one unread byte = corruption signal
}

// --------------------------------------------------------------------
// Store publish/load and corruption robustness
// --------------------------------------------------------------------

TEST(ArtifactStore, PublishThenLoadRoundTrips)
{
    ScratchDir dir("roundtrip");
    ArtifactStore store;
    std::string err;
    ASSERT_TRUE(store.open(dir.path, &err)) << err;

    const std::string payload = "the artifact payload bytes";
    ASSERT_TRUE(store.publish("t", "trace|abc|8x32", payload, &err))
        << err;

    ArtifactStore::Blob blob;
    ASSERT_TRUE(store.load("t", "trace|abc|8x32", &blob));
    ASSERT_EQ(blob.size, payload.size());
    EXPECT_EQ(std::memcmp(blob.payload, payload.data(), payload.size()),
              0);
    // The payload pointer is 8-aligned (TraceSet::deserialize relies
    // on it to overlay the thread index).
    EXPECT_EQ(uintptr_t(blob.payload) % 8, 0u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);
    EXPECT_EQ(store.bytesMapped(), payload.size());
}

TEST(ArtifactStore, AbsentKeyIsAMiss)
{
    ScratchDir dir("absent");
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    ArtifactStore::Blob blob;
    EXPECT_FALSE(store.load("t", "no such key", &blob));
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.rejected(), 0u);  // absent, not invalid
}

TEST(ArtifactStore, EveryCorruptionModeIsAMissNeverACrash)
{
    ScratchDir dir("corrupt");
    const std::string key = "trace|feed|16x64";
    const std::string payload(1000, 'x');

    auto publish_fresh = [&](ArtifactStore &store) {
        ASSERT_TRUE(store.open(dir.path));
        ASSERT_TRUE(store.publish("t", key, payload));
    };
    const auto check_miss = [&](const char *what) {
        ArtifactStore fresh;
        ASSERT_TRUE(fresh.open(dir.path));
        ArtifactStore::Blob blob;
        EXPECT_FALSE(fresh.load("t", key, &blob)) << what;
        EXPECT_EQ(fresh.misses(), 1u) << what;
        EXPECT_EQ(fresh.rejected(), 1u) << what;
    };

    {
        ArtifactStore store;
        publish_fresh(store);
        const std::string obj = store.objectPath("t", key);

        truncateAt(obj, 100);  // mid-payload truncation
        check_miss("truncated payload");

        publish_fresh(store);
        truncateAt(obj, 16);  // inside the fixed header
        check_miss("truncated header");

        publish_fresh(store);
        flipByteAt(obj, 700);  // payload bit flip -> checksum mismatch
        check_miss("flipped payload byte");

        publish_fresh(store);
        flipByteAt(obj, 33);  // a key byte -> key mismatch
        check_miss("flipped key byte");

        publish_fresh(store);
        flipByteAt(obj, 4);  // the version word
        check_miss("wrong format version");

        publish_fresh(store);
        flipByteAt(obj, 0);  // the magic
        check_miss("wrong magic");

        // A blob copied to another key's address (simulated FNV
        // collision): the embedded key mismatches and demotes to miss.
        publish_fresh(store);
        const std::string other = "trace|beef|16x64";
        fs::copy_file(obj, store.objectPath("t", other),
                      fs::copy_options::overwrite_existing);
        ArtifactStore fresh;
        ASSERT_TRUE(fresh.open(dir.path));
        ArtifactStore::Blob blob;
        EXPECT_FALSE(fresh.load("t", other, &blob));
        EXPECT_EQ(fresh.rejected(), 1u);
    }
}

TEST(ArtifactStore, DoublePublishIsBenign)
{
    ScratchDir dir("double");
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    const std::string payload = "deterministic bytes";
    ASSERT_TRUE(store.publish("t", "k", payload));
    ASSERT_TRUE(store.publish("t", "k", payload));  // same-key republish
    ArtifactStore::Blob blob;
    ASSERT_TRUE(store.load("t", "k", &blob));
    ASSERT_EQ(blob.size, payload.size());
    EXPECT_EQ(std::memcmp(blob.payload, payload.data(), payload.size()),
              0);
}

// --------------------------------------------------------------------
// Cross-process publication races (the shard-worker sharing contract:
// `vgiw_run --shards N` forks workers that publish into one store).
// Fork-based — keep these out of the sanitizer allowlist filters.
// --------------------------------------------------------------------

/** Fork @p body as a child process; returns its pid (aborts on error). */
pid_t
forkChild(const std::function<int()> &body)
{
    ::fflush(stdout);
    ::fflush(stderr);
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0) << "fork failed";
    if (pid == 0)
        ::_exit(body());
    return pid;
}

int
waitExit(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

TEST(ArtifactStoreRace, ConcurrentPublishSameKeyBothSucceed)
{
    ScratchDir dir("race_publish");
    const std::string key = "trace|race|8x32";
    const std::string payload(4096, 'r');

    // Two processes hammer the same key concurrently. Publication is
    // write-temp + atomic-rename, so every attempt must succeed and
    // the final object must be one valid blob — never an interleaving.
    auto publisher = [&]() -> int {
        ArtifactStore store;
        if (!store.open(dir.path))
            return 2;
        for (int i = 0; i < 50; ++i)
            if (!store.publish("t", key, payload))
                return 1;
        return 0;
    };
    const pid_t child = forkChild(publisher);
    EXPECT_EQ(publisher(), 0);  // parent races the child
    EXPECT_EQ(waitExit(child), 0);

    ArtifactStore fresh;
    ASSERT_TRUE(fresh.open(dir.path));
    ArtifactStore::Blob blob;
    ASSERT_TRUE(fresh.load("t", key, &blob));
    ASSERT_EQ(blob.size, payload.size());
    EXPECT_EQ(std::memcmp(blob.payload, payload.data(), payload.size()),
              0);
    EXPECT_EQ(fresh.rejected(), 0u);
}

TEST(ArtifactStoreRace, FlippedByteUnderRepublishRace)
{
    ScratchDir dir("race_corrupt");
    const std::string key = "trace|heal|16x64";
    const std::string payload(2048, 'h');

    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    ASSERT_TRUE(store.publish("t", key, payload));
    const std::string obj = store.objectPath("t", key);

    // Corrupt the blob: the checksum mismatch must demote to a miss.
    // Checked once, here, before any healer can republish over it.
    flipByteAt(obj, 1111);
    {
        ArtifactStore s;
        ASSERT_TRUE(s.open(dir.path));
        ArtifactStore::Blob b;
        ASSERT_FALSE(s.load("t", key, &b));
    }

    // Race two healers. A healer that still sees the corrupt object
    // republishes; one that loses the race may find the other's blob
    // already healed, and then it must be intact. Concurrent
    // republication over a corrupt object must leave exactly one valid
    // blob.
    auto healer = [&]() -> int {
        ArtifactStore s;
        if (!s.open(dir.path))
            return 2;
        ArtifactStore::Blob b;
        if (s.load("t", key, &b)) {
            const bool intact =
                b.size == payload.size() &&
                std::memcmp(b.payload, payload.data(), b.size) == 0;
            return intact ? 0 : 3;
        }
        return s.publish("t", key, payload) ? 0 : 1;
    };
    const pid_t child = forkChild(healer);
    EXPECT_EQ(healer(), 0);
    EXPECT_EQ(waitExit(child), 0);

    ArtifactStore fresh;
    ASSERT_TRUE(fresh.open(dir.path));
    ArtifactStore::Blob blob;
    ASSERT_TRUE(fresh.load("t", key, &blob));
    ASSERT_EQ(blob.size, payload.size());
    EXPECT_EQ(std::memcmp(blob.payload, payload.data(), payload.size()),
              0);
}

TEST(ArtifactStore, BlobOutlivesTheStore)
{
    ScratchDir dir("lifetime");
    ArtifactStore::Blob blob;
    {
        ArtifactStore store;
        ASSERT_TRUE(store.open(dir.path));
        ASSERT_TRUE(store.publish("t", "k", "still mapped"));
        ASSERT_TRUE(store.load("t", "k", &blob));
    }
    // The mapping is owned by blob.backing, not the store object.
    EXPECT_EQ(std::memcmp(blob.payload, "still mapped", blob.size), 0);
}

TEST(ArtifactStore, UnopenableDirectoryFailsOpenGracefully)
{
    ArtifactStore store;
    std::string err;
    EXPECT_FALSE(
        store.open("/proc/definitely/not/creatable/store", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(store.isOpen());
}

// --------------------------------------------------------------------
// TraceSet wire format
// --------------------------------------------------------------------

/** serializeInto bytes copied into 8-aligned storage. */
struct WireCopy
{
    explicit WireCopy(const TraceSet &ts)
    {
        std::string bytes;
        ts.serializeInto(bytes);
        words.resize((bytes.size() + 7) / 8);
        std::memcpy(words.data(), bytes.data(), bytes.size());
        len = bytes.size();
    }
    const uint8_t *data() const
    {
        return reinterpret_cast<const uint8_t *>(words.data());
    }
    std::vector<uint64_t> words;
    size_t len = 0;
};

void
expectSameDecodedTraces(const TraceSet &a, const TraceSet &b)
{
    ASSERT_EQ(a.numThreads(), b.numThreads());
    ASSERT_EQ(a.totalBlockExecs(), b.totalBlockExecs());
    ASSERT_EQ(a.totalAccesses(), b.totalAccesses());
    for (uint32_t tid = 0; tid < a.numThreads(); ++tid) {
        const ThreadTrace ta = a.decodeThread(tid);
        const ThreadTrace tb = b.decodeThread(tid);
        ASSERT_EQ(ta.execs.size(), tb.execs.size()) << "tid " << tid;
        ASSERT_EQ(ta.accesses.size(), tb.accesses.size())
            << "tid " << tid;
        for (size_t i = 0; i < ta.execs.size(); ++i) {
            EXPECT_EQ(ta.execs[i].block, tb.execs[i].block);
            EXPECT_EQ(ta.execs[i].succ, tb.execs[i].succ);
        }
        for (size_t i = 0; i < ta.accesses.size(); ++i) {
            EXPECT_EQ(ta.accesses[i].addr, tb.accesses[i].addr);
            EXPECT_EQ(ta.accesses[i].isStore, tb.accesses[i].isStore);
            EXPECT_EQ(ta.accesses[i].isShared, tb.accesses[i].isShared);
        }
    }
}

TEST(TraceSetWire, SerializeDeserializeRoundTripsDecodedStreams)
{
    TraceCache cache;
    TraceResult traced = cache.get(entryFor("BFS/Kernel"));
    ASSERT_TRUE(traced.ok());

    WireCopy wire(*traced.traces);
    TraceSet restored;
    ASSERT_TRUE(TraceSet::deserialize(wire.data(), wire.len, nullptr,
                                      traced.traces->kernel,
                                      traced.traces->launch, restored));
    EXPECT_TRUE(restored.storeBacked);
    EXPECT_EQ(restored.mappedBytes, wire.len);
    // The original carries an access-intern pool (the cache always
    // builds one); the restored copy does not — equal decoded streams
    // here also prove the interned fast path is observation-equivalent
    // to the varint decoder.
    EXPECT_TRUE(traced.traces->hasAccessIntern());
    EXPECT_FALSE(restored.hasAccessIntern());
    expectSameDecodedTraces(*traced.traces, restored);
}

TEST(TraceSetWire, MalformedBuffersAreRejectedNotFatal)
{
    TraceCache cache;
    TraceResult traced = cache.get(entryFor("NN/euclid"));
    ASSERT_TRUE(traced.ok());
    WireCopy wire(*traced.traces);
    const Kernel *k = traced.traces->kernel;
    const LaunchParams &lp = traced.traces->launch;

    TraceSet out;
    // Too short for even the fixed header.
    EXPECT_FALSE(TraceSet::deserialize(wire.data(), 8, nullptr, k, lp,
                                       out));
    // Truncated mid-stream: the length equation no longer holds.
    EXPECT_FALSE(TraceSet::deserialize(wire.data(), wire.len - 1,
                                       nullptr, k, lp, out));
    // Thread count inflated: index would run past the buffer.
    {
        std::vector<uint64_t> bad = wire.words;
        bad[0] = bad[0] * 2 + 1;
        EXPECT_FALSE(TraceSet::deserialize(
            reinterpret_cast<const uint8_t *>(bad.data()), wire.len,
            nullptr, k, lp, out));
    }
    // Stream length fields corrupted to huge values: overflow-guarded.
    {
        std::vector<uint64_t> bad = wire.words;
        bad[1] = ~0ull;
        EXPECT_FALSE(TraceSet::deserialize(
            reinterpret_cast<const uint8_t *>(bad.data()), wire.len,
            nullptr, k, lp, out));
        bad = wire.words;
        bad[2] = ~0ull - 7;
        EXPECT_FALSE(TraceSet::deserialize(
            reinterpret_cast<const uint8_t *>(bad.data()), wire.len,
            nullptr, k, lp, out));
    }
    // Misaligned base pointer.
    EXPECT_FALSE(TraceSet::deserialize(wire.data() + 1, wire.len - 1,
                                       nullptr, k, lp, out));
}

// --------------------------------------------------------------------
// Warm trace cache
// --------------------------------------------------------------------

TEST(ArtifactStoreTraceCache, WarmLoadSkipsFunctionalExecution)
{
    ScratchDir dir("warm_traces");
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));

    // Cold: one functional execution, traces published.
    TraceCache cold;
    cold.setStore(&store);
    TraceResult first = cold.get(entryFor("GE/Fan1"));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(cold.functionalExecutions(), 1u);
    EXPECT_FALSE(first.traces->storeBacked);
    EXPECT_NE(first.traces->contentHash, 0u);

    // Warm: a fresh cache (fresh process, conceptually) over the same
    // store must not execute at all and must decode identical traces.
    ArtifactStore store2;
    ASSERT_TRUE(store2.open(dir.path));
    TraceCache warm;
    warm.setStore(&store2);
    TraceResult second = warm.get(entryFor("GE/Fan1"));
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.goldenPassed);
    EXPECT_EQ(warm.functionalExecutions(), 0u);
    EXPECT_TRUE(second.traces->storeBacked);
    EXPECT_GT(second.traces->mappedBytes, 0u);
    EXPECT_EQ(second.traces->contentHash, first.traces->contentHash);
    EXPECT_TRUE(second.traces->hasAccessIntern());
    expectSameDecodedTraces(*first.traces, *second.traces);
    EXPECT_EQ(store2.hits(), 1u);
}

TEST(ArtifactStoreTraceCache, CorruptBlobFallsBackToExecution)
{
    ScratchDir dir("corrupt_traces");
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    TraceCache cold;
    cold.setStore(&store);
    TraceResult first = cold.get(entryFor("NN/euclid"));
    ASSERT_TRUE(first.ok());

    // Corrupt the published blob's payload region.
    fs::path obj;
    for (const auto &e : fs::recursive_directory_iterator(dir.path))
        if (e.is_regular_file())
            obj = e.path();
    ASSERT_FALSE(obj.empty());
    flipByteAt(obj.string(), fs::file_size(obj) - 16);

    // The warm attempt demotes to a miss and recomputes; the job still
    // succeeds with identical traces.
    ArtifactStore store2;
    ASSERT_TRUE(store2.open(dir.path));
    TraceCache warm;
    warm.setStore(&store2);
    TraceResult second = warm.get(entryFor("NN/euclid"));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(warm.functionalExecutions(), 1u);
    EXPECT_FALSE(second.traces->storeBacked);
    EXPECT_GE(store2.rejected(), 1u);
    expectSameDecodedTraces(*first.traces, *second.traces);
}

TEST(ArtifactStoreTraceCache, GoldenFailuresAreNeverPublished)
{
    ScratchDir dir("golden_fail");
    auto failing = []() {
        WorkloadInstance w = makeWorkload("NN/euclid");
        w.check = [](const MemoryImage &, std::string &err) {
            err = "bad output";
            return false;
        };
        return w;
    };
    {
        ArtifactStore store;
        ASSERT_TRUE(store.open(dir.path));
        TraceCache cache;
        cache.setStore(&store);
        TraceResult r = cache.get("SYNTH/fails", failing);
        EXPECT_FALSE(r.ok());
    }
    // Nothing landed in the store: a later run re-executes (and fails
    // again) instead of trusting a failed run's traces.
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    TraceCache cache;
    cache.setStore(&store);
    TraceResult r = cache.get("SYNTH/fails", failing);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(cache.functionalExecutions(), 1u);
    EXPECT_EQ(store.hits(), 0u);
}

// --------------------------------------------------------------------
// Warm compile cache
// --------------------------------------------------------------------

TEST(ArtifactStoreCompileCache, WarmLoadSkipsCompilationOnAllArchs)
{
    ScratchDir dir("warm_ck");
    SystemConfig cfg;
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));

    // Cold: trace + compile each architecture once, publishing both.
    TraceCache cold_traces;
    cold_traces.setStore(&store);
    TraceResult traced = cold_traces.get(entryFor("BFS/Kernel"));
    ASSERT_TRUE(traced.ok());
    const std::string kkey =
        TraceCache::keyFor("BFS/Kernel", traced.traces->launch);
    CompileCache cold;
    cold.setStore(&store);
    std::vector<RunStats> cold_stats;
    for (const auto &model : makeCoreModels(cfg)) {
        auto compiled = cold.get(*model, kkey, traced.traces);
        ASSERT_NE(compiled, nullptr);
        cold_stats.push_back(model->run(*traced.traces, *compiled));
    }
    EXPECT_EQ(cold.compilations(), knownArchitectures().size());

    // Warm: fresh caches over the same store — zero executions, zero
    // compilations, and replay statistics identical on every arch.
    ArtifactStore store2;
    ASSERT_TRUE(store2.open(dir.path));
    TraceCache warm_traces;
    warm_traces.setStore(&store2);
    TraceResult warm_traced = warm_traces.get(entryFor("BFS/Kernel"));
    ASSERT_TRUE(warm_traced.ok());
    EXPECT_EQ(warm_traces.functionalExecutions(), 0u);
    CompileCache warm;
    warm.setStore(&store2);
    size_t arch = 0;
    for (const auto &model : makeCoreModels(cfg)) {
        CompileCache::FetchInfo info;
        auto compiled =
            warm.get(*model, kkey, warm_traced.traces, &info);
        ASSERT_NE(compiled, nullptr) << model->name();
        EXPECT_TRUE(info.storeBacked) << model->name();
        EXPECT_GT(info.mappedBytes, 0u) << model->name();
        RunStats warm_stats =
            model->run(*warm_traced.traces, *compiled);
        JobResult ra, rb;
        ra.ran = rb.ran = true;
        ra.stats = cold_stats[arch++];
        rb.stats = warm_stats;
        EXPECT_EQ(ExperimentEngine::toJsonLine(ra),
                  ExperimentEngine::toJsonLine(rb))
            << model->name();
    }
    EXPECT_EQ(warm.compilations(), 0u);
}

TEST(ArtifactStoreCompileCache, CorruptArtifactRecompiles)
{
    ScratchDir dir("corrupt_ck");
    SystemConfig cfg;
    ArtifactStore store;
    ASSERT_TRUE(store.open(dir.path));
    TraceCache traces;
    traces.setStore(&store);
    TraceResult traced = traces.get(entryFor("NN/euclid"));
    ASSERT_TRUE(traced.ok());
    const std::string kkey =
        TraceCache::keyFor("NN/euclid", traced.traces->launch);
    {
        CompileCache cold;
        cold.setStore(&store);
        auto model = makeCoreModel("vgiw", cfg);
        ASSERT_NE(cold.get(*model, kkey, traced.traces), nullptr);
    }

    // Flip a byte in every .ck blob (payload region, past the header).
    for (const auto &e : fs::recursive_directory_iterator(dir.path))
        if (e.is_regular_file() &&
            e.path().string().find(".ck") != std::string::npos)
            flipByteAt(e.path().string(), fs::file_size(e.path()) - 4);

    ArtifactStore store2;
    ASSERT_TRUE(store2.open(dir.path));
    CompileCache warm;
    warm.setStore(&store2);
    auto model = makeCoreModel("vgiw", cfg);
    CompileCache::FetchInfo info;
    auto compiled = warm.get(*model, kkey, traced.traces, &info);
    ASSERT_NE(compiled, nullptr);
    EXPECT_FALSE(info.storeBacked);
    EXPECT_EQ(warm.compilations(), 1u);
    RunStats rs = model->run(*traced.traces, *compiled);
    EXPECT_GT(rs.cycles, 0u);
}

// --------------------------------------------------------------------
// Engine-level bit identity
// --------------------------------------------------------------------

TEST(ArtifactStoreEngine, WarmSweepIsByteIdenticalWithZeroWork)
{
    ScratchDir dir("engine");
    const char *kernels[] = {"NN/euclid", "BFS/Kernel", "GE/Fan1"};
    std::vector<ExperimentJob> jobs;
    for (const char *name : kernels) {
        for (const auto &arch : knownArchitectures()) {
            for (uint32_t kb : {32u, 128u}) {
                ExperimentJob job;
                job.workload = name;
                job.arch = arch;
                job.configLabel = std::to_string(kb) + "KB";
                job.config.vgiw.lvcBytes = kb * 1024;
                jobs.push_back(std::move(job));
            }
        }
    }

    auto run_with = [&](ArtifactStore *store) {
        EngineOptions opts{2};
        opts.artifactStore = store;
        ExperimentEngine engine{opts};
        auto results = engine.run(jobs);
        std::vector<std::string> lines;
        for (const auto &r : results) {
            EXPECT_TRUE(r.ok()) << r.workload << ": " << r.error;
            lines.push_back(ExperimentEngine::toJsonLine(r));
        }
        struct Out
        {
            std::vector<std::string> lines;
            uint64_t execs, comps;
        };
        return Out{std::move(lines),
                   engine.traceCache().functionalExecutions(),
                   engine.compileCache().compilations()};
    };

    // Reference: no store at all.
    auto plain = run_with(nullptr);

    ArtifactStore cold_store;
    ASSERT_TRUE(cold_store.open(dir.path));
    auto cold = run_with(&cold_store);
    EXPECT_EQ(cold.execs, std::size(kernels));
    EXPECT_GT(cold.comps, 0u);

    ArtifactStore warm_store;
    ASSERT_TRUE(warm_store.open(dir.path));
    auto warm = run_with(&warm_store);
    EXPECT_EQ(warm.execs, 0u);
    EXPECT_EQ(warm.comps, 0u);
    EXPECT_GT(warm_store.hits(), 0u);

    ASSERT_EQ(plain.lines.size(), warm.lines.size());
    for (size_t i = 0; i < plain.lines.size(); ++i) {
        EXPECT_EQ(plain.lines[i], cold.lines[i]) << jobs[i].workload;
        EXPECT_EQ(plain.lines[i], warm.lines[i]) << jobs[i].workload;
    }
}

} // namespace
} // namespace vgiw
