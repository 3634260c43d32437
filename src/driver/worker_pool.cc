#include "driver/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "common/backoff.hh"
#include "common/signal_drain.hh"
#include "common/subprocess.hh"
#include "driver/artifact_store.hh"

namespace vgiw
{

namespace
{

using Clock = std::chrono::steady_clock;

uint64_t
envMsOverride(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    return (end && *end == '\0') ? n : fallback;
}

/** Consecutive CorruptRecord reads tolerated on one stream before the
 * peer is declared desynchronised. Aligned single-record corruption is
 * skippable by design; a *run* of bad checksums usually means a
 * corrupted length field took the framing with it. */
constexpr unsigned kMaxConsecutiveCorrupt = 3;

std::atomic<bool> g_mute_heartbeats{false};

// ---------------------------------------------------------------------
// Payload codecs. Native layout: the peers are fork()s of one process;
// the frame layer adds length + checksum.

enum : uint8_t
{
    kMsgOk = 1 << 0,
    kMsgGolden = 1 << 1,
    kMsgRan = 1 << 2,
    kMsgSupported = 1 << 3,
    kMsgQuarantined = 1 << 4,
    kMsgDrained = 1 << 5,
};

void
putString(ByteWriter &w, std::string_view s)
{
    w.u32(uint32_t(s.size()));
    w.raw(s.data(), s.size());
}

bool
getString(ByteReader &rd, std::string *out)
{
    const uint32_t len = rd.u32();
    if (const uint8_t *p = rd.bytes(len)) {
        out->assign(reinterpret_cast<const char *>(p), len);
        return true;
    }
    return len == 0;
}

/** FrameType::Result payload, decoded. */
struct ResultMsg
{
    uint64_t index = 0;
    bool ok = false, golden = false, ran = false, supported = false;
    bool quarantined = false, drained = false;
    SimErrorKind kind = SimErrorKind::None;
    uint32_t attempts = 1;
    uint64_t cycles = 0;
    double systemPj = 0.0;
    double l1MissRate = 0.0;
    std::string error;
    std::string jsonLine;
};

std::string
encodeResultMsg(uint64_t index, const JobResult &r,
                std::string_view jsonLine)
{
    std::string payload;
    ByteWriter w(payload);
    w.u64(index);
    uint8_t flags = 0;
    if (r.ok())
        flags |= kMsgOk;
    if (r.goldenPassed)
        flags |= kMsgGolden;
    if (r.ran)
        flags |= kMsgRan;
    if (r.stats.supported)
        flags |= kMsgSupported;
    if (r.quarantined)
        flags |= kMsgQuarantined;
    if (r.drained)
        flags |= kMsgDrained;
    w.u8(flags);
    w.u8(uint8_t(r.errorKind));
    w.u32(r.attempts);
    w.u64(r.stats.cycles);
    w.f64(r.stats.energy.systemPj());
    w.f64(r.stats.l1Stats.missRate());
    putString(w, r.error);
    putString(w, jsonLine);
    return payload;
}

bool
decodeResultMsg(const std::string &payload, ResultMsg *out)
{
    ByteReader rd(payload.data(), payload.size());
    out->index = rd.u64();
    const uint8_t flags = rd.u8();
    out->ok = flags & kMsgOk;
    out->golden = flags & kMsgGolden;
    out->ran = flags & kMsgRan;
    out->supported = flags & kMsgSupported;
    out->quarantined = flags & kMsgQuarantined;
    out->drained = flags & kMsgDrained;
    out->kind = SimErrorKind(rd.u8());
    out->attempts = rd.u32();
    out->cycles = rd.u64();
    out->systemPj = rd.f64();
    out->l1MissRate = rd.f64();
    if (!getString(rd, &out->error) || !getString(rd, &out->jsonLine))
        return false;
    return rd.done();
}

/** FrameType::Stats payload: final per-worker cache/store counters. */
struct StatsMsg
{
    uint64_t functionalExecutions = 0;
    uint64_t compilations = 0;
    uint64_t storeHits = 0;
    uint64_t storeMisses = 0;
    uint64_t storeBytesMapped = 0;
};

std::string
encodeStatsMsg(const StatsMsg &m)
{
    std::string payload;
    ByteWriter w(payload);
    w.u64(m.functionalExecutions);
    w.u64(m.compilations);
    w.u64(m.storeHits);
    w.u64(m.storeMisses);
    w.u64(m.storeBytesMapped);
    return payload;
}

bool
decodeStatsMsg(const std::string &payload, StatsMsg *out)
{
    ByteReader rd(payload.data(), payload.size());
    out->functionalExecutions = rd.u64();
    out->compilations = rd.u64();
    out->storeHits = rd.u64();
    out->storeMisses = rd.u64();
    out->storeBytesMapped = rd.u64();
    return rd.done();
}

// ---------------------------------------------------------------------
// Test faults: VGIW_TEST_FAULT="<kind>:<n>[:<millis>]", armed inside a
// worker when it reaches global job index n.

struct TestFault
{
    enum class Kind
    {
        None,
        Segv,
        Kill,
        Abort,
        Stall,
        Mute,
        BadFrame, ///< emit one corrupt-checksum frame before job n
    };
    Kind kind = Kind::None;
    uint64_t index = 0;
    int millis = 0;
};

TestFault
parseTestFault(const char *spec)
{
    TestFault f;
    if (!spec || !*spec)
        return f;
    std::string s(spec);
    const size_t c1 = s.find(':');
    if (c1 == std::string::npos)
        return f;
    const std::string action = s.substr(0, c1);
    const size_t c2 = s.find(':', c1 + 1);
    const std::string idx = s.substr(
        c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
    f.index = std::strtoull(idx.c_str(), nullptr, 10);
    if (c2 != std::string::npos)
        f.millis = int(std::strtoul(s.c_str() + c2 + 1, nullptr, 10));
    if (action == "segv")
        f.kind = TestFault::Kind::Segv;
    else if (action == "kill")
        f.kind = TestFault::Kind::Kill;
    else if (action == "abort")
        f.kind = TestFault::Kind::Abort;
    else if (action == "stall")
        f.kind = TestFault::Kind::Stall;
    else if (action == "mute")
        f.kind = TestFault::Kind::Mute;
    else if (action == "badframe")
        f.kind = TestFault::Kind::BadFrame;
    return f;
}

/** Arm a process-kind fault on @p injector (the engine's Replay
 * point). BadFrame is not an injector fault; the worker loop acts on it
 * directly. */
void
armTestFault(const TestFault &f, FaultInjector &injector)
{
    using Point = FaultInjector::Point;
    // The worker engine runs one job at a time, so the local index the
    // injector sees is always 0.
    switch (f.kind) {
      case TestFault::Kind::Segv:
        injector.armRaise(Point::Replay, 0, SIGSEGV);
        break;
      case TestFault::Kind::Kill:
        injector.armRaise(Point::Replay, 0, SIGKILL);
        break;
      case TestFault::Kind::Abort:
        injector.armRaise(Point::Replay, 0, SIGABRT);
        break;
      case TestFault::Kind::Stall:
        injector.armStall(Point::Replay, 0, f.millis ? f.millis : 30000);
        break;
      case TestFault::Kind::Mute:
        // A silent worker: alive and busy but no heartbeats — the
        // supervisor's timeout, not waitpid, has to catch this one.
        g_mute_heartbeats.store(true, std::memory_order_relaxed);
        injector.armStall(Point::Replay, 0, f.millis ? f.millis : 30000);
        break;
      case TestFault::Kind::None:
      case TestFault::Kind::BadFrame:
        break;  // not an injector fault; the worker loop emits it
    }
}

// ---------------------------------------------------------------------
// The worker body and the coordinator's scheduling structure.

/**
 * The forked worker's main loop: read Job frames carrying u64 indices
 * into @p jobs, run each through a worker-lifetime ExperimentEngine,
 * stream back Result frames rendered with ResultTable::renderRow (the
 * byte-identity contract), heartbeat from a side thread, send a final
 * Stats frame, honour Shutdown/EOF/drain. Returns the worker exit code.
 */
int
runShardWorker(int in_fd, int out_fd,
               const std::vector<ExperimentJob> &jobs,
               const ShardOptions &opts)
{
    ignoreSigpipe();
    installDrainHandlers();

    // Liveness breadcrumb for orphan-detection tests: present while
    // the worker runs, removed on clean exit. A crash leaves a stale
    // file whose pid no longer exists — which is exactly the
    // distinction the no-orphans check needs.
    std::string pidfile;
    if (const char *dir = std::getenv("VGIW_SHARD_PIDFILE_DIR");
        dir && *dir) {
        pidfile = std::string(dir) + "/worker-" +
                  std::to_string(::getpid()) + ".alive";
        if (std::FILE *f = std::fopen(pidfile.c_str(), "w")) {
            std::fprintf(f, "%d\n", int(::getpid()));
            std::fclose(f);
        }
    }

    const TestFault fault = parseTestFault(std::getenv("VGIW_TEST_FAULT"));

    FaultInjector injector;
    MetricsCollector collector;
    EngineOptions eopts;
    eopts.jobs = 1;
    eopts.retry = opts.retry;
    eopts.artifactStore = opts.artifactStore;
    eopts.injector = &injector;
    eopts.stop = &drainFlag();
    if (opts.collectMetrics)
        eopts.metrics = &collector;
    // One engine for the worker's lifetime: its trace/compile caches
    // persist across jobs, so a worker that sees a workload twice
    // traces it once — and with a shared artifact store, the whole
    // fleet traces it once.
    ExperimentEngine engine(eopts);

    // The heartbeat thread shares the result fd; a mutex keeps frames
    // from interleaving mid-write.
    std::mutex write_mu;
    std::atomic<bool> beat_stop{false};
    std::thread beater([&]() {
        const auto interval =
            std::chrono::milliseconds(opts.heartbeatIntervalMs);
        auto next = Clock::now();
        while (!beat_stop.load(std::memory_order_acquire)) {
            if (!g_mute_heartbeats.load(std::memory_order_relaxed)) {
                std::lock_guard<std::mutex> lock(write_mu);
                writeFrame(out_fd, FrameType::Heartbeat, {});
            }
            next += interval;
            // Sleep in short slices so shutdown never waits a full
            // interval.
            while (!beat_stop.load(std::memory_order_acquire) &&
                   Clock::now() < next) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        }
    });

    int rc = 0;
    for (;;) {
        if (drainRequested())
            break;
        Frame frame;
        const ReadStatus st = readFrame(in_fd, &frame);
        if (st == ReadStatus::Interrupted)
            continue;  // a signal landed; the loop re-checks the drain
        if (st == ReadStatus::Eof)
            break;  // coordinator closed the pipe: orderly exit
        if (st != ReadStatus::Ok) {
            rc = 1;  // Corrupt / Error: desynchronised coordinator.
                     // (CorruptRecord too: a worker cannot skip a Job
                     // frame — the coordinator would believe the job
                     // is owned. Dying hands it back for re-dispatch.)
            break;
        }
        if (frame.type == FrameType::Shutdown)
            break;
        if (frame.type != FrameType::Job)
            continue;

        ByteReader rd(frame.payload.data(), frame.payload.size());
        const uint64_t index = rd.u64();
        if (!rd.done() || index >= jobs.size()) {
            rc = 1;
            break;
        }
        if (fault.kind == TestFault::Kind::BadFrame &&
            fault.index == index) {
            // Corruption-recovery drill: one checksum-bad (but
            // length-valid) frame ahead of the real result. The
            // supervisor must skip exactly this record, count it, and
            // parse everything after it.
            std::lock_guard<std::mutex> lock(write_mu);
            writeCorruptFrameForTest(out_fd, FrameType::Heartbeat,
                                     "corrupt-record-drill");
        } else if (fault.kind != TestFault::Kind::None &&
                   fault.index == index) {
            armTestFault(fault, injector);
        }
        if (opts.workerPreJob)
            opts.workerPreJob(size_t(index));

        auto results = engine.run({jobs[index]});
        const JobResult &r = results[0];
        const std::string_view line = engine.resultTable().renderRow(0);
        const std::string payload = encodeResultMsg(index, r, line);
        {
            std::lock_guard<std::mutex> lock(write_mu);
            if (!writeFrame(out_fd, FrameType::Result, payload)) {
                rc = 1;  // coordinator is gone; nothing left to do
                break;
            }
        }
        if (r.drained)
            break;
    }

    // Final counters — sent even on drain so the coordinator's summary
    // covers what this worker did before stopping.
    StatsMsg stats;
    stats.functionalExecutions =
        engine.traceCache().functionalExecutions();
    stats.compilations = engine.compileCache().compilations();
    if (opts.artifactStore) {
        stats.storeHits = opts.artifactStore->hits();
        stats.storeMisses = opts.artifactStore->misses();
        stats.storeBytesMapped = opts.artifactStore->bytesMapped();
    }
    {
        std::lock_guard<std::mutex> lock(write_mu);
        writeFrame(out_fd, FrameType::Stats, encodeStatsMsg(stats));
    }
    beat_stop.store(true, std::memory_order_release);
    beater.join();
    if (!pidfile.empty())
        ::unlink(pidfile.c_str());
    return rc;
}

/**
 * Round-robin per-worker job queues with work stealing: a worker that
 * drains its own queue steals from the *back* of the longest other
 * queue — the victim keeps its front (likely warm in its worker's
 * caches), the thief takes the tail.
 */
class JobQueues
{
  public:
    explicit JobQueues(size_t workers) : queues_(workers) {}

    /** Deal @p jobs round-robin across the queues. */
    void
    deal(const std::vector<size_t> &jobs)
    {
        for (size_t k = 0; k < jobs.size(); ++k)
            queues_[k % queues_.size()].push_back(jobs[k]);
    }

    /** Requeue at the front: a re-dispatched job keeps priority. */
    void pushFront(size_t q, size_t job) { queues_[q].push_front(job); }

    bool
    anyWork() const
    {
        for (const auto &q : queues_)
            if (!q.empty())
                return true;
        return false;
    }

    /** Take the next job for worker @p q: own front, else steal from
     * the longest other queue's back (counting it in @p steals). */
    std::optional<size_t>
    take(size_t q, uint64_t *steals)
    {
        if (!queues_[q].empty()) {
            const size_t j = queues_[q].front();
            queues_[q].pop_front();
            return j;
        }
        size_t victim = queues_.size();
        for (size_t o = 0; o < queues_.size(); ++o) {
            if (o == q || queues_[o].empty())
                continue;
            if (victim == queues_.size() ||
                queues_[o].size() > queues_[victim].size())
                victim = o;
        }
        if (victim == queues_.size())
            return std::nullopt;
        const size_t j = queues_[victim].back();
        queues_[victim].pop_back();
        if (steals)
            ++*steals;
        return j;
    }

    /** Drain every queue, invoking @p fn on each queued job. */
    template <typename Fn>
    void
    drainAll(Fn &&fn)
    {
        for (auto &q : queues_) {
            for (size_t j : q)
                fn(j);
            q.clear();
        }
    }

  private:
    std::vector<std::deque<size_t>> queues_;
};

} // namespace

void
muteWorkerHeartbeatsForTest(bool mute)
{
    g_mute_heartbeats.store(mute, std::memory_order_relaxed);
}

std::string
SupervisorStats::countersJson() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"supervisor.corrupt_frames\":%llu,"
                  "\"supervisor.crashes\":%llu,"
                  "\"supervisor.heartbeat_misses\":%llu,"
                  "\"supervisor.restarts\":%llu,"
                  "\"supervisor.steals\":%llu}",
                  (unsigned long long)corruptFrames,
                  (unsigned long long)crashes,
                  (unsigned long long)heartbeatMisses,
                  (unsigned long long)restarts,
                  (unsigned long long)steals);
    return buf;
}

ShardSupervisor::ShardSupervisor(ShardOptions opts) : opts_(std::move(opts))
{
    opts_.heartbeatIntervalMs =
        envMsOverride("VGIW_SHARD_HEARTBEAT_MS", opts_.heartbeatIntervalMs);
    opts_.heartbeatTimeoutMs = envMsOverride(
        "VGIW_SHARD_HEARTBEAT_TIMEOUT_MS", opts_.heartbeatTimeoutMs);
    opts_.respawnBackoffMs =
        envMsOverride("VGIW_SHARD_BACKOFF_MS", opts_.respawnBackoffMs);
    opts_.respawnBackoffCapMs = envMsOverride("VGIW_SHARD_BACKOFF_CAP_MS",
                                              opts_.respawnBackoffCapMs);
    if (opts_.heartbeatIntervalMs == 0)
        opts_.heartbeatIntervalMs = 250;
    if (opts_.heartbeatTimeoutMs < 2 * opts_.heartbeatIntervalMs)
        opts_.heartbeatTimeoutMs = 2 * opts_.heartbeatIntervalMs;
    if (opts_.respawnBackoffCapMs < opts_.respawnBackoffMs)
        opts_.respawnBackoffCapMs = opts_.respawnBackoffMs;
}

std::vector<ShardRow>
ShardSupervisor::run(const std::vector<ExperimentJob> &jobs)
{
    std::vector<ShardRow> rows(jobs.size());
    table_.reset(jobs.size());
    stats_ = SupervisorStats{};
    for (size_t i = 0; i < jobs.size(); ++i) {
        rows[i].workload = jobs[i].workload;
        rows[i].arch = jobs[i].arch;
        rows[i].configLabel = jobs[i].configLabel;
    }
    if (jobs.empty())
        return rows;

    ignoreSigpipe();

    std::vector<std::string> keys(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        keys[i] = ExperimentEngine::jobKey(jobs[i]);

    // Guarded progress callbacks, mirroring the engine: a throwing
    // observer must not take down the coordinator.
    size_t done = 0;
    auto report = [&](size_t i) {
        const ShardRow &row = rows[i];
        try {
            if (opts_.onResult)
                opts_.onResult(i, row);
        } catch (...) {
        }
        if (!row.ok && !row.drained && opts_.onFailure) {
            try {
                opts_.onFailure(row);
            } catch (...) {
            }
        }
    };

    // Restore journaled jobs verbatim, then report them up-front in
    // submission order — identical accounting to a single-process
    // resume.
    std::vector<size_t> pending;
    pending.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JournalEntry *e = nullptr;
        if (opts_.journal) {
            auto it = opts_.journal->entries().find(keys[i]);
            if (it != opts_.journal->entries().end())
                e = &it->second;
        }
        if (!e) {
            pending.push_back(i);
            continue;
        }
        ShardRow &row = rows[i];
        row.restored = true;
        row.ok = e->ok;
        row.golden = e->golden;
        row.quarantined = e->quarantined;
        row.ran = e->ok;
        row.jsonLine = e->jsonLine;
        if (!e->ok) {
            row.error = "failed in the journaled run (restored "
                        "verbatim; see the journal entry)";
        }
        JobResult jr;
        jr.workload = jobs[i].workload;
        jr.arch = jobs[i].arch;
        jr.configLabel = jobs[i].configLabel;
        jr.restored = true;
        jr.restoredJson = e->jsonLine;
        jr.goldenPassed = e->golden;
        jr.quarantined = e->quarantined;
        if (e->ok)
            jr.ran = true;
        else
            jr.error = row.error;
        table_.fill(i, jr);
        ++done;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].restored)
            report(i);
    }
    if (pending.empty())
        return rows;

    unsigned nshards = std::max(opts_.shards, 1u);
    if (size_t(nshards) > pending.size())
        nshards = unsigned(pending.size());

    struct Slot
    {
        size_t id = 0;
        ChildProcess cp{};
        bool alive = false;
        bool busy = false;
        size_t job = 0;
        Clock::time_point dispatched{};
        Clock::time_point lastBeat{};
        Clock::time_point backoffUntil{};
        unsigned consecutiveCrashes = 0;
        unsigned consecutiveCorrupt = 0;
        std::string pendingReason;  ///< supervisor-initiated kill cause
        BackoffSchedule backoff{};
    };
    std::vector<Slot> slots(nshards);
    for (size_t s = 0; s < slots.size(); ++s) {
        slots[s].id = s;
        slots[s].backoff.baseMs = opts_.respawnBackoffMs;
        slots[s].backoff.capMs = opts_.respawnBackoffCapMs;
        // Decorrelate the slots' jitter streams; the schedule itself
        // stays deterministic per (seed, attempt).
        slots[s].backoff.seed =
            (uint64_t(::getpid()) << 32) ^ uint64_t(s + 1);
    }
    JobQueues queues(nshards);
    queues.deal(pending);

    std::vector<unsigned> dispatches(jobs.size(), 0);
    const unsigned crash_budget =
        opts_.crashAttempts
            ? opts_.crashAttempts
            : 1 + std::max(opts_.retry.maxAttempts, 2u) - 1;

    bool draining = false;

    auto finalizeDrained = [&](size_t i) {
        rows[i].drained = true;
        JobResult jr;
        jr.workload = jobs[i].workload;
        jr.arch = jobs[i].arch;
        jr.configLabel = jobs[i].configLabel;
        jr.drained = true;
        table_.fill(i, jr);
        ++done;
    };

    auto finalizeCrash = [&](size_t i, const std::string &why) {
        JobResult jr;
        jr.workload = jobs[i].workload;
        jr.arch = jobs[i].arch;
        jr.configLabel = jobs[i].configLabel;
        jr.error = why;
        jr.errorKind = SimErrorKind::WorkerCrash;
        jr.attempts = std::max(dispatches[i], 1u);
        jr.quarantined = true;
        table_.fill(i, jr);
        ShardRow &row = rows[i];
        row.ok = false;
        row.golden = false;
        row.ran = false;
        row.quarantined = true;
        row.errorKind = SimErrorKind::WorkerCrash;
        row.attempts = jr.attempts;
        row.error = why;
        row.jsonLine = std::string(table_.renderRow(i));
        if (opts_.journal) {
            JournalEntry entry;
            entry.key = keys[i];
            entry.ok = false;
            entry.golden = false;
            entry.quarantined = true;
            entry.jsonLine = row.jsonLine;
            opts_.journal->append(entry);
        }
        report(i);
        ++done;
    };

    auto finalizeResult = [&](const ResultMsg &m) {
        const size_t i = size_t(m.index);
        ShardRow &row = rows[i];
        row.ok = m.ok;
        row.golden = m.golden;
        row.ran = m.ran;
        row.supported = m.supported;
        row.quarantined = m.quarantined;
        row.errorKind = m.kind;
        row.attempts = m.attempts;
        row.error = m.error;
        row.cycles = m.cycles;
        row.energySystemPj = m.systemPj;
        row.l1MissRate = m.l1MissRate;
        row.jsonLine = m.jsonLine;
        // Re-emit the worker-rendered bytes verbatim (the restored-row
        // mechanism): the coordinator's --json output is then
        // byte-identical to a single-process run by construction.
        JobResult jr;
        jr.workload = jobs[i].workload;
        jr.arch = jobs[i].arch;
        jr.configLabel = jobs[i].configLabel;
        jr.restored = true;
        jr.restoredJson = m.jsonLine;
        jr.goldenPassed = m.golden;
        jr.quarantined = m.quarantined;
        if (m.ok)
            jr.ran = true;
        else
            jr.error = m.error;
        table_.fill(i, jr);
        if (opts_.journal) {
            JournalEntry entry;
            entry.key = keys[i];
            entry.ok = m.ok;
            entry.golden = m.golden;
            entry.quarantined = m.quarantined;
            entry.jsonLine = m.jsonLine;
            opts_.journal->append(entry);
        }
        report(i);
        ++done;
    };

    size_t spawn_failures = 0;
    auto spawn = [&](Slot &s, bool respawn) {
        // Hygiene: the child must not inherit the pipe ends of its
        // sibling workers, or a sibling's EOF would be deferred until
        // *this* child also exits.
        std::vector<int> other_fds;
        for (const Slot &o : slots) {
            if (&o == &s || !o.alive)
                continue;
            other_fds.push_back(o.cp.toChild);
            other_fds.push_back(o.cp.fromChild);
        }
        std::string err;
        const bool ok = spawnChild(
            [this, &jobs, &other_fds](int in_fd, int out_fd) {
                for (int fd : other_fds)
                    ::close(fd);
                return runShardWorker(in_fd, out_fd, jobs, opts_);
            },
            &s.cp, &err);
        if (!ok) {
            ++spawn_failures;
            std::fprintf(stderr, "shard worker %zu: %s\n", s.id,
                         err.c_str());
            s.backoffUntil =
                Clock::now() + std::chrono::milliseconds(1000);
            return false;
        }
        s.alive = true;
        s.busy = false;
        s.lastBeat = Clock::now();
        s.pendingReason.clear();
        s.consecutiveCorrupt = 0;
        if (respawn)
            ++stats_.restarts;
        std::fprintf(stderr, "shard worker %zu %s (pid %d)\n", s.id,
                     respawn ? "respawned" : "started", int(s.cp.pid));
        return true;
    };

    auto dispatch = [&](Slot &s, size_t i) {
        std::string payload;
        ByteWriter w(payload);
        w.u64(uint64_t(i));
        ++dispatches[i];
        if (!writeFrame(s.cp.toChild, FrameType::Job, payload)) {
            // The worker died between spawn and dispatch; the reap path
            // below will notice. Undo the dispatch accounting.
            --dispatches[i];
            queues.pushFront(s.id, i);
            s.pendingReason = "job dispatch failed (pipe closed)";
            return;
        }
        s.busy = true;
        s.job = i;
        s.dispatched = Clock::now();
    };

    // Forward declaration dance: handleFrame is used by both the poll
    // loop and the pre-death pipe drain.
    std::function<void(Slot &, const Frame &)> handleFrame =
        [&](Slot &s, const Frame &frame) {
            switch (frame.type) {
              case FrameType::Heartbeat:
                s.lastBeat = Clock::now();
                break;
              case FrameType::Result: {
                ResultMsg m;
                if (!decodeResultMsg(frame.payload, &m) ||
                    m.index >= jobs.size()) {
                    break;  // corrupt payload; the checksum said Ok,
                            // but be defensive about the layout
                }
                if (!s.busy || s.job != size_t(m.index))
                    break;  // stale/duplicate result: drop
                s.busy = false;
                s.consecutiveCrashes = 0;
                if (m.drained) {
                    // The worker drained before running the job. While
                    // the sweep itself is draining that is the job's
                    // terminal state; otherwise (a stray signal hit
                    // one worker) the job is still owed a run.
                    --dispatches[m.index];
                    if (draining)
                        finalizeDrained(size_t(m.index));
                    else
                        queues.pushFront(s.id, size_t(m.index));
                    break;
                }
                finalizeResult(m);
                break;
              }
              case FrameType::Stats: {
                StatsMsg m;
                if (!decodeStatsMsg(frame.payload, &m))
                    break;
                stats_.functionalExecutions += m.functionalExecutions;
                stats_.compilations += m.compilations;
                stats_.storeHits += m.storeHits;
                stats_.storeMisses += m.storeMisses;
                stats_.storeBytesMapped += m.storeBytesMapped;
                break;
              }
              default:
                break;  // workers do not send Job/Shutdown
            }
        };

    auto closeSlotFds = [](Slot &s) {
        if (s.cp.toChild >= 0)
            ::close(s.cp.toChild);
        if (s.cp.fromChild >= 0)
            ::close(s.cp.fromChild);
        s.cp.toChild = s.cp.fromChild = -1;
    };

    /** Drain buffered frames (non-blocking) so a Result or Stats the
     * worker managed to send before dying is not lost with the pipe.
     * Checksum-bad but aligned records are skipped and counted, same
     * as in the live poll loop. */
    auto drainPipe = [&](Slot &s) {
        while (s.cp.fromChild >= 0) {
            struct pollfd pfd = {s.cp.fromChild, POLLIN, 0};
            if (::poll(&pfd, 1, 0) <= 0 || !(pfd.revents & POLLIN))
                break;
            Frame frame;
            const ReadStatus st = readFrame(s.cp.fromChild, &frame);
            if (st == ReadStatus::CorruptRecord) {
                ++stats_.corruptFrames;
                continue;
            }
            if (st != ReadStatus::Ok)
                break;
            handleFrame(s, frame);
        }
    };

    auto death = [&](Slot &s) {
        if (!s.alive)
            return;
        drainPipe(s);
        closeSlotFds(s);
        // SIGKILL before the blocking reap: if the child is alive but
        // wedged (it sent a torn frame, say), waitpid must not hang
        // the coordinator. A zombie discards the signal harmlessly.
        killChild(s.cp.pid, SIGKILL);
        const ChildStatus st = waitChild(s.cp.pid);
        s.alive = false;
        const bool clean =
            st.state == ChildState::Exited && st.code == 0;
        std::string why = s.pendingReason.empty()
                              ? describeChildStatus(st)
                              : s.pendingReason;
        s.pendingReason.clear();
        if (s.busy) {
            // The in-flight job died with its worker.
            s.busy = false;
            ++stats_.crashes;
            ++s.consecutiveCrashes;
            const size_t i = s.job;
            std::fprintf(stderr,
                         "shard worker %zu (pid %d) lost job %s [%s]: "
                         "%s (attempt %u/%u)\n",
                         s.id, int(s.cp.pid), jobs[i].workload.c_str(),
                         jobs[i].arch.c_str(), why.c_str(),
                         dispatches[i], crash_budget);
            if (dispatches[i] >= crash_budget) {
                finalizeCrash(i, "worker crashed: " + why);
            } else if (draining) {
                finalizeDrained(i);
            } else {
                queues.pushFront(s.id, i);
            }
            s.backoffUntil =
                Clock::now() +
                std::chrono::milliseconds(
                    s.backoff.delayMs(s.consecutiveCrashes));
        } else if (!clean && !draining) {
            std::fprintf(stderr,
                         "shard worker %zu (pid %d) exited while idle: "
                         "%s\n",
                         s.id, int(s.cp.pid), why.c_str());
        }
    };

    for (Slot &s : slots) {
        if (queues.anyWork())
            spawn(s, /*respawn=*/false);
    }

    while (done < jobs.size()) {
        const auto now = Clock::now();

        if (!draining && opts_.stop &&
            opts_.stop->load(std::memory_order_acquire)) {
            // Propagate the drain to the whole fleet: workers share
            // the drain-handler installation, so the forwarded signal
            // sets *their* flag and they exit after the in-flight job.
            draining = true;
            const int sig = drainSignal() ? drainSignal() : SIGTERM;
            for (Slot &s : slots) {
                if (s.alive)
                    killChild(s.cp.pid, sig);
            }
        }
        if (draining) {
            queues.drainAll(finalizeDrained);
            bool any_busy = false;
            for (const Slot &s : slots)
                any_busy |= s.alive && s.busy;
            if (!any_busy)
                break;
        } else {
            for (Slot &s : slots) {
                if (!s.alive && now >= s.backoffUntil &&
                    queues.anyWork()) {
                    spawn(s, /*respawn=*/true);
                }
            }
            for (Slot &s : slots) {
                if (s.alive && !s.busy) {
                    if (auto j = queues.take(s.id, &stats_.steals))
                        dispatch(s, *j);
                }
            }
            if (spawn_failures > 0 && !queues.anyWork()) {
                // nothing queued; in-flight jobs still complete below
            } else if (spawn_failures >= 4 * slots.size()) {
                // fork() persistently failing: fail the remaining jobs
                // rather than spinning forever.
                bool any_alive = false;
                for (const Slot &s : slots)
                    any_alive |= s.alive;
                if (!any_alive) {
                    queues.drainAll([&](size_t j) {
                        dispatches[j] = crash_budget;
                        finalizeCrash(j, "worker crashed: cannot "
                                         "spawn worker process");
                    });
                    continue;
                }
            }
        }

        std::vector<struct pollfd> fds;
        std::vector<size_t> fd_slot;
        for (size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].alive && slots[s].cp.fromChild >= 0) {
                fds.push_back({slots[s].cp.fromChild, POLLIN, 0});
                fd_slot.push_back(s);
            }
        }
        if (!fds.empty()) {
            const int n = ::poll(fds.data(), nfds_t(fds.size()), 50);
            if (n > 0) {
                for (size_t k = 0; k < fds.size(); ++k) {
                    Slot &s = slots[fd_slot[k]];
                    if (!s.alive)
                        continue;
                    if (fds[k].revents & POLLIN) {
                        Frame frame;
                        const ReadStatus st =
                            readFrame(s.cp.fromChild, &frame);
                        if (st == ReadStatus::Ok) {
                            s.consecutiveCorrupt = 0;
                            handleFrame(s, frame);
                        } else if (st == ReadStatus::Interrupted) {
                            // re-check the drain flag next iteration
                        } else if (st == ReadStatus::CorruptRecord) {
                            // Aligned corruption: skip exactly this
                            // record and keep the stream. A run of
                            // them means real desync — kill then.
                            ++stats_.corruptFrames;
                            if (++s.consecutiveCorrupt >=
                                kMaxConsecutiveCorrupt) {
                                s.pendingReason =
                                    "repeated corrupt frames; killed";
                                death(s);
                            }
                        } else {
                            if (st == ReadStatus::Corrupt) {
                                s.pendingReason =
                                    "sent a corrupt frame; killed";
                            }
                            death(s);
                        }
                    } else if (fds[k].revents & (POLLHUP | POLLERR)) {
                        death(s);
                    }
                }
            }
        } else if (done < jobs.size()) {
            // No live pipes (all workers backing off): nap briefly so
            // the backoff loop is not a busy spin.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }

        const auto after = Clock::now();
        for (Slot &s : slots) {
            if (!s.alive)
                continue;
            using std::chrono::duration_cast;
            using std::chrono::milliseconds;
            if (s.busy && opts_.jobDeadlineMs &&
                duration_cast<milliseconds>(after - s.dispatched)
                        .count() > int64_t(opts_.jobDeadlineMs) &&
                s.pendingReason.empty()) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "job deadline exceeded (%llu ms); killed",
                              (unsigned long long)opts_.jobDeadlineMs);
                s.pendingReason = buf;
                killChild(s.cp.pid, SIGKILL);
            }
            if (duration_cast<milliseconds>(after - s.lastBeat)
                        .count() > int64_t(opts_.heartbeatTimeoutMs) &&
                s.pendingReason.empty()) {
                ++stats_.heartbeatMisses;
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "heartbeat silent for %llu ms; killed",
                              (unsigned long long)
                                  opts_.heartbeatTimeoutMs);
                s.pendingReason = buf;
                killChild(s.cp.pid, SIGKILL);
            }
        }
        for (Slot &s : slots) {
            if (!s.alive)
                continue;
            const ChildStatus st = pollChild(s.cp.pid);
            if (st.state == ChildState::Exited ||
                st.state == ChildState::Signaled ||
                st.state == ChildState::Lost) {
                death(s);
            }
        }
    }

    // Orderly shutdown: ask every surviving worker to exit, collect
    // its final Stats frame, then reap — escalating to SIGKILL only if
    // a worker ignores both the Shutdown frame and the pipe EOF. By
    // construction no worker outlives this loop.
    for (Slot &s : slots) {
        if (!s.alive)
            continue;
        writeFrame(s.cp.toChild, FrameType::Shutdown, {});
        ::close(s.cp.toChild);
        s.cp.toChild = -1;
    }
    for (Slot &s : slots) {
        if (!s.alive || s.cp.fromChild < 0)
            continue;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(3000);
        for (;;) {
            struct pollfd pfd = {s.cp.fromChild, POLLIN, 0};
            const int n = ::poll(&pfd, 1, 100);
            if (n > 0 && (pfd.revents & POLLIN)) {
                Frame frame;
                const ReadStatus st = readFrame(s.cp.fromChild, &frame);
                if (st == ReadStatus::CorruptRecord) {
                    ++stats_.corruptFrames;
                    continue;
                }
                if (st != ReadStatus::Ok)
                    break;
                handleFrame(s, frame);
                if (frame.type == FrameType::Stats)
                    break;
                continue;
            }
            if (n > 0 && (pfd.revents & (POLLHUP | POLLERR)))
                break;
            if (Clock::now() >= deadline)
                break;
        }
    }
    for (Slot &s : slots) {
        if (!s.alive)
            continue;
        closeSlotFds(s);
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(2000);
        ChildStatus st = pollChild(s.cp.pid);
        while (st.state == ChildState::Running &&
               Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            st = pollChild(s.cp.pid);
        }
        if (st.state == ChildState::Running) {
            killChild(s.cp.pid, SIGKILL);
            waitChild(s.cp.pid);
        }
        s.alive = false;
    }

    return rows;
}

} // namespace vgiw
