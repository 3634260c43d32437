#include "driver/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "common/signal_drain.hh"
#include "common/subprocess.hh"
#include "driver/artifact_store.hh"

namespace vgiw
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Dispatches a job gets before a worker crash on each one makes it a
 * terminal, quarantined `worker_crash` row: one environmental crash
 * does not poison a job, a job that kills every worker does. */
constexpr unsigned kMaxDispatches = 2;

// ---------------------------------------------------------------------
// Payload codecs. Native layout: the peers are fork()s of one process;
// the frame layer adds length + checksum.

enum : uint8_t
{
    kMsgGolden = 1 << 0,
    kMsgRan = 1 << 1,
    kMsgSupported = 1 << 2,
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

/** A result row labelled with its job's identity, ready to fill. */
JobResult
labelled(const ExperimentJob &job)
{
    JobResult r;
    r.workload = job.workload;
    r.arch = job.arch;
    r.configLabel = job.configLabel;
    return r;
}

/**
 * FrameType::Result payload: the outcome fields of @p r, the stats
 * subset the sweep report prints (support, cycles, energy parts, L1
 * counts), and the rendered row, which the coordinator re-emits
 * verbatim.
 */
std::string
encodeResultMsg(uint64_t index, const JobResult &r,
                std::string_view jsonLine)
{
    std::string payload;
    ByteWriter w(payload);
    w.u64(index);
    uint8_t flags = 0;
    if (r.goldenPassed)
        flags |= kMsgGolden;
    if (r.ran)
        flags |= kMsgRan;
    if (r.stats.supported)
        flags |= kMsgSupported;
    w.u8(flags);
    w.u8(uint8_t(r.errorKind));
    w.u64(r.stats.cycles);
    for (size_t c = 0; c < kNumEnergyComponents; ++c)
        w.f64(r.stats.energy.get(EnergyComponent(c)));
    const CacheStats &l1 = r.stats.l1Stats;
    w.u64(l1.readHits);
    w.u64(l1.readMisses);
    w.u64(l1.writeHits);
    w.u64(l1.writeMisses);
    putString(w, r.error);
    putString(w, jsonLine);
    return payload;
}

/** Decode a Result payload into @p out (labelled by the caller). */
bool
decodeResultMsg(const std::string &payload, uint64_t *index, JobResult *out)
{
    ByteReader rd(payload.data(), payload.size());
    *index = rd.u64();
    const uint8_t flags = rd.u8();
    out->goldenPassed = flags & kMsgGolden;
    out->ran = flags & kMsgRan;
    out->stats.supported = flags & kMsgSupported;
    out->errorKind = SimErrorKind(rd.u8());
    out->stats.cycles = rd.u64();
    for (size_t c = 0; c < kNumEnergyComponents; ++c)
        out->stats.energy.add(EnergyComponent(c), rd.f64());
    CacheStats &l1 = out->stats.l1Stats;
    l1.readHits = rd.u64();
    l1.readMisses = rd.u64();
    l1.writeHits = rd.u64();
    l1.writeMisses = rd.u64();
    if (!getString(rd, &out->error) || !getString(rd, &out->verbatimJson))
        return false;
    return rd.done();
}

/** FrameType::Stats payload: the fleet-summed SupervisorStats fields
 * as one worker saw them at exit. */
std::string
encodeStatsMsg(const SupervisorStats &m)
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

/** Add one worker's Stats payload into @p sum. */
bool
addStatsMsg(const std::string &payload, SupervisorStats *sum)
{
    ByteReader rd(payload.data(), payload.size());
    SupervisorStats m;
    m.functionalExecutions = rd.u64();
    m.compilations = rd.u64();
    m.storeHits = rd.u64();
    m.storeMisses = rd.u64();
    m.storeBytesMapped = rd.u64();
    if (!rd.done())
        return false;
    sum->functionalExecutions += m.functionalExecutions;
    sum->compilations += m.compilations;
    sum->storeHits += m.storeHits;
    sum->storeMisses += m.storeMisses;
    sum->storeBytesMapped += m.storeBytesMapped;
    return true;
}

} // namespace

/**
 * The forked worker's main loop: read Job frames carrying u64 indices
 * into @p jobs, run each through a worker-lifetime ExperimentEngine
 * under its global index (so injector rules and metrics slots match an
 * in-process run), stream back Result frames rendered with
 * renderJobLine (the byte-identity contract), heartbeat from
 * a side thread, send a final Stats frame, honour Shutdown/EOF/drain.
 * Returns the worker exit code.
 */
int
ShardSupervisor::workerMain(int in_fd, int out_fd,
                            const std::vector<ExperimentJob> &jobs) const
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

    // The sweep options as inherited; execute() touches neither the
    // journal nor the callbacks, which stay the coordinator's.
    MetricsCollector collector;
    EngineOptions eopts = opts_.engine;
    eopts.stop = &drainFlag();
    if (eopts.metrics)
        eopts.metrics = &collector;
    // One engine for the worker's lifetime: its trace/compile caches
    // persist across jobs, so a worker that sees a workload twice
    // traces it once — and with a shared artifact store, the whole
    // fleet traces it once.
    ExperimentEngine engine(eopts);
    engine.beginSweep(jobs);

    // The heartbeat thread shares the result fd; a mutex keeps frames
    // from interleaving mid-write.
    std::mutex write_mu;
    std::atomic<bool> beat_stop{false};
    std::thread beater([&]() {
        const auto interval =
            std::chrono::milliseconds(opts_.heartbeatIntervalMs);
        auto next = Clock::now();
        while (!beat_stop.load(std::memory_order_acquire)) {
            {
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
            rc = 1;  // Corrupt / Error: dying hands any job back
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

        const JobResult r = engine.execute(jobs[index], size_t(index));
        const std::string payload =
            encodeResultMsg(index, r, renderJobLine(r));
        std::lock_guard<std::mutex> lock(write_mu);
        if (!writeFrame(out_fd, FrameType::Result, payload)) {
            rc = 1;  // coordinator is gone; nothing left to do
            break;
        }
    }

    // Final counters — sent even on drain so the coordinator's summary
    // covers what this worker did before stopping.
    SupervisorStats stats;
    stats.functionalExecutions =
        engine.traceCache().functionalExecutions();
    stats.compilations = engine.compileCache().compilations();
    if (ArtifactStore *store = opts_.engine.artifactStore) {
        stats.storeHits = store->hits();
        stats.storeMisses = store->misses();
        stats.storeBytesMapped = store->bytesMapped();
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

std::string
SupervisorStats::countersJson() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"supervisor.crashes\":%llu,"
                  "\"supervisor.heartbeat_misses\":%llu,"
                  "\"supervisor.restarts\":%llu}",
                  (unsigned long long)crashes,
                  (unsigned long long)heartbeatMisses,
                  (unsigned long long)restarts);
    return buf;
}

ShardSupervisor::ShardSupervisor(ShardOptions opts)
    : opts_(std::move(opts)), engine_(opts_.engine)
{
    if (opts_.heartbeatIntervalMs == 0)
        opts_.heartbeatIntervalMs = 250;
    if (opts_.heartbeatTimeoutMs < 2 * opts_.heartbeatIntervalMs)
        opts_.heartbeatTimeoutMs = 2 * opts_.heartbeatIntervalMs;
}

std::vector<ShardRow>
ShardSupervisor::run(const std::vector<ExperimentJob> &jobs)
{
    stats_ = SupervisorStats{};
    ignoreSigpipe();
    std::vector<JobResult> results = engine_.runWith(
        jobs, [&](const std::vector<size_t> &pending,
                  const ExperimentEngine::Deliver &deliver) {
            supervise(jobs, pending, deliver);
        });

    std::vector<ShardRow> rows(results.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ShardRow &row = rows[i];
        row.ok = results[i].ok();
        row.golden = results[i].goldenPassed;
        if (!results[i].drained)
            row.jsonLine = engine_.resultTable().renderRow(i);
        static_cast<JobResult &>(row) = std::move(results[i]);
    }
    return rows;
}

void
ShardSupervisor::supervise(const std::vector<ExperimentJob> &jobs,
                           const std::vector<size_t> &pending,
                           const ExperimentEngine::Deliver &deliver)
{
    struct Slot
    {
        size_t id = 0;
        ChildProcess cp{};
        bool alive = false;
        bool busy = false;
        bool reported = false;  ///< the final Stats frame arrived
        size_t job = 0;
        Clock::time_point dispatched{};
        Clock::time_point lastBeat{};
        Clock::time_point nextSpawn{};  ///< set 1 s out by a failed fork
        std::string pendingReason;  ///< supervisor-initiated kill cause
    };
    std::vector<Slot> slots(
        std::min<size_t>(std::max(opts_.shards, 1u), pending.size()));
    for (size_t s = 0; s < slots.size(); ++s)
        slots[s].id = s;

    // One FIFO: whichever worker is idle takes the front, and a job
    // whose worker died goes back to the front.
    std::deque<size_t> queue(pending.begin(), pending.end());
    std::vector<unsigned> dispatches(jobs.size(), 0);
    bool draining = false;

    auto crash = [&](size_t i, std::string why) {
        JobResult r = labelled(jobs[i]);
        r.error = std::move(why);
        r.errorKind = SimErrorKind::WorkerCrash;
        r.attempts = std::max(dispatches[i], 1u);
        r.quarantined = true;
        deliver(i, std::move(r));
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
                return workerMain(in_fd, out_fd, jobs);
            },
            &s.cp, &err);
        if (!ok) {
            ++spawn_failures;
            std::fprintf(stderr, "shard worker %zu: %s\n", s.id,
                         err.c_str());
            s.nextSpawn = Clock::now() + std::chrono::milliseconds(1000);
            return;
        }
        s.alive = true;  // (death() already cleared busy and the reason)
        s.reported = false;
        s.lastBeat = Clock::now();
        if (respawn)
            ++stats_.restarts;
        std::fprintf(stderr, "shard worker %zu %s (pid %d)\n", s.id,
                     respawn ? "respawned" : "started", int(s.cp.pid));
    };

    auto dispatch = [&](Slot &s) {
        const size_t i = queue.front();
        std::string payload;
        ByteWriter w(payload);
        w.u64(uint64_t(i));
        if (!writeFrame(s.cp.toChild, FrameType::Job, payload)) {
            // The worker died between spawn and dispatch; the reap path
            // below will notice, and the job stays at the front.
            s.pendingReason = "job dispatch failed (pipe closed)";
            return;
        }
        queue.pop_front();
        ++dispatches[i];
        s.busy = true;
        s.job = i;
        s.dispatched = Clock::now();
    };

    /** Act on one checksum-valid frame from @p s; false if it is
     * unusable: a Result that does not decode, names another job than
     * the one in flight or reaches an idle slot, a Stats that does not
     * decode, or a type workers never send. */
    auto handleFrame = [&](Slot &s, const Frame &frame) {
        switch (frame.type) {
          case FrameType::Heartbeat:
            s.lastBeat = Clock::now();
            return true;
          case FrameType::Result: {
            if (!s.busy)
                return false;
            JobResult r = labelled(jobs[s.job]);
            uint64_t index = 0;
            if (!decodeResultMsg(frame.payload, &index, &r) ||
                index != s.job)
                return false;
            s.busy = false;
            deliver(s.job, std::move(r));
            return true;
          }
          case FrameType::Stats:
            s.reported = addStatsMsg(frame.payload, &stats_);
            return s.reported;
          default:
            return false;
        }
    };

    auto closeSlotFds = [](Slot &s) {
        if (s.cp.toChild >= 0)
            ::close(s.cp.toChild);
        if (s.cp.fromChild >= 0)
            ::close(s.cp.fromChild);
        s.cp.toChild = s.cp.fromChild = -1;
    };

    /** Read one frame off the worker's pipe and act on it; an
     * unusable frame, or one still unfinished a heartbeat timeout
     * after its first byte, reads as Corrupt, which ends the worker. */
    auto readOne = [&](Slot &s) {
        Frame frame;
        ReadStatus st =
            readFrame(s.cp.fromChild, &frame, opts_.heartbeatTimeoutMs);
        if (st == ReadStatus::Ok && !handleFrame(s, frame))
            st = ReadStatus::Corrupt;
        return st;
    };

    auto death = [&](Slot &s) {
        if (!s.alive)
            return;
        // SIGKILL first: a worker that is alive but wedged, or whose
        // stream is out of step, must block neither the drain nor the
        // reap below — once it is dead, every read ends at EOF. A
        // zombie discards the signal harmlessly.
        killChild(s.cp.pid, SIGKILL);
        // Drain buffered frames, so a Result or Stats the worker sent
        // before dying is not lost with the pipe.
        struct pollfd pfd = {s.cp.fromChild, POLLIN, 0};
        while (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) &&
               readOne(s) == ReadStatus::Ok) {
        }
        closeSlotFds(s);
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
            const size_t i = s.job;
            std::fprintf(stderr,
                         "shard worker %zu (pid %d) lost job %s [%s]: "
                         "%s (attempt %u/%u)\n",
                         s.id, int(s.cp.pid), jobs[i].workload.c_str(),
                         jobs[i].arch.c_str(), why.c_str(),
                         dispatches[i], kMaxDispatches);
            if (dispatches[i] >= kMaxDispatches) {
                crash(i, "worker crashed: " + why);
            } else if (!draining) {
                queue.push_front(i);
            }  // else the sweep is draining: the job stays drained
        } else if (!clean && !draining) {
            std::fprintf(stderr,
                         "shard worker %zu (pid %d) exited while idle: "
                         "%s\n",
                         s.id, int(s.cp.pid), why.c_str());
        }
    };

    for (Slot &s : slots)
        spawn(s, /*respawn=*/false);

    std::vector<struct pollfd> fds;
    std::vector<size_t> fd_slot;
    for (;;) {
        const auto now = Clock::now();

        if (!draining && opts_.engine.stop &&
            opts_.engine.stop->load(std::memory_order_acquire)) {
            // Propagate the drain to the whole fleet: workers share
            // the drain-handler installation, so the forwarded signal
            // sets *their* flag and they exit after the in-flight job.
            // Queued jobs are never delivered and so stay drained.
            draining = true;
            queue.clear();
            const int sig = drainSignal() ? drainSignal() : SIGTERM;
            for (Slot &s : slots) {
                if (s.alive)
                    killChild(s.cp.pid, sig);
            }
        }
        bool any_busy = false;
        for (const Slot &s : slots)
            any_busy |= s.alive && s.busy;
        if (queue.empty() && !any_busy)
            break;

        if (!queue.empty()) {
            bool any_alive = false;
            for (Slot &s : slots) {
                if (!s.alive && now >= s.nextSpawn && !queue.empty())
                    spawn(s, /*respawn=*/true);
                if (s.alive && !s.busy && !queue.empty())
                    dispatch(s);
                any_alive |= s.alive;
            }
            if (!any_alive && spawn_failures >= 4 * slots.size()) {
                // fork() persistently failing: fail the remaining jobs
                // rather than spinning forever.
                for (size_t i : queue)
                    crash(i, "worker crashed: cannot spawn worker process");
                queue.clear();
                continue;
            }
        }

        fds.clear();
        fd_slot.clear();
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
                        // (Interrupted: re-check the drain flag next
                        // iteration.)
                        const ReadStatus st = readOne(s);
                        if (st == ReadStatus::Corrupt)
                            s.pendingReason = "sent a corrupt frame; killed";
                        if (st != ReadStatus::Ok &&
                            st != ReadStatus::Interrupted)
                            death(s);
                    } else if (fds[k].revents & (POLLHUP | POLLERR)) {
                        death(s);
                    }
                }
            }
        } else {
            // No live pipes (every fork failed and each slot waits out
            // its pause): nap briefly so the loop is not a busy spin.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }

        // The two clocks: SIGKILL now, classify the death at the reap.
        const auto after = Clock::now();
        // A budget past what the clock can span (about 292 years) never
        // expires; converting it to the clock's ticks would overflow.
        auto overran = [&](Clock::time_point since, uint64_t ms) {
            constexpr uint64_t kMaxMs = uint64_t(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::duration::max())
                    .count());
            return ms < kMaxMs &&
                   after - since > std::chrono::milliseconds(ms);
        };
        for (Slot &s : slots) {
            if (!s.alive || !s.pendingReason.empty())
                continue;
            if (s.busy && opts_.jobDeadlineMs &&
                overran(s.dispatched, opts_.jobDeadlineMs)) {
                s.pendingReason = "job deadline exceeded (" +
                                  std::to_string(opts_.jobDeadlineMs) +
                                  " ms); killed";
            } else if (overran(s.lastBeat, opts_.heartbeatTimeoutMs)) {
                // Frames left unread while the coordinator waited out
                // another worker's stalled frame are not silence: the
                // next poll reads them.
                struct pollfd pfd = {s.cp.fromChild, POLLIN, 0};
                if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN))
                    continue;
                ++stats_.heartbeatMisses;
                s.pendingReason = "heartbeat silent for " +
                                  std::to_string(opts_.heartbeatTimeoutMs) +
                                  " ms; killed";
            } else {
                continue;
            }
            killChild(s.cp.pid, SIGKILL);
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
        if (!s.alive)
            continue;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(3000);
        while (!s.reported && Clock::now() < deadline) {
            struct pollfd pfd = {s.cp.fromChild, POLLIN, 0};
            const int n = ::poll(&pfd, 1, 100);
            if (n > 0 && (pfd.revents & POLLIN)) {
                if (readOne(s) != ReadStatus::Ok)
                    break;
            } else if (n > 0 && (pfd.revents & (POLLHUP | POLLERR))) {
                break;
            }
        }
        closeSlotFds(s);
        const auto grace = Clock::now() + std::chrono::milliseconds(2000);
        ChildStatus st = pollChild(s.cp.pid);
        while (st.state == ChildState::Running && Clock::now() < grace) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            st = pollChild(s.cp.pid);
        }
        if (st.state == ChildState::Running) {
            killChild(s.cp.pid, SIGKILL);
            waitChild(s.cp.pid);
        }
        s.alive = false;
    }
}

} // namespace vgiw
