/**
 * @file
 * Process spawning and the framed pipe protocol for supervised worker
 * fleets (same-machine shards).
 *
 * The in-process experiment engine contains every *soft* fault — a
 * typed exception, a watchdog trip, a captured panic — but a hard
 * fault (SIGSEGV, std::abort, an OOM kill) still destroys the whole
 * process and every in-flight job with it. The shard supervisor
 * (src/driver/worker_pool) moves job execution into forked child
 * processes so a hard fault costs one worker, not the sweep; this file
 * is the OS-facing layer underneath it:
 *
 *  - **spawnChild** — fork a child connected to the parent by two
 *    pipes (commands down, results up). The child runs a callable and
 *    `_exit`s, never unwinding the parent's stack or flushing its
 *    stdio twice. On Linux the child asks for SIGTERM on parent death
 *    (PR_SET_PDEATHSIG), so a crashed coordinator cannot leak workers.
 *  - **frames** — every message is length + type + FNV-1a checksum +
 *    payload. Pipes deliver bytes, not messages; the frame header
 *    re-creates message boundaries. The checksum covers the
 *    length and type bytes as well as the payload, so a flipped header
 *    bit is caught like a flipped payload bit. Every detected
 *    corruption — a checksum mismatch, a torn frame, a mid-frame EOF or
 *    an implausible length — reads as `Corrupt`: the stream can no
 *    longer be trusted and its peer is abandoned.
 *  - **reaping** — waitpid wrappers that classify how a child ended
 *    (clean exit / signal / still running) and render it for error
 *    messages ("killed by signal 11 (SIGSEGV)").
 *
 * Blocking and signals: reads and writes retry EINTR and short
 * transfers (pipes rarely split a 13-byte header, but a
 * one-byte-at-a-time feed must reassemble — tests pin this). An EINTR
 * before the first byte returns `Interrupted` so a worker blocked
 * waiting for its next job can notice a SIGTERM drain promptly. A
 * reader may bound the rest of a started frame (the coordinator uses
 * its heartbeat timeout): a peer stopped between a frame's header and
 * its payload then reads as `Corrupt` instead of blocking the reader.
 * Writers must ignoreSigpipe() first: a write to a dead peer then
 * fails with EPIPE instead of killing the process — exactly the
 * failure the supervisor exists to contain.
 *
 * Endianness: headers use native byte order; the peers are fork()s of
 * one process.
 */

#ifndef VGIW_COMMON_SUBPROCESS_HH
#define VGIW_COMMON_SUBPROCESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include <sys/types.h>

namespace vgiw
{

/** Message types of the shard wire protocol (one byte on the wire). */
enum class FrameType : uint8_t
{
    Job = 1,       ///< coordinator -> worker: run this job index
    Result = 2,    ///< worker -> coordinator: one terminal job row
    Heartbeat = 3, ///< worker -> coordinator: liveness beacon
    Stats = 4,     ///< worker -> coordinator: final cache/store counters
    Shutdown = 5,  ///< coordinator -> worker: drain and exit cleanly
};

/** One decoded message. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::string payload;
};

/** Outcome of readFrame. */
enum class ReadStatus
{
    Ok,            ///< a complete, checksum-valid frame was read
    Eof,           ///< orderly end of stream (peer closed the pipe)
    Interrupted,   ///< EINTR before any byte arrived (check drain flags)
    Corrupt,       ///< checksum mismatch, torn frame, mid-frame EOF or
                   ///< oversized length: abandon the stream
    Error,         ///< read(2) failed
};

/** Frames larger than this are rejected as Corrupt: a length field
 * this big is a desynchronised stream, not a real message. */
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Write one frame to @p fd: header (payload length, type, FNV-1a
 * checksum of length + type + payload) then the payload, retrying
 * partial writes and EINTR. False on any write failure (EPIPE when the
 * peer died — call ignoreSigpipe() once per process first).
 */
bool writeFrame(int fd, FrameType type, std::string_view payload);

/**
 * Read one frame from @p fd (blocking). EINTR before the first header
 * byte returns Interrupted; once a frame has started, reads are
 * retried until it completes or the stream ends (a mid-frame EOF is
 * Corrupt — the peer died mid-write). A checksum mismatch is Corrupt
 * too. A nonzero @p midFrameTimeoutMs bounds the wait for the rest of
 * a started frame: a frame unfinished that long after its first byte
 * is Corrupt (a peer stopped mid-write). Zero waits forever.
 */
ReadStatus readFrame(int fd, Frame *out, uint64_t midFrameTimeoutMs = 0);

/** One spawned worker process and its two pipe ends (parent's view). */
struct ChildProcess
{
    pid_t pid = -1;
    int toChild = -1;   ///< write end: coordinator -> worker commands
    int fromChild = -1; ///< read end: worker -> coordinator frames
};

/**
 * Fork a child connected by two pipes. In the child, @p body runs with
 * (read fd, write fd) — its return value becomes the process exit code
 * via _exit (no unwinding, no atexit, no double stdio flush; stdout
 * and stderr are flushed in the parent before forking so buffered
 * output is not duplicated). False with @p error set if fork or pipe
 * creation fails.
 */
bool spawnChild(const std::function<int(int in_fd, int out_fd)> &body,
                ChildProcess *out, std::string *error = nullptr);

/** How a reaped child ended. */
enum class ChildState
{
    Running,  ///< still alive (WNOHANG poll)
    Exited,   ///< clean _exit/return; code holds the exit status
    Signaled, ///< killed by a signal; code holds the signal number
    Lost,     ///< waitpid failed (already reaped, or not our child)
};

struct ChildStatus
{
    ChildState state = ChildState::Running;
    int code = 0;  ///< exit status (Exited) or signal number (Signaled)
};

/** Non-blocking reap (WNOHANG). Running children stay running. */
ChildStatus pollChild(pid_t pid);

/** Blocking reap; retries EINTR. */
ChildStatus waitChild(pid_t pid);

/** "exited with status 3" / "killed by signal 11 (SIGSEGV)" ... */
std::string describeChildStatus(const ChildStatus &status);

/** Best-effort kill (ESRCH is fine: the child is already gone). */
void killChild(pid_t pid, int sig);

/**
 * Ignore SIGPIPE process-wide (idempotent). Any process that writes
 * frames to a peer that can die must call this once: the failure mode
 * for a dead peer must be an EPIPE write error the supervisor handles,
 * never a process-killing signal.
 */
void ignoreSigpipe();

} // namespace vgiw

#endif // VGIW_COMMON_SUBPROCESS_HH
