#include "common/subprocess.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace vgiw
{

namespace
{

/** FNV-1a — the frame checksum. (Deliberately local: the store's
 * fnv1a lives in a driver header and common must not depend on
 * driver.) */
uint64_t
fnv1aStep(uint64_t h, const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Checksum over length + type + payload: a flipped header bit is
 * caught like a flipped payload bit. (A corrupted *length* field still
 * desynchronises the byte stream — the reader consumes the wrong
 * count — which is why CorruptRecord recovery is paired with a
 * consecutive-corruption cap at every call site.) */
uint64_t
frameChecksum(uint32_t len, uint8_t type, std::string_view payload)
{
    uint64_t h = 14695981039346656037ull;
    h = fnv1aStep(h, &len, sizeof len);
    h = fnv1aStep(h, &type, sizeof type);
    return fnv1aStep(h, payload.data(), payload.size());
}

/** Write all of @p len bytes, retrying EINTR and partial writes. */
bool
writeAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= size_t(n);
    }
    return true;
}

/**
 * Read exactly @p len bytes. @p started tracks whether any byte of the
 * current frame has already arrived: before that, EINTR surfaces as
 * Interrupted (so a blocked worker can poll its drain flag); after it,
 * the frame is finished or declared Corrupt.
 */
ReadStatus
readAll(int fd, void *out, size_t len, bool *started)
{
    char *p = static_cast<char *>(out);
    while (len > 0) {
        const ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR) {
                if (!*started)
                    return ReadStatus::Interrupted;
                continue;
            }
            return ReadStatus::Error;
        }
        if (n == 0)
            return *started ? ReadStatus::Corrupt : ReadStatus::Eof;
        *started = true;
        p += n;
        len -= size_t(n);
    }
    return ReadStatus::Ok;
}

} // namespace

namespace
{

bool
writeFrameWithSum(int fd, FrameType type, std::string_view payload,
                  uint64_t sum)
{
    // Header: u32 length, u8 type, u64 checksum — fixed layout, native
    // endianness (pipe peers are fork()s of one process).
    char header[13];
    const uint32_t len = uint32_t(payload.size());
    const uint8_t t = uint8_t(type);
    std::memcpy(header, &len, 4);
    std::memcpy(header + 4, &t, 1);
    std::memcpy(header + 5, &sum, 8);
    return writeAll(fd, header, sizeof header) &&
           writeAll(fd, payload.data(), payload.size());
}

} // namespace

bool
writeFrame(int fd, FrameType type, std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    return writeFrameWithSum(
        fd, type, payload,
        frameChecksum(uint32_t(payload.size()), uint8_t(type), payload));
}

bool
writeCorruptFrameForTest(int fd, FrameType type, std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const uint64_t good = frameChecksum(uint32_t(payload.size()),
                                        uint8_t(type), payload);
    return writeFrameWithSum(fd, type, payload, good ^ 1);
}

ReadStatus
readFrame(int fd, Frame *out)
{
    bool started = false;
    char header[13];
    ReadStatus st = readAll(fd, header, sizeof header, &started);
    if (st != ReadStatus::Ok)
        return st;

    uint32_t len = 0;
    uint8_t type = 0;
    uint64_t sum = 0;
    std::memcpy(&len, header, 4);
    std::memcpy(&type, header + 4, 1);
    std::memcpy(&sum, header + 5, 8);
    if (len > kMaxFrameBytes)
        return ReadStatus::Corrupt;

    out->type = FrameType(type);
    out->payload.resize(len);
    if (len > 0) {
        st = readAll(fd, out->payload.data(), len, &started);
        if (st != ReadStatus::Ok)
            return st == ReadStatus::Eof ? ReadStatus::Corrupt : st;
    }
    // The declared length was plausible and fully consumed: the stream
    // is still frame-aligned, so a checksum mismatch here is the
    // recoverable grade — callers may skip exactly this record.
    if (frameChecksum(len, type, out->payload) != sum)
        return ReadStatus::CorruptRecord;
    return ReadStatus::Ok;
}

bool
spawnChild(const std::function<int(int in_fd, int out_fd)> &body,
           ChildProcess *out, std::string *error)
{
    int down[2];  // coordinator -> worker
    int up[2];    // worker -> coordinator
    if (::pipe(down) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (::pipe(up) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        ::close(down[0]);
        ::close(down[1]);
        return false;
    }

    // A fork duplicates unflushed stdio buffers; flush so the child
    // cannot re-emit output the parent already printed.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        if (error)
            *error = std::string("fork: ") + std::strerror(errno);
        ::close(down[0]);
        ::close(down[1]);
        ::close(up[0]);
        ::close(up[1]);
        return false;
    }

    if (pid == 0) {
        // Child: keep only its two pipe ends.
        ::close(down[1]);
        ::close(up[0]);
#ifdef __linux__
        // Belt and braces against orphans: if the coordinator dies
        // without cleaning up, the kernel TERMs us.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
        int rc = 127;
        try {
            rc = body(down[0], up[1]);
        } catch (...) {
            rc = 126;
        }
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(rc);
    }

    ::close(down[0]);
    ::close(up[1]);
    out->pid = pid;
    out->toChild = down[1];
    out->fromChild = up[0];
    return true;
}

namespace
{

ChildStatus
reap(pid_t pid, int flags)
{
    for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, flags);
        if (r == 0)
            return {ChildState::Running, 0};
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return {ChildState::Lost, errno};
        }
        if (WIFEXITED(status))
            return {ChildState::Exited, WEXITSTATUS(status)};
        if (WIFSIGNALED(status))
            return {ChildState::Signaled, WTERMSIG(status)};
        // Stopped/continued: not terminal, keep treating as running.
        return {ChildState::Running, 0};
    }
}

} // namespace

ChildStatus
pollChild(pid_t pid)
{
    return reap(pid, WNOHANG);
}

ChildStatus
waitChild(pid_t pid)
{
    return reap(pid, 0);
}

std::string
describeChildStatus(const ChildStatus &status)
{
    char buf[96];
    switch (status.state) {
      case ChildState::Running:
        return "still running";
      case ChildState::Exited:
        std::snprintf(buf, sizeof buf, "exited with status %d",
                      status.code);
        return buf;
      case ChildState::Signaled: {
        const char *name = ::strsignal(status.code);
        std::snprintf(buf, sizeof buf, "killed by signal %d (%s)",
                      status.code, name ? name : "?");
        return buf;
      }
      case ChildState::Lost:
        return "lost (waitpid failed)";
    }
    return "?";
}

void
killChild(pid_t pid, int sig)
{
    if (pid > 0)
        ::kill(pid, sig);
}

void
ignoreSigpipe()
{
    struct sigaction sa = {};
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPIPE, &sa, nullptr);
}

} // namespace vgiw
