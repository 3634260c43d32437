/**
 * @file
 * Subprocess-layer tests: frames round-trip over real pipes (including
 * a one-byte-at-a-time feed), corruption is graded correctly (checksum
 * mismatch on an aligned record reads as CorruptRecord and leaves the
 * next frame parseable; torn frames, oversized lengths and mid-frame
 * peer death read as Corrupt), and spawnChild/waitChild classify clean
 * exits and signal deaths correctly. Fork-based: these suites are
 * deliberately outside the sanitizer allowlist filters.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/subprocess.hh"

namespace vgiw
{
namespace
{

struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    int readEnd() const { return fds[0]; }
    int writeEnd() const { return fds[1]; }
    void closeRead()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeWrite()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

TEST(Subprocess, FramesRoundTripAllTypes)
{
    Pipe p;
    // The large payload stays under the default 64 KiB pipe capacity:
    // this test writes and reads from one thread, so a frame larger
    // than the buffer would deadlock the writer. (Real traffic has a
    // concurrent reader; the size cap there is kMaxFrameBytes.)
    const std::string payloads[] = {
        "",
        "x",
        std::string("embedded\0nul", 12),
        std::string(60000, 'y'),
    };
    const FrameType types[] = {FrameType::Job, FrameType::Result,
                               FrameType::Heartbeat, FrameType::Stats,
                               FrameType::Shutdown};
    for (FrameType t : types) {
        for (const auto &payload : payloads) {
            ASSERT_TRUE(writeFrame(p.writeEnd(), t, payload));
            Frame f;
            ASSERT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok);
            EXPECT_EQ(f.type, t);
            EXPECT_EQ(f.payload, payload);
        }
    }
}

TEST(Subprocess, BackToBackFramesKeepBoundaries)
{
    // Pipes deliver bytes, not messages: several frames written before
    // any read must come back as distinct messages, in order.
    Pipe p;
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(writeFrame(p.writeEnd(), FrameType::Result,
                               std::string(size_t(i * 7), char('a' + i))));
    }
    for (int i = 0; i < 20; ++i) {
        Frame f;
        ASSERT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok) << i;
        EXPECT_EQ(f.payload.size(), size_t(i * 7)) << i;
    }
}

TEST(Subprocess, ClosedPipeReadsAsEofOnFrameBoundary)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.writeEnd(), FrameType::Heartbeat, ""));
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok);
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Eof);
}

TEST(Subprocess, OneByteAtATimeFeedReassembles)
{
    // A pathological pipe writer may deliver a frame in arbitrarily
    // small pieces; readFrame must loop over short reads
    // until the header and payload are complete. Feed a frame one byte
    // at a time from a writer thread while the reader blocks.
    Pipe p;
    Pipe capture;
    const std::string payload = "short-read torture";
    ASSERT_TRUE(
        writeFrame(capture.writeEnd(), FrameType::Result, payload));
    capture.closeWrite();
    char buf[64];
    const ssize_t n = ::read(capture.readEnd(), buf, sizeof buf);
    ASSERT_GT(n, 0);

    std::thread writer([&]() {
        for (ssize_t i = 0; i < n; ++i) {
            ASSERT_EQ(::write(p.writeEnd(), buf + i, 1), 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        p.closeWrite();
    });
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Result);
    EXPECT_EQ(f.payload, payload);
    writer.join();
}

TEST(Subprocess, FlippedPayloadByteIsCorruptRecordAndSkippable)
{
    // Build a valid frame in a buffer, corrupt the payload, then push
    // the damaged bytes through a pipe: the checksum must catch it.
    // The length field is intact, so the stream stays aligned —
    // CorruptRecord, and the *next* frame must still parse.
    Pipe capture;
    ASSERT_TRUE(
        writeFrame(capture.writeEnd(), FrameType::Result, "payload"));
    capture.closeWrite();
    char buf[64];
    const ssize_t n = ::read(capture.readEnd(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    buf[n - 2] ^= 0x40;  // a payload byte

    Pipe p;
    ASSERT_EQ(::write(p.writeEnd(), buf, size_t(n)), n);
    ASSERT_TRUE(writeFrame(p.writeEnd(), FrameType::Heartbeat, "next"));
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::CorruptRecord);
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Heartbeat);
    EXPECT_EQ(f.payload, "next");
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Eof);
}

TEST(Subprocess, FlippedTypeByteIsCaughtByChecksum)
{
    // The checksum covers the header too: a flipped *type* byte (with
    // payload intact) must read as CorruptRecord, not dispatch as a
    // different message kind.
    Pipe capture;
    ASSERT_TRUE(writeFrame(capture.writeEnd(), FrameType::Result, "x"));
    capture.closeWrite();
    char buf[64];
    const ssize_t n = ::read(capture.readEnd(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    buf[4] = char(FrameType::Shutdown);  // type byte lives at offset 4

    Pipe p;
    ASSERT_EQ(::write(p.writeEnd(), buf, size_t(n)), n);
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::CorruptRecord);
}

TEST(Subprocess, CorruptFrameForTestReadsAsCorruptRecord)
{
    Pipe p;
    ASSERT_TRUE(writeCorruptFrameForTest(p.writeEnd(),
                                         FrameType::Heartbeat, "drill"));
    ASSERT_TRUE(writeFrame(p.writeEnd(), FrameType::Result, "after"));
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::CorruptRecord);
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Ok);
    EXPECT_EQ(f.payload, "after");
}

TEST(Subprocess, MidFramePeerDeathIsCorruptNotEof)
{
    // The peer died mid-write: header promises more bytes than ever
    // arrive. That must read as Corrupt (a torn frame), not Eof (an
    // orderly shutdown).
    Pipe capture;
    ASSERT_TRUE(writeFrame(capture.writeEnd(), FrameType::Result,
                           std::string(500, 'z')));
    capture.closeWrite();
    char buf[600];
    const ssize_t n = ::read(capture.readEnd(), buf, sizeof buf);
    ASSERT_GT(n, 100);

    Pipe p;
    ASSERT_EQ(::write(p.writeEnd(), buf, size_t(n) / 2), n / 2);
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Corrupt);
}

TEST(Subprocess, OversizedLengthIsCorruptNotAllocated)
{
    // A desynchronised stream can present any length field; lengths
    // beyond kMaxFrameBytes are rejected before any allocation.
    Pipe p;
    const uint32_t huge = kMaxFrameBytes + 1;
    char header[13] = {};
    std::memcpy(header, &huge, sizeof huge);
    header[4] = char(FrameType::Result);
    ASSERT_EQ(::write(p.writeEnd(), header, sizeof header),
              ssize_t(sizeof header));
    p.closeWrite();
    Frame f;
    EXPECT_EQ(readFrame(p.readEnd(), &f), ReadStatus::Corrupt);
}

TEST(Subprocess, SpawnChildEchoesAndExitsClean)
{
    ChildProcess cp;
    std::string err;
    ASSERT_TRUE(spawnChild(
        [](int in_fd, int out_fd) -> int {
            Frame f;
            while (readFrame(in_fd, &f) == ReadStatus::Ok) {
                if (f.type == FrameType::Shutdown)
                    return 7;
                if (!writeFrame(out_fd, FrameType::Result, f.payload))
                    return 1;
            }
            return 1;
        },
        &cp, &err))
        << err;

    ASSERT_TRUE(writeFrame(cp.toChild, FrameType::Job, "ping"));
    Frame f;
    ASSERT_EQ(readFrame(cp.fromChild, &f), ReadStatus::Ok);
    EXPECT_EQ(f.payload, "ping");

    ASSERT_TRUE(writeFrame(cp.toChild, FrameType::Shutdown, ""));
    const ChildStatus st = waitChild(cp.pid);
    EXPECT_EQ(st.state, ChildState::Exited);
    EXPECT_EQ(st.code, 7);
    EXPECT_EQ(describeChildStatus(st), "exited with status 7");
    ::close(cp.toChild);
    ::close(cp.fromChild);
}

TEST(Subprocess, SignalDeathIsClassifiedAndDescribed)
{
    ChildProcess cp;
    std::string err;
    ASSERT_TRUE(spawnChild(
        [](int in_fd, int) -> int {
            // Wait for the go signal so the kill cannot race the fork.
            Frame f;
            (void)readFrame(in_fd, &f);
            ::pause();
            return 0;
        },
        &cp, &err))
        << err;

    ASSERT_TRUE(writeFrame(cp.toChild, FrameType::Job, ""));
    killChild(cp.pid, SIGKILL);
    const ChildStatus st = waitChild(cp.pid);
    EXPECT_EQ(st.state, ChildState::Signaled);
    EXPECT_EQ(st.code, SIGKILL);
    EXPECT_NE(describeChildStatus(st).find("killed by signal 9"),
              std::string::npos)
        << describeChildStatus(st);
    ::close(cp.toChild);
    ::close(cp.fromChild);
}

TEST(Subprocess, PollChildSeesRunningThenExit)
{
    ChildProcess cp;
    std::string err;
    ASSERT_TRUE(spawnChild(
        [](int in_fd, int) -> int {
            Frame f;
            (void)readFrame(in_fd, &f);
            return 0;
        },
        &cp, &err))
        << err;

    EXPECT_EQ(pollChild(cp.pid).state, ChildState::Running);
    ASSERT_TRUE(writeFrame(cp.toChild, FrameType::Shutdown, ""));
    const ChildStatus st = waitChild(cp.pid);
    EXPECT_EQ(st.state, ChildState::Exited);
    EXPECT_EQ(st.code, 0);
    // A second reap of the same pid is Lost, not a stale success.
    EXPECT_EQ(pollChild(cp.pid).state, ChildState::Lost);
    ::close(cp.toChild);
    ::close(cp.fromChild);
}

TEST(Subprocess, WriteToDeadPeerFailsInsteadOfKilling)
{
    ignoreSigpipe();
    Pipe p;
    p.closeRead();
    // With SIGPIPE ignored this is an EPIPE write failure the
    // supervisor handles — not a fatal signal.
    EXPECT_FALSE(writeFrame(p.writeEnd(), FrameType::Job, "x"));
}

} // namespace
} // namespace vgiw
