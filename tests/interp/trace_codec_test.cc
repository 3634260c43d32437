/**
 * @file
 * Round-trip tests for the compressed trace codec: randomized
 * ThreadTraces through TraceSet::fromThreads and back via both the
 * materialising decoder (decodeThread) and the streaming ThreadCursor
 * must reproduce every block, successor and access exactly. Also pins
 * the shapes the run code exists for (tight loops) actually compress,
 * that the exec-only blockExecCount walk matches a full decode, and that
 * the online TraceWriter emits exactly the bytes of the offline greedy
 * encoder it replaced, kept here as the oracle, also when many threads
 * write interleaved and a stream's chunks fill to their room checks,
 * and that a cursor never reads one execution's accesses as another's.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "interp/trace.hh"

namespace vgiw
{
namespace
{

// --- Oracle: the offline encoder the online TraceWriter replaced ------

struct Tup
{
    int32_t block;
    int32_t succ;
    uint32_t nacc;
};

bool
sameTup(const Tup &a, const Tup &b)
{
    return a.block == b.block && a.succ == b.succ && a.nacc == b.nacc;
}

/**
 * Greedy exec-stream encoder: at each position prefer the longest
 * repeat of the last 1..4 tuples (ties to the shortest distance, whose
 * token is smallest), falling back to a literal. Loop iterations —
 * the bulk of every trace — collapse to one run token each.
 */
void
encodeExecs(const std::vector<BlockExec> &execs,
            std::vector<uint8_t> &out)
{
    std::vector<Tup> tups(execs.size());
    for (size_t i = 0; i < execs.size(); ++i) {
        tups[i] = Tup{int32_t(execs[i].block), int32_t(execs[i].succ),
                      execs[i].accessEnd - execs[i].accessBegin};
    }

    int32_t prev_block = 0;
    size_t i = 0;
    while (i < tups.size()) {
        size_t best_len = 0;
        uint32_t best_dist = 0;
        for (uint32_t dist = 1; dist <= 4 && dist <= i; ++dist) {
            size_t len = 0;
            while (i + len < tups.size() &&
                   sameTup(tups[i + len], tups[i + len - dist]))
                ++len;
            if (len > best_len) {
                best_len = len;
                best_dist = dist;
            }
        }
        if (best_len >= 2) {
            varint::append(out, ((uint64_t(best_len) << 2 |
                                  uint64_t(best_dist - 1))
                                 << 1) |
                                    1);
            i += best_len;
        } else {
            const Tup &t = tups[i];
            varint::append(
                out, varint::zigzag(int64_t(t.block) - prev_block) << 1);
            varint::append(out,
                           varint::zigzag(int64_t(t.succ) - t.block));
            varint::append(out, t.nacc);
            ++i;
        }
        prev_block = tups[i - 1].block;
    }
}

void
encodeAccesses(const std::vector<MemAccess> &accesses,
               std::vector<uint8_t> &out)
{
    uint32_t prev[2] = {0, 0};
    for (const MemAccess &a : accesses) {
        const int chain = a.isShared ? 1 : 0;
        const int64_t delta = int64_t(a.addr) - int64_t(prev[chain]);
        prev[chain] = a.addr;
        varint::append(out, varint::zigzag(delta) << 2 |
                                uint64_t(a.isShared) << 1 |
                                uint64_t(a.isStore));
    }
}

/** The serializeInto() image the oracle encoder implies. */
std::string
oracleBlob(const std::vector<ThreadTrace> &threads)
{
    std::vector<uint8_t> exec, acc;
    std::string index;
    uint64_t execs = 0, accs = 0;
    for (const ThreadTrace &t : threads) {
        const uint64_t offs[2] = {exec.size(), acc.size()};
        const uint32_t counts[2] = {uint32_t(t.execs.size()),
                                    uint32_t(t.accesses.size())};
        index.append(reinterpret_cast<const char *>(offs), sizeof offs);
        index.append(reinterpret_cast<const char *>(counts),
                     sizeof counts);
        encodeExecs(t.execs, exec);
        encodeAccesses(t.accesses, acc);
        execs += t.execs.size();
        accs += t.accesses.size();
    }
    const uint64_t hdr[5] = {threads.size(), exec.size(), acc.size(),
                             execs, accs};
    std::string out(reinterpret_cast<const char *>(hdr), sizeof hdr);
    out += index;
    out.append(exec.begin(), exec.end());
    out.append(acc.begin(), acc.end());
    return out;
}

/** Append one execution with @p naccs random accesses. */
void
addExec(ThreadTrace &t, std::mt19937_64 &rng, int block, int succ,
        uint32_t naccs)
{
    BlockExec e;
    e.block = uint16_t(block);
    e.succ = int16_t(succ);
    e.accessBegin = uint32_t(t.accesses.size());
    for (uint32_t a = 0; a < naccs; ++a) {
        MemAccess m;
        m.isShared = (rng() % 4) == 0;
        m.isStore = (rng() % 3) == 0;
        // Mix strided progress with jumps; shared stays small.
        m.addr = m.isShared ? uint32_t(rng() % 4096)
                            : uint32_t(0x80000000u + (rng() % (1u << 20)));
        t.accesses.push_back(m);
    }
    e.accessEnd = uint32_t(t.accesses.size());
    t.execs.push_back(e);
}

ThreadTrace
randomTrace(std::mt19937_64 &rng)
{
    ThreadTrace t;
    const int num_blocks = 1 + int(rng() % 12);
    int block = int(rng() % num_blocks);
    const size_t len = rng() % 200;
    for (size_t i = 0; i < len; ++i) {
        const bool exit = i + 1 == len;
        const int succ = exit ? -1 : int(rng() % num_blocks);
        addExec(t, rng, block, succ, uint32_t(rng() % 5));
        if (!exit)
            block = succ;
    }
    return t;
}

void
expectEqual(const ThreadTrace &a, const ThreadTrace &b)
{
    ASSERT_EQ(a.execs.size(), b.execs.size());
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (size_t i = 0; i < a.execs.size(); ++i) {
        EXPECT_EQ(a.execs[i].block, b.execs[i].block) << "exec " << i;
        EXPECT_EQ(a.execs[i].succ, b.execs[i].succ) << "exec " << i;
        EXPECT_EQ(a.execs[i].accessBegin, b.execs[i].accessBegin);
        EXPECT_EQ(a.execs[i].accessEnd, b.execs[i].accessEnd);
    }
    for (size_t i = 0; i < a.accesses.size(); ++i) {
        EXPECT_EQ(a.accesses[i].addr, b.accesses[i].addr) << "acc " << i;
        EXPECT_EQ(a.accesses[i].isStore, b.accesses[i].isStore);
        EXPECT_EQ(a.accesses[i].isShared, b.accesses[i].isShared);
    }
}

TEST(TraceCodec, RandomizedRoundTrip)
{
    std::mt19937_64 rng(42);
    for (int round = 0; round < 20; ++round) {
        std::vector<ThreadTrace> threads(1 + rng() % 8);
        for (auto &t : threads)
            t = randomTrace(rng);
        const TraceSet ts =
            TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
        ASSERT_EQ(ts.numThreads(), threads.size());
        uint64_t execs = 0, accs = 0;
        for (uint32_t tid = 0; tid < threads.size(); ++tid) {
            EXPECT_EQ(ts.numExecs(tid), threads[tid].execs.size());
            EXPECT_EQ(ts.numAccesses(tid), threads[tid].accesses.size());
            expectEqual(threads[tid], ts.decodeThread(tid));
            execs += threads[tid].execs.size();
            accs += threads[tid].accesses.size();
        }
        EXPECT_EQ(ts.totalBlockExecs(), execs);
        EXPECT_EQ(ts.totalAccesses(), accs);
    }
}

TEST(TraceCodec, CursorSkipsUnconsumedAccesses)
{
    // A replay model may advance without draining an execution's
    // accesses; the cursor must resynchronise the delta chains.
    std::mt19937_64 rng(7);
    ThreadTrace t = randomTrace(rng);
    const std::vector<ThreadTrace> threads{t};
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);

    size_t i = 0;
    uint32_t consumed_phase = 0;
    for (ThreadCursor c = ts.thread(0); !c.done(); c.nextExec(), ++i) {
        ASSERT_LT(i, t.execs.size());
        EXPECT_EQ(c.block(), int(t.execs[i].block));
        EXPECT_EQ(c.succ(), int(t.execs[i].succ));
        const uint32_t nacc = c.numAccesses();
        ASSERT_EQ(nacc, t.execs[i].accessEnd - t.execs[i].accessBegin);
        // Consume a varying prefix: 0, all, half, 1, ...
        const uint32_t take = nacc == 0 ? 0 : consumed_phase % (nacc + 1);
        consumed_phase += 1;
        for (uint32_t a = 0; a < take; ++a) {
            const MemAccess got = c.nextAccess();
            const MemAccess &want = t.accesses[t.execs[i].accessBegin + a];
            EXPECT_EQ(got.addr, want.addr);
            EXPECT_EQ(got.isStore, want.isStore);
            EXPECT_EQ(got.isShared, want.isShared);
        }
    }
    EXPECT_EQ(i, t.execs.size());
}

TEST(TraceCodec, ExtraAccessReadPanics)
{
    // An over-read would otherwise decode the next execution's access,
    // or, for the last thread, bytes past the end of the stream.
    std::mt19937_64 rng(5);
    ThreadTrace t;
    addExec(t, rng, 0, 1, 2);
    addExec(t, rng, 1, -1, 1);
    const std::vector<ThreadTrace> threads{t};
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);

    PanicCaptureScope capture;
    ThreadCursor c = ts.thread(0);
    EXPECT_NO_THROW(c.nextAccess());
    EXPECT_NO_THROW(c.nextAccess());
    EXPECT_THROW(c.nextAccess(), SimPanic);
    c.nextExec();
    EXPECT_EQ(c.block(), 1);
    EXPECT_NO_THROW(c.nextAccess());
    EXPECT_THROW(c.nextAccess(), SimPanic);
}

TEST(TraceCodec, BlockExecCountMatchesFullDecode)
{
    std::mt19937_64 rng(11);
    std::vector<ThreadTrace> threads(6);
    for (auto &t : threads)
        t = randomTrace(rng);
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    for (int b = 0; b < 12; ++b) {
        uint64_t want = 0;
        for (const auto &t : threads)
            for (const auto &e : t.execs)
                want += e.block == b;
        EXPECT_EQ(ts.blockExecCount(b), want) << "block " << b;
    }
}

TEST(TraceCodec, TightLoopCompresses)
{
    // The shape the run token exists for: a two-block loop body
    // iterated many times. The encoded stream must be far smaller
    // than the raw arrays (conservatively: at least 8x).
    std::mt19937_64 rng(3);
    ThreadTrace t;
    for (int it = 0; it < 1000; ++it) {
        addExec(t, rng, 4, 5, 0);
        addExec(t, rng, 5, it + 1 < 1000 ? 4 : -1, 0);
    }
    const std::vector<ThreadTrace> threads{t};
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    expectEqual(t, ts.decodeThread(0));
    EXPECT_LT(ts.compressedBytes() * 8, ts.uncompressedBytes());
}

TEST(TraceCodec, EmptyAndSingleExecThreads)
{
    std::vector<ThreadTrace> threads(3);
    std::mt19937_64 rng(9);
    // threads[0]: empty. threads[1]: one exec, no accesses.
    addExec(threads[1], rng, 2, -1, 0);
    // threads[2]: one exec with accesses.
    addExec(threads[2], rng, 0, -1, 3);
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    EXPECT_TRUE(ts.thread(0).done());
    EXPECT_EQ(ts.numExecs(0), 0u);
    expectEqual(threads[1], ts.decodeThread(1));
    expectEqual(threads[2], ts.decodeThread(2));
}

/**
 * A thread biased toward what the run token has to get right: loops of
 * period 1..4 broken after any number of tuples (so at every offset of
 * the period, and sometimes within the first period), over a small
 * tuple alphabet so that runs at other distances match by accident too.
 * Now and then a block id or a run is long enough to need multi-byte
 * varints.
 */
ThreadTrace
loopyTrace(std::mt19937_64 &rng)
{
    struct Step
    {
        int block, succ;
        uint32_t nacc;
    };
    auto random_step = [&] {
        const int block = rng() % 16 ? int(rng() % 3) : int(rng() % 1000);
        return Step{block, int(rng() % 4) - 1, uint32_t(rng() % 2)};
    };
    ThreadTrace t;
    const size_t target = rng() % 80;
    while (t.execs.size() < target) {
        const size_t period = 1 + rng() % 4;
        std::vector<Step> body;
        for (size_t p = 0; p < period; ++p) {
            // Reuse an earlier body step now and then: inner periods.
            body.push_back(p && rng() % 3 == 0 ? body[rng() % p]
                                               : random_step());
        }
        const size_t len =
            rng() % 8 ? rng() % (4 * period + 3) : rng() % 300;
        for (size_t k = 0; k < len; ++k) {
            const Step &st = body[k % period];
            addExec(t, rng, st.block, st.succ, st.nacc);
        }
        if (rng() % 2) {
            const Step st = random_step();
            addExec(t, rng, st.block, st.succ, st.nacc);
        }
    }
    return t;
}

TEST(TraceCodec, OnlineWriterMatchesGreedyOracle)
{
    std::mt19937_64 rng(2024);
    for (int round = 0; round < 2500; ++round) {
        std::vector<ThreadTrace> threads(1 + rng() % 3);
        for (auto &t : threads)
            t = loopyTrace(rng);
        if (round % 10 == 0) {
            threads.emplace_back();  // a thread that never ran
            threads.emplace_back();
            addExec(threads.back(), rng, int(rng() % 5), -1,
                    uint32_t(rng() % 3));  // one exec, then exit
        }
        std::string got;
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads)
            .serializeInto(got);
        ASSERT_EQ(got, oracleBlob(threads)) << "round " << round;
    }
}

/**
 * Encode @p threads through one TraceWriter a block execution at a
 * time, round-robin over the threads, so that their chunks interleave
 * in the writer's slabs. Addresses sit in a column of stride 3, as the
 * interpreter's strip columns are strided.
 */
TraceSet
writeInterleaved(const std::vector<ThreadTrace> &threads)
{
    TraceWriter w(threads.size());
    std::vector<uint32_t> addrs;
    std::vector<uint8_t> kinds;
    for (size_t i = 0;; ++i) {
        bool wrote = false;
        for (size_t tid = 0; tid < threads.size(); ++tid) {
            const ThreadTrace &t = threads[tid];
            if (i >= t.execs.size())
                continue;
            const BlockExec &e = t.execs[i];
            const uint32_t m = e.accessEnd - e.accessBegin;
            addrs.assign(3 * size_t(m), 0xdeadbeef);
            kinds.clear();
            for (uint32_t k = 0; k < m; ++k) {
                const MemAccess &a = t.accesses[e.accessBegin + k];
                addrs[3 * k] = a.addr;
                kinds.push_back(uint8_t(a.isShared << 1 | a.isStore));
            }
            w.block(uint32_t(tid), e.block, e.succ, addrs.data(), 3,
                    kinds.data(), m);
            wrote = true;
        }
        if (!wrote)
            return w.finish(nullptr, LaunchParams{});
    }
}

TEST(TraceCodec, WriterChunkBoundariesMatchOracle)
{
    // Thread 0 writes the widest tokens the writer's room checks allow
    // for. Its execs are literal-only with multi-byte block and
    // successor deltas: blocks A B C A B E repeat, so every third
    // tuple matches the one 3 back, the next one breaks that run at
    // length 1, and one block() call closes two literals. Its accesses
    // alternate between 0 and 0xFFFFFFFC, each a 5-byte varint. Its
    // streams grow past 10 KB, so they chain chunk after chunk to the
    // cap and across slabs, and one execution of 1,000 accesses needs
    // a chunk above the cap.
    std::mt19937_64 rng(77);
    std::vector<ThreadTrace> threads(5);
    ThreadTrace &wide = threads[0];
    const int cycle[6] = {0, 7000, 14000, 0, 7000, 28000};
    const int n = 1600;
    for (int i = 0; i < n; ++i) {
        BlockExec e;
        e.block = uint16_t(cycle[i % 6]);
        e.succ = int16_t(i + 1 < n ? cycle[(i + 1) % 6] : -1);
        e.accessBegin = uint32_t(wide.accesses.size());
        const uint32_t m = i == 900 ? 1000 : e.block == 14000 ? 0 : 8;
        for (uint32_t k = 0; k < m; ++k) {
            MemAccess a;
            a.addr = wide.accesses.size() % 2 ? 0xFFFFFFFCu : 0u;
            a.isStore = rng() % 2;
            wide.accesses.push_back(a);
        }
        e.accessEnd = uint32_t(wide.accesses.size());
        wide.execs.push_back(e);
    }
    for (size_t tid = 1; tid < threads.size(); ++tid)
        threads[tid] = tid % 2 ? loopyTrace(rng) : randomTrace(rng);

    const TraceSet ts = writeInterleaved(threads);
    ASSERT_GT(ts.numAccesses(0) * 5, 10000u);
    std::string got;
    ts.serializeInto(got);
    EXPECT_EQ(got, oracleBlob(threads));
    for (uint32_t tid = 0; tid < threads.size(); ++tid)
        expectEqual(threads[tid], ts.decodeThread(tid));
}

} // namespace
} // namespace vgiw
