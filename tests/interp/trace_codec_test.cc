/**
 * @file
 * Tests for the trace codec, which stores only what the kernel does not
 * fix: each thread's branch outcomes and access addresses. Random
 * structured kernels run through the interpreter, and every thread's
 * decodeThread() must equal a host walk of that thread through the
 * kernel. fromThreads() must reject a trace the kernel cannot produce.
 * A branch-free kernel stores no branch byte. Threads written
 * interleaved, with hundreds of outcomes each, cross their 64-bit
 * outcome words and their chunks. A cursor never reads one execution's
 * accesses as another's.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "helpers/random_kernel.hh"
#include "interp/interpreter.hh"
#include "interp/trace.hh"
#include "ir/builder.hh"

namespace vgiw
{
namespace
{

/**
 * Thread @p tid's trace, walked on the host through @p k with a scalar
 * evaluator for the integer operations randomKernel emits. Threads of
 * those kernels read only their input word, so @p mem is the image
 * before the launch.
 */
ThreadTrace
hostWalk(const Kernel &k, const LaunchParams &lp, const MemoryImage &mem,
         uint32_t tid)
{
    ThreadTrace t;
    std::vector<uint32_t> live(size_t(k.numLiveValues));
    std::vector<uint32_t> regs;
    auto value = [&](const Operand &o) -> uint32_t {
        switch (o.kind) {
          case OperandKind::Local: return regs[o.index];
          case OperandKind::LiveIn: return live[o.index];
          case OperandKind::Param: return lp.params[o.index].bits;
          case OperandKind::Const: return o.constant.bits;
          case OperandKind::Special:
            EXPECT_EQ(o.specialReg(), SpecialReg::Tid);
            return tid;
          case OperandKind::None: return 0;
        }
        return 0;
    };
    for (int b = 0; b >= 0;) {
        const BasicBlock &blk = k.blocks[size_t(b)];
        BlockExec e;
        e.block = uint16_t(b);
        e.accessBegin = uint32_t(t.accesses.size());
        regs.assign(blk.instrs.size(), 0);
        for (size_t i = 0; i < blk.instrs.size(); ++i) {
            const Instr &in = blk.instrs[i];
            const uint32_t x = value(in.src[0]), y = value(in.src[1]);
            switch (in.op) {
              case Opcode::Add: regs[i] = x + y; break;
              case Opcode::Sub: regs[i] = x - y; break;
              case Opcode::Mul: regs[i] = x * y; break;
              case Opcode::And: regs[i] = x & y; break;
              case Opcode::Xor: regs[i] = x ^ y; break;
              case Opcode::Shl: regs[i] = x << (y & 31); break;
              case Opcode::CmpGt: regs[i] = int32_t(x) > int32_t(y); break;
              case Opcode::Load:
                regs[i] = mem.loadWord(x);
                t.accesses.push_back({x, false, false});
                break;
              case Opcode::Store:
                t.accesses.push_back({x, true, false});
                break;
              default:
                ADD_FAILURE() << "no host evaluation of "
                              << opcodeName(in.op);
            }
        }
        for (const LiveOut &lo : blk.liveOuts)
            live[lo.lvid] = value(lo.value);
        switch (blk.term.kind) {
          case TermKind::Jump: b = blk.term.target[0]; break;
          case TermKind::Branch:
            b = blk.term.target[value(blk.term.cond) != 0 ? 0 : 1];
            break;
          case TermKind::Exit: b = -1; break;
        }
        e.succ = int16_t(b);
        e.accessEnd = uint32_t(t.accesses.size());
        t.execs.push_back(e);
    }
    return t;
}

/** A random kernel, the image its launch started from, and its trace.
 * Not movable: the traces borrow the kernel. */
struct Traced
{
    explicit Traced(uint64_t seed)
    {
        Rng rng(seed);
        kernel = testing::randomKernel(rng, 2 + int(rng.nextUInt(5)));
        launch.numCtas = 3;  // 201 threads: strips end mid-way
        launch.ctaSize = 67;
        const int threads = launch.numThreads();
        const uint32_t in = before.allocWords(uint32_t(threads));
        const uint32_t out = before.allocWords(uint32_t(threads));
        for (int i = 0; i < threads; ++i)
            before.storeI32(in, uint32_t(i), int32_t(rng.next() & 0xffff));
        launch.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
        MemoryImage mem = before;
        traces = Interpreter{}.run(kernel, launch, mem);
    }
    Traced(const Traced &) = delete;

    Kernel kernel;
    LaunchParams launch;
    MemoryImage before;
    TraceSet traces;
};

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

std::vector<ThreadTrace>
decodeAll(const TraceSet &ts)
{
    std::vector<ThreadTrace> out;
    for (uint32_t tid = 0; tid < ts.numThreads(); ++tid)
        out.push_back(ts.decodeThread(tid));
    return out;
}

std::string
wire(const TraceSet &ts)
{
    std::string out;
    ts.serializeInto(out);
    return out;
}

TEST(TraceCodec, RandomKernelsDecodeToHostWalk)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        const Traced r(seed);
        const TraceSet &ts = r.traces;
        ASSERT_EQ(ts.numThreads(), size_t(r.launch.numThreads()));
        uint64_t execs = 0, accs = 0;
        std::vector<uint64_t> per_block(r.kernel.blocks.size());
        for (uint32_t tid = 0; tid < ts.numThreads(); ++tid) {
            const ThreadTrace want =
                hostWalk(r.kernel, r.launch, r.before, tid);
            expectEqual(want, ts.decodeThread(tid));
            EXPECT_EQ(ts.numExecs(tid), want.execs.size());
            EXPECT_EQ(ts.numAccesses(tid), want.accesses.size());
            execs += want.execs.size();
            accs += want.accesses.size();
            for (const BlockExec &e : want.execs)
                ++per_block[e.block];
        }
        EXPECT_EQ(ts.totalBlockExecs(), execs);
        EXPECT_EQ(ts.totalAccesses(), accs);
        for (size_t b = 0; b < per_block.size(); ++b)
            EXPECT_EQ(ts.blockExecCount(int(b)), per_block[b]) << b;
        // The materialised threads encode back to the same bytes.
        EXPECT_EQ(wire(TraceSet::fromThreads(r.kernel, r.launch,
                                             decodeAll(ts))),
                  wire(ts));
    }
}

TEST(TraceCodec, FromThreadsRejectsWhatTheKernelCannotProduce)
{
    const Traced r(7);
    const std::vector<ThreadTrace> threads = decodeAll(r.traces);
    EXPECT_NO_THROW(TraceSet::fromThreads(r.kernel, r.launch, threads));

    auto rejects = [&](const char *what, auto &&mutate) {
        std::vector<ThreadTrace> bad = threads;
        mutate(bad[5]);
        PanicCaptureScope capture;
        EXPECT_THROW(TraceSet::fromThreads(r.kernel, r.launch, bad),
                     SimPanic)
            << what;
    };
    ASSERT_GE(threads[5].execs.size(), 3u);
    ASSERT_EQ(threads[5].execs[0].accessEnd, 1u);  // the input load
    rejects("first execution not of block 0",
            [](ThreadTrace &t) { t.execs.erase(t.execs.begin()); });
    rejects("block chain broken", [](ThreadTrace &t) {
        t.execs[1].block = t.execs[2].block;
    });
    rejects("successor not the block's",
            [](ThreadTrace &t) { t.execs[0].succ = 0; });
    rejects("access missing",
            [](ThreadTrace &t) { t.execs[0].accessEnd = 0; });
    rejects("access of the wrong kind",
            [](ThreadTrace &t) { t.accesses[0].isShared = true; });
    rejects("trace stops before the exit",
            [](ThreadTrace &t) { t.execs.pop_back(); });
}

TEST(TraceCodec, BranchFreeThreadStoresNoBranchByte)
{
    KernelBuilder kb("straight", 2);
    BlockRef entry = kb.block("entry");
    BlockRef tail = kb.block("tail");
    const uint16_t lv = kb.newLiveValue();
    const Operand tid = Operand::special(SpecialReg::Tid);
    entry.out(lv, entry.load(Type::I32,
                             entry.elemAddr(Operand::param(0), tid)));
    entry.jump(tail);
    tail.store(Type::I32, tail.elemAddr(Operand::param(1), tid),
               tail.in(lv));
    tail.exit();
    const Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 5;
    lp.params = {Scalar::fromU32(mem.allocWords(5)),
                 Scalar::fromU32(mem.allocWords(5))};
    const TraceSet ts = Interpreter{}.run(k, lp, mem);

    const std::string bytes = wire(ts);
    uint64_t branch_len = 0;
    std::memcpy(&branch_len, bytes.data() + 8, sizeof branch_len);
    EXPECT_EQ(branch_len, 0u);
    for (uint32_t t = 0; t < 5; ++t) {
        const ThreadTrace got = ts.decodeThread(t);
        ASSERT_EQ(got.execs.size(), 2u);
        EXPECT_EQ(got.execs[0].block, 0);
        EXPECT_EQ(got.execs[0].succ, got.execs[1].block);
        EXPECT_EQ(got.execs[1].succ, -1);
        ASSERT_EQ(got.accesses.size(), 2u);
        EXPECT_EQ(got.accesses[0].addr, lp.params[0].bits + 4 * t);
        EXPECT_FALSE(got.accesses[0].isStore);
        EXPECT_EQ(got.accesses[1].addr, lp.params[1].bits + 4 * t);
        EXPECT_TRUE(got.accesses[1].isStore);
    }

    // A thread that never ran decodes to nothing.
    std::vector<ThreadTrace> threads = decodeAll(ts);
    threads.insert(threads.begin(), ThreadTrace{});
    const TraceSet with_idle = TraceSet::fromThreads(k, lp, threads);
    EXPECT_TRUE(with_idle.thread(0).done());
    EXPECT_EQ(with_idle.numExecs(0), 0u);
    expectEqual(threads[3], with_idle.decodeThread(3));
}

/**
 * A loop whose body branches either way, for traces made up on the
 * host: `head` loops into `body` or leaves to `done`, `body` goes on to
 * `left` or `right`, and both jump back. `done` holds 1,000 loads, more
 * than the largest chunk holds as 5-byte varints.
 */
Kernel
loopKernel()
{
    KernelBuilder kb("loop", 1);
    kb.setSharedBytesPerCta(256);
    BlockRef entry = kb.block("entry");
    BlockRef head = kb.block("head");
    BlockRef body = kb.block("body");
    BlockRef left = kb.block("left");
    BlockRef right = kb.block("right");
    BlockRef done = kb.block("done");
    const uint16_t lv = kb.newLiveValue();
    const Operand tid = Operand::special(SpecialReg::Tid);
    const Operand addr = Operand::param(0);
    entry.out(lv, entry.load(Type::I32, entry.elemAddr(addr, tid)));
    entry.jump(head);
    head.branch(head.igt(head.in(lv), Operand::constI32(0)), body, done);
    const Operand v = body.load(Type::I32, tid, MemSpace::Shared);
    body.out(lv, body.isub(body.in(lv), Operand::constI32(1)));
    body.branch(body.iand(v, Operand::constI32(1)), left, right);
    left.store(Type::I32, addr, left.in(lv), MemSpace::Shared);
    left.jump(head);
    right.store(Type::I32, addr, right.in(lv));
    right.load(Type::I32, addr);
    right.jump(head);
    for (int i = 0; i < 1000; ++i)
        done.load(Type::I32, addr);
    done.exit();
    return kb.finish();
}

/**
 * A trace of @p k made up on the host: @p loops trips round @p k's one
 * loop, random outcomes everywhere else, and addresses that alternate
 * between the ends of the address space, each a 5-byte varint.
 */
ThreadTrace
madeUpTrace(const KernelShape &shape, Rng &rng, uint32_t loops)
{
    ThreadTrace t;
    for (int b = 0; b >= 0;) {
        const BlockShape &s = shape.blocks[size_t(b)];
        BlockExec e;
        e.block = uint16_t(b);
        e.accessBegin = uint32_t(t.accesses.size());
        for (uint32_t i = 0; i < s.numAccesses; ++i) {
            const uint8_t kind = shape.kinds[s.firstKind + i];
            const uint32_t addr = t.accesses.size() % 2 ? 0xFFFFFFFCu : 0u;
            t.accesses.push_back({addr, bool(kind & 1), bool(kind >> 1)});
        }
        e.accessEnd = uint32_t(t.accesses.size());
        int outcome = int(rng.nextUInt(2));
        if (s.numAccesses == 0 && s.next[0] != s.next[1]) {  // head
            outcome = loops > 0;
            loops -= outcome;
        }
        b = s.next[outcome];
        e.succ = int16_t(b);
        t.execs.push_back(e);
    }
    return t;
}

TEST(TraceCodec, InterleavedThreadsCrossBitWordsAndChunks)
{
    const Kernel k = loopKernel();
    const KernelShape shape(k);
    // Outcomes per thread are 2 * loops + 1: short of, at and past one
    // 64-bit word, and past the first chunks of the branch stream.
    const uint32_t loops[] = {0, 31, 32, 63, 64, 200, 1500, 3, 900};
    Rng rng(2024);
    std::vector<ThreadTrace> threads;
    for (const uint32_t n : loops)
        threads.push_back(madeUpTrace(shape, rng, n));
    threads.emplace_back();  // a thread that never ran

    // One execution at a time, round-robin, so that the threads' chunks
    // interleave in the writer's slabs. Addresses sit in a column of
    // stride 3, as the interpreter's strip columns are strided.
    TraceWriter w(k, threads.size());
    std::vector<uint32_t> addrs;
    for (size_t i = 0, wrote = 1; wrote; ++i) {
        wrote = 0;
        for (size_t tid = 0; tid < threads.size(); ++tid) {
            const ThreadTrace &t = threads[tid];
            if (i >= t.execs.size())
                continue;
            const BlockExec &e = t.execs[i];
            const uint32_t m = e.accessEnd - e.accessBegin;
            addrs.assign(3 * size_t(m), 0xdeadbeef);
            for (uint32_t a = 0; a < m; ++a)
                addrs[3 * a] = t.accesses[e.accessBegin + a].addr;
            w.block(uint32_t(tid), e.block, e.succ, addrs.data(), 3, m);
            ++wrote;
        }
    }
    const TraceSet ts = w.finish(LaunchParams{});
    for (uint32_t tid = 0; tid < threads.size(); ++tid)
        expectEqual(threads[tid], ts.decodeThread(tid));
    // Written thread by thread, the same traces give the same bytes.
    EXPECT_EQ(wire(TraceSet::fromThreads(k, LaunchParams{}, threads)),
              wire(ts));
}

TEST(TraceCodec, CursorSkipsUnconsumedAccesses)
{
    // A replay model may advance without draining an execution's
    // accesses; the cursor must resynchronise the delta chains.
    const Kernel k = loopKernel();
    const KernelShape shape(k);
    Rng rng(7);
    const std::vector<ThreadTrace> threads{madeUpTrace(shape, rng, 40)};
    const ThreadTrace &t = threads[0];
    const TraceSet ts = TraceSet::fromThreads(k, LaunchParams{}, threads);

    size_t i = 0;
    uint32_t phase = 0;
    for (ThreadCursor c = ts.thread(0); !c.done(); c.nextExec(), ++i) {
        ASSERT_LT(i, t.execs.size());
        EXPECT_EQ(c.block(), int(t.execs[i].block));
        EXPECT_EQ(c.succ(), int(t.execs[i].succ));
        const uint32_t nacc = c.numAccesses();
        ASSERT_EQ(nacc, t.execs[i].accessEnd - t.execs[i].accessBegin);
        // Consume a varying prefix: 0, all, half, 1, ...
        const uint32_t take = nacc == 0 ? 0 : phase++ % (nacc + 1);
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
    const Traced r(5);
    PanicCaptureScope capture;
    ThreadCursor c = r.traces.thread(0);
    ASSERT_EQ(c.block(), 0);
    ASSERT_EQ(c.numAccesses(), 1u);  // the input load
    EXPECT_NO_THROW(c.nextAccess());
    EXPECT_THROW(c.nextAccess(), SimPanic);
    c.nextExec();
    ASSERT_EQ(c.numAccesses(), 0u);  // a region's first block
    EXPECT_THROW(c.nextAccess(), SimPanic);
}

} // namespace
} // namespace vgiw
