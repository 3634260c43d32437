#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"

namespace vgiw
{
namespace
{

/** Run a one-block kernel computing `op(a, b)` and return the result. */
Scalar
evalBinary(Opcode op, Type t, Scalar a, Scalar b)
{
    KernelBuilder kb("unit", 3);
    BlockRef blk = kb.block("entry");
    Operand r = blk.op(op, t, Operand::param(1), Operand::param(2));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t out = mem.allocWords(1);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    lp.params = {Scalar::fromU32(out), a, b};
    Interpreter{}.run(k, lp, mem);
    return Scalar(mem.loadWord(out));
}

Scalar
evalUnary(Opcode op, Type t, Scalar a)
{
    KernelBuilder kb("unit", 2);
    BlockRef blk = kb.block("entry");
    Operand r = blk.op(op, t, Operand::param(1));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t out = mem.allocWords(1);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    lp.params = {Scalar::fromU32(out), a};
    Interpreter{}.run(k, lp, mem);
    return Scalar(mem.loadWord(out));
}

TEST(InterpOps, IntegerArithmetic)
{
    auto I = [](int32_t v) { return Scalar::fromI32(v); };
    EXPECT_EQ(evalBinary(Opcode::Add, Type::I32, I(3), I(4)).asI32(), 7);
    EXPECT_EQ(evalBinary(Opcode::Sub, Type::I32, I(3), I(5)).asI32(), -2);
    EXPECT_EQ(evalBinary(Opcode::Mul, Type::I32, I(-3), I(4)).asI32(), -12);
    EXPECT_EQ(evalBinary(Opcode::Min, Type::I32, I(-3), I(4)).asI32(), -3);
    EXPECT_EQ(evalBinary(Opcode::Max, Type::I32, I(-3), I(4)).asI32(), 4);
    EXPECT_EQ(evalBinary(Opcode::Div, Type::I32, I(7), I(2)).asI32(), 3);
    EXPECT_EQ(evalBinary(Opcode::Rem, Type::I32, I(7), I(2)).asI32(), 1);
    // Division by zero is defined as 0 (no UB in the model).
    EXPECT_EQ(evalBinary(Opcode::Div, Type::I32, I(7), I(0)).asI32(), 0);
    EXPECT_EQ(evalBinary(Opcode::Rem, Type::I32, I(7), I(0)).asI32(), 0);
}

TEST(InterpOps, UnsignedVsSignedSemantics)
{
    auto I = [](int32_t v) { return Scalar::fromI32(v); };
    // -1 < 1 signed, but 0xffffffff > 1 unsigned.
    EXPECT_EQ(evalBinary(Opcode::CmpLt, Type::I32, I(-1), I(1)).asU32(), 1u);
    EXPECT_EQ(evalBinary(Opcode::CmpLt, Type::U32, I(-1), I(1)).asU32(), 0u);
    // Arithmetic vs logical shift right.
    EXPECT_EQ(evalBinary(Opcode::Shr, Type::I32, I(-8), I(1)).asI32(), -4);
    EXPECT_EQ(evalBinary(Opcode::Shr, Type::U32, I(-8), I(1)).asU32(),
              0x7ffffffcu);
}

TEST(InterpOps, Bitwise)
{
    auto U = [](uint32_t v) { return Scalar::fromU32(v); };
    EXPECT_EQ(evalBinary(Opcode::And, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b1000u);
    EXPECT_EQ(evalBinary(Opcode::Or, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b1110u);
    EXPECT_EQ(evalBinary(Opcode::Xor, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b0110u);
    EXPECT_EQ(evalUnary(Opcode::Not, Type::U32, U(0)).asU32(), 0xffffffffu);
    EXPECT_EQ(evalBinary(Opcode::Shl, Type::U32, U(1), U(5)).asU32(), 32u);
}

TEST(InterpOps, FloatArithmetic)
{
    auto F = [](float v) { return Scalar::fromF32(v); };
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Add, Type::F32, F(1.5f), F(2.25f)).asF32(), 3.75f);
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Mul, Type::F32, F(3.0f), F(-2.0f)).asF32(), -6.0f);
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Div, Type::F32, F(1.0f), F(4.0f)).asF32(), 0.25f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Sqrt, Type::F32, F(9.0f)).asF32(), 3.0f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Rsqrt, Type::F32, F(4.0f)).asF32(),
                    0.5f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Exp, Type::F32, F(0.0f)).asF32(), 1.0f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Log, Type::F32, F(1.0f)).asF32(), 0.0f);
    EXPECT_NEAR(evalUnary(Opcode::Sin, Type::F32, F(0.5f)).asF32(),
                std::sin(0.5f), 1e-6f);
    EXPECT_NEAR(evalUnary(Opcode::Cos, Type::F32, F(0.5f)).asF32(),
                std::cos(0.5f), 1e-6f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Abs, Type::F32, F(-2.5f)).asF32(), 2.5f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Neg, Type::F32, F(2.5f)).asF32(), -2.5f);
}

TEST(InterpOps, Conversions)
{
    auto F = [](float v) { return Scalar::fromF32(v); };
    EXPECT_FLOAT_EQ(
        evalUnary(Opcode::I2F, Type::F32, Scalar::fromI32(-7)).asF32(), -7.f);
    EXPECT_FLOAT_EQ(
        evalUnary(Opcode::U2F, Type::F32, Scalar::fromU32(7)).asF32(), 7.f);
    EXPECT_EQ(evalUnary(Opcode::F2I, Type::I32, F(-7.9f)).asI32(), -7);
    EXPECT_EQ(evalUnary(Opcode::F2U, Type::U32, F(7.9f)).asU32(), 7u);
}

TEST(InterpOps, Select)
{
    KernelBuilder kb("sel", 4);
    BlockRef blk = kb.block("entry");
    Operand r = blk.select(Type::I32, Operand::param(1), Operand::param(2),
                           Operand::param(3));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    for (int cond = 0; cond < 2; ++cond) {
        MemoryImage mem;
        uint32_t out = mem.allocWords(1);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = 1;
        lp.params = {Scalar::fromU32(out), Scalar::fromI32(cond),
                     Scalar::fromI32(111), Scalar::fromI32(222)};
        Interpreter{}.run(k, lp, mem);
        EXPECT_EQ(Scalar(mem.loadWord(out)).asI32(), cond ? 111 : 222);
    }
}

TEST(InterpOps, OperandSourcesAndLiveOutOrder)
{
    // Every operand source in one kernel: the six special registers, a
    // param and a constant, stored per thread; then a block whose
    // live-outs "swap" lv0 and lv1 and whose branch reads lv0. Live-outs
    // are written in list order, so the second reads the first's new
    // value (both end as the old lv1), and the branch condition is read
    // after all of them (it sees the new lv0, which is nonzero).
    constexpr int kSlots = 10;
    KernelBuilder kb("sources", 2);
    const uint16_t lv0 = kb.newLiveValue();
    const uint16_t lv1 = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef swap = kb.block("swap");
    BlockRef taken = kb.block("taken");
    BlockRef fallthrough = kb.block("fallthrough");

    const Operand tid = Operand::special(SpecialReg::Tid);
    auto slot_addr = [&](BlockRef &b, int slot) {
        Operand base = b.imul(tid, Operand::constI32(kSlots));
        return b.elemAddr(Operand::param(0),
                          b.iadd(base, Operand::constI32(slot)));
    };
    const SpecialReg specials[] = {
        SpecialReg::Tid,     SpecialReg::TidInCta, SpecialReg::CtaId,
        SpecialReg::CtaSize, SpecialReg::NumCtas,  SpecialReg::NumThreads};
    for (int s = 0; s < 6; ++s) {
        entry.store(Type::U32, slot_addr(entry, s),
                    Operand::special(specials[s]));
    }
    entry.store(Type::U32, slot_addr(entry, 6), Operand::param(1));
    entry.store(Type::U32, slot_addr(entry, 7),
                Operand::constU32(0xc0ffee));
    entry.out(lv0, Operand::constU32(0));
    entry.out(lv1, Operand::param(1));
    entry.jump(swap);

    swap.out(lv0, swap.in(lv1));
    swap.out(lv1, swap.in(lv0));
    swap.branch(swap.in(lv0), taken, fallthrough);

    taken.store(Type::U32, slot_addr(taken, 8), taken.in(lv0));
    taken.store(Type::U32, slot_addr(taken, 9), taken.in(lv1));
    taken.exit();
    fallthrough.store(Type::U32, slot_addr(fallthrough, 8),
                      Operand::constU32(0xbad));
    fallthrough.exit();
    Kernel k = kb.finish();

    const int ctas = 2, cta_size = 3, n = ctas * cta_size;
    MemoryImage mem;
    const uint32_t out = mem.allocWords(n * kSlots);
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta_size;
    lp.params = {Scalar::fromU32(out), Scalar::fromU32(77)};
    Interpreter{}.run(k, lp, mem);

    for (int t = 0; t < n; ++t) {
        auto at = [&](int s) { return mem.loadU32(out, t * kSlots + s); };
        EXPECT_EQ(at(0), uint32_t(t)) << "tid, thread " << t;
        EXPECT_EQ(at(1), uint32_t(t % cta_size)) << "thread " << t;
        EXPECT_EQ(at(2), uint32_t(t / cta_size)) << "thread " << t;
        EXPECT_EQ(at(3), uint32_t(cta_size)) << "thread " << t;
        EXPECT_EQ(at(4), uint32_t(ctas)) << "thread " << t;
        EXPECT_EQ(at(5), uint32_t(n)) << "thread " << t;
        EXPECT_EQ(at(6), 77u) << "param, thread " << t;
        EXPECT_EQ(at(7), 0xc0ffeeu) << "constant, thread " << t;
        EXPECT_EQ(at(8), 77u) << "lv0 after the swap, thread " << t;
        EXPECT_EQ(at(9), 77u) << "lv1 after the swap, thread " << t;
    }
}

TEST(Interpreter, Fig1DivergentPathsComputeCorrectly)
{
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    const int n = 8;
    uint32_t in = mem.allocWords(n);
    uint32_t out = mem.allocWords(n);
    uint32_t out2 = mem.allocWords(n);
    // Divergence pattern from the paper: threads {0,2,7}->BB2,
    // {1,6}->BB4, {3,4,5}->BB5.
    const int32_t vals[n] = {1, 0, 3, 2, 2, 2, 3, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, vals[i] & 1 ? vals[i] : (vals[i] == 0 ? 0 : 2));
    // Rewrite: use the raw vals directly; the branch tests bit 0 then 1.
    const int32_t raw[n] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, raw[i]);

    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    for (int i = 0; i < n; ++i) {
        int32_t x = raw[i];
        int32_t expect = x & 1 ? x + 10 : (x & 2 ? x + 100 : x + 1000);
        EXPECT_EQ(mem.loadI32(out, i), expect) << "thread " << i;
        EXPECT_EQ(mem.loadI32(out2, i), x) << "thread " << i;
    }

    // Each thread executed exactly 3 blocks: BB1, one of {BB2, BB3+BB4/5}.
    for (int i = 0; i < n; ++i) {
        const auto execs = ts.decodeThread(uint32_t(i)).execs;
        EXPECT_EQ(execs.front().block, 0u);
        EXPECT_EQ(execs.back().block, 5u);
        EXPECT_EQ(execs.back().succ, -1);
        if (raw[i] & 1)
            EXPECT_EQ(execs.size(), 3u);
        else
            EXPECT_EQ(execs.size(), 4u);
    }
}

TEST(Interpreter, LoopExecutesNTimes)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    const int n_threads = 5, trips = 7;
    uint32_t out = mem.allocWords(n_threads);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n_threads;
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(trips)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    const int32_t series = trips * (trips - 1) / 2;  // sum 0..trips-1
    for (int t = 0; t < n_threads; ++t)
        EXPECT_EQ(mem.loadI32(out, t), series * t) << "thread " << t;

    // Trace shape: entry + (head+body)*trips + head + done.
    for (int t = 0; t < n_threads; ++t)
        EXPECT_EQ(ts.numExecs(uint32_t(t)), uint32_t(2 * trips + 3));
}

TEST(Interpreter, BarrierSharedMemoryReversal)
{
    const int cta = 8, ctas = 3;
    Kernel k = testing::makeBarrierKernel(cta);
    MemoryImage mem;
    uint32_t in = mem.allocWords(cta * ctas);
    uint32_t out = mem.allocWords(cta * ctas);
    for (int i = 0; i < cta * ctas; ++i)
        mem.storeI32(in, i, 1000 + i);

    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    Interpreter{}.run(k, lp, mem);

    for (int c = 0; c < ctas; ++c) {
        for (int l = 0; l < cta; ++l) {
            EXPECT_EQ(mem.loadI32(out, c * cta + l),
                      1000 + c * cta + (cta - 1 - l));
        }
    }
}

TEST(Interpreter, TracesRecordMemoryAccesses)
{
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    uint32_t in = mem.allocWords(8);
    uint32_t out = mem.allocWords(8);
    uint32_t out2 = mem.allocWords(8);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 8;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    // Every thread: 1 load in BB1, 1 store in BB2/4/5, 1 store in BB6.
    for (int t = 0; t < 8; ++t) {
        const ThreadTrace tr = ts.decodeThread(uint32_t(t));
        ASSERT_EQ(tr.accesses.size(), 3u);
        EXPECT_FALSE(tr.accesses[0].isStore);
        EXPECT_EQ(tr.accesses[0].addr, in + 4u * t);
        EXPECT_TRUE(tr.accesses[1].isStore);
        EXPECT_TRUE(tr.accesses[2].isStore);
        EXPECT_EQ(tr.accesses[2].addr, out2 + 4u * t);
    }
    EXPECT_EQ(ts.totalAccesses(), 24u);
}

TEST(Interpreter, ParamCountMismatchPanics)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    LaunchParams lp;
    lp.params = {Scalar::fromU32(0)};  // needs 2
    EXPECT_DEATH(Interpreter{}.run(k, lp, mem), "expects");
}

// ---------------------------------------------------------------------
// Block vectors run instruction-major in strips of 256 lanes. These
// launches drain sparse vectors that cross strip boundaries.

/** One CTA-sized launch over @p n threads, @p params as given. */
LaunchParams
launchOf(int ctas, int cta_size, std::vector<Scalar> params)
{
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta_size;
    lp.params = std::move(params);
    return lp;
}

TEST(InterpVector, SparseVectorsAcrossStripsMatchHostReference)
{
    // 2 x 256 + 37 threads in CTAs of 61. entry: lv0 = tid * 7 + p.
    // A third of the threads take `triple` (lv1 = lv0 * 3); the rest
    // take `offset` (lv1 = lv0 + 11), and of those the ones with bit 2
    // of tid set also take `lane` (lv1 -= tidInCta). Every path joins
    // in `join`: out[tid] = (lv1 ^ in[tid]) + ctaId. Each non-entry
    // vector is sparse, and every one spans all three strips.
    KernelBuilder kb("sparse", 3);
    const uint16_t lv0 = kb.newLiveValue();
    const uint16_t lv1 = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef triple = kb.block("triple");
    BlockRef offset = kb.block("offset");
    BlockRef lane = kb.block("lane");
    BlockRef join = kb.block("join");
    const Operand tid = Operand::special(SpecialReg::Tid);

    entry.out(lv0, entry.iadd(entry.imul(tid, Operand::constI32(7)),
                              Operand::param(2)));
    entry.branch(entry.ieq(entry.irem(tid, Operand::constI32(3)),
                           Operand::constI32(0)),
                 triple, offset);
    triple.out(lv1, triple.imul(triple.in(lv0), Operand::constI32(3)));
    triple.jump(join);
    offset.out(lv1, offset.iadd(offset.in(lv0), Operand::constI32(11)));
    offset.branch(offset.iand(tid, Operand::constI32(4)), lane, join);
    lane.out(lv1, lane.isub(lane.in(lv1),
                            Operand::special(SpecialReg::TidInCta)));
    lane.jump(join);
    const Operand x =
        join.load(Type::I32, join.elemAddr(Operand::param(0), tid));
    join.store(Type::I32, join.elemAddr(Operand::param(1), tid),
               join.iadd(join.ixor(join.in(lv1), x),
                         Operand::special(SpecialReg::CtaId)));
    join.exit();
    Kernel k = kb.finish();

    const int ctas = 9, cta_size = 61, n = ctas * cta_size;
    ASSERT_EQ(n, 2 * 256 + 37);
    const int32_t p = 1234;
    MemoryImage mem;
    const uint32_t in = mem.allocWords(n);
    const uint32_t out = mem.allocWords(n);
    for (int t = 0; t < n; ++t)
        mem.storeI32(in, t, t * 40503 - 9000000);
    TraceSet ts = Interpreter{}.run(
        k, launchOf(ctas, cta_size, {Scalar::fromU32(in),
                                     Scalar::fromU32(out),
                                     Scalar::fromI32(p)}),
        mem);

    for (int t = 0; t < n; ++t) {
        const int32_t x0 = t * 7 + p;
        int32_t y;
        uint32_t execs = 3;
        if (t % 3 == 0) {
            y = x0 * 3;
        } else {
            y = x0 + 11;
            if (t & 4) {
                y -= t % cta_size;
                ++execs;
            }
        }
        const int32_t expect = (y ^ (t * 40503 - 9000000)) + t / cta_size;
        ASSERT_EQ(mem.loadI32(out, t), expect) << "thread " << t;
        ASSERT_EQ(ts.numExecs(uint32_t(t)), execs) << "thread " << t;
    }
}

TEST(InterpVector, LiveInGatheredFromSparseVector)
{
    // Every thread writes its own live value; only tid % 5 == 2 runs
    // `read`, which gathers that value back for a sparse vector whose
    // lanes are 5 threads apart.
    KernelBuilder kb("gather", 1);
    const uint16_t lv = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef read = kb.block("read");
    BlockRef done = kb.block("done");
    const Operand tid = Operand::special(SpecialReg::Tid);
    entry.out(lv, entry.iadd(entry.imul(tid, tid), Operand::constI32(5)));
    entry.branch(entry.ieq(entry.irem(tid, Operand::constI32(5)),
                           Operand::constI32(2)),
                 read, done);
    read.store(Type::I32, read.elemAddr(Operand::param(0), tid),
               read.in(lv));
    read.jump(done);
    done.exit();
    Kernel k = kb.finish();

    const int n = 700;
    MemoryImage mem;
    const uint32_t out = mem.allocWords(n);
    Interpreter{}.run(k, launchOf(7, 100, {Scalar::fromU32(out)}), mem);
    for (int t = 0; t < n; ++t) {
        EXPECT_EQ(mem.loadI32(out, t), t % 5 == 2 ? t * t + 5 : 0)
            << "thread " << t;
    }
}

TEST(InterpVector, LiveOutThenConditionPerThread)
{
    // OperandSourcesAndLiveOutOrder with a per-thread condition: `swap`
    // writes lv0 <- lv1 and then lv1 <- lv0 (the new lv0), and branches
    // on lv0 after both. lv1 starts as tid & 1, so odd threads take
    // `taken` with both values 1, even threads fall through.
    KernelBuilder kb("swap_vec", 1);
    const uint16_t lv0 = kb.newLiveValue();
    const uint16_t lv1 = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef swap = kb.block("swap");
    BlockRef taken = kb.block("taken");
    BlockRef fallthrough = kb.block("fallthrough");
    const Operand tid = Operand::special(SpecialReg::Tid);
    auto addr = [&](BlockRef &b, int slot) {
        return b.elemAddr(Operand::param(0),
                          b.iadd(b.imul(tid, Operand::constI32(2)),
                                 Operand::constI32(slot)));
    };
    entry.out(lv0, Operand::constU32(0xbad));
    entry.out(lv1, entry.iand(tid, Operand::constI32(1)));
    entry.jump(swap);
    swap.out(lv0, swap.in(lv1));
    swap.out(lv1, swap.in(lv0));
    swap.branch(swap.in(lv0), taken, fallthrough);
    taken.store(Type::U32, addr(taken, 0), taken.in(lv0));
    taken.store(Type::U32, addr(taken, 1), taken.in(lv1));
    taken.exit();
    fallthrough.store(Type::U32, addr(fallthrough, 0),
                      fallthrough.in(lv0));
    fallthrough.store(Type::U32, addr(fallthrough, 1),
                      Operand::constU32(0xfa11));
    fallthrough.exit();
    Kernel k = kb.finish();

    const int n = 3 * 128;
    MemoryImage mem;
    const uint32_t out = mem.allocWords(2 * n);
    Interpreter{}.run(k, launchOf(3, 128, {Scalar::fromU32(out)}), mem);
    for (int t = 0; t < n; ++t) {
        if (t & 1) {
            EXPECT_EQ(mem.loadU32(out, 2 * t), 1u) << "thread " << t;
            EXPECT_EQ(mem.loadU32(out, 2 * t + 1), 1u) << "thread " << t;
        } else {
            EXPECT_EQ(mem.loadU32(out, 2 * t), 0u) << "thread " << t;
            EXPECT_EQ(mem.loadU32(out, 2 * t + 1), 0xfa11u)
                << "thread " << t;
        }
    }
}

/** The test's own scalar model of one non-memory operation. */
uint32_t
oracle(Opcode op, Type t, uint32_t a, uint32_t b, uint32_t c)
{
    auto f = [](uint32_t x) { return std::bit_cast<float>(x); };
    auto u = [](float x) { return std::bit_cast<uint32_t>(x); };
    auto s = [](uint32_t x) { return int32_t(x); };
    const bool fp = t == Type::F32, sg = t == Type::I32;
    switch (op) {
      case Opcode::Add: return fp ? u(f(a) + f(b)) : a + b;
      case Opcode::Sub: return fp ? u(f(a) - f(b)) : a - b;
      case Opcode::Mul: return fp ? u(f(a) * f(b)) : a * b;
      case Opcode::Min:
        return fp ? u(std::fmin(f(a), f(b)))
                  : sg ? uint32_t(std::min(s(a), s(b))) : std::min(a, b);
      case Opcode::Max:
        return fp ? u(std::fmax(f(a), f(b)))
                  : sg ? uint32_t(std::max(s(a), s(b))) : std::max(a, b);
      case Opcode::Neg: return fp ? u(-f(a)) : 0u - a;
      case Opcode::Abs:
        return fp ? u(std::fabs(f(a))) : uint32_t(std::abs(s(a)));
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Shl: return a << (b & 31);
      case Opcode::Shr:
        return sg ? uint32_t(s(a) >> (b & 31)) : a >> (b & 31);
      case Opcode::CmpEq: return fp ? f(a) == f(b) : a == b;
      case Opcode::CmpNe: return fp ? f(a) != f(b) : a != b;
      case Opcode::CmpLt:
        return fp ? f(a) < f(b) : sg ? s(a) < s(b) : a < b;
      case Opcode::CmpLe:
        return fp ? f(a) <= f(b) : sg ? s(a) <= s(b) : a <= b;
      case Opcode::CmpGt:
        return fp ? f(a) > f(b) : sg ? s(a) > s(b) : a > b;
      case Opcode::CmpGe:
        return fp ? f(a) >= f(b) : sg ? s(a) >= s(b) : a >= b;
      case Opcode::Select: return a != 0 ? b : c;
      case Opcode::Div:
        if (fp) return u(f(a) / f(b));
        if (b == 0) return 0;
        return sg ? uint32_t(s(a) / s(b)) : a / b;
      case Opcode::Rem:
        if (fp) return u(std::fmod(f(a), f(b)));
        if (b == 0) return 0;
        return sg ? uint32_t(s(a) % s(b)) : a % b;
      case Opcode::Sqrt: return u(std::sqrt(f(a)));
      case Opcode::Rsqrt: return u(1.0f / std::sqrt(f(a)));
      case Opcode::Exp: return u(std::exp(f(a)));
      case Opcode::Log: return u(std::log(f(a)));
      case Opcode::Sin: return u(std::sin(f(a)));
      case Opcode::Cos: return u(std::cos(f(a)));
      case Opcode::I2F: return u(float(s(a)));
      case Opcode::U2F: return u(float(a));
      case Opcode::F2I: return uint32_t(int32_t(f(a)));
      case Opcode::F2U: return uint32_t(f(a));
      default: break;
    }
    ADD_FAILURE() << "no oracle for " << opcodeName(op);
    return 0;
}

/**
 * Operand @p which of lane @p l: distinct per lane, with zero divisors,
 * NaNs, infinities and signed zeros mixed in. Integers stay inside
 * (INT32_MIN, INT32_MAX] and conversions read in-range floats, where
 * the operations are defined.
 */
uint32_t
laneOperand(Opcode op, Type t, int l, int which)
{
    const bool float_in =
        (t == Type::F32 && op != Opcode::I2F && op != Opcode::U2F) ||
        op == Opcode::Sqrt || op == Opcode::Rsqrt || op == Opcode::Exp ||
        op == Opcode::Log || op == Opcode::Sin || op == Opcode::Cos ||
        op == Opcode::F2I || op == Opcode::F2U;
    const bool conversion = op == Opcode::F2I || op == Opcode::F2U;
    if (float_in) {
        float v = float(l - 160) * 0.731f + float(which) * 0.113f;
        if (conversion) {
            return std::bit_cast<uint32_t>(op == Opcode::F2U ? std::fabs(v)
                                                             : v);
        }
        if (l % 11 == 5 + which)
            v = std::numeric_limits<float>::quiet_NaN();
        else if (which == 1 && l % 13 == 6)
            v = 0.0f;
        else if (l % 23 == 7)
            v = -0.0f;
        else if (l % 29 == 8 + which)
            v = std::numeric_limits<float>::infinity();
        return std::bit_cast<uint32_t>(v);
    }
    if (which == 1 && l % 9 == 0)
        return 0;  // div/rem by zero
    if (l % 17 == 3 + which)
        return uint32_t(INT32_MAX);
    if (l % 19 == 4)
        return uint32_t(-INT32_MAX);
    return uint32_t((l * 7919 + which * 104729) % 2001 - 1000) *
               (which == 1 ? 1u : 65537u);
}

TEST(InterpVector, EveryOpcodeAndTypeMatchesScalarOracle)
{
    const int ctas = 3, cta_size = 111, n = ctas * cta_size;
    ASSERT_GE(n, 300);
    for (int o = 0; o < int(Opcode::Load); ++o) {
        for (Type t : {Type::I32, Type::U32, Type::F32}) {
            const Opcode op = Opcode(o);
            const int arity = opcodeArity(op);
            KernelBuilder kb("op", 4);
            BlockRef blk = kb.block("entry");
            const Operand tid = Operand::special(SpecialReg::Tid);
            Operand src[3];
            for (int s = 0; s < arity; ++s) {
                src[s] = blk.load(
                    Type::U32, blk.elemAddr(Operand::param(1 + s), tid));
            }
            blk.store(Type::U32, blk.elemAddr(Operand::param(0), tid),
                      blk.op(op, t, src[0], src[1], src[2]));
            blk.exit();
            Kernel k = kb.finish();

            MemoryImage mem;
            const uint32_t out = mem.allocWords(n);
            uint32_t in[3];
            for (int s = 0; s < 3; ++s) {
                in[s] = mem.allocWords(n);
                for (int l = 0; l < n; ++l)
                    mem.storeU32(in[s], l, laneOperand(op, t, l, s));
            }
            Interpreter{}.run(
                k,
                launchOf(ctas, cta_size,
                         {Scalar::fromU32(out), Scalar::fromU32(in[0]),
                          Scalar::fromU32(in[1]), Scalar::fromU32(in[2])}),
                mem);
            for (int l = 0; l < n; ++l) {
                const uint32_t expect = oracle(
                    op, t, mem.loadU32(in[0], l),
                    mem.loadU32(in[1], l), mem.loadU32(in[2], l));
                ASSERT_EQ(mem.loadU32(out, l), expect)
                    << opcodeName(op) << "." << typeName(t) << " lane " << l;
            }
        }
    }
}

TEST(InterpVector, MaxBlockExecsIsAnExactBound)
{
    // Each of 300 threads runs entry and done; threads below param 0
    // also run `extra`, so a launch runs 600 + p block executions.
    KernelBuilder kb("budget", 1);
    BlockRef entry = kb.block("entry");
    BlockRef extra = kb.block("extra");
    BlockRef done = kb.block("done");
    entry.branch(entry.ilt(Operand::special(SpecialReg::Tid),
                           Operand::param(0)),
                 extra, done);
    extra.jump(done);
    done.exit();
    Kernel k = kb.finish();

    InterpOptions opts;
    opts.maxBlockExecs = 600 + 37;
    MemoryImage mem;
    EXPECT_NO_THROW(Interpreter(opts).run(
        k, launchOf(3, 100, {Scalar::fromI32(37)}), mem));
    EXPECT_THROW(Interpreter(opts).run(
                     k, launchOf(3, 100, {Scalar::fromI32(38)}), mem),
                 std::runtime_error);
}

TEST(InterpVector, IntraBlockRaceResolvesInstructionMajor)
{
    // Thread t loads word t and then stores word t + 1: thread t - 1
    // stores the word that thread t loads, in the same block. Inside a
    // 256-lane strip every lane's load runs before any lane's store, so
    // each thread reads the initial word; thread 256 opens the second
    // strip and reads what thread 255 stored in the first. Thread-major
    // execution would instead show every thread its neighbour's store.
    // A race like this is undefined on a GPU; the test pins the order.
    KernelBuilder kb("race", 2);
    BlockRef blk = kb.block("entry");
    const Operand tid = Operand::special(SpecialReg::Tid);
    const Operand prev =
        blk.load(Type::U32, blk.elemAddr(Operand::param(0), tid));
    blk.store(Type::U32, blk.elemAddr(Operand::param(1), tid), prev);
    blk.store(Type::U32,
              blk.elemAddr(Operand::param(0),
                           blk.iadd(tid, Operand::constI32(1))),
              blk.iadd(tid, Operand::constI32(1000)));
    blk.exit();
    Kernel k = kb.finish();

    const int n = 300;
    MemoryImage mem;
    const uint32_t words = mem.allocWords(n + 1);
    const uint32_t seen = mem.allocWords(n);
    for (int w = 0; w <= n; ++w)
        mem.storeU32(words, w, 7);
    Interpreter{}.run(
        k, launchOf(3, 100, {Scalar::fromU32(words), Scalar::fromU32(seen)}),
        mem);
    for (int t = 0; t < n; ++t) {
        const uint32_t expect = t == 256 ? 1000u + 255u : 7u;
        EXPECT_EQ(mem.loadU32(seen, t), expect) << "thread " << t;
        EXPECT_EQ(mem.loadU32(words, t + 1), 1000u + uint32_t(t));
    }
}

} // namespace
} // namespace vgiw
