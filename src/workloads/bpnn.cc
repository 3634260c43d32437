/**
 * @file
 * BPNN — neural-network training kernels (Table 2: Pattern Recognition):
 * bpnn_layerforward (a scratchpad tree reduction across the input
 * dimension, one barrier per level, finished by a sigmoid on the SCUs)
 * and bpnn_adjust_weights (a straight-line weight update).
 */

#include "workloads/workloads.hh"

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kIn = 16;      ///< inputs per slice (= reduction width)
constexpr int kHid = 16;     ///< hidden units per slice
constexpr int kSlices = 64;  ///< independent CTA slices
constexpr float kEta = 0.3f;
constexpr float kMomentum = 0.3f;

/**
 * layerforward: CTA of kIn*kHid threads; thread (ty, tx) loads
 * w[ty][tx] * input[ty] into the scratchpad, then a log2(kIn)-level tree
 * reduction (barrier per level) sums over ty; row 0 applies the sigmoid
 * squash and stores hidden[tx].
 * Params: 0 = input, 1 = weights (slice-major), 2 = hidden out.
 */
Kernel
buildLayerForward()
{
    KernelBuilder kb("bpnn_layerforward", 3);
    kb.setSharedBytesPerCta(kIn * kHid * 4);
    const uint16_t lv_s = kb.newLiveValue();
    const uint16_t lv_ty = kb.newLiveValue();
    const uint16_t lv_tx = kb.newLiveValue();

    BlockRef load = kb.block("load");
    BlockRef rhead = kb.block("red_head");
    BlockRef rtest = kb.block("red_test");
    BlockRef radd = kb.block("red_add");
    BlockRef rjoin = kb.block("red_join");
    BlockRef ftest = kb.block("final_test");
    BlockRef squash = kb.block("squash");
    BlockRef done = kb.block("done");

    Operand lane = Operand::special(SpecialReg::TidInCta);
    Operand cta = Operand::special(SpecialReg::CtaId);

    auto sm = [&](BlockRef b, Operand ty, Operand tx) {
        return b.elemAddr(Operand::constU32(0),
                          b.iadd(b.imul(ty, Operand::constI32(kHid)), tx));
    };

    {
        Operand ty = load.idiv(lane, Operand::constI32(kHid));
        Operand tx = load.irem(lane, Operand::constI32(kHid));
        load.out(lv_ty, ty);
        load.out(lv_tx, tx);
        // input[slice*kIn + ty] * w[slice*kIn*kHid + ty*kHid + tx]
        Operand gin = load.iadd(load.imul(cta, Operand::constI32(kIn)),
                                ty);
        Operand iv = load.load(Type::F32,
                               load.elemAddr(Operand::param(0), gin));
        Operand gw = load.iadd(
            load.imul(cta, Operand::constI32(kIn * kHid)),
            load.iadd(load.imul(ty, Operand::constI32(kHid)), tx));
        Operand wv = load.load(Type::F32,
                               load.elemAddr(Operand::param(1), gw));
        load.store(Type::F32, sm(load, ty, tx), load.fmul(wv, iv),
                   MemSpace::Shared);
        load.out(lv_s, Operand::constI32(1));
        load.jump(rhead, /*barrier=*/true);
    }
    rhead.branch(rhead.ilt(rhead.in(lv_s), Operand::constI32(kIn)),
                 rtest, ftest);
    {
        // Active when ty % (2s) == 0.
        Operand two_s = rtest.imul(rtest.in(lv_s), Operand::constI32(2));
        Operand active = rtest.ieq(rtest.irem(rtest.in(lv_ty), two_s),
                                   Operand::constI32(0));
        rtest.branch(active, radd, rjoin);
    }
    {
        Operand ty = radd.in(lv_ty);
        Operand tx = radd.in(lv_tx);
        Operand other = radd.iadd(ty, radd.in(lv_s));
        Operand a = radd.load(Type::F32, sm(radd, ty, tx),
                              MemSpace::Shared);
        Operand b = radd.load(Type::F32, sm(radd, other, tx),
                              MemSpace::Shared);
        radd.store(Type::F32, sm(radd, ty, tx), radd.fadd(a, b),
                   MemSpace::Shared);
        radd.jump(rjoin);
    }
    rjoin.out(lv_s, rjoin.imul(rjoin.in(lv_s), Operand::constI32(2)));
    rjoin.jump(rhead, /*barrier=*/true);

    ftest.branch(ftest.ieq(ftest.in(lv_ty), Operand::constI32(0)),
                 squash, done);
    {
        Operand sum = squash.load(
            Type::F32, sm(squash, Operand::constI32(0),
                          squash.in(lv_tx)),
            MemSpace::Shared);
        // sigmoid: 1 / (1 + exp(-sum))
        Operand e = squash.fexp(squash.fneg(sum));
        Operand sig = squash.fdiv(
            Operand::constF32(1.0f),
            squash.fadd(Operand::constF32(1.0f), e));
        Operand gout = squash.iadd(
            squash.imul(cta, Operand::constI32(kHid)), squash.in(lv_tx));
        squash.store(Type::F32, squash.elemAddr(Operand::param(2), gout),
                     sig);
        squash.exit();
    }
    done.exit();
    return kb.finish();
}

/**
 * adjust_weights: thread (i, j) updates weight w[i][j] with the delta
 * rule plus momentum. Params: 0 = w, 1 = oldw, 2 = delta, 3 = ly,
 * 4 = count.
 */
Kernel
buildAdjustWeights()
{
    KernelBuilder kb("bpnn_adjust_weights", 5);
    BlockRef guard = kb.block("guard");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(4)), body, done);
    {
        BlockRef b = body;
        Operand i = b.idiv(tid, Operand::constI32(kHid));
        Operand j = b.irem(tid, Operand::constI32(kHid));
        Operand dv = b.load(Type::F32, b.elemAddr(Operand::param(2), j));
        Operand lv = b.load(Type::F32, b.elemAddr(Operand::param(3), i));
        Operand ow = b.load(Type::F32, b.elemAddr(Operand::param(1), tid));
        Operand nw = b.fadd(
            b.fmul(b.fmul(Operand::constF32(kEta), dv), lv),
            b.fmul(Operand::constF32(kMomentum), ow));
        Operand wv = b.load(Type::F32, b.elemAddr(Operand::param(0), tid));
        b.store(Type::F32, b.elemAddr(Operand::param(0), tid),
                b.fadd(wv, nw));
        b.store(Type::F32, b.elemAddr(Operand::param(1), tid), nw);
        b.exit();
    }
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeBpnnLayerForward()
{
    WorkloadInstance w;
    w.suite = "BPNN";
    w.domain = "Pattern Recognition";
    w.kernel = buildLayerForward();

    Rng rng(57);
    const uint32_t input = w.memory.allocWords(kSlices * kIn);
    const uint32_t weights = w.memory.allocWords(kSlices * kIn * kHid);
    const uint32_t hidden = w.memory.allocWords(kSlices * kHid);
    fillF32(w.memory, input, kSlices * kIn, rng, 0.0f, 1.0f);
    fillF32(w.memory, weights, kSlices * kIn * kHid, rng, -0.5f, 0.5f);

    w.launch.numCtas = kSlices;
    w.launch.ctaSize = kIn * kHid;
    w.launch.params = {Scalar::fromU32(input), Scalar::fromU32(weights),
                       Scalar::fromU32(hidden)};

    MemoryImage init = w.memory;
    w.check = [init, input, weights, hidden](const MemoryImage &mem,
                                             std::string &err) {
        std::vector<float> expect(kSlices * kHid);
        for (int s = 0; s < kSlices; ++s) {
            for (int tx = 0; tx < kHid; ++tx) {
                // Tree-reduction order, not sequential order.
                float part[kIn];
                for (int ty = 0; ty < kIn; ++ty) {
                    part[ty] =
                        init.loadF32(weights,
                                     uint32_t(s * kIn * kHid +
                                              ty * kHid + tx)) *
                        init.loadF32(input, uint32_t(s * kIn + ty));
                }
                for (int stride = 1; stride < kIn; stride *= 2)
                    for (int ty = 0; ty < kIn; ty += 2 * stride)
                        part[ty] = part[ty] + part[ty + stride];
                expect[size_t(s * kHid + tx)] =
                    1.0f / (1.0f + std::exp(-part[0]));
            }
        }
        return checkF32(mem, hidden, expect, 1e-5f, err);
    };
    return w;
}

WorkloadInstance
makeBpnnAdjustWeights()
{
    WorkloadInstance w;
    w.suite = "BPNN";
    w.domain = "Pattern Recognition";
    w.kernel = buildAdjustWeights();

    constexpr int kRows = 256;  // input rows
    constexpr int kCount = kRows * kHid;
    Rng rng(58);
    const uint32_t wts = w.memory.allocWords(kCount);
    const uint32_t oldw = w.memory.allocWords(kCount);
    const uint32_t delta = w.memory.allocWords(kHid);
    const uint32_t ly = w.memory.allocWords(kRows);
    fillF32(w.memory, wts, kCount, rng, -1.0f, 1.0f);
    fillF32(w.memory, oldw, kCount, rng, -0.1f, 0.1f);
    fillF32(w.memory, delta, kHid, rng, -0.2f, 0.2f);
    fillF32(w.memory, ly, kRows, rng, 0.0f, 1.0f);

    w.launch.numCtas = kCount / 256;
    w.launch.ctaSize = 256;
    w.launch.params = {Scalar::fromU32(wts), Scalar::fromU32(oldw),
                       Scalar::fromU32(delta), Scalar::fromU32(ly),
                       Scalar::fromI32(kCount)};

    MemoryImage init = w.memory;
    w.check = [init, wts, oldw, delta, ly](const MemoryImage &mem,
                                           std::string &err) {
        std::vector<float> ew(kCount), eo(kCount);
        for (int t = 0; t < kCount; ++t) {
            const int i = t / kHid, j = t % kHid;
            const float nw =
                (kEta * init.loadF32(delta, uint32_t(j))) *
                    init.loadF32(ly, uint32_t(i)) +
                kMomentum * init.loadF32(oldw, uint32_t(t));
            ew[size_t(t)] = init.loadF32(wts, uint32_t(t)) + nw;
            eo[size_t(t)] = nw;
        }
        return checkF32(mem, wts, ew, 1e-5f, err) &&
               checkF32(mem, oldw, eo, 1e-5f, err);
    };
    return w;
}

} // namespace vgiw::workloads
