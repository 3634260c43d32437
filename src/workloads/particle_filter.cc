/**
 * @file
 * PF — particle filter `normalize_weights` kernel (Table 2: Medical
 * Imaging, 5 basic blocks): every thread normalises one particle weight
 * by the global sum; thread 0 additionally reseeds the systematic
 * resampling offset — the divergent tail branch.
 */

#include "workloads/workloads.hh"

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kParticles = 4096;
constexpr int kCtaSize = 256;

Kernel
buildNormalizeWeights()
{
    // Params: 0 = weights, 1 = partial sums (sums[0] = total),
    //         2 = n, 3 = u array (resampling offsets).
    KernelBuilder kb("normalize_weights", 4);
    const uint16_t lv_w = kb.newLiveValue();

    BlockRef guard = kb.block("guard");
    BlockRef norm = kb.block("normalize");
    BlockRef zerob = kb.block("thread0");
    BlockRef join = kb.block("join");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(2)), norm, done);

    {
        Operand sum = norm.load(
            Type::F32,
            norm.elemAddr(Operand::param(1), Operand::constI32(0)));
        Operand wv = norm.load(Type::F32,
                               norm.elemAddr(Operand::param(0), tid));
        Operand nw = norm.fdiv(wv, sum);
        norm.store(Type::F32, norm.elemAddr(Operand::param(0), tid), nw);
        norm.out(lv_w, nw);
        norm.branch(norm.ieq(tid, Operand::constI32(0)), zerob, join);
    }
    {
        // u[0] = w0 / n  (the systematic resampling seed).
        Operand n = zerob.i2f(Operand::param(2));
        Operand u0 = zerob.fdiv(zerob.in(lv_w), n);
        zerob.store(Type::F32,
                    zerob.elemAddr(Operand::param(3), Operand::constI32(0)),
                    u0);
        zerob.jump(join);
    }
    join.exit();
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makePfNormalizeWeights()
{
    WorkloadInstance w;
    w.suite = "PF";
    w.domain = "Medical Imaging";
    w.kernel = buildNormalizeWeights();

    Rng rng(46);
    const uint32_t weights = w.memory.allocWords(kParticles);
    const uint32_t sums = w.memory.allocWords(16);
    const uint32_t u = w.memory.allocWords(kParticles);
    fillF32(w.memory, weights, kParticles, rng, 0.0f, 1.0f);
    float total = 0.0f;
    for (int i = 0; i < kParticles; ++i)
        total += w.memory.loadF32(weights, uint32_t(i));
    w.memory.storeF32(sums, 0, total);

    w.launch.numCtas = kParticles / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(weights), Scalar::fromU32(sums),
                       Scalar::fromI32(kParticles), Scalar::fromU32(u)};

    MemoryImage init = w.memory;
    w.check = [init, weights, u, total](const MemoryImage &mem,
                                        std::string &err) {
        std::vector<float> expect(kParticles);
        for (int i = 0; i < kParticles; ++i)
            expect[size_t(i)] = init.loadF32(weights, uint32_t(i)) / total;
        if (!checkF32(mem, weights, expect, 1e-5f, err))
            return false;
        const float u0 = mem.loadF32(u, 0);
        const float want = expect[0] / float(kParticles);
        if (std::fabs(u0 - want) > 1e-6f) {
            err = "u[0] mismatch";
            return false;
        }
        return true;
    };
    return w;
}

} // namespace vgiw::workloads
