/**
 * @file
 * LAVAMD — molecular dynamics kernel (Table 2: Molecular Dynamics,
 * kernel_gpu_cuda). Particles live in boxes; one CTA per home box, one
 * thread per particle. Each thread loops over the home box's neighbour
 * list and over every particle in each neighbour box, accumulating an
 * exp()-weighted pairwise interaction — a doubly nested loop with heavy
 * SCU (exp) use.
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

constexpr int kBoxes = 32;
constexpr int kPerBox = 32;
constexpr int kNeighbors = 3;  ///< neighbour boxes per home box (incl. self)
constexpr float kA2 = 0.5f;

Kernel
buildLavamd()
{
    // Params: 0 = x, 1 = y, 2 = q (charge), 3 = neighbour list
    //         (kBoxes x kNeighbors), 4 = force out, 5 = potential out.
    KernelBuilder kb("kernel_gpu_cuda", 6);
    const uint16_t lv_nn = kb.newLiveValue();
    const uint16_t lv_k = kb.newLiveValue();
    const uint16_t lv_box = kb.newLiveValue();
    const uint16_t lv_xi = kb.newLiveValue();
    const uint16_t lv_yi = kb.newLiveValue();
    const uint16_t lv_f = kb.newLiveValue();
    const uint16_t lv_v = kb.newLiveValue();

    BlockRef init = kb.block("init");
    BlockRef nhead = kb.block("nbox_head");
    BlockRef nbody = kb.block("nbox_body");
    BlockRef khead = kb.block("k_head");
    BlockRef kbody = kb.block("k_body");
    BlockRef ninc = kb.block("nbox_inc");
    BlockRef wb = kb.block("writeback");

    Operand tid = Operand::special(SpecialReg::Tid);
    Operand cta = Operand::special(SpecialReg::CtaId);

    {
        init.out(lv_xi, init.load(Type::F32,
                                  init.elemAddr(Operand::param(0), tid)));
        init.out(lv_yi, init.load(Type::F32,
                                  init.elemAddr(Operand::param(1), tid)));
        init.out(lv_f, Operand::constF32(0.0f));
        init.out(lv_v, Operand::constF32(0.0f));
        init.out(lv_nn, Operand::constI32(0));
        init.jump(nhead);
    }
    nhead.branch(nhead.ilt(nhead.in(lv_nn),
                           Operand::constI32(kNeighbors)),
                 nbody, wb);
    {
        // box = neighbour_list[cta * kNeighbors + nn]
        Operand idx = nbody.iadd(
            nbody.imul(cta, Operand::constI32(kNeighbors)),
            nbody.in(lv_nn));
        Operand box = nbody.load(Type::I32,
                                 nbody.elemAddr(Operand::param(3), idx));
        nbody.out(lv_box, nbody.imul(box, Operand::constI32(kPerBox)));
        nbody.out(lv_k, Operand::constI32(0));
        nbody.jump(khead);
    }
    khead.branch(khead.ilt(khead.in(lv_k), Operand::constI32(kPerBox)),
                 kbody, ninc);
    {
        BlockRef b = kbody;
        Operand other = b.iadd(b.in(lv_box), b.in(lv_k));
        Operand xk = b.load(Type::F32,
                            b.elemAddr(Operand::param(0), other));
        Operand yk = b.load(Type::F32,
                            b.elemAddr(Operand::param(1), other));
        Operand qk = b.load(Type::F32,
                            b.elemAddr(Operand::param(2), other));
        Operand dx = b.fsub(b.in(lv_xi), xk);
        Operand dy = b.fsub(b.in(lv_yi), yk);
        Operand r2 = b.fadd(b.fmul(dx, dx), b.fmul(dy, dy));
        Operand u2 = b.fmul(Operand::constF32(kA2), r2);
        Operand vij = b.fexp(b.fneg(u2));
        Operand fs = b.fmul(Operand::constF32(2.0f), vij);
        b.out(lv_v, b.fadd(b.in(lv_v), b.fmul(qk, vij)));
        b.out(lv_f, b.fadd(b.in(lv_f), b.fmul(fs, dx)));
        b.out(lv_k, b.iadd(b.in(lv_k), Operand::constI32(1)));
        b.jump(khead);
    }
    ninc.out(lv_nn, ninc.iadd(ninc.in(lv_nn), Operand::constI32(1)));
    ninc.jump(nhead);
    {
        wb.store(Type::F32, wb.elemAddr(Operand::param(4), tid),
                 wb.in(lv_f));
        wb.store(Type::F32, wb.elemAddr(Operand::param(5), tid),
                 wb.in(lv_v));
        wb.exit();
    }
    return kb.finish();
}

} // namespace

WorkloadInstance
makeLavamdKernel()
{
    WorkloadInstance w;
    w.suite = "LAVAMD";
    w.domain = "Molecular Dynamics";
    w.kernel = buildLavamd();

    constexpr int kParticles = kBoxes * kPerBox;
    Rng rng(56);
    const uint32_t x = w.memory.allocWords(kParticles);
    const uint32_t y = w.memory.allocWords(kParticles);
    const uint32_t q = w.memory.allocWords(kParticles);
    const uint32_t nlist = w.memory.allocWords(kBoxes * kNeighbors);
    const uint32_t force = w.memory.allocWords(kParticles);
    const uint32_t pot = w.memory.allocWords(kParticles);
    fillF32(w.memory, x, kParticles, rng, 0.0f, 4.0f);
    fillF32(w.memory, y, kParticles, rng, 0.0f, 4.0f);
    fillF32(w.memory, q, kParticles, rng, -1.0f, 1.0f);
    // Neighbour list: self plus the two ring neighbours.
    for (int b = 0; b < kBoxes; ++b) {
        w.memory.storeI32(nlist, uint32_t(b * kNeighbors + 0), b);
        w.memory.storeI32(nlist, uint32_t(b * kNeighbors + 1),
                          (b + 1) % kBoxes);
        w.memory.storeI32(nlist, uint32_t(b * kNeighbors + 2),
                          (b + kBoxes - 1) % kBoxes);
    }

    w.launch.numCtas = kBoxes;
    w.launch.ctaSize = kPerBox;
    w.launch.params = {Scalar::fromU32(x), Scalar::fromU32(y),
                       Scalar::fromU32(q), Scalar::fromU32(nlist),
                       Scalar::fromU32(force), Scalar::fromU32(pot)};

    MemoryImage init = w.memory;
    w.check = [init, x, y, q, nlist, force, pot](const MemoryImage &mem,
                                                 std::string &err) {
        std::vector<float> ef(kParticles), ev(kParticles);
        for (int box = 0; box < kBoxes; ++box) {
            for (int p = 0; p < kPerBox; ++p) {
                const int i = box * kPerBox + p;
                const float xi = init.loadF32(x, uint32_t(i));
                const float yi = init.loadF32(y, uint32_t(i));
                float f = 0.0f, v = 0.0f;
                for (int nn = 0; nn < kNeighbors; ++nn) {
                    const int nb = init.loadI32(
                        nlist, uint32_t(box * kNeighbors + nn));
                    for (int k = 0; k < kPerBox; ++k) {
                        const int o = nb * kPerBox + k;
                        const float dx = xi - init.loadF32(x, uint32_t(o));
                        const float dy = yi - init.loadF32(y, uint32_t(o));
                        const float r2 = dx * dx + dy * dy;
                        const float vij = std::exp(-(kA2 * r2));
                        const float fs = 2.0f * vij;
                        v = v + init.loadF32(q, uint32_t(o)) * vij;
                        f = f + fs * dx;
                    }
                }
                ef[size_t(i)] = f;
                ev[size_t(i)] = v;
            }
        }
        return checkF32(mem, force, ef, 1e-4f, err) &&
               checkF32(mem, pot, ev, 1e-4f, err);
    };
    return w;
}

} // namespace vgiw::workloads
