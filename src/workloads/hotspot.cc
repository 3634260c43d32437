/**
 * @file
 * HOTSPOT — thermal simulation kernel (Table 2: Physics Simulation). One
 * simulation step of the 5-point stencil on a 128x128 die. As in the
 * Rodinia kernel, neighbour indices are clamped with min/max selects
 * (predication), while the validity of the cell itself is a real branch;
 * the block count in the original comes from its pyramid iteration loop,
 * which the compiler's block splitter partially recreates here by
 * cutting the wide stencil body to fit the fabric.
 */

#include "workloads/workloads.hh"

#include <vector>

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kGrid = 128;         ///< die is kGrid x kGrid cells
constexpr int kCtaSize = 256;
constexpr float kCap = 0.5f;
constexpr float kRx = 0.2f, kRy = 0.3f, kRz = 0.05f;
constexpr float kAmb = 80.0f;

Kernel
buildHotspot()
{
    // Params: 0 = temp_in, 1 = power, 2 = temp_out, 3 = cells.
    KernelBuilder kb("hotspot_kernel", 4);

    BlockRef guard = kb.block("guard");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(3)), body, done);

    {
        BlockRef b = body;
        Operand r = b.idiv(tid, Operand::constI32(kGrid));
        Operand c = b.irem(tid, Operand::constI32(kGrid));
        auto cell_at = [&](Operand rr, Operand cc) {
            Operand idx = b.iadd(b.imul(rr, Operand::constI32(kGrid)),
                                 cc);
            return b.load(Type::F32, b.elemAddr(Operand::param(0), idx));
        };
        // Clamped neighbour coordinates (predicated, as in Rodinia).
        Operand rn = b.imax(b.isub(r, Operand::constI32(1)),
                            Operand::constI32(0));
        Operand rs = b.imin(b.iadd(r, Operand::constI32(1)),
                            Operand::constI32(kGrid - 1));
        Operand ce = b.imin(b.iadd(c, Operand::constI32(1)),
                            Operand::constI32(kGrid - 1));
        Operand cw = b.imax(b.isub(c, Operand::constI32(1)),
                            Operand::constI32(0));

        Operand t = cell_at(r, c);
        Operand n = cell_at(rn, c);
        Operand s = cell_at(rs, c);
        Operand e = cell_at(r, ce);
        Operand w = cell_at(r, cw);
        Operand p = b.load(Type::F32, b.elemAddr(Operand::param(1), tid));

        Operand two_t = b.fmul(Operand::constF32(2.0f), t);
        Operand vert = b.fmul(b.fsub(b.fadd(n, s), two_t),
                              Operand::constF32(kRy));
        Operand horz = b.fmul(b.fsub(b.fadd(e, w), two_t),
                              Operand::constF32(kRx));
        Operand amb = b.fmul(b.fsub(Operand::constF32(kAmb), t),
                             Operand::constF32(kRz));
        Operand delta = b.fmul(Operand::constF32(kCap),
                               b.fadd(b.fadd(p, vert), b.fadd(horz, amb)));
        b.store(Type::F32, b.elemAddr(Operand::param(2), tid),
                b.fadd(t, delta));
        b.exit();
    }
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeHotspotKernel()
{
    WorkloadInstance w;
    w.suite = "HOTSPOT";
    w.domain = "Physics Simulation";
    w.kernel = buildHotspot();

    Rng rng(55);
    const uint32_t temp = w.memory.allocWords(kGrid * kGrid);
    const uint32_t power = w.memory.allocWords(kGrid * kGrid);
    const uint32_t out = w.memory.allocWords(kGrid * kGrid);
    fillF32(w.memory, temp, kGrid * kGrid, rng, 60.0f, 90.0f);
    fillF32(w.memory, power, kGrid * kGrid, rng, 0.0f, 5.0f);

    w.launch.numCtas = kGrid * kGrid / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(temp), Scalar::fromU32(power),
                       Scalar::fromU32(out),
                       Scalar::fromI32(kGrid * kGrid)};

    MemoryImage init = w.memory;
    w.check = [init, temp, power, out](const MemoryImage &mem,
                                       std::string &err) {
        std::vector<float> expect(kGrid * kGrid);
        for (int r = 0; r < kGrid; ++r) {
            for (int c = 0; c < kGrid; ++c) {
                auto at = [&](int rr, int cc) {
                    return init.loadF32(temp, uint32_t(rr * kGrid + cc));
                };
                const float t = at(r, c);
                const float n = at(std::max(r - 1, 0), c);
                const float s = at(std::min(r + 1, kGrid - 1), c);
                const float e = at(r, std::min(c + 1, kGrid - 1));
                const float wv = at(r, std::max(c - 1, 0));
                const float p =
                    init.loadF32(power, uint32_t(r * kGrid + c));
                const float vert = ((n + s) - 2.0f * t) * kRy;
                const float horz = ((e + wv) - 2.0f * t) * kRx;
                const float amb = (kAmb - t) * kRz;
                const float delta = kCap * ((p + vert) + (horz + amb));
                expect[size_t(r * kGrid + c)] = t + delta;
            }
        }
        return checkF32(mem, out, expect, 1e-5f, err);
    };
    return w;
}

} // namespace vgiw::workloads
