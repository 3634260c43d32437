/**
 * @file
 * Divergence study: the Figure 1 argument as an experiment. A kernel
 * whose threads scatter across four branch arms is swept from fully
 * uniform to fully divergent control flow; the example prints how each
 * architecture's runtime and energy respond.
 *
 *  - Fermi serialises the taken arms under execution masks, so its
 *    runtime grows with the number of arms exercised;
 *  - SGMF maps all arms spatially, so its runtime is flat but every
 *    injection burns the whole graph's energy;
 *  - VGIW coalesces each arm's threads into one block vector: flat
 *    runtime AND energy proportional to the work actually done.
 *
 * Run:  ./build/examples/example_divergence_study
 */

#include <cstdio>

#include "common/rng.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

using namespace vgiw;

namespace
{

/** out[tid] = f_arm(in[tid]) where arm = in[tid] & 3. */
Kernel
buildSwitchKernel()
{
    KernelBuilder kb("four_arm_switch", 2);
    const uint16_t lv_x = kb.newLiveValue();

    BlockRef entry = kb.block("entry");
    BlockRef lo = kb.block("lo");
    BlockRef hi = kb.block("hi");
    std::array<BlockRef, 4> arms = {kb.block("arm0"), kb.block("arm1"),
                                    kb.block("arm2"), kb.block("arm3")};
    BlockRef merge = kb.block("merge");

    Operand tid = Operand::special(SpecialReg::Tid);
    Operand x = entry.load(Type::I32,
                           entry.elemAddr(Operand::param(0), tid));
    entry.out(lv_x, x);
    entry.branch(entry.ilt(entry.iand(x, Operand::constI32(3)),
                           Operand::constI32(2)),
                 lo, hi);
    lo.branch(lo.ieq(lo.iand(lo.in(lv_x), Operand::constI32(3)),
                     Operand::constI32(0)),
              arms[0], arms[1]);
    hi.branch(hi.ieq(hi.iand(hi.in(lv_x), Operand::constI32(3)),
                     Operand::constI32(2)),
              arms[2], arms[3]);

    const int muls[4] = {3, 5, 7, 9};
    for (int a = 0; a < 4; ++a) {
        BlockRef b = arms[a];
        Operand v = b.iadd(b.imul(b.in(lv_x), Operand::constI32(muls[a])),
                           Operand::constI32(a));
        v = b.ixor(b.ishl(v, Operand::constI32(1)), v);
        b.out(lv_x, v);
        b.jump(merge);
    }
    merge.store(Type::I32, merge.elemAddr(Operand::param(1), tid),
                merge.in(lv_x));
    merge.exit();
    return kb.finish();
}

} // namespace

int
main()
{
    std::printf("Control-divergence study (the Figure 1 argument)\n");
    std::printf("================================================\n\n");

    Kernel k = buildSwitchKernel();
    const int threads = 4096;
    Rng rng(7);

    std::printf("%9s | %21s | %21s | %21s\n", "",
                "VGIW", "Fermi SIMT", "SGMF");
    std::printf("%9s | %9s %11s | %9s %11s | %9s %11s\n", "divergent",
                "cycles", "core pJ", "cycles", "core pJ", "cycles",
                "core pJ");

    for (int pct : {0, 25, 50, 75, 100}) {
        MemoryImage mem;
        const uint32_t in = mem.allocWords(threads);
        const uint32_t out = mem.allocWords(threads);
        for (int i = 0; i < threads; ++i) {
            int32_t v = int32_t(rng.next() & 0x7ffc);
            if (int(rng.nextUInt(100)) < pct)
                v |= int32_t(rng.nextUInt(4));
            mem.storeI32(in, uint32_t(i), v);
        }
        LaunchParams lp;
        lp.numCtas = threads / 256;
        lp.ctaSize = 256;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
        TraceSet traces = Interpreter{}.run(k, lp, mem);

        RunStats v = VgiwCore{}.run(traces);
        RunStats f = FermiCore{}.run(traces);
        RunStats s = SgmfCore{}.run(traces);
        std::printf("%8d%% | %9llu %11.0f | %9llu %11.0f | %9llu "
                    "%11.0f\n",
                    pct, (unsigned long long)v.cycles,
                    v.energy.corePj(), (unsigned long long)f.cycles,
                    f.energy.corePj(),
                    (unsigned long long)(s.supported ? s.cycles : 0),
                    s.supported ? s.energy.corePj() : 0.0);
    }

    std::printf("\nReading the table: VGIW stays flat in both columns "
                "(control flow\ncoalescing); Fermi's cycles grow with "
                "divergence (masked serial arms);\nSGMF's cycles stay "
                "flat but its energy never drops below the whole-graph\n"
                "cost, uniform or not.\n");
    return 0;
}
