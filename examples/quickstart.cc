/**
 * @file
 * Quickstart: builds the paper's running example (the nested conditional
 * of Figure 1a), runs it on the VGIW core, and prints the Figure 2
 * machine-state walkthrough — which threads each basic block's vector
 * coalesced — followed by the three-architecture comparison.
 *
 * Build & run:  cmake -B build -G Ninja && cmake --build build
 *               ./build/examples/example_quickstart
 */

#include <cstdio>

#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

using namespace vgiw;

namespace
{

/** The Figure 1a kernel: a nested conditional over an input word. */
Kernel
buildFig1aKernel()
{
    KernelBuilder kb("fig1a", 3);
    const uint16_t lv_x = kb.newLiveValue();

    BlockRef bb1 = kb.block("BB1");
    BlockRef bb2 = kb.block("BB2");
    BlockRef bb3 = kb.block("BB3");
    BlockRef bb4 = kb.block("BB4");
    BlockRef bb5 = kb.block("BB5");
    BlockRef bb6 = kb.block("BB6");

    Operand tid = Operand::special(SpecialReg::Tid);

    Operand x = bb1.load(Type::I32, bb1.elemAddr(Operand::param(0), tid));
    bb1.out(lv_x, x);
    bb1.branch(bb1.iand(x, Operand::constI32(1)), bb2, bb3);

    bb2.store(Type::I32, bb2.elemAddr(Operand::param(1), tid),
              bb2.iadd(bb2.in(lv_x), Operand::constI32(10)));
    bb2.jump(bb6);

    bb3.branch(bb3.iand(bb3.in(lv_x), Operand::constI32(2)), bb4, bb5);

    bb4.store(Type::I32, bb4.elemAddr(Operand::param(1), tid),
              bb4.iadd(bb4.in(lv_x), Operand::constI32(100)));
    bb4.jump(bb6);

    bb5.store(Type::I32, bb5.elemAddr(Operand::param(1), tid),
              bb5.iadd(bb5.in(lv_x), Operand::constI32(1000)));
    bb5.jump(bb6);

    bb6.store(Type::I32, bb6.elemAddr(Operand::param(2), tid),
              bb6.in(lv_x));
    bb6.exit();

    return kb.finish();
}

} // namespace

int
main()
{
    std::printf("VGIW quickstart: the Figure 1a/2 running example\n");
    std::printf("================================================\n\n");

    // --- 1. Build the kernel through the compiler API. ----------------
    Kernel kernel = buildFig1aKernel();
    std::printf("Kernel '%s': %d basic blocks, %d instructions, "
                "%d live value(s)\n\n",
                kernel.name.c_str(), kernel.numBlocks(),
                kernel.totalInstrs(), kernel.numLiveValues);

    // --- 2. Set up memory and launch 8 threads with the paper's
    //        divergence pattern: {1,3,8}->BB2, {2,7}->BB4, {4,5,6}->BB5
    //        (1-based thread numbering as in the paper).
    MemoryImage mem;
    const int n = 8;
    const uint32_t in = mem.allocWords(n);
    const uint32_t out = mem.allocWords(n);
    const uint32_t out2 = mem.allocWords(n);
    const int32_t inputs[n] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, uint32_t(i), inputs[i]);

    LaunchParams launch;
    launch.numCtas = 1;
    launch.ctaSize = n;
    launch.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                     Scalar::fromU32(out2)};

    // --- 3. Functional execution produces the traces. ------------------
    TraceSet traces = Interpreter{}.run(kernel, launch, mem);

    // --- 4. Replay on the VGIW core, printing the Figure 2 walkthrough.
    std::printf("Figure 2 machine-state walkthrough "
                "(threads are 1-based as in the paper):\n");
    VgiwConfig cfg;
    cfg.blockObserver = [&kernel](int b, const std::vector<uint32_t> &t) {
        std::printf("  schedule %-4s -> thread vector {",
                    kernel.blocks[b].name.c_str());
        for (size_t i = 0; i < t.size(); ++i)
            std::printf("%s%u", i ? "," : "", t[i] + 1);
        std::printf("}\n");
    };
    RunStats v = VgiwCore(cfg).run(traces);

    std::printf("\nEach block was scheduled exactly once: the CVT "
                "coalesced every thread\nthat needed it, regardless of "
                "the path taken (%llu reconfigurations for\n%d blocks, "
                "not one per control path).\n\n",
                (unsigned long long)v.reconfigs, kernel.numBlocks());

    // --- 5. Compare with the baselines. --------------------------------
    RunStats f = FermiCore{}.run(traces);
    RunStats s = SgmfCore{}.run(traces);
    std::printf("Architecture comparison on this toy launch:\n");
    std::printf("  %-8s %10s %16s\n", "core", "cycles", "core energy");
    std::printf("  %-8s %10llu %13.1f pJ\n", "vgiw",
                (unsigned long long)v.cycles, v.energy.corePj());
    std::printf("  %-8s %10llu %13.1f pJ\n", "fermi",
                (unsigned long long)f.cycles, f.energy.corePj());
    if (s.supported) {
        std::printf("  %-8s %10llu %13.1f pJ\n", "sgmf",
                    (unsigned long long)s.cycles, s.energy.corePj());
    }
    std::printf("\n(Run the binaries under bench/ for the full paper "
                "reproduction.)\n");
    return 0;
}
