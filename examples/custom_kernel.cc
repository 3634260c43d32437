/**
 * @file
 * Library tour: write your own data-parallel kernel against the public
 * API — builder, verifier, functional executor, compiler passes, and the
 * three core models. The kernel here is a small reduction-flavoured
 * saxpy with a tail loop, chosen to show live values, loops and the
 * block splitter in one place.
 *
 * Run:  ./build/examples/example_custom_kernel
 */

#include <cstdio>

#include "cgrf/block_splitter.hh"
#include "cgrf/placer.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"

using namespace vgiw;

int
main()
{
    std::printf("Building a custom kernel against the VGIW API\n");
    std::printf("=============================================\n\n");

    // --- 1. Describe the kernel: y[i] = a*x[i] + y[i], then each
    //        thread folds `reps` extra terms in a loop.
    KernelBuilder kb("saxpy_fold", 4);
    const uint16_t lv_acc = kb.newLiveValue();
    const uint16_t lv_i = kb.newLiveValue();

    BlockRef entry = kb.block("entry");
    BlockRef head = kb.block("fold_head");
    BlockRef body = kb.block("fold_body");
    BlockRef tail = kb.block("tail");

    Operand tid = Operand::special(SpecialReg::Tid);
    {
        Operand xv = entry.load(Type::F32,
                                entry.elemAddr(Operand::param(0), tid));
        Operand yv = entry.load(Type::F32,
                                entry.elemAddr(Operand::param(1), tid));
        Operand ax = entry.fmul(Operand::param(2), xv);
        entry.out(lv_acc, entry.fadd(ax, yv));
        entry.out(lv_i, Operand::constI32(0));
        entry.jump(head);
    }
    head.branch(head.ilt(head.in(lv_i), Operand::param(3)), body, tail);
    {
        Operand scaled = body.fmul(body.in(lv_acc),
                                   Operand::constF32(0.5f));
        body.out(lv_acc, body.fadd(scaled, Operand::constF32(1.0f)));
        body.out(lv_i, body.iadd(body.in(lv_i), Operand::constI32(1)));
        body.jump(head);
    }
    tail.store(Type::F32, tail.elemAddr(Operand::param(1), tid),
               tail.in(lv_acc));
    tail.exit();

    // finish() renumbers blocks in reverse post-order and verifies the
    // kernel (read-before-write of live values, operand arity, ...).
    Kernel kernel = kb.finish();
    std::printf("built '%s': %d blocks / %d instrs / %d live values\n",
                kernel.name.c_str(), kernel.numBlocks(),
                kernel.totalInstrs(), kernel.numLiveValues);

    // --- 2. Compiler backend: check it maps onto the Table 1 grid. ----
    kernel = splitOversizedBlocks(std::move(kernel));
    Placer placer(GridConfig::makeTable1());
    for (int b = 0; b < kernel.numBlocks(); ++b) {
        PlacedBlock pb = placer.place(buildBlockDfg(kernel.blocks[b]));
        std::printf("  block %-10s %2d nodes -> %d replica(s), "
                    "critical path %d cycles\n",
                    kernel.blocks[b].name.c_str(), pb.nodesPerReplica,
                    pb.replicas, pb.criticalPathCycles);
    }

    // --- 3. Launch it. -------------------------------------------------
    const int n = 1024, reps = 5;
    const float a = 2.5f;
    MemoryImage mem;
    const uint32_t x = mem.allocWords(n);
    const uint32_t y = mem.allocWords(n);
    for (int i = 0; i < n; ++i) {
        mem.storeF32(x, uint32_t(i), float(i) * 0.01f);
        mem.storeF32(y, uint32_t(i), 1.0f);
    }
    LaunchParams lp;
    lp.numCtas = n / 256;
    lp.ctaSize = 256;
    lp.params = {Scalar::fromU32(x), Scalar::fromU32(y),
                 Scalar::fromF32(a), Scalar::fromI32(reps)};

    TraceSet traces = Interpreter{}.run(kernel, lp, mem);

    // Validate against the obvious native computation.
    bool ok = true;
    for (int i = 0; i < n && ok; ++i) {
        float acc = a * (float(i) * 0.01f) + 1.0f;
        for (int r = 0; r < reps; ++r)
            acc = acc * 0.5f + 1.0f;
        ok = std::abs(mem.loadF32(y, uint32_t(i)) - acc) < 1e-5f;
    }
    std::printf("\nfunctional check: %s\n", ok ? "PASSED" : "FAILED");

    // --- 4. Time it on all three cores. --------------------------------
    RunStats v = VgiwCore{}.run(traces);
    RunStats f = FermiCore{}.run(traces);
    SgmfCore sg;
    RunStats s = sg.run(traces);
    std::printf("\n  vgiw  : %8llu cycles (%llu reconfigs)\n",
                (unsigned long long)v.cycles,
                (unsigned long long)v.reconfigs);
    std::printf("  fermi : %8llu cycles (%llu warp instructions)\n",
                (unsigned long long)f.cycles,
                (unsigned long long)f.dynWarpInstrs);
    if (s.supported) {
        std::printf("  sgmf  : %8llu cycles (%.0f injections)\n",
                    (unsigned long long)s.cycles,
                    s.extra.get("sgmf.injections"));
    }
    return 0;
}
