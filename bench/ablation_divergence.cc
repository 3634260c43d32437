/**
 * @file
 * Ablation: control-divergence sweep (the Figure 1 argument made
 * quantitative). A synthetic kernel routes each thread through one of
 * four equally sized branch arms; the fraction of threads leaving the
 * common path sweeps from 0% to 100%. SIMT pays for every taken arm
 * serially, SGMF maps all arms spatially, and VGIW coalesces each arm's
 * threads into one block vector. Exits 1 unless that shape holds: VGIW
 * cycles within 1.15x (max/min) across the sweep and Fermi's 100%/0%
 * cycle ratio at least 1.4.
 */

#include <algorithm>
#include <cstdint>

#include "bench_util.hh"

#include "common/rng.hh"
#include "ir/builder.hh"

namespace
{

using namespace vgiw;

/** Four-arm switch kernel: arm = in[tid] & 3, out = f_arm(in[tid]). */
Kernel
buildSwitchKernel()
{
    KernelBuilder kb("divergence_sweep", 2);
    const uint16_t lv_x = kb.newLiveValue();

    BlockRef entry = kb.block("entry");
    BlockRef test1 = kb.block("test1");
    BlockRef arm0 = kb.block("arm0");
    BlockRef arm1 = kb.block("arm1");
    BlockRef test2 = kb.block("test2");
    BlockRef arm2 = kb.block("arm2");
    BlockRef arm3 = kb.block("arm3");
    BlockRef merge = kb.block("merge");

    Operand tid = Operand::special(SpecialReg::Tid);
    {
        Operand x = entry.load(Type::I32,
                               entry.elemAddr(Operand::param(0), tid));
        entry.out(lv_x, x);
        Operand lo = entry.ilt(entry.iand(x, Operand::constI32(3)),
                               Operand::constI32(2));
        entry.branch(lo, test1, test2);
    }
    auto arm_body = [&](BlockRef b, int mul, int add) {
        Operand v = b.iadd(b.imul(b.in(lv_x), Operand::constI32(mul)),
                           Operand::constI32(add));
        // A little extra arithmetic so arms have real weight.
        v = b.ixor(b.ishl(v, Operand::constI32(1)), v);
        b.out(lv_x, v);
        b.jump(merge);
    };
    test1.branch(test1.ieq(test1.iand(test1.in(lv_x),
                                      Operand::constI32(3)),
                           Operand::constI32(0)),
                 arm0, arm1);
    arm_body(arm0, 3, 1);
    arm_body(arm1, 5, 7);
    test2.branch(test2.ieq(test2.iand(test2.in(lv_x),
                                      Operand::constI32(3)),
                           Operand::constI32(2)),
                 arm2, arm3);
    arm_body(arm2, 7, 3);
    arm_body(arm3, 9, 11);
    merge.store(Type::I32, merge.elemAddr(Operand::param(1), tid),
                merge.in(lv_x));
    merge.exit();
    return kb.finish();
}

} // namespace

int
main()
{
    using namespace vgiw;
    using namespace vgiw::bench;

    printHeader("Ablation: divergence sweep on a 4-arm switch kernel",
                "the Figure 1 argument, quantitative");

    Kernel k = buildSwitchKernel();
    const int threads = 4096;
    const int pcts[] = {0, 25, 50, 75, 100};

    // A synthetic (non-registry) sweep: each divergence level is a
    // custom-make job the engine traces once and replays on all three
    // architectures in parallel.
    auto makeAt = [&k, threads](int pct) {
        return [&k, threads, pct]() {
            Rng rng(99 + uint64_t(pct));
            WorkloadInstance w;
            w.suite = "SYNTH";
            w.domain = "Divergence Sweep";
            w.kernel = k;
            const uint32_t in = w.memory.allocWords(threads);
            const uint32_t out = w.memory.allocWords(threads);
            for (int i = 0; i < threads; ++i) {
                // pct% of threads draw a random arm, the rest arm 0.
                int32_t v = int32_t(rng.next() & 0x7ffc);  // arm bits 0
                if (int(rng.nextUInt(100)) < pct)
                    v |= int32_t(rng.nextUInt(4));
                w.memory.storeI32(in, uint32_t(i), v);
            }
            w.launch.numCtas = threads / 256;
            w.launch.ctaSize = 256;
            w.launch.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
            return w;
        };
    };

    std::vector<ExperimentJob> jobs;
    for (int pct : pcts) {
        for (const char *arch : {"vgiw", "fermi", "sgmf"}) {
            ExperimentJob job;
            job.workload =
                "SYNTH/divergence_" + std::to_string(pct) + "pct";
            job.arch = arch;
            job.make = makeAt(pct);
            jobs.push_back(std::move(job));
        }
    }
    ExperimentEngine engine;
    auto results = engine.run(jobs);
    if (!allJobsOk(results))
        return 1;

    std::printf("  %10s %12s %12s %12s %14s\n", "divergent",
                "VGIW cyc", "Fermi cyc", "SGMF cyc", "VGIW/Fermi");
    uint64_t vgiw_min = UINT64_MAX, vgiw_max = 0;
    for (size_t p = 0; p < std::size(pcts); ++p) {
        const RunStats &v = results[3 * p].stats;
        const RunStats &f = results[3 * p + 1].stats;
        const RunStats &s = results[3 * p + 2].stats;
        std::printf("  %9d%% %12llu %12llu %12llu %13.2fx\n", pcts[p],
                    (unsigned long long)v.cycles,
                    (unsigned long long)f.cycles,
                    (unsigned long long)(s.supported ? s.cycles : 0),
                    double(f.cycles) / double(v.cycles));
        vgiw_min = std::min(vgiw_min, v.cycles);
        vgiw_max = std::max(vgiw_max, v.cycles);
    }
    std::printf("\n  VGIW cycles should stay ~flat across the sweep "
                "(coalescing), Fermi's\n  should grow with divergence "
                "(serialised arms under masks).\n");

    const double vgiw_spread = double(vgiw_max) / double(vgiw_min);
    const double fermi_growth =
        double(results[3 * (std::size(pcts) - 1) + 1].stats.cycles) /
        double(results[1].stats.cycles);
    const bool flat = vgiw_spread <= 1.15;
    const bool grows = fermi_growth >= 1.4;
    std::printf("  VGIW max/min cycles %.2fx / band <= 1.15 %s\n",
                vgiw_spread, flat ? "ok" : "OUT");
    std::printf("  Fermi 100%%/0%% cycles %.2fx / band >= 1.4 %s\n",
                fermi_growth, grows ? "ok" : "OUT");
    return flat && grows ? 0 : 1;
}
