/**
 * @file
 * KMEANS — `invert_mapping` kernel (Table 2: Data Mining, 3 basic
 * blocks): converts the point array from point-major to feature-major
 * layout. Pure data movement — a memory-bound kernel where VGIW's lack
 * of memory coalescing shows (Section 5's discussion).
 */

#include "workloads/workloads.hh"

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kPoints = 4096;
constexpr int kFeatures = 4;
constexpr int kCtaSize = 256;

Kernel
buildInvertMapping()
{
    // Params: 0 = input (point-major), 1 = output (feature-major),
    //         2 = npoints.
    KernelBuilder kb("invert_mapping", 3);
    BlockRef guard = kb.block("guard");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(2)), body, done);

    // The feature loop is unrolled (kFeatures is a compile-time
    // constant in Rodinia too), keeping the kernel at 3 blocks.
    Operand in_base = body.imul(tid, Operand::constI32(kFeatures));
    for (int f = 0; f < kFeatures; ++f) {
        Operand src = body.iadd(in_base, Operand::constI32(f));
        Operand v = body.load(Type::F32,
                              body.elemAddr(Operand::param(0), src));
        Operand dst = body.iadd(
            body.imul(Operand::constI32(f), Operand::param(2)), tid);
        body.store(Type::F32, body.elemAddr(Operand::param(1), dst), v);
    }
    body.exit();
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeKmeansInvertMapping()
{
    WorkloadInstance w;
    w.suite = "KMEANS";
    w.domain = "Data Mining";
    w.kernel = buildInvertMapping();

    Rng rng(43);
    const uint32_t in = w.memory.allocWords(kPoints * kFeatures);
    const uint32_t out = w.memory.allocWords(kPoints * kFeatures);
    fillF32(w.memory, in, kPoints * kFeatures, rng, 0.0f, 100.0f);

    w.launch.numCtas = kPoints / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                       Scalar::fromI32(kPoints)};

    MemoryImage init = w.memory;
    w.check = [init, in, out](const MemoryImage &mem, std::string &err) {
        std::vector<float> expect(kPoints * kFeatures);
        for (int p = 0; p < kPoints; ++p) {
            for (int f = 0; f < kFeatures; ++f) {
                expect[size_t(f) * kPoints + size_t(p)] =
                    init.loadF32(in, uint32_t(p * kFeatures + f));
            }
        }
        return checkF32(mem, out, expect, 0.0f, err);
    };
    return w;
}

} // namespace vgiw::workloads
