/**
 * @file
 * NN — k-nearest-neighbours `euclid` kernel (Table 2: Data Mining, 2
 * basic blocks): each thread computes the Euclidean distance from one
 * location record to the query point. Small, FP-heavy, no divergence
 * beyond the bounds guard — a kernel SGMF is good at.
 */

#include "workloads/workloads.hh"

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kRecords = 4096;
constexpr int kCtaSize = 256;

Kernel
buildEuclid()
{
    // Params: 0 = locations base (lat,lng pairs), 1 = distances base,
    //         2 = numRecords, 3 = query lat, 4 = query lng.
    KernelBuilder kb("euclid", 5);
    BlockRef guard = kb.block("guard");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(2)), body, done);

    {
        Operand pair = body.imul(tid, Operand::constI32(2));
        Operand lat = body.load(
            Type::F32, body.elemAddr(Operand::param(0), pair));
        Operand lng = body.load(
            Type::F32,
            body.elemAddr(Operand::param(0),
                          body.iadd(pair, Operand::constI32(1))));
        Operand dlat = body.fsub(lat, Operand::param(3));
        Operand dlng = body.fsub(lng, Operand::param(4));
        Operand sum = body.fadd(body.fmul(dlat, dlat),
                                body.fmul(dlng, dlng));
        Operand dist = body.fsqrt(sum);
        body.store(Type::F32, body.elemAddr(Operand::param(1), tid), dist);
        body.exit();
    }
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeNnEuclid()
{
    WorkloadInstance w;
    w.suite = "NN";
    w.domain = "Data Mining";
    w.kernel = buildEuclid();

    Rng rng(42);
    const uint32_t loc = w.memory.allocWords(kRecords * 2);
    const uint32_t dist = w.memory.allocWords(kRecords);
    fillF32(w.memory, loc, kRecords * 2, rng, -90.0f, 90.0f);
    const float qlat = 30.5f, qlng = -60.25f;

    w.launch.numCtas = kRecords / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(loc), Scalar::fromU32(dist),
                       Scalar::fromI32(kRecords), Scalar::fromF32(qlat),
                       Scalar::fromF32(qlng)};

    MemoryImage init = w.memory;
    w.check = [init, loc, dist, qlat, qlng](const MemoryImage &mem,
                                            std::string &err) {
        std::vector<float> expect(kRecords);
        for (int i = 0; i < kRecords; ++i) {
            const float lat = init.loadF32(loc, uint32_t(2 * i));
            const float lng = init.loadF32(loc, uint32_t(2 * i + 1));
            const float dlat = lat - qlat, dlng = lng - qlng;
            expect[size_t(i)] = std::sqrt(dlat * dlat + dlng * dlng);
        }
        return checkF32(mem, dist, expect, 1e-5f, err);
    };
    return w;
}

} // namespace vgiw::workloads
