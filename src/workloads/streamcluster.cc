/**
 * @file
 * SM — streamcluster `compute_cost` kernel (Table 2: Data Mining, 6
 * basic blocks): each thread computes the weighted distance from its
 * point to a candidate centre and conditionally reassigns the point —
 * the assignment branch diverges on data.
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
constexpr int kDims = 4;
constexpr int kCtaSize = 256;
constexpr int kCandidate = 17;  ///< index of the candidate centre

Kernel
buildComputeCost()
{
    // Params: 0 = coords (dim-major), 1 = weights, 2 = costs,
    //         3 = assignments, 4 = n, 5 = candidate centre index.
    KernelBuilder kb("compute_cost", 6);
    const uint16_t lv_cost = kb.newLiveValue();
    const uint16_t lv_acc = kb.newLiveValue();
    const uint16_t lv_d = kb.newLiveValue();

    BlockRef guard = kb.block("guard");
    BlockRef dhead = kb.block("dim_head");
    BlockRef dbody = kb.block("dim_body");
    BlockRef weigh = kb.block("weigh");
    BlockRef cmp = kb.block("compare");
    BlockRef assign = kb.block("assign");
    BlockRef join = kb.block("join");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.out(lv_acc, Operand::constF32(0.0f));
    guard.out(lv_d, Operand::constI32(0));
    guard.branch(guard.ilt(tid, Operand::param(4)), dhead, done);

    // Squared distance to the candidate centre, dim loop (dim-major
    // layout, as in the Rodinia kernel).
    dhead.branch(dhead.ilt(dhead.in(lv_d), Operand::constI32(kDims)),
                 dbody, weigh);
    {
        Operand drow = dbody.imul(dbody.in(lv_d), Operand::param(4));
        Operand pv = dbody.load(
            Type::F32,
            dbody.elemAddr(Operand::param(0), dbody.iadd(drow, tid)));
        Operand cv = dbody.load(
            Type::F32, dbody.elemAddr(Operand::param(0),
                                      dbody.iadd(drow, Operand::param(5))));
        Operand diff = dbody.fsub(pv, cv);
        dbody.out(lv_acc, dbody.fadd(dbody.in(lv_acc),
                                     dbody.fmul(diff, diff)));
        dbody.out(lv_d, dbody.iadd(dbody.in(lv_d), Operand::constI32(1)));
        dbody.jump(dhead);
    }
    {
        Operand wv = weigh.load(Type::F32,
                                weigh.elemAddr(Operand::param(1), tid));
        weigh.out(lv_cost, weigh.fmul(weigh.in(lv_acc), wv));
        weigh.jump(cmp);
    }
    {
        Operand cur = cmp.load(Type::F32,
                               cmp.elemAddr(Operand::param(2), tid));
        cmp.branch(cmp.flt(cmp.in(lv_cost), cur), assign, join);
    }
    {
        assign.store(Type::F32, assign.elemAddr(Operand::param(2), tid),
                     assign.in(lv_cost));
        assign.store(Type::I32, assign.elemAddr(Operand::param(3), tid),
                     Operand::param(5));
        assign.jump(join);
    }
    join.exit();
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeSmComputeCost()
{
    WorkloadInstance w;
    w.suite = "SM";
    w.domain = "Data Mining";
    w.kernel = buildComputeCost();

    Rng rng(47);
    const uint32_t coords = w.memory.allocWords(kPoints * kDims);
    const uint32_t weights = w.memory.allocWords(kPoints);
    const uint32_t costs = w.memory.allocWords(kPoints);
    const uint32_t assign = w.memory.allocWords(kPoints);
    fillF32(w.memory, coords, kPoints * kDims, rng, 0.0f, 10.0f);
    fillF32(w.memory, weights, kPoints, rng, 0.5f, 2.0f);
    fillF32(w.memory, costs, kPoints, rng, 10.0f, 120.0f);
    fillI32(w.memory, assign, kPoints, rng, 0, 15);

    w.launch.numCtas = kPoints / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(coords), Scalar::fromU32(weights),
                       Scalar::fromU32(costs), Scalar::fromU32(assign),
                       Scalar::fromI32(kPoints),
                       Scalar::fromI32(kCandidate)};

    MemoryImage init = w.memory;
    w.check = [init, coords, weights, costs, assign](
                  const MemoryImage &mem, std::string &err) {
        std::vector<float> ecost(kPoints);
        std::vector<int32_t> eassign(kPoints);
        for (int i = 0; i < kPoints; ++i) {
            float acc = 0.0f;
            for (int d = 0; d < kDims; ++d) {
                const float pv =
                    init.loadF32(coords, uint32_t(d * kPoints + i));
                const float cv = init.loadF32(
                    coords, uint32_t(d * kPoints + kCandidate));
                const float diff = pv - cv;
                acc = acc + diff * diff;
            }
            const float cost = acc * init.loadF32(weights, uint32_t(i));
            const float cur = init.loadF32(costs, uint32_t(i));
            if (cost < cur) {
                ecost[size_t(i)] = cost;
                eassign[size_t(i)] = kCandidate;
            } else {
                ecost[size_t(i)] = cur;
                eassign[size_t(i)] = init.loadI32(assign, uint32_t(i));
            }
        }
        return checkF32(mem, costs, ecost, 1e-5f, err) &&
               checkI32(mem, assign, eassign, err);
    };
    return w;
}

} // namespace vgiw::workloads
