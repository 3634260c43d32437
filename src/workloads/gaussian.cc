/**
 * @file
 * GE — Gaussian elimination kernels Fan1 (2 blocks) and Fan2 (5 blocks)
 * from Table 2 (Linear Algebra). Fan1 computes one column of
 * multipliers; Fan2 updates the trailing submatrix and, on its first
 * column, the right-hand side — the `yidx == 0` branch is the source of
 * Fan2's control divergence.
 */

#include "workloads/workloads.hh"

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kSize = 128;  ///< matrix dimension
constexpr int kStep = 13;   ///< the elimination step `t` being run

Kernel
buildFan1()
{
    // Params: 0 = m (multipliers), 1 = a (matrix), 2 = size, 3 = t.
    KernelBuilder kb("Fan1", 4);
    BlockRef guard = kb.block("guard");
    BlockRef body = kb.block("body");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    // if (tid >= size - 1 - t) return;
    Operand limit = guard.isub(
        guard.isub(Operand::param(2), Operand::constI32(1)),
        Operand::param(3));
    guard.branch(guard.ilt(tid, limit), body, done);

    {
        // row = tid + t + 1; m[row*size + t] = a[row*size + t]/a[t*size+t]
        Operand row = body.iadd(body.iadd(tid, Operand::param(3)),
                                Operand::constI32(1));
        Operand row_off = body.imul(row, Operand::param(2));
        Operand idx = body.iadd(row_off, Operand::param(3));
        Operand pivot_idx = body.iadd(
            body.imul(Operand::param(3), Operand::param(2)),
            Operand::param(3));
        Operand num = body.load(Type::F32,
                                body.elemAddr(Operand::param(1), idx));
        Operand den = body.load(
            Type::F32, body.elemAddr(Operand::param(1), pivot_idx));
        body.store(Type::F32, body.elemAddr(Operand::param(0), idx),
                   body.fdiv(num, den));
        body.exit();
    }
    done.exit();
    return kb.finish();
}

Kernel
buildFan2()
{
    // Params: 0 = m, 1 = a, 2 = b (rhs), 3 = size, 4 = t, 5 = width.
    // Thread tid maps to (x, y) = (tid / width, tid % width).
    KernelBuilder kb("Fan2", 6);
    const uint16_t lv_x = kb.newLiveValue();
    const uint16_t lv_y = kb.newLiveValue();
    const uint16_t lv_mul = kb.newLiveValue();

    BlockRef guardx = kb.block("guard_x");
    BlockRef guardy = kb.block("guard_y");
    BlockRef update = kb.block("update");
    BlockRef rhs = kb.block("rhs");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    {
        Operand x = guardx.idiv(tid, Operand::param(5));
        Operand y = guardx.irem(tid, Operand::param(5));
        guardx.out(lv_x, x);
        guardx.out(lv_y, y);
        // if (x >= size - 1 - t) return;
        Operand xlim = guardx.isub(
            guardx.isub(Operand::param(3), Operand::constI32(1)),
            Operand::param(4));
        guardx.branch(guardx.ilt(x, xlim), guardy, done);
    }
    {
        // if (y >= size - t) return;
        Operand ylim = guardy.isub(Operand::param(3), Operand::param(4));
        guardy.branch(guardy.ilt(guardy.in(lv_y), ylim), update, done);
    }
    {
        // a[(x+1+t)*size + (y+t)] -= m[(x+1+t)*size + t]*a[t*size+(y+t)]
        Operand row = update.iadd(
            update.iadd(update.in(lv_x), Operand::constI32(1)),
            Operand::param(4));
        Operand col = update.iadd(update.in(lv_y), Operand::param(4));
        Operand row_off = update.imul(row, Operand::param(3));
        Operand midx = update.iadd(row_off, Operand::param(4));
        Operand mul = update.load(
            Type::F32, update.elemAddr(Operand::param(0), midx));
        update.out(lv_mul, mul);
        Operand aidx = update.iadd(row_off, col);
        Operand pidx = update.iadd(
            update.imul(Operand::param(4), Operand::param(3)), col);
        Operand av = update.load(
            Type::F32, update.elemAddr(Operand::param(1), aidx));
        Operand pv = update.load(
            Type::F32, update.elemAddr(Operand::param(1), pidx));
        Operand nv = update.fsub(av, update.fmul(mul, pv));
        update.store(Type::F32, update.elemAddr(Operand::param(1), aidx),
                     nv);
        // Only the first column updates the right-hand side.
        Operand yz = update.ieq(update.in(lv_y), Operand::constI32(0));
        update.branch(yz, rhs, done);
    }
    {
        // b[x+1+t] -= m[(x+1+t)*size + t] * b[t]
        Operand row = rhs.iadd(
            rhs.iadd(rhs.in(lv_x), Operand::constI32(1)),
            Operand::param(4));
        Operand bv = rhs.load(Type::F32,
                              rhs.elemAddr(Operand::param(2), row));
        Operand bt = rhs.load(
            Type::F32, rhs.elemAddr(Operand::param(2), Operand::param(4)));
        rhs.store(Type::F32, rhs.elemAddr(Operand::param(2), row),
                  rhs.fsub(bv, rhs.fmul(rhs.in(lv_mul), bt)));
        rhs.exit();
    }
    done.exit();
    return kb.finish();
}

} // namespace

WorkloadInstance
makeGeFan1()
{
    WorkloadInstance w;
    w.suite = "GE";
    w.domain = "Linear Algebra";
    w.kernel = buildFan1();

    Rng rng(44);
    const uint32_t m = w.memory.allocWords(kSize * kSize);
    const uint32_t a = w.memory.allocWords(kSize * kSize);
    fillF32(w.memory, a, kSize * kSize, rng, 1.0f, 10.0f);

    const int rows = kSize - 1 - kStep;
    w.launch.numCtas = (rows + 63) / 64;
    w.launch.ctaSize = 64;
    w.launch.params = {Scalar::fromU32(m), Scalar::fromU32(a),
                       Scalar::fromI32(kSize), Scalar::fromI32(kStep)};

    MemoryImage init = w.memory;
    w.check = [init, m, a](const MemoryImage &mem, std::string &err) {
        for (int i = 0; i < kSize - 1 - kStep; ++i) {
            const int row = i + kStep + 1;
            const float num =
                init.loadF32(a, uint32_t(row * kSize + kStep));
            const float den =
                init.loadF32(a, uint32_t(kStep * kSize + kStep));
            const float want = num / den;
            const float got =
                mem.loadF32(m, uint32_t(row * kSize + kStep));
            if (std::fabs(got - want) > 1e-6f * std::fabs(want) + 1e-9f) {
                err = "Fan1 multiplier mismatch at row " +
                      std::to_string(row);
                return false;
            }
        }
        return true;
    };
    return w;
}

WorkloadInstance
makeGeFan2()
{
    WorkloadInstance w;
    w.suite = "GE";
    w.domain = "Linear Algebra";
    w.kernel = buildFan2();

    Rng rng(45);
    const uint32_t m = w.memory.allocWords(kSize * kSize);
    const uint32_t a = w.memory.allocWords(kSize * kSize);
    const uint32_t b = w.memory.allocWords(kSize);
    fillF32(w.memory, a, kSize * kSize, rng, 1.0f, 10.0f);
    fillF32(w.memory, b, kSize, rng, 1.0f, 10.0f);
    fillF32(w.memory, m, kSize * kSize, rng, 0.1f, 0.9f);

    const int width = kSize - kStep;  // columns updated per row
    const int rows = kSize - 1 - kStep;
    const int threads = ((rows * width + 63) / 64) * 64;

    w.launch.numCtas = threads / 64;
    w.launch.ctaSize = 64;
    w.launch.params = {Scalar::fromU32(m), Scalar::fromU32(a),
                       Scalar::fromU32(b), Scalar::fromI32(kSize),
                       Scalar::fromI32(kStep), Scalar::fromI32(width)};

    MemoryImage init = w.memory;
    w.check = [init, m, a, b](const MemoryImage &mem, std::string &err) {
        // Replicate the update natively.
        std::vector<float> ea(kSize * kSize), eb(kSize);
        for (int i = 0; i < kSize * kSize; ++i)
            ea[size_t(i)] = init.loadF32(a, uint32_t(i));
        for (int i = 0; i < kSize; ++i)
            eb[size_t(i)] = init.loadF32(b, uint32_t(i));
        for (int x = 0; x < kSize - 1 - kStep; ++x) {
            const int row = x + 1 + kStep;
            const float mul =
                init.loadF32(m, uint32_t(row * kSize + kStep));
            for (int y = 0; y < kSize - kStep; ++y) {
                const int col = y + kStep;
                ea[size_t(row * kSize + col)] -=
                    mul * init.loadF32(a, uint32_t(kStep * kSize + col));
            }
            eb[size_t(row)] -= mul * init.loadF32(b, uint32_t(kStep));
        }
        return checkF32(mem, a, ea, 1e-5f, err) &&
               checkF32(mem, b, eb, 1e-5f, err);
    };
    return w;
}

} // namespace vgiw::workloads
