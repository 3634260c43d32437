/**
 * @file
 * LUD — tiled LU decomposition kernels (Table 2: Linear Algebra):
 * lud_diagonal (factorises the step's diagonal tile in the scratchpad
 * with per-iteration barriers), lud_perimeter (substitutes along the top
 * and left strips — its tid<TILE branch splits the CTA in half), and
 * lud_internal (rank-TILE update of the trailing tile). Each CTA owns one 32x32
 * matrix (16x16 tiles, elimination step 0); hundreds of matrices are
 * batched per launch.
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

constexpr int kN = 32;     ///< matrix dimension
constexpr int kMatBytes = kN * kN * 4;
// Independent matrices batched one per CTA, so block vectors reach the
// hundreds-of-threads regime the architecture targets (Section 2).
constexpr int kBatchDiagonal = 256;
constexpr int kBatchPerimeter = 128;
constexpr int kBatchInternal = 32;
constexpr int kTile = 16;

/** Random diagonally dominant matrix (stable, division-friendly). */
std::vector<float>
randomMatrix(Rng &rng)
{
    std::vector<float> m(size_t(kN) * kN);
    for (int i = 0; i < kN; ++i)
        for (int j = 0; j < kN; ++j)
            m[size_t(i) * kN + size_t(j)] =
                rng.nextFloat(0.1f, 1.0f) + (i == j ? float(kN) : 0.0f);
    return m;
}

/** Native in-place LU of the top-left tile (same operation order as the
 * kernel: per column i, divide then rank-1 update). */
void
referenceDiagonal(std::vector<float> &a)
{
    for (int i = 0; i < kTile - 1; ++i) {
        for (int r = i + 1; r < kTile; ++r)
            a[size_t(r) * kN + size_t(i)] =
                a[size_t(r) * kN + size_t(i)] /
                a[size_t(i) * kN + size_t(i)];
        for (int r = i + 1; r < kTile; ++r)
            for (int j = i + 1; j < kTile; ++j)
                a[size_t(r) * kN + size_t(j)] =
                    a[size_t(r) * kN + size_t(j)] -
                    a[size_t(r) * kN + size_t(i)] *
                        a[size_t(i) * kN + size_t(j)];
    }
}

/** Native perimeter update (assumes diagonal tile factorised). */
void
referencePerimeter(std::vector<float> &a)
{
    // Top strip: forward substitution with the unit-lower L.
    for (int c = kTile; c < kN; ++c) {
        for (int i = 1; i < kTile; ++i) {
            float acc = a[size_t(i) * kN + size_t(c)];
            for (int k = 0; k < i; ++k)
                acc = acc - a[size_t(i) * kN + size_t(k)] *
                                a[size_t(k) * kN + size_t(c)];
            a[size_t(i) * kN + size_t(c)] = acc;
        }
    }
    // Left strip: solve with U (divide by the diagonal).
    for (int r = kTile; r < kN; ++r) {
        for (int j = 0; j < kTile; ++j) {
            float acc = a[size_t(r) * kN + size_t(j)];
            for (int k = 0; k < j; ++k)
                acc = acc - a[size_t(r) * kN + size_t(k)] *
                                a[size_t(k) * kN + size_t(j)];
            a[size_t(r) * kN + size_t(j)] =
                acc / a[size_t(j) * kN + size_t(j)];
        }
    }
}

/** Native internal update. */
void
referenceInternal(std::vector<float> &a)
{
    for (int r = kTile; r < kN; ++r) {
        for (int c = kTile; c < kN; ++c) {
            float acc = 0.0f;
            for (int k = 0; k < kTile; ++k)
                acc = acc + a[size_t(r) * kN + size_t(k)] *
                                a[size_t(k) * kN + size_t(c)];
            a[size_t(r) * kN + size_t(c)] =
                a[size_t(r) * kN + size_t(c)] - acc;
        }
    }
}

/**
 * lud_diagonal: one CTA of kTile threads factorises the diagonal tile in
 * the scratchpad. Params: 0 = a, 1 = n.
 */
Kernel
buildDiagonal()
{
    KernelBuilder kb("lud_diagonal", 2);
    kb.setSharedBytesPerCta(kTile * kTile * 4);
    const uint16_t lv_i = kb.newLiveValue();
    const uint16_t lv_j = kb.newLiveValue();

    BlockRef ld_init = kb.block("load_init");
    BlockRef ld_head = kb.block("load_head");
    BlockRef ld_body = kb.block("load_body");
    BlockRef it_init = kb.block("iter_init");
    BlockRef it_head = kb.block("iter_head");
    BlockRef phase1 = kb.block("div_test");
    BlockRef div_do = kb.block("div_do");
    BlockRef p1_join = kb.block("div_join");
    BlockRef phase2 = kb.block("upd_test");
    BlockRef upd_init = kb.block("upd_init");
    BlockRef upd_head = kb.block("upd_head");
    BlockRef upd_body = kb.block("upd_body");
    BlockRef it_join = kb.block("iter_join");
    BlockRef wb_init = kb.block("wb_init");
    BlockRef wb_head = kb.block("wb_head");
    BlockRef wb_body = kb.block("wb_body");
    BlockRef done = kb.block("done");

    Operand lane = Operand::special(SpecialReg::TidInCta);
    auto shadow = [&](BlockRef b, Operand r, Operand c) {
        return b.elemAddr(Operand::constU32(0),
                          b.iadd(b.imul(r, Operand::constI32(kTile)), c));
    };
    Operand cta = Operand::special(SpecialReg::CtaId);
    auto global = [&](BlockRef b, Operand r, Operand c) {
        // Each CTA works on its own matrix of the batch.
        Operand mbase = b.iadd(
            Operand::param(0),
            b.imul(cta, Operand::constI32(kMatBytes)));
        return b.elemAddr(mbase,
                          b.iadd(b.imul(r, Operand::param(1)), c));
    };

    // Cooperative load: thread `lane` loads row `lane` of the tile.
    ld_init.out(lv_j, Operand::constI32(0));
    ld_init.jump(ld_head);
    ld_head.branch(ld_head.ilt(ld_head.in(lv_j),
                               Operand::constI32(kTile)),
                   ld_body, it_init);
    {
        Operand j = ld_body.in(lv_j);
        Operand v = ld_body.load(Type::F32, global(ld_body, lane, j));
        ld_body.store(Type::F32, shadow(ld_body, lane, j), v,
                      MemSpace::Shared);
        ld_body.out(lv_j, ld_body.iadd(j, Operand::constI32(1)));
        ld_body.jump(ld_head);
    }

    it_init.out(lv_i, Operand::constI32(0));
    it_init.jump(it_head, /*barrier=*/true);

    it_head.branch(it_head.ilt(it_head.in(lv_i),
                               Operand::constI32(kTile - 1)),
                   phase1, wb_init);

    phase1.branch(phase1.igt(lane, phase1.in(lv_i)), div_do, p1_join);
    {
        Operand i = div_do.in(lv_i);
        Operand num = div_do.load(Type::F32, shadow(div_do, lane, i),
                                  MemSpace::Shared);
        Operand den = div_do.load(Type::F32, shadow(div_do, i, i),
                                  MemSpace::Shared);
        div_do.store(Type::F32, shadow(div_do, lane, i),
                     div_do.fdiv(num, den), MemSpace::Shared);
        div_do.jump(p1_join);
    }
    p1_join.jump(phase2, /*barrier=*/true);

    phase2.branch(phase2.igt(lane, phase2.in(lv_i)), upd_init, it_join);
    upd_init.out(lv_j, upd_init.iadd(upd_init.in(lv_i),
                                     Operand::constI32(1)));
    upd_init.jump(upd_head);
    upd_head.branch(upd_head.ilt(upd_head.in(lv_j),
                                 Operand::constI32(kTile)),
                    upd_body, it_join);
    {
        Operand i = upd_body.in(lv_i);
        Operand j = upd_body.in(lv_j);
        Operand cur = upd_body.load(Type::F32, shadow(upd_body, lane, j),
                                    MemSpace::Shared);
        Operand l = upd_body.load(Type::F32, shadow(upd_body, lane, i),
                                  MemSpace::Shared);
        Operand u = upd_body.load(Type::F32, shadow(upd_body, i, j),
                                  MemSpace::Shared);
        upd_body.store(Type::F32, shadow(upd_body, lane, j),
                       upd_body.fsub(cur, upd_body.fmul(l, u)),
                       MemSpace::Shared);
        upd_body.out(lv_j, upd_body.iadd(j, Operand::constI32(1)));
        upd_body.jump(upd_head);
    }
    it_join.out(lv_i, it_join.iadd(it_join.in(lv_i),
                                   Operand::constI32(1)));
    it_join.jump(it_head, /*barrier=*/true);

    // Write the factorised tile back.
    wb_init.out(lv_j, Operand::constI32(0));
    wb_init.jump(wb_head);
    wb_head.branch(wb_head.ilt(wb_head.in(lv_j),
                               Operand::constI32(kTile)),
                   wb_body, done);
    {
        Operand j = wb_body.in(lv_j);
        Operand v = wb_body.load(Type::F32, shadow(wb_body, lane, j),
                                 MemSpace::Shared);
        wb_body.store(Type::F32, global(wb_body, lane, j), v);
        wb_body.out(lv_j, wb_body.iadd(j, Operand::constI32(1)));
        wb_body.jump(wb_head);
    }
    done.exit();
    return kb.finish();
}

/**
 * lud_perimeter: one CTA of 2*kTile threads; the lower half substitutes
 * the top strip columns, the upper half the left strip rows.
 * Params: 0 = a, 1 = n.
 */
Kernel
buildPerimeter()
{
    KernelBuilder kb("lud_perimeter", 2);
    const uint16_t lv_i = kb.newLiveValue();
    const uint16_t lv_k = kb.newLiveValue();
    const uint16_t lv_acc = kb.newLiveValue();
    const uint16_t lv_idx = kb.newLiveValue();  // column (top) / row (left)

    BlockRef pick = kb.block("pick");
    // Top strip path.
    BlockRef t_init = kb.block("top_init");
    BlockRef t_ihead = kb.block("top_i_head");
    BlockRef t_kinit = kb.block("top_k_init");
    BlockRef t_khead = kb.block("top_k_head");
    BlockRef t_kbody = kb.block("top_k_body");
    BlockRef t_store = kb.block("top_store");
    // Left strip path.
    BlockRef l_init = kb.block("left_init");
    BlockRef l_jhead = kb.block("left_j_head");
    BlockRef l_kinit = kb.block("left_k_init");
    BlockRef l_khead = kb.block("left_k_head");
    BlockRef l_kbody = kb.block("left_k_body");
    BlockRef l_store = kb.block("left_store");
    BlockRef done = kb.block("done");

    Operand lane = Operand::special(SpecialReg::TidInCta);
    Operand cta = Operand::special(SpecialReg::CtaId);
    auto global = [&](BlockRef b, Operand r, Operand c) {
        // Each CTA works on its own matrix of the batch.
        Operand mbase = b.iadd(
            Operand::param(0),
            b.imul(cta, Operand::constI32(kMatBytes)));
        return b.elemAddr(mbase,
                          b.iadd(b.imul(r, Operand::param(1)), c));
    };

    pick.branch(pick.ilt(lane, Operand::constI32(kTile)), t_init, l_init);

    // ---- Top strip: thread handles column kTile + lane. --------------
    t_init.out(lv_idx, t_init.iadd(lane, Operand::constI32(kTile)));
    t_init.out(lv_i, Operand::constI32(1));
    t_init.jump(t_ihead);
    t_ihead.branch(t_ihead.ilt(t_ihead.in(lv_i),
                               Operand::constI32(kTile)),
                   t_kinit, done);
    {
        Operand c = t_kinit.in(lv_idx);
        Operand i = t_kinit.in(lv_i);
        Operand acc = t_kinit.load(Type::F32, global(t_kinit, i, c));
        t_kinit.out(lv_acc, acc);
        t_kinit.out(lv_k, Operand::constI32(0));
        t_kinit.jump(t_khead);
    }
    t_khead.branch(t_khead.ilt(t_khead.in(lv_k), t_khead.in(lv_i)),
                   t_kbody, t_store);
    {
        Operand i = t_kbody.in(lv_i);
        Operand k = t_kbody.in(lv_k);
        Operand c = t_kbody.in(lv_idx);
        Operand l = t_kbody.load(Type::F32, global(t_kbody, i, k));
        Operand u = t_kbody.load(Type::F32, global(t_kbody, k, c));
        t_kbody.out(lv_acc, t_kbody.fsub(t_kbody.in(lv_acc),
                                         t_kbody.fmul(l, u)));
        t_kbody.out(lv_k, t_kbody.iadd(k, Operand::constI32(1)));
        t_kbody.jump(t_khead);
    }
    {
        Operand i = t_store.in(lv_i);
        t_store.store(Type::F32, global(t_store, i, t_store.in(lv_idx)),
                      t_store.in(lv_acc));
        t_store.out(lv_i, t_store.iadd(i, Operand::constI32(1)));
        t_store.jump(t_ihead);
    }

    // ---- Left strip: thread handles row kTile + (lane - kTile). ------
    l_init.out(lv_idx, l_init.iadd(lane, Operand::constI32(0)));
    l_init.out(lv_i, Operand::constI32(0));  // j column iterator
    l_init.jump(l_jhead);
    l_jhead.branch(l_jhead.ilt(l_jhead.in(lv_i),
                               Operand::constI32(kTile)),
                   l_kinit, done);
    {
        Operand r = l_kinit.in(lv_idx);
        Operand j = l_kinit.in(lv_i);
        Operand acc = l_kinit.load(Type::F32, global(l_kinit, r, j));
        l_kinit.out(lv_acc, acc);
        l_kinit.out(lv_k, Operand::constI32(0));
        l_kinit.jump(l_khead);
    }
    l_khead.branch(l_khead.ilt(l_khead.in(lv_k), l_khead.in(lv_i)),
                   l_kbody, l_store);
    {
        Operand r = l_kbody.in(lv_idx);
        Operand j = l_kbody.in(lv_i);
        Operand k = l_kbody.in(lv_k);
        Operand lv = l_kbody.load(Type::F32, global(l_kbody, r, k));
        Operand uv = l_kbody.load(Type::F32, global(l_kbody, k, j));
        l_kbody.out(lv_acc, l_kbody.fsub(l_kbody.in(lv_acc),
                                         l_kbody.fmul(lv, uv)));
        l_kbody.out(lv_k, l_kbody.iadd(k, Operand::constI32(1)));
        l_kbody.jump(l_khead);
    }
    {
        Operand r = l_store.in(lv_idx);
        Operand j = l_store.in(lv_i);
        Operand diag = l_store.load(Type::F32, global(l_store, j, j));
        l_store.store(Type::F32, global(l_store, r, j),
                      l_store.fdiv(l_store.in(lv_acc), diag));
        l_store.out(lv_i, l_store.iadd(j, Operand::constI32(1)));
        l_store.jump(l_jhead);
    }
    done.exit();
    return kb.finish();
}

/**
 * lud_internal: kTile x kTile threads update the trailing tile.
 * Params: 0 = a, 1 = n.
 */
Kernel
buildInternal()
{
    KernelBuilder kb("lud_internal", 2);
    const uint16_t lv_k = kb.newLiveValue();
    const uint16_t lv_acc = kb.newLiveValue();
    const uint16_t lv_row = kb.newLiveValue();
    const uint16_t lv_col = kb.newLiveValue();

    BlockRef init = kb.block("init");
    BlockRef head = kb.block("k_head");
    BlockRef body = kb.block("k_body");
    BlockRef wb = kb.block("writeback");

    Operand lane = Operand::special(SpecialReg::TidInCta);
    Operand cta = Operand::special(SpecialReg::CtaId);
    auto global = [&](BlockRef b, Operand r, Operand c) {
        // Each CTA works on its own matrix of the batch.
        Operand mbase = b.iadd(
            Operand::param(0),
            b.imul(cta, Operand::constI32(kMatBytes)));
        return b.elemAddr(mbase,
                          b.iadd(b.imul(r, Operand::param(1)), c));
    };

    {
        Operand row = init.iadd(init.idiv(lane, Operand::constI32(kTile)),
                                Operand::constI32(kTile));
        Operand col = init.iadd(init.irem(lane, Operand::constI32(kTile)),
                                Operand::constI32(kTile));
        init.out(lv_row, row);
        init.out(lv_col, col);
        init.out(lv_acc, Operand::constF32(0.0f));
        init.out(lv_k, Operand::constI32(0));
        init.jump(head);
    }
    head.branch(head.ilt(head.in(lv_k), Operand::constI32(kTile)), body,
                wb);
    {
        Operand k = body.in(lv_k);
        Operand l = body.load(Type::F32,
                              global(body, body.in(lv_row), k));
        Operand u = body.load(Type::F32,
                              global(body, k, body.in(lv_col)));
        body.out(lv_acc,
                 body.fadd(body.in(lv_acc), body.fmul(l, u)));
        body.out(lv_k, body.iadd(k, Operand::constI32(1)));
        body.jump(head);
    }
    {
        Operand addr = global(wb, wb.in(lv_row), wb.in(lv_col));
        Operand cur = wb.load(Type::F32, addr);
        wb.store(Type::F32, addr, wb.fsub(cur, wb.in(lv_acc)));
        wb.exit();
    }
    return kb.finish();
}

WorkloadInstance
makeLud(const char *which)
{
    Rng rng(53);
    WorkloadInstance w;
    w.suite = "LUD";
    w.domain = "Linear Algebra";

    const std::string name = which;
    int batch;
    if (name == "diagonal") {
        w.kernel = buildDiagonal();
        batch = kBatchDiagonal;
        w.launch.ctaSize = kTile;
    } else if (name == "perimeter") {
        w.kernel = buildPerimeter();
        batch = kBatchPerimeter;
        w.launch.ctaSize = 2 * kTile;
    } else {
        w.kernel = buildInternal();
        batch = kBatchInternal;
        w.launch.ctaSize = kTile * kTile;
    }
    w.launch.numCtas = batch;

    // One independent matrix per CTA. Earlier pipeline stages are
    // applied natively so each kernel starts from its real input state.
    std::vector<float> expect(size_t(batch) * kN * kN);
    const uint32_t a = w.memory.allocWords(uint32_t(batch) * kN * kN);
    for (int b = 0; b < batch; ++b) {
        std::vector<float> m = randomMatrix(rng);
        if (name == "perimeter") {
            referenceDiagonal(m);
        } else if (name == "internal") {
            referenceDiagonal(m);
            referencePerimeter(m);
        }
        std::vector<float> e = m;
        if (name == "diagonal")
            referenceDiagonal(e);
        else if (name == "perimeter")
            referencePerimeter(e);
        else
            referenceInternal(e);
        for (int i = 0; i < kN * kN; ++i) {
            w.memory.storeF32(a, uint32_t(b * kN * kN + i),
                              m[size_t(i)]);
            expect[size_t(b) * kN * kN + size_t(i)] = e[size_t(i)];
        }
    }
    w.launch.params = {Scalar::fromU32(a), Scalar::fromI32(kN)};

    w.check = [a, expect](const MemoryImage &mem, std::string &err) {
        return checkF32(mem, a, expect, 1e-4f, err);
    };
    return w;
}

} // namespace

WorkloadInstance makeLudDiagonal() { return makeLud("diagonal"); }
WorkloadInstance makeLudPerimeter() { return makeLud("perimeter"); }
WorkloadInstance makeLudInternal() { return makeLud("internal"); }

} // namespace vgiw::workloads
