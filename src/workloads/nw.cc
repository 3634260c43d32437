/**
 * @file
 * NW — Needleman-Wunsch sequence alignment kernels (Table 2:
 * Bioinformatics, 13 basic blocks each). The score matrix is processed
 * in 16x16 tiles along anti-diagonals: needle_cuda_shared_1 computes the
 * second anti-diagonal of tiles (two CTAs per problem, 64 problems
 * batched), needle_cuda_shared_2 the final one. Inside a tile, one CTA of 16
 * threads sweeps 31 wavefronts in the scratchpad with a barrier per
 * wavefront — heavy synchronisation and per-wavefront divergence.
 */

#include "workloads/workloads.hh"

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kTile = 16;
constexpr int kDim = 2 * kTile;       ///< score matrix is (kDim+1)^2
constexpr int kPitch = kDim + 1;
constexpr int kPenalty = 10;
/// Independent alignment problems batched so each kernel launch carries
/// dozens of CTAs (the thread-vector regime the architecture targets).
constexpr int kProblems = 64;
constexpr int kScoreWords = kPitch * kPitch;
constexpr int kRefWords = kDim * kDim;

/** Native DP update of one tile (same max order as the kernel). */
void
referenceTile(std::vector<int32_t> &score,
              const std::vector<int32_t> &ref, int tile_r, int tile_c)
{
    for (int i = 0; i < kTile; ++i) {
        for (int j = 0; j < kTile; ++j) {
            const int r = tile_r * kTile + i + 1;
            const int c = tile_c * kTile + j + 1;
            const int nw = score[size_t(r - 1) * kPitch + size_t(c - 1)] +
                           ref[size_t(r - 1) * kDim + size_t(c - 1)];
            const int w = score[size_t(r) * kPitch + size_t(c - 1)] -
                          kPenalty;
            const int n = score[size_t(r - 1) * kPitch + size_t(c)] -
                          kPenalty;
            score[size_t(r) * kPitch + size_t(c)] =
                std::max(std::max(nw, w), n);
        }
    }
}

/**
 * One-tile wavefront kernel. Each CTA of kTile threads processes one
 * tile of one alignment problem; the per-CTA work list supplies
 * (problem, tile_r, tile_c) triples.
 * Params: 0 = score (pitch kPitch, kProblems concatenated), 1 = ref
 *         (pitch kDim, concatenated), 2 = work list.
 */
Kernel
buildNeedle(const char *name)
{
    KernelBuilder kb(name, 3);
    // Scratchpad: score tile with halo (17x17) + ref tile (16x16).
    constexpr int kSPitch = kTile + 1;
    constexpr int kRefOff = kSPitch * kSPitch;  // words
    kb.setSharedBytesPerCta((kRefOff + kTile * kTile) * 4);

    const uint16_t lv_j = kb.newLiveValue();
    const uint16_t lv_d = kb.newLiveValue();
    const uint16_t lv_base_r = kb.newLiveValue();  // tile origin row
    const uint16_t lv_base_c = kb.newLiveValue();
    const uint16_t lv_sbase = kb.newLiveValue();   // problem score base
    const uint16_t lv_rbase = kb.newLiveValue();   // problem ref base

    BlockRef init = kb.block("init");
    BlockRef ld_head = kb.block("load_head");
    BlockRef ld_body = kb.block("load_body");
    BlockRef halo = kb.block("load_halo");
    BlockRef corner = kb.block("load_corner");
    BlockRef d_init = kb.block("diag_init");
    BlockRef d_head = kb.block("diag_head");
    BlockRef d_test = kb.block("diag_test");
    BlockRef d_comp = kb.block("diag_compute");
    BlockRef d_join = kb.block("diag_join");
    BlockRef wb_init = kb.block("wb_init");
    BlockRef wb_head = kb.block("wb_head");
    BlockRef wb_body = kb.block("wb_body");
    BlockRef done = kb.block("done");

    Operand lane = Operand::special(SpecialReg::TidInCta);
    Operand cta = Operand::special(SpecialReg::CtaId);

    auto saddr = [&](BlockRef b, Operand r, Operand c) {
        return b.elemAddr(Operand::constU32(0),
                          b.iadd(b.imul(r, Operand::constI32(kSPitch)), c));
    };
    auto sref = [&](BlockRef b, Operand i, Operand j) {
        return b.elemAddr(
            Operand::constU32(kRefOff * 4),
            b.iadd(b.imul(i, Operand::constI32(kTile)), j));
    };
    auto gscore = [&](BlockRef b, Operand r, Operand c) {
        return b.elemAddr(b.in(lv_sbase),
                          b.iadd(b.imul(r, Operand::constI32(kPitch)), c));
    };

    {
        // Fetch this CTA's (problem, tile) work item.
        Operand slot = init.imul(cta, Operand::constI32(3));
        Operand prob = init.load(Type::I32,
                                 init.elemAddr(Operand::param(2), slot));
        Operand tr = init.load(
            Type::I32,
            init.elemAddr(Operand::param(2),
                          init.iadd(slot, Operand::constI32(1))));
        Operand tc = init.load(
            Type::I32,
            init.elemAddr(Operand::param(2),
                          init.iadd(slot, Operand::constI32(2))));
        init.out(lv_sbase,
                 init.iadd(Operand::param(0),
                           init.imul(prob,
                                     Operand::constI32(kScoreWords * 4))));
        init.out(lv_rbase,
                 init.iadd(Operand::param(1),
                           init.imul(prob,
                                     Operand::constI32(kRefWords * 4))));
        init.out(lv_base_r, init.imul(tr, Operand::constI32(kTile)));
        init.out(lv_base_c, init.imul(tc, Operand::constI32(kTile)));
        init.out(lv_j, Operand::constI32(0));
        init.jump(ld_head);
    }
    // Each thread loads row `lane` of the ref tile and of the score tile
    // interior (offset by 1,1 in the shadow).
    ld_head.branch(ld_head.ilt(ld_head.in(lv_j),
                               Operand::constI32(kTile)),
                   ld_body, halo);
    {
        Operand j = ld_body.in(lv_j);
        Operand gr = ld_body.iadd(ld_body.in(lv_base_r), lane);
        Operand gc = ld_body.iadd(ld_body.in(lv_base_c), j);
        Operand rv = ld_body.load(
            Type::I32,
            ld_body.elemAddr(
                ld_body.in(lv_rbase),
                ld_body.iadd(ld_body.imul(gr, Operand::constI32(kDim)),
                             gc)));
        ld_body.store(Type::I32, sref(ld_body, lane, j), rv,
                      MemSpace::Shared);
        ld_body.out(lv_j, ld_body.iadd(j, Operand::constI32(1)));
        ld_body.jump(ld_head);
    }
    {
        // Halo: thread `lane` loads the north border cell (row 0,
        // col lane+1) and the west border cell (row lane+1, col 0).
        Operand lane1 = halo.iadd(lane, Operand::constI32(1));
        Operand gr0 = halo.in(lv_base_r);  // == tile_r*kTile (halo row)
        Operand gcn = halo.iadd(halo.in(lv_base_c), lane1);
        Operand nv = halo.load(Type::I32, gscore(halo, gr0, gcn));
        halo.store(Type::I32,
                   saddr(halo, Operand::constI32(0), lane1), nv,
                   MemSpace::Shared);
        Operand grw = halo.iadd(halo.in(lv_base_r), lane1);
        Operand gc0 = halo.in(lv_base_c);
        Operand wv = halo.load(Type::I32, gscore(halo, grw, gc0));
        halo.store(Type::I32,
                   saddr(halo, lane1, Operand::constI32(0)), wv,
                   MemSpace::Shared);
        halo.branch(halo.ieq(lane, Operand::constI32(0)), corner, d_init);
    }
    {
        // Thread 0 loads the NW corner.
        Operand cv = corner.load(Type::I32,
                                 gscore(corner, corner.in(lv_base_r),
                                        corner.in(lv_base_c)));
        corner.store(
            Type::I32,
            saddr(corner, Operand::constI32(0), Operand::constI32(0)), cv,
            MemSpace::Shared);
        corner.jump(d_init);
    }
    d_init.out(lv_d, Operand::constI32(0));
    d_init.jump(d_head, /*barrier=*/true);

    d_head.branch(d_head.ilt(d_head.in(lv_d),
                             Operand::constI32(2 * kTile - 1)),
                  d_test, wb_init);
    {
        // Thread `lane` owns row i = lane; active when j = d - i is in
        // [0, kTile).
        Operand j = d_test.isub(d_test.in(lv_d), lane);
        Operand ok = d_test.iand(
            d_test.ige(j, Operand::constI32(0)),
            d_test.ilt(j, Operand::constI32(kTile)));
        d_test.branch(ok, d_comp, d_join);
    }
    {
        Operand i1 = d_comp.iadd(lane, Operand::constI32(1));
        Operand j = d_comp.isub(d_comp.in(lv_d), lane);
        Operand j1 = d_comp.iadd(j, Operand::constI32(1));
        Operand nw = d_comp.load(Type::I32, saddr(d_comp, lane, j),
                                 MemSpace::Shared);
        Operand rv = d_comp.load(Type::I32, sref(d_comp, lane, j),
                                 MemSpace::Shared);
        Operand diag = d_comp.iadd(nw, rv);
        Operand w = d_comp.load(Type::I32, saddr(d_comp, i1, j),
                                MemSpace::Shared);
        Operand n = d_comp.load(Type::I32, saddr(d_comp, lane, j1),
                                MemSpace::Shared);
        Operand best = d_comp.imax(
            d_comp.imax(diag,
                        d_comp.isub(w, Operand::constI32(kPenalty))),
            d_comp.isub(n, Operand::constI32(kPenalty)));
        d_comp.store(Type::I32, saddr(d_comp, i1, j1), best,
                     MemSpace::Shared);
        d_comp.jump(d_join);
    }
    d_join.out(lv_d, d_join.iadd(d_join.in(lv_d), Operand::constI32(1)));
    d_join.jump(d_head, /*barrier=*/true);

    // Write the tile interior back to the global score matrix.
    wb_init.out(lv_j, Operand::constI32(0));
    wb_init.jump(wb_head);
    wb_head.branch(wb_head.ilt(wb_head.in(lv_j),
                               Operand::constI32(kTile)),
                   wb_body, done);
    {
        Operand j = wb_body.in(lv_j);
        Operand j1 = wb_body.iadd(j, Operand::constI32(1));
        Operand lane1 = wb_body.iadd(lane, Operand::constI32(1));
        Operand v = wb_body.load(Type::I32, saddr(wb_body, lane1, j1),
                                 MemSpace::Shared);
        Operand gr = wb_body.iadd(
            wb_body.iadd(wb_body.in(lv_base_r), lane),
            Operand::constI32(1));
        Operand gc = wb_body.iadd(
            wb_body.iadd(wb_body.in(lv_base_c), j),
            Operand::constI32(1));
        wb_body.store(Type::I32, gscore(wb_body, gr, gc), v);
        wb_body.out(lv_j, wb_body.iadd(j, Operand::constI32(1)));
        wb_body.jump(wb_head);
    }
    done.exit();
    return kb.finish();
}

struct NwState
{
    std::vector<int32_t> score;  // (kDim+1)^2
    std::vector<int32_t> ref;    // kDim^2
};

NwState
buildInput(Rng &rng)
{
    NwState s;
    s.ref.resize(size_t(kDim) * kDim);
    for (auto &v : s.ref)
        v = rng.nextInt(-2, 10);
    s.score.assign(size_t(kPitch) * kPitch, 0);
    for (int i = 0; i < kPitch; ++i) {
        s.score[size_t(i) * kPitch] = -i * kPenalty;
        s.score[size_t(i)] = -i * kPenalty;
    }
    return s;
}

WorkloadInstance
makeNw(int phase)
{
    Rng rng(54);

    WorkloadInstance w;
    w.suite = "NW";
    w.domain = "Bioinformatics";
    w.kernel = buildNeedle(phase == 1 ? "needle_cuda_shared_1"
                                      : "needle_cuda_shared_2");

    const uint32_t score =
        w.memory.allocWords(uint32_t(kProblems) * kScoreWords);
    const uint32_t ref =
        w.memory.allocWords(uint32_t(kProblems) * kRefWords);

    // Work list: phase 1 runs the two independent tiles of the second
    // anti-diagonal for every problem, phase 2 the final tile.
    std::vector<int32_t> work;  // (problem, tile_r, tile_c) triples
    std::vector<int32_t> expect(size_t(kProblems) * kScoreWords);

    for (int p = 0; p < kProblems; ++p) {
        NwState s = buildInput(rng);
        // Anti-diagonal 0 (tile 0,0) is always host-precomputed.
        referenceTile(s.score, s.ref, 0, 0);
        std::vector<std::pair<int, int>> tiles;
        if (phase == 1) {
            tiles = {{0, 1}, {1, 0}};
        } else {
            referenceTile(s.score, s.ref, 0, 1);
            referenceTile(s.score, s.ref, 1, 0);
            tiles = {{1, 1}};
        }
        for (auto [tr, tc] : tiles) {
            work.push_back(p);
            work.push_back(tr);
            work.push_back(tc);
        }
        for (size_t i = 0; i < s.score.size(); ++i) {
            w.memory.storeI32(score, uint32_t(p * kScoreWords) + uint32_t(i),
                              s.score[i]);
        }
        for (size_t i = 0; i < s.ref.size(); ++i) {
            w.memory.storeI32(ref, uint32_t(p * kRefWords) + uint32_t(i),
                              s.ref[i]);
        }
        std::vector<int32_t> e = s.score;
        for (auto [tr, tc] : tiles)
            referenceTile(e, s.ref, tr, tc);
        std::copy(e.begin(), e.end(),
                  expect.begin() + long(p) * kScoreWords);
    }

    const uint32_t list = w.memory.allocWords(uint32_t(work.size()));
    for (size_t i = 0; i < work.size(); ++i)
        w.memory.storeI32(list, uint32_t(i), work[i]);

    w.launch.numCtas = int(work.size()) / 3;
    w.launch.ctaSize = kTile;
    w.launch.params = {Scalar::fromU32(score), Scalar::fromU32(ref),
                       Scalar::fromU32(list)};

    w.check = [score, expect](const MemoryImage &mem, std::string &err) {
        return checkI32(mem, score, expect, err);
    };
    return w;
}

} // namespace

WorkloadInstance makeNwShared1() { return makeNw(1); }
WorkloadInstance makeNwShared2() { return makeNw(2); }

} // namespace vgiw::workloads
