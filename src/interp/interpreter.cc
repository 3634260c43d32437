#include "interp/interpreter.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/bit_vector.hh"
#include "common/logging.hh"
#include "interp/barrier_pools.hh"

namespace vgiw
{

namespace
{

/** Lanes per strip: a block vector runs in strips of this many threads. */
constexpr size_t kStrip = 256;

// Columns of the lane buffer, kStrip words each.
constexpr uint32_t kTidCol = 0;      ///< tid, tidInCta, ctaId
constexpr uint32_t kScratchCol = 3;  ///< 3 operand gathers / broadcasts
constexpr uint32_t kDeadCol = 6;     ///< results that nothing reads
constexpr uint32_t kLocalCol = 7;    ///< first register column

float f32(uint32_t x) { return std::bit_cast<float>(x); }
uint32_t bits(float x) { return std::bit_cast<uint32_t>(x); }
int32_t i32(uint32_t x) { return int32_t(x); }

template <class F>
void
lanes1(uint32_t *out, const uint32_t *a, size_t n, F f)
{
    for (size_t l = 0; l < n; ++l)
        out[l] = f(a[l]);
}

template <class F>
void
lanes2(uint32_t *out, const uint32_t *a, const uint32_t *b, size_t n, F f)
{
    for (size_t l = 0; l < n; ++l)
        out[l] = f(a[l], b[l]);
}

/**
 * Evaluate a non-memory operation over @p n lanes of operand columns.
 * Integer div/rem by zero yields 0.
 */
void
evalColumn(const Instr &in, uint32_t *out, const uint32_t *a,
           const uint32_t *b, const uint32_t *c, size_t n)
{
    const Type t = in.type;
    const bool fp = t == Type::F32;
    const bool sgn = t == Type::I32;
    switch (in.op) {
      case Opcode::Add:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(f32(x) + f32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x + y; });
      case Opcode::Sub:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(f32(x) - f32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x - y; });
      case Opcode::Mul:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(f32(x) * f32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x * y; });
      case Opcode::Min:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(std::fmin(f32(x), f32(y))); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(std::min(i32(x), i32(y))); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return std::min(x, y); });
      case Opcode::Max:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(std::fmax(f32(x), f32(y))); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(std::max(i32(x), i32(y))); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return std::max(x, y); });
      case Opcode::Neg:
        if (fp) return lanes1(out, a, n,
                              [](uint32_t x) { return bits(-f32(x)); });
        return lanes1(out, a, n, [](uint32_t x) { return 0u - x; });
      case Opcode::Abs:
        if (fp) return lanes1(out, a, n, [](uint32_t x)
                              { return bits(std::fabs(f32(x))); });
        return lanes1(out, a, n,
                      [](uint32_t x) { return uint32_t(std::abs(i32(x))); });
      case Opcode::And:
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x & y; });
      case Opcode::Or:
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x | y; });
      case Opcode::Xor:
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x ^ y; });
      case Opcode::Not:
        return lanes1(out, a, n, [](uint32_t x) { return ~x; });
      case Opcode::Shl:
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x << (y & 31); });
      case Opcode::Shr:
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(i32(x) >> (y & 31)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return x >> (y & 31); });
      case Opcode::CmpEq:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) == f32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x == y); });
      case Opcode::CmpNe:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) != f32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x != y); });
      case Opcode::CmpLt:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) < f32(y)); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(i32(x) < i32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x < y); });
      case Opcode::CmpLe:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) <= f32(y)); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(i32(x) <= i32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x <= y); });
      case Opcode::CmpGt:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) > f32(y)); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(i32(x) > i32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x > y); });
      case Opcode::CmpGe:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return uint32_t(f32(x) >= f32(y)); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return uint32_t(i32(x) >= i32(y)); });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return uint32_t(x >= y); });
      case Opcode::Select:
        for (size_t l = 0; l < n; ++l)
            out[l] = a[l] != 0 ? b[l] : c[l];
        return;
      case Opcode::Div:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(f32(x) / f32(y)); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return y ? uint32_t(i32(x) / i32(y)) : 0u; });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return y ? x / y : 0u; });
      case Opcode::Rem:
        if (fp) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                              { return bits(std::fmod(f32(x), f32(y))); });
        if (sgn) return lanes2(out, a, b, n, [](uint32_t x, uint32_t y)
                               { return y ? uint32_t(i32(x) % i32(y)) : 0u; });
        return lanes2(out, a, b, n,
                      [](uint32_t x, uint32_t y) { return y ? x % y : 0u; });
      case Opcode::Sqrt:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(std::sqrt(f32(x))); });
      case Opcode::Rsqrt:
        return lanes1(out, a, n, [](uint32_t x)
                      { return bits(1.0f / std::sqrt(f32(x))); });
      case Opcode::Exp:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(std::exp(f32(x))); });
      case Opcode::Log:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(std::log(f32(x))); });
      case Opcode::Sin:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(std::sin(f32(x))); });
      case Opcode::Cos:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(std::cos(f32(x))); });
      case Opcode::I2F:
        return lanes1(out, a, n,
                      [](uint32_t x) { return bits(float(i32(x))); });
      case Opcode::U2F:
        return lanes1(out, a, n, [](uint32_t x) { return bits(float(x)); });
      case Opcode::F2I:
        return lanes1(out, a, n,
                      [](uint32_t x) { return uint32_t(int32_t(f32(x))); });
      case Opcode::F2U:
        return lanes1(out, a, n,
                      [](uint32_t x) { return uint32_t(f32(x)); });
      default:
        vgiw_panic("evalColumn on unexpected opcode ", opcodeName(in.op));
    }
}

/** A decoded operand: where its column of lane values comes from. */
struct Src
{
    enum Kind : uint32_t
    {
        Column,     ///< lane-buffer column v (tid specials, registers)
        Gather,     ///< live value v of each lane's thread
        Broadcast,  ///< the launch-fixed word v (params, constants, ...)
    };
    Kind kind = Broadcast;
    uint32_t v = 0;
};

/**
 * A kernel decoded for one launch: per block, in order, 4 entries per
 * instruction (the column it writes, then its 3 operands), 1 per
 * live-out, then the branch condition. Result columns are allocated per
 * block by a linear scan: a register column is free again once its
 * last reader has run, so a block needs only as many as it has results
 * live at once.
 */
struct Program
{
    std::vector<Src> srcs;
    std::vector<uint32_t> firstSrc;  ///< per block, index into srcs
    uint32_t numCols = kLocalCol;    ///< lane-buffer columns needed
    uint32_t maxMem = 0;             ///< most memory instrs in a block

    Program(const Kernel &k, const LaunchParams &launch)
    {
        size_t max_instrs = 0, num_srcs = 0;
        for (const BasicBlock &b : k.blocks) {
            max_instrs = std::max(max_instrs, b.instrs.size());
            num_srcs += 4 * b.instrs.size() + b.liveOuts.size() + 1;
        }
        srcs.reserve(num_srcs);
        firstSrc.reserve(k.blocks.size());
        std::vector<uint32_t> col;   // the running block's result columns
        std::vector<size_t> last;    // each result's last reader
        std::vector<uint32_t> free;  // register columns free for reuse
        col.reserve(max_instrs);
        last.reserve(max_instrs);
        free.reserve(max_instrs);
        constexpr size_t kUnread = SIZE_MAX;

        auto decode = [&](const Operand &o) -> Src {
            switch (o.kind) {
              case OperandKind::Local: return {Src::Column, col[o.index]};
              case OperandKind::LiveIn: return {Src::Gather, o.index};
              case OperandKind::Param:
                return {Src::Broadcast, launch.params[o.index].bits};
              case OperandKind::Const:
                return {Src::Broadcast, o.constant.bits};
              case OperandKind::Special:
                switch (o.specialReg()) {
                  case SpecialReg::Tid: return {Src::Column, kTidCol};
                  case SpecialReg::TidInCta:
                    return {Src::Column, kTidCol + 1};
                  case SpecialReg::CtaId: return {Src::Column, kTidCol + 2};
                  case SpecialReg::CtaSize:
                    return {Src::Broadcast, uint32_t(launch.ctaSize)};
                  case SpecialReg::NumCtas:
                    return {Src::Broadcast, uint32_t(launch.numCtas)};
                  case SpecialReg::NumThreads:
                    return {Src::Broadcast, uint32_t(launch.numThreads())};
                }
                vgiw_panic("bad special reg");
              case OperandKind::None:
                // Unused operand slot (arity < 3); never read.
                return {Src::Broadcast, 0};
            }
            vgiw_panic("bad operand kind");
        };

        for (const BasicBlock &b : k.blocks) {
            maxMem = std::max(maxMem, uint32_t(b.numMemOps()));

            const size_t n = b.instrs.size();
            // Live-outs and the branch condition read at the block's end.
            last.assign(n, kUnread);
            for (size_t i = 0; i < n; ++i)
                for (const Operand &o : b.instrs[i].src)
                    if (o.kind == OperandKind::Local)
                        last[o.index] = i;
            for (const LiveOut &lo : b.liveOuts)
                if (lo.value.kind == OperandKind::Local)
                    last[lo.value.index] = n;
            if (b.term.cond.kind == OperandKind::Local)
                last[b.term.cond.index] = n;

            col.assign(n, kDeadCol);
            free.clear();
            uint32_t next_col = kLocalCol;
            firstSrc.push_back(uint32_t(srcs.size()));
            for (size_t i = 0; i < n; ++i) {
                // Take the result's column before freeing the operands'
                // so that no instruction writes a column it reads.
                if (last[i] != kUnread) {
                    if (free.empty()) {
                        col[i] = next_col++;
                    } else {
                        col[i] = free.back();
                        free.pop_back();
                    }
                }
                srcs.push_back({Src::Column, col[i]});
                for (const Operand &o : b.instrs[i].src)
                    srcs.push_back(decode(o));
                for (const Operand &o : b.instrs[i].src) {
                    if (o.kind == OperandKind::Local && last[o.index] == i) {
                        free.push_back(col[o.index]);
                        last[o.index] = kUnread;
                    }
                }
            }
            for (const LiveOut &lo : b.liveOuts)
                srcs.push_back(decode(lo.value));
            srcs.push_back(decode(b.term.cond));
            numCols = std::max(numCols, next_col);
        }
    }
};

} // namespace

TraceSet
Interpreter::run(const Kernel &k, const LaunchParams &launch,
                 MemoryImage &mem) const
{
    vgiw_assert(int(launch.params.size()) == k.numParams,
                "kernel '", k.name, "' expects ", k.numParams,
                " params, launch provides ", launch.params.size());

    const int num_threads = launch.numThreads();
    const int num_blocks = k.numBlocks();
    const uint32_t cta_size = uint32_t(launch.ctaSize);

    const Program prog(k, launch);

    // One strip's lane columns: tid specials, operand scratch, results.
    std::vector<uint32_t> lane_buf(size_t(prog.numCols) * kStrip);
    uint32_t *const lanes = lane_buf.data();
    const uint32_t *const lane_tid = lanes + kTidCol * kStrip;
    const uint32_t *const lane_cta = lanes + (kTidCol + 2) * kStrip;

    // Each memory instruction's address column for the strip, in
    // instruction order. The block-vector schedule below interleaves
    // threads; the writer encodes each thread's streams as its
    // executions arrive, one call per lane with that lane's addresses.
    std::vector<uint32_t> addr_buf(size_t(std::max(prog.maxMem, 1u)) *
                                   kStrip);
    uint32_t *const addrs = addr_buf.data();
    TraceWriter trace(k, num_threads);

    const size_t num_lv = size_t(k.numLiveValues);
    std::vector<uint32_t> live(size_t(num_threads) * num_lv);

    // Per-CTA scratchpads (shared memory), back to back.
    const uint32_t shared_words = uint32_t(k.sharedBytesPerCta + 3) / 4;
    std::vector<uint32_t> shared(size_t(launch.numCtas) * shared_words, 0);

    // Pending thread vectors, one per block; all threads start on block 0.
    std::vector<BitVector> pending;
    pending.reserve(num_blocks);
    for (int b = 0; b < num_blocks; ++b)
        pending.emplace_back(size_t(num_threads));
    pending[0].setFirstN(size_t(num_threads));
    // No block below this one has pending threads: the pick scans from
    // it, so a long chain of blocks is not scanned once per block.
    int lowest = 0;
    auto make_pending = [&](uint32_t tid, int succ) {
        pending[succ].set(tid);
        lowest = std::min(lowest, succ);
    };

    // Barrier pools: a thread at the end of a barrier block waits until
    // every live thread of its CTA has arrived.
    BarrierPools pools(launch.numCtas, launch.ctaSize, num_blocks,
                       k.hasBarrier());

    // The column of @p s for the strip's @p n lanes; gathers and
    // broadcasts fill operand scratch column @p slot.
    auto column = [&](Src s, uint32_t slot, size_t n) -> const uint32_t * {
        if (s.kind == Src::Column)
            return lanes + s.v * kStrip;
        uint32_t *const out = lanes + (kScratchCol + slot) * kStrip;
        if (s.kind == Src::Gather) {
            for (size_t l = 0; l < n; ++l)
                out[l] = live[lane_tid[l] * num_lv + s.v];
        } else {
            std::fill_n(out, n, s.v);
        }
        return out;
    };

    std::vector<uint32_t> tids(num_threads);
    uint64_t total_execs = 0;

    while (true) {
        int next = -1;
        for (int b = lowest; b < num_blocks; ++b) {
            if (pending[b].any()) {
                next = b;
                break;
            }
        }
        if (next < 0) {
            if (pools.waiting() > 0) {
                vgiw_fatal("kernel '", k.name, "': barrier deadlock, ",
                           pools.waiting(), " threads waiting");
            }
            break;
        }
        lowest = next;

        const BasicBlock &blk = k.blocks[next];
        const Src *const block_srcs = prog.srcs.data() + prog.firstSrc[next];
        const size_t num_tids = pending[next].drainToIndices(tids.data());

        total_execs += num_tids;
        if (total_execs > opts_.maxBlockExecs) {
            vgiw_fatal("kernel '", k.name,
                       "' exceeded max dynamic block executions");
        }

        for (size_t first = 0; first < num_tids; first += kStrip) {
            const size_t n = std::min(kStrip, num_tids - first);
            {
                uint32_t *const tid = lanes + kTidCol * kStrip;
                uint32_t *const tid_in_cta = tid + kStrip;
                uint32_t *const cta = tid + 2 * kStrip;
                for (size_t l = 0; l < n; ++l) {
                    tid[l] = tids[first + l];
                    cta[l] = tid[l] / cta_size;
                    tid_in_cta[l] = tid[l] - cta[l] * cta_size;
                }
            }
            const Src *src = block_srcs;
            uint32_t *addr_col = addrs;

            for (const Instr &in : blk.instrs) {
                uint32_t *const out = lanes + src[0].v * kStrip;
                const Src *const opnd = src + 1;
                src += 4;
                const bool is_shared = in.space == MemSpace::Shared;
                if (in.op == Opcode::Load) {
                    const uint32_t *const addr = column(opnd[0], 0, n);
                    for (size_t l = 0; l < n; ++l) {
                        if (is_shared) {
                            vgiw_assert(addr[l] / 4 < shared_words,
                                        "shared load out of range @",
                                        addr[l], " in kernel ", k.name);
                            out[l] = shared[size_t(lane_cta[l]) * shared_words +
                                            addr[l] / 4];
                        } else {
                            out[l] = mem.loadWord(addr[l]);
                        }
                    }
                    std::copy_n(addr, n, addr_col);
                    addr_col += kStrip;
                } else if (in.op == Opcode::Store) {
                    const uint32_t *const addr = column(opnd[0], 0, n);
                    const uint32_t *const val = column(opnd[1], 1, n);
                    for (size_t l = 0; l < n; ++l) {
                        if (is_shared) {
                            vgiw_assert(addr[l] / 4 < shared_words,
                                        "shared store out of range @",
                                        addr[l], " in kernel ", k.name);
                            shared[size_t(lane_cta[l]) * shared_words +
                                   addr[l] / 4] = val[l];
                        } else {
                            mem.storeWord(addr[l], val[l]);
                        }
                    }
                    std::copy_n(addr, n, addr_col);
                    addr_col += kStrip;
                    std::fill_n(out, n, 0u);
                } else {
                    const int arity = opcodeArity(in.op);
                    const uint32_t *cols[3] = {nullptr, nullptr, nullptr};
                    for (int s = 0; s < arity; ++s)
                        cols[s] = column(opnd[s], uint32_t(s), n);
                    evalColumn(in, out, cols[0], cols[1], cols[2], n);
                }
            }

            // Live-outs in list order, then the branch condition: a
            // later live-out or the condition sees earlier writes.
            for (const LiveOut &lo : blk.liveOuts) {
                const uint32_t *const val = column(*src++, 0, n);
                for (size_t l = 0; l < n; ++l)
                    live[lane_tid[l] * num_lv + lo.lvid] = val[l];
            }
            const uint32_t *const cond =
                blk.term.kind == TermKind::Branch ? column(*src, 0, n)
                                                  : nullptr;
            const uint32_t num_mem = uint32_t((addr_col - addrs) / kStrip);

            // Terminators, lane by lane in tid order.
            for (size_t l = 0; l < n; ++l) {
                const uint32_t tid = lane_tid[l];
                int succ = -1;
                switch (blk.term.kind) {
                  case TermKind::Jump:
                    succ = blk.term.target[0];
                    break;
                  case TermKind::Branch:
                    succ = cond[l] != 0 ? blk.term.target[0]
                                        : blk.term.target[1];
                    break;
                  case TermKind::Exit:
                    succ = -1;
                    break;
                }

                trace.block(tid, next, succ, addrs + l, kStrip, num_mem);

                if (succ < 0)
                    pools.exit(tid, make_pending);
                else if (blk.term.barrier)
                    pools.arrive(tid, next, succ, make_pending);
                else
                    make_pending(tid, succ);
            }
        }
    }

    return trace.finish(launch);
}

} // namespace vgiw
