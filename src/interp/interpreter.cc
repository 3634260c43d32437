#include "interp/interpreter.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/bit_vector.hh"
#include "common/logging.hh"

namespace vgiw
{

namespace
{

/** Evaluate a non-memory operation. Integer div/rem by zero yields 0. */
Scalar
evalOp(const Instr &in, Scalar a, Scalar b, Scalar c)
{
    const Type t = in.type;
    auto boolean = [](bool v) { return Scalar::fromU32(v ? 1 : 0); };
    switch (in.op) {
      case Opcode::Add:
        if (t == Type::F32) return Scalar::fromF32(a.asF32() + b.asF32());
        return Scalar::fromU32(a.asU32() + b.asU32());
      case Opcode::Sub:
        if (t == Type::F32) return Scalar::fromF32(a.asF32() - b.asF32());
        return Scalar::fromU32(a.asU32() - b.asU32());
      case Opcode::Mul:
        if (t == Type::F32) return Scalar::fromF32(a.asF32() * b.asF32());
        return Scalar::fromU32(a.asU32() * b.asU32());
      case Opcode::Min:
        if (t == Type::F32)
            return Scalar::fromF32(std::fmin(a.asF32(), b.asF32()));
        if (t == Type::I32)
            return Scalar::fromI32(std::min(a.asI32(), b.asI32()));
        return Scalar::fromU32(std::min(a.asU32(), b.asU32()));
      case Opcode::Max:
        if (t == Type::F32)
            return Scalar::fromF32(std::fmax(a.asF32(), b.asF32()));
        if (t == Type::I32)
            return Scalar::fromI32(std::max(a.asI32(), b.asI32()));
        return Scalar::fromU32(std::max(a.asU32(), b.asU32()));
      case Opcode::Neg:
        if (t == Type::F32) return Scalar::fromF32(-a.asF32());
        return Scalar::fromU32(0u - a.asU32());
      case Opcode::Abs:
        if (t == Type::F32) return Scalar::fromF32(std::fabs(a.asF32()));
        return Scalar::fromI32(std::abs(a.asI32()));
      case Opcode::And: return Scalar::fromU32(a.asU32() & b.asU32());
      case Opcode::Or: return Scalar::fromU32(a.asU32() | b.asU32());
      case Opcode::Xor: return Scalar::fromU32(a.asU32() ^ b.asU32());
      case Opcode::Not: return Scalar::fromU32(~a.asU32());
      case Opcode::Shl: return Scalar::fromU32(a.asU32() << (b.asU32() & 31));
      case Opcode::Shr:
        if (t == Type::I32)
            return Scalar::fromI32(a.asI32() >> (b.asU32() & 31));
        return Scalar::fromU32(a.asU32() >> (b.asU32() & 31));
      case Opcode::CmpEq:
        if (t == Type::F32) return boolean(a.asF32() == b.asF32());
        return boolean(a.asU32() == b.asU32());
      case Opcode::CmpNe:
        if (t == Type::F32) return boolean(a.asF32() != b.asF32());
        return boolean(a.asU32() != b.asU32());
      case Opcode::CmpLt:
        if (t == Type::F32) return boolean(a.asF32() < b.asF32());
        if (t == Type::I32) return boolean(a.asI32() < b.asI32());
        return boolean(a.asU32() < b.asU32());
      case Opcode::CmpLe:
        if (t == Type::F32) return boolean(a.asF32() <= b.asF32());
        if (t == Type::I32) return boolean(a.asI32() <= b.asI32());
        return boolean(a.asU32() <= b.asU32());
      case Opcode::CmpGt:
        if (t == Type::F32) return boolean(a.asF32() > b.asF32());
        if (t == Type::I32) return boolean(a.asI32() > b.asI32());
        return boolean(a.asU32() > b.asU32());
      case Opcode::CmpGe:
        if (t == Type::F32) return boolean(a.asF32() >= b.asF32());
        if (t == Type::I32) return boolean(a.asI32() >= b.asI32());
        return boolean(a.asU32() >= b.asU32());
      case Opcode::Select: return a.asBool() ? b : c;
      case Opcode::Div:
        if (t == Type::F32) return Scalar::fromF32(a.asF32() / b.asF32());
        if (t == Type::I32) {
            return Scalar::fromI32(
                b.asI32() == 0 ? 0 : a.asI32() / b.asI32());
        }
        return Scalar::fromU32(b.asU32() == 0 ? 0 : a.asU32() / b.asU32());
      case Opcode::Rem:
        if (t == Type::F32)
            return Scalar::fromF32(std::fmod(a.asF32(), b.asF32()));
        if (t == Type::I32) {
            return Scalar::fromI32(
                b.asI32() == 0 ? 0 : a.asI32() % b.asI32());
        }
        return Scalar::fromU32(b.asU32() == 0 ? 0 : a.asU32() % b.asU32());
      case Opcode::Sqrt: return Scalar::fromF32(std::sqrt(a.asF32()));
      case Opcode::Rsqrt:
        return Scalar::fromF32(1.0f / std::sqrt(a.asF32()));
      case Opcode::Exp: return Scalar::fromF32(std::exp(a.asF32()));
      case Opcode::Log: return Scalar::fromF32(std::log(a.asF32()));
      case Opcode::Sin: return Scalar::fromF32(std::sin(a.asF32()));
      case Opcode::Cos: return Scalar::fromF32(std::cos(a.asF32()));
      case Opcode::I2F: return Scalar::fromF32(float(a.asI32()));
      case Opcode::U2F: return Scalar::fromF32(float(a.asU32()));
      case Opcode::F2I: return Scalar::fromI32(int32_t(a.asF32()));
      case Opcode::F2U: return Scalar::fromU32(uint32_t(a.asF32()));
      default:
        vgiw_panic("evalOp on unexpected opcode ", opcodeName(in.op));
    }
}

/** A decoded operand: the value at banks[bank][index] (see Program). */
struct Src
{
    uint32_t bank = 0;
    uint32_t index = 0;
};

constexpr uint32_t kFrame = 0;  ///< launch frame bank
constexpr uint32_t kLive = 1;   ///< the running thread's live values

// Launch frame slots the running thread and block overwrite.
constexpr uint32_t kTidSlot = 0;    ///< tid, tidInCta, ctaId
constexpr uint32_t kLocalBase = 3;  ///< instruction i writes slot 3 + i

/**
 * A kernel's operands decoded for one launch. Every operand is resolved
 * to a slot of one of two banks. The frame holds the running thread's
 * tid, tidInCta and ctaId, then the running block's locals, then what
 * is fixed for the launch: the params, the launch-wide specials and the
 * constants. The live bank is the running thread's row of the flat
 * numThreads x numLiveValues live-value array.
 */
struct Program
{
    std::vector<Scalar> frame;
    /** Per block, in order: 3 per instruction, 1 per live-out, then
     * the branch condition. */
    std::vector<Src> srcs;
    std::vector<uint32_t> firstSrc;  ///< per block, index into srcs

    Program(const Kernel &k, const LaunchParams &launch)
    {
        size_t max_instrs = 0;
        for (const BasicBlock &b : k.blocks)
            max_instrs = std::max(max_instrs, b.instrs.size());
        frame.resize(kLocalBase + max_instrs);
        const uint32_t params = uint32_t(frame.size());
        frame.insert(frame.end(), launch.params.begin(),
                     launch.params.end());
        const uint32_t launch_specials = uint32_t(frame.size());
        frame.push_back(Scalar::fromU32(uint32_t(launch.ctaSize)));
        frame.push_back(Scalar::fromU32(uint32_t(launch.numCtas)));
        frame.push_back(Scalar::fromU32(uint32_t(launch.numThreads())));
        const uint32_t none_slot = uint32_t(frame.size());
        frame.push_back(Scalar{});

        auto decode = [&](const Operand &o) -> Src {
            switch (o.kind) {
              case OperandKind::Local: return {kFrame, kLocalBase + o.index};
              case OperandKind::LiveIn: return {kLive, o.index};
              case OperandKind::Param: return {kFrame, params + o.index};
              case OperandKind::Const:
                frame.push_back(o.constant);
                return {kFrame, uint32_t(frame.size() - 1)};
              case OperandKind::Special:
                switch (o.specialReg()) {
                  case SpecialReg::Tid: return {kFrame, kTidSlot};
                  case SpecialReg::TidInCta: return {kFrame, kTidSlot + 1};
                  case SpecialReg::CtaId: return {kFrame, kTidSlot + 2};
                  case SpecialReg::CtaSize: return {kFrame, launch_specials};
                  case SpecialReg::NumCtas:
                    return {kFrame, launch_specials + 1};
                  case SpecialReg::NumThreads:
                    return {kFrame, launch_specials + 2};
                }
                vgiw_panic("bad special reg");
              case OperandKind::None:
                // Unused operand slot (arity < 3); the verifier has
                // already checked that real operands are present.
                return {kFrame, none_slot};
            }
            vgiw_panic("bad operand kind");
        };

        for (const BasicBlock &b : k.blocks) {
            firstSrc.push_back(uint32_t(srcs.size()));
            for (const Instr &in : b.instrs)
                for (const Operand &o : in.src)
                    srcs.push_back(decode(o));
            for (const LiveOut &lo : b.liveOuts)
                srcs.push_back(decode(lo.value));
            srcs.push_back(decode(b.term.cond));
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

    Program prog(k, launch);
    Scalar *const frame = prog.frame.data();
    Scalar *const locals = frame + kLocalBase;

    // The block-vector schedule below interleaves threads; the writer
    // encodes each thread's streams as its executions arrive.
    TraceWriter trace(num_threads);

    const size_t num_lv = size_t(k.numLiveValues);
    std::vector<Scalar> live(size_t(num_threads) * num_lv);

    // Per-CTA scratchpads (shared memory), back to back.
    const uint32_t shared_words = uint32_t(k.sharedBytesPerCta + 3) / 4;
    std::vector<uint32_t> shared(size_t(launch.numCtas) * shared_words, 0);

    // Pending thread vectors, one per block; all threads start on block 0.
    std::vector<BitVector> pending;
    pending.reserve(num_blocks);
    for (int b = 0; b < num_blocks; ++b)
        pending.emplace_back(size_t(num_threads));
    pending[0].setFirstN(size_t(num_threads));

    // Barrier bookkeeping. A pool collects the threads of one CTA that
    // arrived at one barrier-terminated block; it releases (each thread to
    // its own successor, which may differ under a divergent-but-uniformly-
    // synchronised loop) once every live thread of the CTA has arrived.
    std::vector<int> live_in_cta(launch.numCtas, launch.ctaSize);
    struct BarrierPool
    {
        std::vector<std::pair<uint32_t, int>> arrivals;  // (tid, succ)
    };
    // Keyed by cta * num_blocks + barrier block id.
    std::vector<BarrierPool> pools(size_t(launch.numCtas) * num_blocks);
    int waiting_threads = 0;

    auto release_ready_pools = [&](int cta) {
        for (int b = 0; b < num_blocks; ++b) {
            BarrierPool &p = pools[size_t(cta) * num_blocks + b];
            if (!p.arrivals.empty() &&
                int(p.arrivals.size()) == live_in_cta[cta]) {
                for (auto [tid, succ] : p.arrivals)
                    pending[succ].set(tid);
                waiting_threads -= int(p.arrivals.size());
                p.arrivals.clear();
            }
        }
    };

    std::vector<uint32_t> tids(num_threads);
    uint64_t total_execs = 0;

    while (true) {
        int next = -1;
        for (int b = 0; b < num_blocks; ++b) {
            if (pending[b].any()) {
                next = b;
                break;
            }
        }
        if (next < 0) {
            if (waiting_threads > 0) {
                vgiw_fatal("kernel '", k.name, "': barrier deadlock, ",
                           waiting_threads, " threads waiting");
            }
            break;
        }

        const BasicBlock &blk = k.blocks[next];
        const Src *const block_srcs = prog.srcs.data() + prog.firstSrc[next];
        const size_t num_tids = pending[next].drainToIndices(tids.data());

        for (size_t t = 0; t < num_tids; ++t) {
            const uint32_t tid = tids[t];
            const uint32_t cta = tid / cta_size;

            if (++total_execs > opts_.maxBlockExecs) {
                vgiw_fatal("kernel '", k.name,
                           "' exceeded max dynamic block executions");
            }

            frame[kTidSlot] = Scalar::fromU32(tid);
            frame[kTidSlot + 1] = Scalar::fromU32(tid - cta * cta_size);
            frame[kTidSlot + 2] = Scalar::fromU32(cta);
            Scalar *const banks[2] = {frame, live.data() + tid * num_lv};
            uint32_t *const cta_shared =
                shared.data() + size_t(cta) * shared_words;
            auto read = [&](Src s) { return banks[s.bank][s.index]; };
            const Src *src = block_srcs;

            for (size_t i = 0; i < blk.instrs.size(); ++i, src += 3) {
                const Instr &in = blk.instrs[i];
                const bool is_shared = in.space == MemSpace::Shared;
                if (in.op == Opcode::Load) {
                    const uint32_t addr = read(src[0]).asU32();
                    uint32_t word;
                    if (is_shared) {
                        vgiw_assert(addr / 4 < shared_words,
                                    "shared load out of range @", addr,
                                    " in kernel ", k.name);
                        word = cta_shared[addr / 4];
                    } else {
                        word = mem.loadWord(addr);
                    }
                    locals[i] = Scalar(word);
                    trace.access(tid, addr, false, is_shared);
                } else if (in.op == Opcode::Store) {
                    const uint32_t addr = read(src[0]).asU32();
                    const Scalar val = read(src[1]);
                    if (is_shared) {
                        vgiw_assert(addr / 4 < shared_words,
                                    "shared store out of range @", addr,
                                    " in kernel ", k.name);
                        cta_shared[addr / 4] = val.bits;
                    } else {
                        mem.storeWord(addr, val.bits);
                    }
                    locals[i] = Scalar{};
                    trace.access(tid, addr, true, is_shared);
                } else {
                    locals[i] = evalOp(in, read(src[0]), read(src[1]),
                                       read(src[2]));
                }
            }

            // Live-outs in list order, then the branch condition: a
            // later live-out or the condition sees earlier writes.
            for (const LiveOut &lo : blk.liveOuts)
                banks[kLive][lo.lvid] = read(*src++);

            // Terminator.
            int succ = -1;
            switch (blk.term.kind) {
              case TermKind::Jump:
                succ = blk.term.target[0];
                break;
              case TermKind::Branch:
                succ = read(*src).asBool() ? blk.term.target[0]
                                           : blk.term.target[1];
                break;
              case TermKind::Exit:
                succ = -1;
                break;
            }

            trace.exec(tid, next, succ);

            if (succ < 0) {
                --live_in_cta[cta];
                release_ready_pools(int(cta));
            } else if (blk.term.barrier) {
                BarrierPool &p = pools[size_t(cta) * num_blocks + next];
                p.arrivals.emplace_back(tid, succ);
                ++waiting_threads;
                release_ready_pools(int(cta));
            } else {
                pending[succ].set(tid);
            }
        }
    }

    return trace.finish(&k, launch);
}

} // namespace vgiw
