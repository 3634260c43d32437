#include "ir/verifier.hh"

#include <vector>

#include "common/logging.hh"

namespace vgiw
{

namespace
{

/** Per-live-value "definitely written" bit set, one bool per lvid. */
using WrittenSet = std::vector<bool>;

void
intersectInto(WrittenSet &dst, const WrittenSet &src)
{
    for (size_t i = 0; i < dst.size(); ++i)
        dst[i] = dst[i] && src[i];
}

void
checkOperand(const Kernel &k, int bid, int instr_idx, const Operand &o,
             const char *what)
{
    const BasicBlock &b = k.blocks[bid];
    switch (o.kind) {
      case OperandKind::Local:
        if (int(o.index) >= instr_idx) {
            vgiw_fatal("kernel '", k.name, "' block '", b.name, "': ", what,
                       " references instruction ", o.index,
                       " which does not precede it");
        }
        break;
      case OperandKind::LiveIn:
        if (int(o.index) >= k.numLiveValues) {
            vgiw_fatal("kernel '", k.name, "' block '", b.name, "': ", what,
                       " reads live value ", o.index, " out of range");
        }
        break;
      case OperandKind::Param:
        if (int(o.index) >= k.numParams) {
            vgiw_fatal("kernel '", k.name, "' block '", b.name, "': ", what,
                       " reads parameter ", o.index, " out of range");
        }
        break;
      default:
        break;
    }
}

} // namespace

void
verifyKernel(const Kernel &k)
{
    const int n = k.numBlocks();
    if (n == 0)
        vgiw_fatal("kernel '", k.name, "' has no blocks");
    if (n > Kernel::kMaxBlocks) {
        vgiw_fatal("kernel '", k.name, "' has ", n, " blocks, more than the ",
                   Kernel::kMaxBlocks, " a trace can hold");
    }

    // -- Structure: targets in range; arity; local operand ordering.
    for (int bid = 0; bid < n; ++bid) {
        const BasicBlock &b = k.blocks[bid];
        for (int s = 0; s < b.term.numTargets(); ++s) {
            int t = b.term.target[s];
            if (t < 0 || t >= n) {
                vgiw_fatal("kernel '", k.name, "' block '", b.name,
                           "': branch target ", t, " out of range");
            }
        }
        for (int i = 0; i < int(b.instrs.size()); ++i) {
            const Instr &in = b.instrs[i];
            const int arity = opcodeArity(in.op);
            for (int s = 0; s < arity; ++s) {
                if (in.src[s].isNone()) {
                    vgiw_fatal("kernel '", k.name, "' block '", b.name,
                               "': instr ", i, " (", opcodeName(in.op),
                               ") is missing operand ", s);
                }
                checkOperand(k, bid, i, in.src[s], "operand");
            }
            for (int s = arity; s < 3; ++s) {
                if (!in.src[s].isNone()) {
                    vgiw_fatal("kernel '", k.name, "' block '", b.name,
                               "': instr ", i, " (", opcodeName(in.op),
                               ") has excess operand ", s);
                }
            }
        }
        const int n_instrs = int(b.instrs.size());
        for (const auto &lo : b.liveOuts) {
            if (int(lo.lvid) >= k.numLiveValues) {
                vgiw_fatal("kernel '", k.name, "' block '", b.name,
                           "': live-out id ", lo.lvid, " out of range");
            }
            checkOperand(k, bid, n_instrs, lo.value, "live-out");
        }
        if (b.term.kind == TermKind::Branch) {
            if (b.term.cond.isNone()) {
                vgiw_fatal("kernel '", k.name, "' block '", b.name,
                           "': branch without condition");
            }
            checkOperand(k, bid, n_instrs, b.term.cond, "branch condition");
        }
    }

    // -- Live-value read-before-write analysis. Forward dataflow to a
    // fixpoint: written[b] = intersection over predecessors p of
    // (written[p] | liveOuts(p)); entry starts empty.
    const size_t nlv = size_t(k.numLiveValues);
    std::vector<WrittenSet> written(n, WrittenSet(nlv, true));
    written[0] = WrittenSet(nlv, false);

    bool changed = true;
    while (changed) {
        changed = false;
        for (int bid = 0; bid < n; ++bid) {
            WrittenSet out = written[bid];
            for (const auto &lo : k.blocks[bid].liveOuts)
                out[lo.lvid] = true;
            for (int s = 0; s < k.blocks[bid].term.numTargets(); ++s) {
                const int t = k.blocks[bid].term.target[s];
                WrittenSet next = written[t];
                intersectInto(next, out);
                // Entry keeps its empty in-set even if targeted by a
                // back edge: re-entry cannot happen for a fresh thread.
                if (t != 0 && next != written[t]) {
                    written[t] = next;
                    changed = true;
                }
            }
        }
    }

    for (int bid = 0; bid < n; ++bid) {
        const BasicBlock &b = k.blocks[bid];
        auto check_live_in = [&](const Operand &o, const char *what) {
            if (o.kind == OperandKind::LiveIn && !written[bid][o.index]) {
                vgiw_fatal("kernel '", k.name, "' block '", b.name, "': ",
                           what, " reads live value ", o.index,
                           " which is not written on all paths from entry");
            }
        };
        for (const auto &in : b.instrs)
            for (const auto &s : in.src)
                check_live_in(s, "instruction");
        for (const auto &lo : b.liveOuts)
            check_live_in(lo.value, "live-out");
        check_live_in(b.term.cond, "branch condition");
    }
}

} // namespace vgiw
