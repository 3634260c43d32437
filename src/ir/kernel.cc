#include "ir/kernel.hh"

#include <algorithm>

namespace vgiw
{

int
BasicBlock::numLiveInReads() const
{
    std::vector<uint16_t> seen;
    auto note = [&seen](const Operand &o) {
        if (o.kind == OperandKind::LiveIn &&
            std::find(seen.begin(), seen.end(), o.index) == seen.end()) {
            seen.push_back(o.index);
        }
    };
    for (const auto &in : instrs)
        for (const auto &s : in.src)
            note(s);
    for (const auto &lo : liveOuts)
        note(lo.value);
    note(term.cond);
    return int(seen.size());
}

int
BasicBlock::numMemOps() const
{
    int n = 0;
    for (const auto &in : instrs)
        if (in.isMemory())
            ++n;
    return n;
}

int
Kernel::totalInstrs() const
{
    int n = 0;
    for (const auto &b : blocks)
        n += int(b.instrs.size());
    return n;
}

bool
Kernel::hasBarrier() const
{
    return std::any_of(blocks.begin(), blocks.end(),
                       [](const BasicBlock &b) { return b.term.barrier; });
}

} // namespace vgiw
