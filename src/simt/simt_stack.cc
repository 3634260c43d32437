#include "simt/simt_stack.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace vgiw
{

SimtStack::SimtStack(uint32_t initial_mask, int entry_block)
{
    if (initial_mask)
        stack_.push_back(Entry{entry_block, kReconvergeAtExit,
                               initial_mask});
}

void
SimtStack::dropEmptyTop()
{
    while (!stack_.empty() && stack_.back().mask == 0)
        stack_.pop_back();
}

void
SimtStack::advance(const std::array<int, 32> &lane_succ,
                   const PostDominators &pd)
{
    vgiw_assert(!stack_.empty(), "advance on a finished warp");
    const Entry e = stack_.back();
    stack_.pop_back();

    // Partition the active lanes by successor block; exited lanes drop
    // out of the mask entirely. A 32-lane warp has at most 32 successor
    // groups, so a fixed array keeps replay allocation-free.
    std::array<std::pair<int, uint32_t>, 32> groups;  // (succ, mask)
    size_t ngroups = 0;
    for (int lane = 0; lane < 32; ++lane) {
        if (!((e.mask >> lane) & 1))
            continue;
        const int succ = lane_succ[lane];
        vgiw_assert(succ != kLaneInactive,
                    "active lane reported as inactive");
        if (succ == kLaneExit)
            continue;
        const auto end = groups.begin() + ngroups;
        auto it = std::find_if(groups.begin(), end, [succ](const auto &g) {
            return g.first == succ;
        });
        if (it == end)
            groups[ngroups++] = {succ, uint32_t(1) << lane};
        else
            it->second |= uint32_t(1) << lane;
    }

    if (ngroups == 0) {
        dropEmptyTop();
        return;
    }

    if (ngroups == 1) {
        auto [succ, mask] = groups.front();
        bool merged = false;
        if (succ == e.rpc) {
            // Reconvergence: the lanes rejoin the entry pushed when the
            // warp diverged. Sibling divergent entries may still sit
            // above it, so search downwards for pc == rpc.
            for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
                if (it->pc == succ) {
                    it->mask |= mask;
                    merged = true;
                    break;
                }
            }
        }
        if (!merged)
            stack_.push_back(Entry{succ, e.rpc, mask});
        dropEmptyTop();
        return;
    }

    // Divergence: reconverge at the immediate post-dominator of the
    // branching block.
    const int ip = pd.ipdom(e.pc);
    const int rpc = ip == PostDominators::kVirtualExit ? kReconvergeAtExit
                                                       : ip;

    // Reconvergence entry (reuse the one below when it already targets
    // the same block, which happens for back-to-back divergence). Track
    // it by index: pushes may reallocate the stack.
    long reconv = -1;
    if (rpc != kReconvergeAtExit) {
        for (long i = long(stack_.size()) - 1; i >= 0; --i) {
            if (stack_[i].pc == rpc) {
                reconv = i;
                break;
            }
        }
        if (reconv < 0) {
            stack_.push_back(Entry{rpc, e.rpc, 0});
            reconv = long(stack_.size()) - 1;
        }
    }

    // Push target entries, larger block IDs first so the smallest block
    // ID executes first (matching GPGPU taken-path-first scheduling and
    // keeping loop bodies before loop exits).
    std::sort(groups.begin(), groups.begin() + ngroups,
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    for (size_t g = 0; g < ngroups; ++g) {
        const auto [succ, mask] = groups[g];
        if (reconv >= 0 && succ == rpc)
            stack_[size_t(reconv)].mask |= mask;
        else
            stack_.push_back(Entry{succ, rpc, mask});
    }
    dropEmptyTop();
}

} // namespace vgiw
