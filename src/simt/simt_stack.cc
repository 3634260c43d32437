#include "simt/simt_stack.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/sim_error.hh"

namespace vgiw
{

void
SimtStack::reset(uint32_t initial_mask, int entry_block)
{
    depth_ = 0;
    if (initial_mask)
        push(Entry{entry_block, kReconvergeAtExit, initial_mask});
}

void
SimtStack::push(const Entry &e)
{
    if (depth_ == entries_.size()) {
        throw SimError(SimErrorKind::Internal,
                       "kernel '" + std::string(kernel_) +
                           "': SIMT stack overflow past " +
                           std::to_string(entries_.size()) + " entries");
    }
    entries_[depth_++] = e;
}

void
SimtStack::dropEmptyTop()
{
    while (depth_ > 0 && entries_[depth_ - 1].mask == 0)
        --depth_;
}

void
SimtStack::advance(const std::array<int, 32> &lane_succ,
                   const PostDominators &pd)
{
    vgiw_assert(depth_ > 0, "advance on a finished warp");
    const Entry e = entries_[--depth_];

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
            for (size_t i = depth_; i-- > 0;) {
                if (entries_[i].pc == succ) {
                    entries_[i].mask |= mask;
                    merged = true;
                    break;
                }
            }
        }
        if (!merged)
            push(Entry{succ, e.rpc, mask});
        dropEmptyTop();
        return;
    }

    // Divergence: reconverge at the immediate post-dominator of the
    // branching block.
    const int ip = pd.ipdom(e.pc);
    const int rpc = ip == PostDominators::kVirtualExit ? kReconvergeAtExit
                                                       : ip;

    // Reconvergence entry (reuse the one below when it already targets
    // the same block, which happens for back-to-back divergence).
    long reconv = -1;
    if (rpc != kReconvergeAtExit) {
        for (long i = long(depth_) - 1; i >= 0; --i) {
            if (entries_[size_t(i)].pc == rpc) {
                reconv = i;
                break;
            }
        }
        if (reconv < 0) {
            push(Entry{rpc, e.rpc, 0});
            reconv = long(depth_) - 1;
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
            entries_[size_t(reconv)].mask |= mask;
        else
            push(Entry{succ, rpc, mask});
    }
    dropEmptyTop();
}

} // namespace vgiw
