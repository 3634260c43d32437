/**
 * @file
 * The per-warp SIMT reconvergence stack of the von Neumann GPGPU
 * baseline. Diverging warps push one entry per branch outcome and
 * reconverge at the immediate post-dominator of the divergent block —
 * the classic execution-mask scheme whose cost Figure 1b illustrates.
 *
 * Like the hardware structure, a stack has a fixed capacity and lives
 * in storage it does not own (one buffer per replay, a fixed stretch
 * per warp). After every advance() a stack of a kernel with B blocks
 * holds at most 32 + B entries:
 *  - at most 32 non-empty entries, since each live lane sits in exactly
 *    one entry's mask;
 *  - every empty entry is a reconvergence point pushed at a divergence,
 *    and a divergence reuses any entry already at that pc, so no two
 *    empty entries share a pc.
 * capacityFor() adds one entry of headroom. A push past the capacity is
 * an internal SimError naming the kernel, never a truncation.
 */

#ifndef VGIW_SIMT_SIMT_STACK_HH
#define VGIW_SIMT_SIMT_STACK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "ir/post_dominators.hh"

namespace vgiw
{

/** Reconvergence stack of one warp (32 lanes). */
class SimtStack
{
  public:
    /** rpc sentinel: reconvergence only at thread exit. */
    static constexpr int kReconvergeAtExit =
        std::numeric_limits<int>::max();

    /** Lane successor meaning "lane was inactive". */
    static constexpr int kLaneInactive = -2;
    /** Lane successor meaning "thread exited". */
    static constexpr int kLaneExit = -1;

    struct Entry
    {
        int pc;
        int rpc;
        uint32_t mask;
    };

    /** Entries one warp's stack needs for a kernel of @p num_blocks
     * blocks (see the file comment). */
    static size_t
    capacityFor(int num_blocks)
    {
        return 32 + size_t(num_blocks) + 1;
    }

    SimtStack() = default;

    /**
     * An empty stack over @p storage, which must outlive it. @p kernel
     * names the kernel in the overflow error.
     */
    SimtStack(std::span<Entry> storage, std::string_view kernel)
        : entries_(storage), kernel_(kernel)
    {
    }

    /** Start a warp at @p entry_block with @p initial_mask (empty when
     * the mask is 0). */
    void reset(uint32_t initial_mask, int entry_block);

    bool done() const { return depth_ == 0; }

    /** Block the warp executes next. */
    int currentBlock() const { return entries_[depth_ - 1].pc; }

    /** Execution mask for the current block. */
    uint32_t activeMask() const { return entries_[depth_ - 1].mask; }

    /** Number of active lanes. */
    int activeLanes() const
    { return __builtin_popcount(activeMask()); }

    /**
     * Advance after executing the current block: @p lane_succ gives each
     * lane's next block (kLaneExit when the thread retired, kLaneInactive
     * for masked-off lanes). Divergent outcomes push per-target entries
     * that reconverge at ipdom(current block).
     */
    void advance(const std::array<int, 32> &lane_succ,
                 const PostDominators &pd);

    /** Depth of the stack (for tests/stats). */
    size_t depth() const { return depth_; }

  private:
    void push(const Entry &e);
    void dropEmptyTop();

    std::span<Entry> entries_;
    size_t depth_ = 0;
    std::string_view kernel_;
};

} // namespace vgiw

#endif // VGIW_SIMT_SIMT_STACK_HH
