/**
 * @file
 * The word-granularity LDST path that VGIW, SGMF and DICE share: one
 * word per thread, no inter-thread coalescer (Section 5). Global words
 * go through the Table 1 hierarchy and queue on the 32-bank L1, shared
 * words on the 32-bank scratchpad, and miss latency hides behind a
 * window of outstanding misses. Header-only so the per-access call
 * inlines into each replay loop.
 */

#ifndef VGIW_MEM_LDST_PATH_HH
#define VGIW_MEM_LDST_PATH_HH

#include <algorithm>
#include <cstdint>

#include "mem/bank_merge.hh"
#include "mem/memory_system.hh"

namespace vgiw
{

class LdstPath
{
  public:
    static constexpr uint32_t kSharedBanks = 32;

    explicit LdstPath(uint32_t miss_window)
        : ms_(vgiwL1Geometry()), l1Banks_(ms_.l1().geometry().banks),
          sharedBanks_(kSharedBanks), missWindow_(miss_window)
    {}

    /** The hierarchy (VGIW's LVC is backed by its L2). */
    MemorySystem &memory() { return ms_; }

    /** Restart the bank queues and the miss latency, not the caches. */
    void
    beginVector()
    {
        l1Banks_.reset();
        sharedBanks_.reset();
        missLatency_ = 0;
    }

    void
    access(uint32_t addr, bool is_store, bool is_shared)
    {
        if (is_shared) {
            sharedBanks_.access((addr / 4) % kSharedBanks, addr / 4);
            ++sharedWords_;
            return;
        }
        const MemAccessResult r = ms_.access(addr, is_store);
        l1Banks_.access(ms_.l1().bankOf(addr), addr / 128);
        if (r.servicedBy != MemLevel::L1)
            missLatency_ += r.latency;
    }

    /** Latency of a miss outside the L1 (VGIW's LVC). */
    void addMissLatency(uint64_t c) { missLatency_ += c; }

    /** The vector's cycles: @p issue, the busiest L1 bank, the busiest
     * scratchpad bank or its miss latency over the window. */
    uint64_t
    cycles(uint64_t issue) const
    {
        return std::max({issue, l1Banks_.maxCycles(),
                         sharedBanks_.maxCycles(),
                         missLatency_ / missWindow_});
    }

    /** Scratchpad words since construction. */
    uint64_t sharedWords() const { return sharedWords_; }

  private:
    MemorySystem ms_;
    BankMergeModel l1Banks_;
    BankMergeModel sharedBanks_;
    uint32_t missWindow_;
    uint64_t missLatency_ = 0;
    uint64_t sharedWords_ = 0;
};

} // namespace vgiw

#endif // VGIW_MEM_LDST_PATH_HH
