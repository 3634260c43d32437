/**
 * @file
 * The Live Value Cache (Section 3.4).
 *
 * Live values are mapped to memory as a two-dimensional array indexed by
 * <live value ID (row), thread ID (column)>; the LVC is a 64 KB banked
 * cache over that array, accessed at word granularity and backed by the
 * L2 (which allows spilling when the LVC is contended — generally
 * prevented by thread tiling).
 */

#ifndef VGIW_VGIW_LIVE_VALUE_CACHE_HH
#define VGIW_VGIW_LIVE_VALUE_CACHE_HH

#include <cstdint>

#include "mem/cache.hh"
#include "mem/memory_system.hh"

namespace vgiw
{

/** Default LVC geometry: 64 KB, 4x smaller than the Fermi RF. */
CacheGeometry lvcGeometry(uint32_t size_bytes = 64 * 1024);

/** The live-value cache of one VGIW core. */
class LiveValueCache
{
  public:
    /**
     * @param geom cache geometry (64 KB by default)
     * @param ms the memory system whose L2 backs the LVC
     * @param max_threads row pitch of the live-value matrix
     * @param hit_latency LVU-visible latency of an LVC hit
     */
    LiveValueCache(const CacheGeometry &geom, MemorySystem &ms,
                   uint32_t max_threads, uint32_t hit_latency = 6);

    struct Result
    {
        bool hit = false;
        uint32_t latency = 0;
    };

    /**
     * Access live value @p lvid of thread @p tid. Inline: this sits on
     * the per-thread-per-live-value replay path (tens of millions of
     * calls per sweep) and is a thin wrapper over Cache::access.
     */
    Result
    access(uint16_t lvid, uint32_t tid, bool is_write)
    {
        const uint32_t addr = addressOf(lvid, tid);
        Cache::Result r = cache_.access(addr, is_write);

        Result out;
        out.hit = r.hit;
        out.latency = hitLatency_;

        if (r.writeback)
            ms_.accessL2Direct(addr, true);
        if (r.fill)
            out.latency += ms_.accessL2Direct(addr, false).latency;
        return out;
    }

    /** Word hits and misses; accesses() is the Fig. 3 numerator. */
    const CacheStats &stats() const { return cache_.stats(); }
    uint32_t bankOf(uint16_t lvid, uint32_t tid) const;

  private:
    /**
     * Row-major by live value ID: consecutive threads' instances of one
     * live value are contiguous, so a thread vector streams each live
     * value with full spatial locality.
     */
    uint32_t
    addressOf(uint16_t lvid, uint32_t tid) const
    {
        return kRegionBase + (uint32_t(lvid) * maxThreads_ + tid) * 4;
    }

    Cache cache_;
    MemorySystem &ms_;
    uint32_t maxThreads_;
    uint32_t hitLatency_;

    /**
     * The live-value matrix lives in a dedicated memory region above the
     * workload heap so LVC spills contend with (but never alias) kernel
     * data in the L2.
     */
    static constexpr uint32_t kRegionBase = 0x8000'0000u;
};

} // namespace vgiw

#endif // VGIW_VGIW_LIVE_VALUE_CACHE_HH
