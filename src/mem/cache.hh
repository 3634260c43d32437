/**
 * @file
 * A banked, set-associative, LRU cache model.
 *
 * Both processors in the study use the same cache structures with
 * different policies: the VGIW L1 is write-back / write-allocate while the
 * Fermi L1 is write-through / write-no-allocate (Section 3.6 / Table 1).
 * The model is functional at tag granularity — it tracks hits, misses,
 * fills and write-backs — and leaves latency composition to MemorySystem.
 */

#ifndef VGIW_MEM_CACHE_HH
#define VGIW_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace vgiw
{

enum class WritePolicy : uint8_t { WriteBack, WriteThrough };
enum class AllocPolicy : uint8_t { WriteAllocate, WriteNoAllocate };

/** Static geometry and policy of one cache level. */
struct CacheGeometry
{
    uint32_t sizeBytes = 0;
    uint32_t lineBytes = 128;
    uint32_t ways = 4;
    uint32_t banks = 1;
    WritePolicy writePolicy = WritePolicy::WriteBack;
    AllocPolicy allocPolicy = AllocPolicy::WriteAllocate;

    uint32_t
    numSets() const
    {
        return sizeBytes / (lineBytes * ways);
    }
};

/** Hit/miss/traffic counters for one cache. */
struct CacheStats
{
    uint64_t readHits = 0;
    uint64_t readMisses = 0;
    uint64_t writeHits = 0;
    uint64_t writeMisses = 0;
    uint64_t fills = 0;        ///< lines brought in from the next level
    uint64_t writebacks = 0;   ///< dirty lines evicted to the next level
    uint64_t writethroughs = 0;///< writes forwarded by a WT cache

    uint64_t accesses() const
    { return readHits + readMisses + writeHits + writeMisses; }
    uint64_t misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        const uint64_t a = accesses();
        return a ? double(misses()) / double(a) : 0.0;
    }
};

/** One level of cache. */
class Cache
{
  public:
    /** Outcome of a single access. */
    struct Result
    {
        bool hit = false;
        /** The access must fetch a line from the next level. */
        bool fill = false;
        /** A dirty victim must be written to the next level. */
        bool writeback = false;
        /** The write must be forwarded to the next level (WT or no-alloc
         * write miss). */
        bool forwardWrite = false;
    };

    Cache(std::string name, const CacheGeometry &geom);

    /**
     * Perform one word access at byte address @p addr.
     *
     * Defined inline: this is the single hottest leaf of timing replay
     * (tens of millions of calls per suite sweep), and set/tag indexing
     * uses geometry precomputed at construction instead of re-deriving
     * the set count (a division) on every access.
     */
    Result
    access(uint32_t addr, bool is_write)
    {
        ++tick_;
        const uint32_t line_addr = addr >> lineShift_;
        uint32_t set, tag;
        if (setShift_ >= 0) {
            set = line_addr & (numSets_ - 1);
            tag = line_addr >> setShift_;
        } else {
            set = line_addr % numSets_;
            tag = line_addr / numSets_;
        }
        Line *base = &lines_[size_t(set) * geom_.ways];

        Result res;

        // Probe.
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            Line &ln = base[w];
            if (ln.valid && ln.tag == tag) {
                ln.lastUse = tick_;
                res.hit = true;
                if (is_write) {
                    ++stats_.writeHits;
                    if (geom_.writePolicy == WritePolicy::WriteBack) {
                        ln.dirty = true;
                    } else {
                        // Write-through: update line, forward the word.
                        ++stats_.writethroughs;
                        res.forwardWrite = true;
                    }
                } else {
                    ++stats_.readHits;
                }
                return res;
            }
        }
        return accessMiss(base, tag, is_write);
    }

    /** Bank serving @p addr; lines are interleaved across banks. */
    uint32_t
    bankOf(uint32_t addr) const
    {
        return (addr >> lineShift_) % geom_.banks;
    }

    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Drop all contents and zero the statistics. */
    void reset();

  private:
    struct Line
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;
    };

    /** Miss path: victim selection, writeback, fill. */
    Result accessMiss(Line *base, uint32_t tag, bool is_write);

    std::string name_;
    CacheGeometry geom_;
    std::vector<Line> lines_;  // numSets * ways, way-major within a set
    CacheStats stats_;
    uint64_t tick_ = 0;
    uint32_t numSets_ = 1;
    uint32_t lineShift_ = 7;   ///< log2(lineBytes); lineBytes is pow2
    int32_t setShift_ = -1;    ///< log2(numSets) if pow2, else -1
};

} // namespace vgiw

#endif // VGIW_MEM_CACHE_HH
