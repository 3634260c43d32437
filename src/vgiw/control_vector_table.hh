/**
 * @file
 * The Control Vector Table (Section 3.3): one bit vector per basic block,
 * indexed by thread ID within the current tile. A set bit means the
 * thread's control flow has reached that block. The structure delivers
 * 64-bit words, uses a read-and-reset read port (to avoid a second write
 * port) and ORs in resolved-branch bitmaps from the terminator CVUs. It
 * is partitioned into 8 banks so replicated graphs can update it in
 * parallel.
 *
 * The table is sized once for the largest tile of a launch and reset
 * for each tile: every block's vector is a fixed stretch of one flat
 * word array, and a tile uses the first ceil(tile/64) words of each.
 */

#ifndef VGIW_VGIW_CONTROL_VECTOR_TABLE_HH
#define VGIW_VGIW_CONTROL_VECTOR_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace vgiw
{

/**
 * One <base, bitmap> thread batch packet (Section 3.2): the BBS and the
 * CVUs exchange threads as a base thread ID plus a 64-bit bitmap over
 * the 64 consecutive thread IDs from the base. Batches are 64-aligned,
 * so a batch ORs into exactly one CVT word.
 */
struct ThreadBatch
{
    uint32_t base = 0;  ///< first thread ID covered (64-aligned)
    uint64_t bitmap = 0;
};

/** Access counters for CVT energy/bandwidth accounting. */
struct CvtStats
{
    uint64_t wordReads = 0;   ///< read-and-reset word operations
    uint64_t wordWrites = 0;  ///< OR-merge word operations
    uint64_t accesses() const { return wordReads + wordWrites; }
};

/** Control vector table for tiles of up to a fixed number of threads. */
class ControlVectorTable
{
  public:
    /** A table for tiles of up to @p max_tile threads, holding one
     * empty tile of that size. */
    ControlVectorTable(int num_blocks, int max_tile, int banks = 8);

    int numBlocks() const { return numBlocks_; }
    int tileSize() const { return tileSize_; }
    int banks() const { return banks_; }

    /**
     * Start a tile of @p tile_size threads (at most the constructor's
     * max_tile) with every vector empty. Word counters keep running
     * across tiles.
     */
    void reset(int tile_size);

    /** Seed the entry vector: threads [0, n) pend on block 0. */
    void seedEntry(int n);

    /** Register a single thread for @p block (non-batch path). */
    void set(int block, uint32_t tid);

    /** OR a terminator CVU batch into @p block's vector. */
    void orBatch(int block, const ThreadBatch &batch);

    /**
     * Smallest block ID with a non-empty vector, or -1. This is the
     * entire hardware scheduling policy (Section 3.1): compiler block
     * numbering guarantees control dependencies are respected.
     */
    int firstPendingBlock() const;

    bool anyPending() const;

    /** Threads pending on @p block. */
    size_t pendingCount(int block) const;

    /**
     * Read-and-reset @p block's vector, returning the pending thread IDs
     * in ascending order. Counts one word read per word of the tile.
     * The view is into the table's own buffer and holds until the next
     * drain.
     */
    std::span<const uint32_t> drain(int block);

    const CvtStats &stats() const { return stats_; }

  private:
    uint64_t *vector(int block);
    const uint64_t *vector(int block) const;

    int numBlocks_;
    int banks_;
    int tileSize_ = 0;
    size_t tileWords_ = 0;  ///< words of each vector the tile uses
    size_t stride_;         ///< words between consecutive vectors
    std::vector<uint64_t> words_;
    std::vector<uint32_t> drainBuf_;
    CvtStats stats_;
};

} // namespace vgiw

#endif // VGIW_VGIW_CONTROL_VECTOR_TABLE_HH
