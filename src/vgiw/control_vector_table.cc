#include "vgiw/control_vector_table.hh"

#include "common/logging.hh"

namespace vgiw
{

ControlVectorTable::ControlVectorTable(int num_blocks, int tile_size,
                                       int banks)
    : tileSize_(tile_size), banks_(banks)
{
    vgiw_assert(num_blocks > 0 && tile_size > 0, "bad CVT shape");
    vectors_.reserve(size_t(num_blocks));
    for (int b = 0; b < num_blocks; ++b)
        vectors_.emplace_back(size_t(tile_size));
    drainBuf_.resize(size_t(tile_size + 63) / 64 * 64);
}

void
ControlVectorTable::seedEntry(int n)
{
    vectors_[0].setFirstN(size_t(n));
    stats_.wordWrites += uint64_t(n + 63) / 64;
}

void
ControlVectorTable::set(int block, uint32_t tid)
{
    vgiw_assert(block >= 0 && block < numBlocks(), "bad block ", block);
    vectors_[block].set(tid);
    ++stats_.wordWrites;
}

void
ControlVectorTable::orBatch(int block, const ThreadBatch &batch)
{
    vgiw_assert(block >= 0 && block < numBlocks(), "bad block ", block);
    vgiw_assert(batch.base % 64 == 0, "unaligned batch");
    vgiw_assert(batch.base / 64 < vectors_[block].numWords(),
                "batch beyond tile");
    vectors_[block].orWord(batch.base / 64, batch.bitmap);
    ++stats_.wordWrites;
}

int
ControlVectorTable::firstPendingBlock() const
{
    for (int b = 0; b < numBlocks(); ++b)
        if (vectors_[b].any())
            return b;
    return -1;
}

bool
ControlVectorTable::anyPending() const
{
    return firstPendingBlock() >= 0;
}

size_t
ControlVectorTable::pendingCount(int block) const
{
    return vectors_[block].count();
}

std::vector<uint32_t>
ControlVectorTable::drain(int block)
{
    std::vector<uint32_t> out;
    drainInto(block, out);
    return out;
}

void
ControlVectorTable::drainInto(int block, std::vector<uint32_t> &out)
{
    vgiw_assert(block >= 0 && block < numBlocks(), "bad block ", block);
    BitVector &v = vectors_[block];
    const size_t n = v.drainToIndices(drainBuf_.data());
    out.assign(drainBuf_.data(), drainBuf_.data() + n);
    stats_.wordReads += v.numWords();
}

} // namespace vgiw
