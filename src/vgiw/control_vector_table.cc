#include "vgiw/control_vector_table.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace vgiw
{

ControlVectorTable::ControlVectorTable(int num_blocks, int max_tile,
                                       int banks)
    : numBlocks_(num_blocks), banks_(banks),
      stride_(size_t(std::max(max_tile, 0) + 63) / 64)
{
    vgiw_assert(num_blocks > 0 && max_tile > 0, "bad CVT shape");
    words_.assign(size_t(num_blocks) * stride_, 0);
    drainBuf_.resize(stride_ * 64);
    reset(max_tile);
}

void
ControlVectorTable::reset(int tile_size)
{
    vgiw_assert(tile_size > 0 && size_t(tile_size) <= stride_ * 64,
                "tile of ", tile_size, " threads exceeds the CVT");
    std::fill(words_.begin(), words_.end(), 0);
    tileSize_ = tile_size;
    tileWords_ = size_t(tile_size + 63) / 64;
}

uint64_t *
ControlVectorTable::vector(int block)
{
    vgiw_assert(block >= 0 && block < numBlocks_, "bad block ", block);
    return words_.data() + size_t(block) * stride_;
}

const uint64_t *
ControlVectorTable::vector(int block) const
{
    vgiw_assert(block >= 0 && block < numBlocks_, "bad block ", block);
    return words_.data() + size_t(block) * stride_;
}

void
ControlVectorTable::seedEntry(int n)
{
    vgiw_assert(n >= 0 && n <= tileSize_, "range ", n, " out of bounds");
    uint64_t *v = vector(0);
    for (size_t w = 0; w < size_t(n) / 64; ++w)
        v[w] = ~uint64_t{0};
    if (n % 64)
        v[n / 64] |= (uint64_t{1} << (n % 64)) - 1;
    stats_.wordWrites += uint64_t(n + 63) / 64;
}

void
ControlVectorTable::set(int block, uint32_t tid)
{
    vgiw_assert(tid < uint32_t(tileSize_), "thread ", tid,
                " beyond tile");
    vector(block)[tid / 64] |= uint64_t{1} << (tid % 64);
    ++stats_.wordWrites;
}

void
ControlVectorTable::orBatch(int block, const ThreadBatch &batch)
{
    vgiw_assert(batch.base % 64 == 0, "unaligned batch");
    vgiw_assert(batch.base / 64 < tileWords_, "batch beyond tile");
    vector(block)[batch.base / 64] |= batch.bitmap;
    ++stats_.wordWrites;
}

int
ControlVectorTable::firstPendingBlock() const
{
    for (int b = 0; b < numBlocks_; ++b) {
        const uint64_t *v = vector(b);
        for (size_t w = 0; w < tileWords_; ++w)
            if (v[w])
                return b;
    }
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
    const uint64_t *v = vector(block);
    size_t n = 0;
    for (size_t w = 0; w < tileWords_; ++w)
        n += size_t(std::popcount(v[w]));
    return n;
}

std::span<const uint32_t>
ControlVectorTable::drain(int block)
{
    uint64_t *v = vector(block);
    size_t n = 0;
    for (size_t w = 0; w < tileWords_; ++w) {
        if (v[w]) {
            n += bitops::expandWord(v[w], uint32_t(w * 64),
                                    drainBuf_.data() + n);
            v[w] = 0;
        }
    }
    stats_.wordReads += tileWords_;
    return {drainBuf_.data(), n};
}

} // namespace vgiw
