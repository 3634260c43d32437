/**
 * @file
 * A flat, word-addressed global-memory image used by the functional
 * executor and the workload generators. Provides a bump allocator so a
 * workload can lay out its buffers and pass base addresses as kernel
 * parameters, exactly as a CUDA host program would after cudaMalloc.
 * The image starts empty and grows with each allocation, so it is
 * exactly as large as the buffers laid out in it and a load or store
 * past the last buffer traps.
 */

#ifndef VGIW_INTERP_MEMORY_IMAGE_HH
#define VGIW_INTERP_MEMORY_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/scalar.hh"

namespace vgiw
{

/** Byte-addressed (word-aligned) global memory. */
class MemoryImage
{
  public:
    /** The allocated extent: the aligned end of the last allocation. */
    uint32_t sizeBytes() const { return uint32_t(words_.size()) * 4; }

    /**
     * Allocate @p num_words zeroed 32-bit words, aligned to a 128-byte
     * cache line (matching cudaMalloc's alignment guarantees that the
     * benchmarks' coalescing behaviour depends on), and grow the image
     * to the next line boundary past them. Returns the byte address of
     * the allocation.
     */
    uint32_t
    allocWords(uint32_t num_words)
    {
        // Buffers start past the first line: address 0 never names one.
        const uint64_t addr = std::max<uint64_t>(sizeBytes(), kLineBytes);
        const uint64_t end = (addr + uint64_t(num_words) * 4 +
                              kLineBytes - 1) & ~uint64_t(kLineBytes - 1);
        vgiw_assert(end <= UINT32_MAX, "memory image overflows 32-bit "
                    "addresses allocating ", num_words, " words");
        words_.resize(end / 4, 0);
        return uint32_t(addr);
    }

    uint32_t
    loadWord(uint32_t byte_addr) const
    {
        vgiw_assert((byte_addr & 3) == 0, "unaligned load @", byte_addr);
        vgiw_assert(byte_addr < sizeBytes(), "load out of range @",
                    byte_addr);
        return words_[byte_addr / 4];
    }

    void
    storeWord(uint32_t byte_addr, uint32_t value)
    {
        vgiw_assert((byte_addr & 3) == 0, "unaligned store @", byte_addr);
        vgiw_assert(byte_addr < sizeBytes(), "store out of range @",
                    byte_addr);
        words_[byte_addr / 4] = value;
    }

    // Typed element helpers: element @p idx of the array at @p base.
    float
    loadF32(uint32_t base, uint32_t idx) const
    {
        return Scalar(loadWord(base + idx * 4)).asF32();
    }

    int32_t
    loadI32(uint32_t base, uint32_t idx) const
    {
        return Scalar(loadWord(base + idx * 4)).asI32();
    }

    uint32_t
    loadU32(uint32_t base, uint32_t idx) const
    {
        return loadWord(base + idx * 4);
    }

    void
    storeF32(uint32_t base, uint32_t idx, float v)
    {
        storeWord(base + idx * 4, Scalar::fromF32(v).bits);
    }

    void
    storeI32(uint32_t base, uint32_t idx, int32_t v)
    {
        storeWord(base + idx * 4, Scalar::fromI32(v).bits);
    }

    void
    storeU32(uint32_t base, uint32_t idx, uint32_t v)
    {
        storeWord(base + idx * 4, v);
    }

  private:
    static constexpr uint32_t kLineBytes = 128;

    std::vector<uint32_t> words_;
};

} // namespace vgiw

#endif // VGIW_INTERP_MEMORY_IMAGE_HH
