/**
 * @file
 * The one bitmap helper shared across components: expanding a 64-bit
 * word of thread bits into ascending thread IDs. BitVector's drain and
 * the Control Vector Table's read-and-reset drain (Section 3.3) both
 * use it. Every other word loop lives beside its caller as a plain
 * scalar loop.
 */

#ifndef VGIW_COMMON_BITOPS_HH
#define VGIW_COMMON_BITOPS_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace vgiw
{
namespace bitops
{

/** Always "scalar": the bitmap loops have a single implementation. */
inline const char *
backendName()
{
    return "scalar";
}

/**
 * Write the bit indices of @p word (offset by @p base) to @p out in
 * ascending order; returns the number written (<= 64).
 */
inline size_t
expandWord(uint64_t word, uint32_t base, uint32_t *out)
{
    size_t n = 0;
    while (word) {
        out[n++] = base + uint32_t(std::countr_zero(word));
        word &= word - 1;
    }
    return n;
}

} // namespace bitops
} // namespace vgiw

#endif // VGIW_COMMON_BITOPS_HH
