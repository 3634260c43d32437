/**
 * @file
 * LEB128 varints and zigzag mapping — the wire primitives of the
 * compressed trace codec (see trace.hh). Kept separate so the codec
 * tests can pin the byte-level encoding independently of the trace
 * format built on top of it.
 */

#ifndef VGIW_COMMON_VARINT_HH
#define VGIW_COMMON_VARINT_HH

#include <cstdint>
#include <vector>

namespace vgiw
{
namespace varint
{

/** Map a signed delta to an unsigned code (0,-1,1,-2,... -> 0,1,2,3). */
inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

inline int64_t
unzigzag(uint64_t u)
{
    return int64_t(u >> 1) ^ -int64_t(u & 1);
}

/** Append @p v as an LEB128 varint (7 payload bits per byte). */
inline void
append(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(uint8_t(v));
}

/** Write @p v as an LEB128 varint at @p p, which must have room for
 * it (at most 10 bytes); returns the byte past it. */
inline uint8_t *
put(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

/** Decode one varint at @p p, advancing it. No bounds checks: streams
 * are trusted (produced by the encoder in the same process). */
inline uint64_t
decode(const uint8_t *&p)
{
    uint64_t v = uint64_t(*p) & 0x7f;
    if (*p++ & 0x80) [[unlikely]] {
        unsigned shift = 7;
        do {
            v |= (uint64_t(*p) & 0x7f) << shift;
            shift += 7;
        } while (*p++ & 0x80);
    }
    return v;
}

} // namespace varint
} // namespace vgiw

#endif // VGIW_COMMON_VARINT_HH
