/**
 * @file
 * A dynamic bit vector tuned for the Control Vector Table: 64-bit word
 * granularity, read-and-reset word access and OR-merge updates — exactly
 * the operations the CVT hardware provides (Section 3.3 of the paper).
 * Whole-vector operations are plain word-at-a-time loops.
 */

#ifndef VGIW_COMMON_BIT_VECTOR_HH
#define VGIW_COMMON_BIT_VECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace vgiw
{

/** A fixed-size vector of bits with 64-bit word access. */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct with all @p num_bits bits cleared. */
    explicit BitVector(size_t num_bits)
        : numBits_(num_bits), words_((num_bits + 63) / 64, 0)
    {}

    size_t size() const { return numBits_; }
    size_t numWords() const { return words_.size(); }

    bool
    test(size_t i) const
    {
        vgiw_assert(i < numBits_, "bit index ", i, " out of range");
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    void
    set(size_t i)
    {
        vgiw_assert(i < numBits_, "bit index ", i, " out of range");
        words_[i / 64] |= uint64_t{1} << (i % 64);
    }

    void
    clear(size_t i)
    {
        vgiw_assert(i < numBits_, "bit index ", i, " out of range");
        words_[i / 64] &= ~(uint64_t{1} << (i % 64));
    }

    /** Set every bit in [0, n). */
    void
    setFirstN(size_t n)
    {
        vgiw_assert(n <= numBits_, "range ", n, " out of bounds");
        for (size_t w = 0; w < n / 64; ++w)
            words_[w] = ~uint64_t{0};
        if (n % 64)
            words_[n / 64] |= (uint64_t{1} << (n % 64)) - 1;
    }

    void
    reset()
    {
        for (uint64_t &w : words_)
            w = 0;
    }

    /** Raw 64-bit word access (the CVT delivers 64-bit words). */
    uint64_t word(size_t w) const { return words_[w]; }

    /**
     * Read a word and clear it, modelling the CVT's read-and-reset port
     * (used to avoid a second write port, Section 3.3).
     */
    uint64_t
    readAndResetWord(size_t w)
    {
        uint64_t v = words_[w];
        words_[w] = 0;
        return v;
    }

    /** OR a word in, modelling the CVT's merge of resolved branches. */
    void orWord(size_t w, uint64_t bits) { words_[w] |= bits; }

    /** Number of set bits. */
    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : words_)
            n += size_t(std::popcount(w));
        return n;
    }

    bool
    any() const
    {
        for (uint64_t w : words_)
            if (w)
                return true;
        return false;
    }

    bool none() const { return !any(); }

    /**
     * Read-and-reset every word, writing the set bits' indices to @p out
     * (capacity >= numWords() * 64) in ascending order; returns the
     * count. Models the CVT's read-and-reset port applied to a whole
     * control vector.
     */
    size_t
    drainToIndices(uint32_t *out)
    {
        size_t n = 0;
        for (size_t w = 0; w < words_.size(); ++w) {
            if (words_[w])
                n += bitops::expandWord(readAndResetWord(w),
                                        uint32_t(w * 64), out + n);
        }
        return n;
    }

    /** Collect the indices of all set bits in ascending order. */
    std::vector<uint32_t>
    toIndices() const
    {
        std::vector<uint32_t> out;
        out.reserve(count());
        for (size_t w = 0; w < words_.size(); ++w) {
            uint32_t buf[64];
            const size_t n =
                bitops::expandWord(words_[w], uint32_t(w * 64), buf);
            out.insert(out.end(), buf, buf + n);
        }
        return out;
    }

  private:
    size_t numBits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace vgiw

#endif // VGIW_COMMON_BIT_VECTOR_HH
