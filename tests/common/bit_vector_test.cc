#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/bit_vector.hh"
#include "common/bitops.hh"

namespace vgiw
{
namespace
{

TEST(BitVector, StartsEmpty)
{
    BitVector bv(130);
    EXPECT_EQ(bv.size(), 130u);
    EXPECT_EQ(bv.count(), 0u);
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, SetTestClear)
{
    BitVector bv(100);
    bv.set(0);
    bv.set(63);
    bv.set(64);
    bv.set(99);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(99));
    EXPECT_FALSE(bv.test(1));
    EXPECT_EQ(bv.count(), 4u);
    bv.clear(63);
    EXPECT_FALSE(bv.test(63));
    EXPECT_EQ(bv.count(), 3u);
}

TEST(BitVector, SetFirstN)
{
    BitVector bv(200);
    bv.setFirstN(130);
    EXPECT_EQ(bv.count(), 130u);
    EXPECT_TRUE(bv.test(129));
    EXPECT_FALSE(bv.test(130));

    BitVector exact(128);
    exact.setFirstN(128);
    EXPECT_EQ(exact.count(), 128u);
}

TEST(BitVector, ReadAndResetWordModelsCvtPort)
{
    BitVector bv(128);
    bv.set(1);
    bv.set(65);
    EXPECT_EQ(bv.readAndResetWord(0), uint64_t{1} << 1);
    EXPECT_EQ(bv.word(0), 0u);
    EXPECT_TRUE(bv.test(65));  // other words untouched
}

TEST(BitVector, OrWordMergesResolvedBranches)
{
    BitVector bv(64);
    bv.orWord(0, 0b1010);
    bv.orWord(0, 0b0110);
    EXPECT_EQ(bv.word(0), 0b1110u);
}

TEST(BitVector, ToIndicesAscending)
{
    BitVector bv(256);
    bv.set(5);
    bv.set(64);
    bv.set(255);
    auto idx = bv.toIndices();
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 5u);
    EXPECT_EQ(idx[1], 64u);
    EXPECT_EQ(idx[2], 255u);
}

// Oracle checks: every whole-vector word loop against a per-bit
// reference built from test()/set(), over uneven word counts (tail
// phases, the empty vector, longer runs) and random word patterns.

/** Word patterns that exercise boundary behaviour, not just uniform
 * noise: empty, full, single bits at the edges, sparse, dense. */
uint64_t
randomWord(std::mt19937_64 &rng)
{
    switch (rng() % 6) {
    case 0: return 0;
    case 1: return ~uint64_t{0};
    case 2: return uint64_t{1} << (rng() % 64);
    case 3: return rng() & rng() & rng();  // sparse
    case 4: return rng() | rng();          // dense
    default: return rng();
    }
}

/** A vector of @p words full words filled with random patterns. */
BitVector
randomVector(std::mt19937_64 &rng, size_t words)
{
    BitVector bv(words * 64);
    for (size_t w = 0; w < words; ++w)
        bv.orWord(w, randomWord(rng));
    return bv;
}

/** The per-bit reference: indices of set bits, ascending. */
std::vector<uint32_t>
setBits(const BitVector &bv)
{
    std::vector<uint32_t> out;
    for (size_t i = 0; i < bv.size(); ++i)
        if (bv.test(i))
            out.push_back(uint32_t(i));
    return out;
}

constexpr size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33};
constexpr int kRounds = 64;

TEST(BitVector, SetFirstNMatchesPerBitOracle)
{
    std::mt19937_64 rng(4);
    for (size_t words : kWordCounts) {
        // Every tail phase 0..63 plus full words, ORed over noise.
        for (size_t n = 0; n <= words * 64; n += 7) {
            BitVector bv = randomVector(rng, words);
            std::vector<bool> want(bv.size());
            for (size_t i = 0; i < bv.size(); ++i)
                want[i] = i < n || bv.test(i);
            bv.setFirstN(n);
            for (size_t i = 0; i < bv.size(); ++i)
                ASSERT_EQ(bv.test(i), want[i])
                    << "words=" << words << " n=" << n << " bit=" << i;
        }
    }
}

TEST(BitVector, DrainToIndicesIsCollectThenClear)
{
    std::mt19937_64 rng(6);
    for (size_t words : kWordCounts) {
        for (int r = 0; r < kRounds; ++r) {
            BitVector bv = randomVector(rng, words);
            const std::vector<uint32_t> want = setBits(bv);
            std::vector<uint32_t> out(words * 64 + 1);
            const size_t n = bv.drainToIndices(out.data());
            out.resize(n);
            EXPECT_EQ(out, want) << "words=" << words;
            // Read-and-reset: every word is clear afterwards.
            for (size_t w = 0; w < words; ++w)
                EXPECT_EQ(bv.word(w), 0u);
        }
    }
}

TEST(BitVector, CountAnyMatchPerBitOracle)
{
    std::mt19937_64 rng(2);
    for (size_t words : kWordCounts) {
        for (int r = 0; r < kRounds; ++r) {
            const BitVector bv = randomVector(rng, words);
            const size_t want = setBits(bv).size();
            EXPECT_EQ(bv.count(), want) << "words=" << words;
            EXPECT_EQ(bv.any(), want > 0) << "words=" << words;
            EXPECT_EQ(bv.toIndices(), setBits(bv));
        }
    }
}

TEST(BitVector, ExpandWordMatchesPerBitOracle)
{
    std::mt19937_64 rng(5);
    for (int r = 0; r < kRounds * 8; ++r) {
        const uint64_t w = randomWord(rng);
        const uint32_t base = uint32_t(rng() % 100000) * 64;
        std::vector<uint32_t> want;
        for (uint32_t b = 0; b < 64; ++b)
            if ((w >> b) & 1)
                want.push_back(base + b);
        std::vector<uint32_t> got(64);
        got.resize(bitops::expandWord(w, base, got.data()));
        EXPECT_EQ(got, want);
    }
}

} // namespace
} // namespace vgiw
