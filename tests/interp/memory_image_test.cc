/**
 * @file
 * MemoryImage tests: an image starts empty and is exactly as large as
 * the buffers laid out in it — fresh words read zero, allocations are
 * line aligned, the extent ends at the last allocation's aligned end
 * and any access past it traps — copies are independent, and the
 * packaged workloads stay small enough that a fixed-capacity default
 * cannot creep back.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/sim_error.hh"
#include "interp/memory_image.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

TEST(MemoryImage, FreshWordsReadZero)
{
    MemoryImage mem;
    const uint32_t a = mem.allocWords(40);
    mem.storeU32(a, 39, 0xdeadbeef);
    const uint32_t b = mem.allocWords(40);
    for (uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(mem.loadU32(b, i), 0u) << i;
    for (uint32_t i = 0; i < 39; ++i)
        EXPECT_EQ(mem.loadU32(a, i), 0u) << i;
    EXPECT_EQ(mem.loadU32(a, 39), 0xdeadbeefu);
}

TEST(MemoryImage, AllocationsAreLineAlignedAndDistinct)
{
    MemoryImage mem;
    uint32_t prev_end = 0;
    for (uint32_t words : {3u, 1u, 32u, 33u, 0u, 1000u}) {
        const uint32_t a = mem.allocWords(words);
        EXPECT_EQ(a % 128, 0u) << words;
        EXPECT_GE(a, prev_end) << words;
        EXPECT_GT(a, 0u) << "address 0 must never name a buffer";
        prev_end = a + words * 4;
    }
}

TEST(MemoryImage, SizeIsAlignedEndOfLastAllocation)
{
    MemoryImage mem;
    EXPECT_EQ(mem.sizeBytes(), 0u);
    const uint32_t a = mem.allocWords(3);
    EXPECT_EQ(mem.sizeBytes(), a + 128);
    const uint32_t b = mem.allocWords(33);  // 132 bytes: two lines
    EXPECT_EQ(b, a + 128);
    EXPECT_EQ(mem.sizeBytes(), b + 256);
    const uint32_t c = mem.allocWords(32);  // exactly one line
    EXPECT_EQ(c, mem.sizeBytes() - 128);
}

TEST(MemoryImage, AccessPastTheEndPanics)
{
    MemoryImage mem;
    const uint32_t a = mem.allocWords(32);
    const uint32_t end = mem.sizeBytes();
    ASSERT_EQ(end, a + 128);

    PanicCaptureScope capture;
    EXPECT_NO_THROW(mem.loadWord(end - 4));
    EXPECT_NO_THROW(mem.storeWord(end - 4, 1));
    EXPECT_THROW(mem.loadWord(end), SimPanic);
    EXPECT_THROW(mem.storeWord(end, 1), SimPanic);
    EXPECT_THROW(mem.loadU32(a, 32), SimPanic);
    EXPECT_THROW(MemoryImage{}.loadWord(0), SimPanic);
}

TEST(MemoryImage, AddressOverflowPanics)
{
    MemoryImage mem;
    mem.allocWords(16);
    PanicCaptureScope capture;
    EXPECT_THROW(mem.allocWords(1u << 30), SimPanic);
}

TEST(MemoryImage, CopiesAreIndependent)
{
    MemoryImage a;
    const uint32_t buf = a.allocWords(8);
    a.storeI32(buf, 0, 7);

    MemoryImage b = a;
    b.storeI32(buf, 0, 9);
    b.storeI32(buf, 1, 5);
    b.allocWords(64);
    EXPECT_EQ(a.loadI32(buf, 0), 7);
    EXPECT_EQ(a.loadI32(buf, 1), 0);
    EXPECT_EQ(b.loadI32(buf, 0), 9);
    EXPECT_LT(a.sizeBytes(), b.sizeBytes());
}

TEST(MemoryImage, WorkloadRegistryImagesStayUnder8MB)
{
    // The 21 Table 2 workloads lay out about 4.6 MB between them. A
    // fixed per-image capacity would multiply that many times over.
    uint64_t total = 0;
    for (const auto &entry : workloadRegistry())
        total += entry.make().memory.sizeBytes();
    EXPECT_GT(total, 0u);
    EXPECT_LE(total, uint64_t(8) << 20);
}

} // namespace
} // namespace vgiw
