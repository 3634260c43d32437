/**
 * @file
 * Process-wide heap accounting for the harness: replacement global
 * operator new/delete that tally every allocation. The simulator
 * library is linked unmodified; replacing the global allocation
 * functions in the executable is what makes its heap traffic visible.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

/** Counts folded in from threads that have exited. */
std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};

struct ThreadTally
{
    uint64_t count = 0;
    uint64_t bytes = 0;

    ThreadTally() = default;
    ThreadTally(const ThreadTally &) = delete;
    ThreadTally &operator=(const ThreadTally &) = delete;

    ~ThreadTally()
    {
        g_count.fetch_add(count, std::memory_order_relaxed);
        g_bytes.fetch_add(bytes, std::memory_order_relaxed);
        count = bytes = 0;
    }
};

thread_local ThreadTally t_tally;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    ++t_tally.count;
    t_tally.bytes += n;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n ? n : 1)
                  : std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

AllocSnapshot
allocSnapshot()
{
    AllocSnapshot s;
    s.count = g_count.load(std::memory_order_relaxed) + t_tally.count;
    s.bytes = g_bytes.load(std::memory_order_relaxed) + t_tally.bytes;
    return s;
}

} // namespace perfbench

void *
operator new(std::size_t n)
{
    return perfbench::countedAlloc(n, 0);
}

void *
operator new[](std::size_t n)
{
    return perfbench::countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return perfbench::countedAlloc(n, std::size_t(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return perfbench::countedAlloc(n, std::size_t(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
