#include "alloc/alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<uint64_t> g_allocs{0};

} // namespace

// The default array and nothrow forms call these two.
void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vgiw::testing
{

uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace vgiw::testing
