/** @file Counting replacements of the global operator new and delete. */

#include "obs/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
} // namespace

std::uint64_t
confsim::allocationCount()
{
    return g_allocation_count.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
