// Global allocation functions that let AllocationProbe see every heap
// allocation its thread makes: how many, their total size and the largest.

#include "allocation_probe.h"

#include <cstdlib>
#include <new>

namespace {

// What this thread allocated while tracking is on.
thread_local bool g_tracking = false;
thread_local std::size_t g_largest = 0;
thread_local std::size_t g_count = 0;
thread_local std::size_t g_bytes = 0;

void* Allocate(std::size_t n) {
  if (g_tracking) {
    if (n > g_largest) g_largest = n;
    ++g_count;
    g_bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateOrThrow(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return AllocateOrThrow(n); }
void* operator new[](std::size_t n) { return AllocateOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sentinel {

AllocationProbe::AllocationProbe() {
  g_largest = 0;
  g_count = 0;
  g_bytes = 0;
  g_tracking = true;
}

AllocationProbe::~AllocationProbe() { g_tracking = false; }

std::size_t AllocationProbe::largest() const { return g_largest; }
std::size_t AllocationProbe::count() const { return g_count; }
std::size_t AllocationProbe::bytes() const { return g_bytes; }

}  // namespace sentinel
