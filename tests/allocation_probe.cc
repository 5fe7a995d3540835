// Global allocation functions that let AllocationProbe see the size of
// every heap allocation its thread makes.

#include "allocation_probe.h"

#include <cstdlib>
#include <new>

namespace {

// Largest single heap allocation this thread made while tracking is on.
thread_local bool g_tracking = false;
thread_local std::size_t g_largest = 0;

void* Allocate(std::size_t n) {
  if (g_tracking && n > g_largest) g_largest = n;
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
  g_tracking = true;
}

AllocationProbe::~AllocationProbe() { g_tracking = false; }

std::size_t AllocationProbe::largest() const { return g_largest; }

}  // namespace sentinel
