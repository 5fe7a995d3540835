#ifndef SENTINEL_TESTS_ALLOCATION_PROBE_H_
#define SENTINEL_TESTS_ALLOCATION_PROBE_H_

#include <cstddef>

namespace sentinel {

/// Records the heap allocations this thread makes while in scope: how many,
/// their total size and the largest. allocation_probe.cc replaces the global
/// allocation functions to see them, so only the fuzz binary links it (see
/// tests/CMakeLists.txt).
class AllocationProbe {
 public:
  AllocationProbe();
  ~AllocationProbe();

  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;

  std::size_t largest() const;  // bytes of the largest allocation
  std::size_t count() const;    // allocation calls
  std::size_t bytes() const;    // bytes requested in total
};

}  // namespace sentinel

#endif  // SENTINEL_TESTS_ALLOCATION_PROBE_H_
