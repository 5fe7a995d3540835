#ifndef SENTINEL_TESTS_ALLOCATION_PROBE_H_
#define SENTINEL_TESTS_ALLOCATION_PROBE_H_

#include <cstddef>

namespace sentinel {

/// Records the largest heap allocation this thread makes while in scope.
/// allocation_probe.cc replaces the global allocation functions to see them,
/// so only the fuzz binary links it (see tests/CMakeLists.txt).
class AllocationProbe {
 public:
  AllocationProbe();
  ~AllocationProbe();

  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;

  std::size_t largest() const;
};

}  // namespace sentinel

#endif  // SENTINEL_TESTS_ALLOCATION_PROBE_H_
