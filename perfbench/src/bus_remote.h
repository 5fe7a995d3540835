#ifndef PERFBENCH_BUS_REMOTE_H_
#define PERFBENCH_BUS_REMOTE_H_

#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench::bus {

/// Checks the subscriber's view of the published stream: every event is
/// delivered once, and each subscribed event's deliveries arrive in
/// publish order. Not thread-safe; the subscriber's push thread owns it.
class DeliveryChecker {
 public:
  explicit DeliveryChecker(std::size_t events) : last_seq_(events, 0) {}

  /// Records the delivery of publish number `seq` (1-based) of `event`.
  void OnDelivery(std::size_t event, std::uint64_t seq);

  std::uint64_t delivered() const { return delivered_; }

  /// Adds failed ops and Problems for `published` events: lost, duplicated
  /// or reordered deliveries.
  void Finish(std::uint64_t published, Result* result) const;

 private:
  std::vector<std::uint64_t> last_seq_;
  std::vector<bool> seen_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t unknown_ = 0;
};

}  // namespace perfbench::bus

#endif  // PERFBENCH_BUS_REMOTE_H_
