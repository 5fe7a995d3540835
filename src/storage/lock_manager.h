#ifndef SENTINEL_STORAGE_LOCK_MANAGER_H_
#define SENTINEL_STORAGE_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/log_record.h"

namespace sentinel::storage {

enum class LockMode : std::uint8_t { kShared = 0, kExclusive = 1 };

/// Lockable resource name. Sentinel locks records ("rid:<page>:<slot>"),
/// whole files ("file:<name>") and named objects ("oid:<n>") through the same
/// table.
using LockKey = std::string;

/// Strict two-phase-locking lock table for top-level transactions (the role
/// Exodus played for Sentinel). Shared/exclusive modes with upgrade,
/// waits-for-graph deadlock detection (the youngest transaction in the cycle
/// is the victim) and an optional wait timeout.
class LockManager {
 public:
  struct Options {
    std::chrono::milliseconds timeout{2000};
  };

  LockManager() : LockManager(Options{}) {}
  explicit LockManager(Options options) : options_(options) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `key` for `txn`. Blocks until granted; returns
  /// kDeadlock if this transaction was chosen as a deadlock victim, or
  /// kLockTimeout after Options::timeout.
  Status Acquire(TxnId txn, const LockKey& key, LockMode mode);

  /// Releases all locks held by `txn` (strict 2PL: called at commit/abort).
  void ReleaseAll(TxnId txn);

  /// True if `txn` holds `key` in at least `mode`.
  bool Holds(TxnId txn, const LockKey& key, LockMode mode) const;

  /// Number of distinct keys currently locked (tests/benchmarks).
  std::size_t locked_key_count() const;

  /// Attaches the span tracer: a blocking acquisition's lock_wait record
  /// times the wait for the span and the wait histogram.
  void set_span_tracer(obs::SpanTracer* tracer) {
    span_tracer_.store(tracer, std::memory_order_release);
  }

  /// Invoked (outside the table latch) when `txn` is chosen as a deadlock
  /// victim, with the key whose request closed the cycle — the postmortem
  /// trigger.
  using DeadlockHook = std::function<void(TxnId, const LockKey&)>;
  void set_deadlock_hook(DeadlockHook hook);

  struct LockHolder {
    TxnId txn = kInvalidTxnId;
    LockMode mode = LockMode::kShared;
  };
  struct LockInfo {
    LockKey key;
    std::vector<LockHolder> holders;
  };
  /// Currently held locks (postmortems).
  std::vector<LockInfo> SnapshotLocks() const;

  struct WaitEdge {
    TxnId txn = kInvalidTxnId;
    LockKey key;
  };
  /// txn → requested-key edges of the waits-for graph (postmortems).
  std::vector<WaitEdge> SnapshotWaits() const;

  /// Transactions currently blocked in Acquire (waits-for-graph size) — a
  /// live lock-pileup gauge for the monitoring plane.
  std::size_t waiting_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_for_.size();
  }

  std::uint64_t wait_count() const {
    return waits_.load(std::memory_order_relaxed);
  }
  std::uint64_t deadlock_count() const {
    return deadlocks_.load(std::memory_order_relaxed);
  }
  std::uint64_t timeout_count() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  const obs::LatencyHistogram& wait_histogram() const { return wait_ns_; }

 private:
  struct LockState {
    // Granted holders. Invariant: either one exclusive holder or any number
    // of shared holders.
    std::map<TxnId, LockMode> holders;
    std::condition_variable cv;
  };

  bool CanGrantLocked(const LockState& state, TxnId txn, LockMode mode) const;
  // True if granting would deadlock and `txn` is the chosen victim.
  bool WouldDeadlockLocked(TxnId txn, const LockKey& key, LockMode mode);

  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<LockKey, std::unique_ptr<LockState>> table_;
  // txn -> key it is currently waiting for (for the waits-for graph).
  std::unordered_map<TxnId, LockKey> waiting_for_;
  DeadlockHook deadlock_hook_;  // guarded by mu_

  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> deadlocks_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  obs::LatencyHistogram wait_ns_;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_LOCK_MANAGER_H_
