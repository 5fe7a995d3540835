#ifndef SENTINEL_TXN_NESTED_TXN_H_
#define SENTINEL_TXN_NESTED_TXN_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/lock_manager.h"

namespace sentinel::obs {
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::txn {

using TopTxnId = storage::TxnId;
using SubTxnId = std::uint64_t;
constexpr SubTxnId kInvalidSubTxn = 0;

/// Nested transaction manager with its own lock manager (paper §2.3, [2]):
/// rules execute as subtransactions spawned under the triggering top-level
/// transaction. Implements Moss-style nesting:
///
///   - a subtransaction may acquire a lock if every conflicting holder is an
///     ancestor (lock inheritance makes nested rule execution serializable
///     against sibling rules while sharing the parent's access rights);
///   - on subtransaction commit its locks are inherited by the parent;
///   - on abort its locks are released and its effects are the parent's
///     responsibility (condition/action functions operate through the
///     storage engine, whose top-level undo covers them).
///
/// This manager is *in addition to* the storage engine's top-level 2PL, just
/// as Sentinel's nested manager was layered over Exodus.
class NestedTransactionManager {
 public:
  struct Options {
    std::chrono::milliseconds lock_timeout{2000};
  };

  NestedTransactionManager() : NestedTransactionManager(Options{}) {}
  explicit NestedTransactionManager(Options options) : options_(options) {}

  NestedTransactionManager(const NestedTransactionManager&) = delete;
  NestedTransactionManager& operator=(const NestedTransactionManager&) = delete;

  /// Starts a subtransaction under `top`; `parent` == kInvalidSubTxn means a
  /// direct child of the top-level transaction. Fails when `parent` is not
  /// an active subtransaction of `top`.
  Result<SubTxnId> Begin(TopTxnId top, SubTxnId parent = kInvalidSubTxn);

  /// Starts a rule's subtransaction: under `parent` while it is an active
  /// subtransaction of `top`, else directly under `top` (the triggering
  /// rule's subtransaction has already committed and its locks went up to
  /// the top). Never fails.
  SubTxnId BeginUnder(TopTxnId top, SubTxnId parent);

  /// Commits: locks are inherited by the parent (or by the top-level root).
  /// When `lock_wait_ns` is given it receives the time `sub` spent blocked
  /// in Acquire (as LockWaitNs would, without a second lock round trip).
  Status Commit(SubTxnId sub, std::uint64_t* lock_wait_ns = nullptr);

  /// Aborts: locks released, subtree below must already be finished.
  /// `lock_wait_ns` as for Commit.
  Status Abort(SubTxnId sub, std::uint64_t* lock_wait_ns = nullptr);

  /// Acquires a nested lock. Blocks; LockTimeout after Options::lock_timeout.
  Status Acquire(SubTxnId sub, const storage::LockKey& key,
                 storage::LockMode mode);

  /// Releases everything owned under `top` (called when the top-level
  /// transaction finishes).
  void EndTop(TopTxnId top);

  bool IsActive(SubTxnId sub) const;
  Result<int> Depth(SubTxnId sub) const;
  Result<TopTxnId> TopOf(SubTxnId sub) const;
  std::size_t active_count() const;
  std::size_t locked_key_count() const;
  /// Threads currently blocked inside Acquire across the whole nested lock
  /// table (monitoring-plane gauge).
  std::size_t waiting_count() const;

  /// Nanoseconds `sub` has spent blocked in Acquire so far (latency
  /// accounting for the rule metrics; harvested before commit/abort).
  std::uint64_t LockWaitNs(SubTxnId sub) const;

  /// Latency distribution of blocked nested acquisitions (the waits summed
  /// into each subtransaction's lock_wait_ns).
  const obs::LatencyHistogram& wait_histogram() const { return wait_ns_; }

  /// Attaches the causal span tracer; blocking nested acquisitions record
  /// lock_wait spans.
  void set_span_tracer(obs::SpanTracer* tracer) {
    span_tracer_.store(tracer, std::memory_order_release);
  }

  /// Snapshot of the in-flight subtransactions (postmortems).
  struct SubTxnInfo {
    SubTxnId id = kInvalidSubTxn;
    TopTxnId top = 0;
    SubTxnId parent = kInvalidSubTxn;
    int depth = 1;
    std::vector<std::string> held_keys;
    std::uint64_t lock_wait_ns = 0;
  };
  std::vector<SubTxnInfo> ActiveSubTxns() const;

 private:
  struct SubTxn {
    TopTxnId top = 0;
    SubTxnId parent = kInvalidSubTxn;
    int depth = 1;
    bool active = true;
    int live_children = 0;
    // Keys this subtransaction holds (insertion order; no duplicates —
    // Acquire appends only when the holder entry is newly created). Lets
    // Commit/Abort/EndTop release exactly the locks involved instead of
    // scanning the whole lock table.
    std::vector<std::string> held_keys;
    std::uint64_t lock_wait_ns = 0;
  };

  struct LockState {
    // holder -> mode. Holder kInvalidSubTxn represents "retained by the
    // top-level transaction" after a depth-1 subtransaction commits; it is
    // tagged with the owning top id in retainer_top.
    std::map<SubTxnId, storage::LockMode> holders;
    std::map<TopTxnId, storage::LockMode> top_retained;
    std::condition_variable cv;
    // Threads currently blocked in Acquire on this entry. An entry may only
    // be erased when this is 0: erasing would destroy a condition_variable
    // another thread is waiting on.
    int waiters = 0;
  };

  using SubTxnMap = std::unordered_map<SubTxnId, SubTxn>;

  // Adds a subtransaction of `top`, under `parent` when that is an active
  // subtransaction of `top`, else under `top`. Requires mu_.
  SubTxnId BeginLocked(TopTxnId top, SubTxnId parent);
  // True if `ancestor` is `sub` or one of its ancestors. Requires mu_.
  bool IsAncestorLocked(SubTxnId ancestor, SubTxnId sub) const;
  bool CanGrantLocked(const LockState& state, SubTxnId sub,
                      storage::LockMode mode) const;
  // Erases `key`'s entry if nothing holds/retains/waits on it. Requires mu_.
  void MaybeEraseLocked(const std::string& key);
  // Moves `sub`'s hold on each of its held keys to the parent (or retains it
  // for the top on a depth-1 commit). Requires mu_.
  void InheritLocksLocked(SubTxn& sub_state, SubTxnId sub);
  // Drops `sub`'s hold on each of its held keys. Requires mu_.
  void ReleaseLocksLocked(SubTxn& sub_state, SubTxnId sub);

  Options options_;
  mutable std::mutex mu_;
  SubTxnMap subs_;
  // Nodes of committed and aborted subtransactions, reused by BeginLocked
  // so a steady-state firing allocates no node (at most the peak number of
  // concurrently active subtransactions are kept).
  std::vector<SubTxnMap::node_type> free_subs_;
  std::unordered_map<std::string, std::unique_ptr<LockState>> locks_;
  // top txn -> keys its committed depth-1 subtransactions retained; lets
  // EndTop release retained locks without scanning the whole table.
  std::unordered_map<TopTxnId, std::vector<std::string>> retained_keys_;
  SubTxnId next_id_ = 1;
  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
  obs::LatencyHistogram wait_ns_;
};

}  // namespace sentinel::txn

#endif  // SENTINEL_TXN_NESTED_TXN_H_
