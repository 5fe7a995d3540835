#include "storage/lock_manager.h"

#include <algorithm>

#include "obs/span.h"

namespace sentinel::storage {

bool LockManager::CanGrantLocked(const LockState& state, TxnId txn,
                                 LockMode mode) const {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;  // self-compatibility handled by caller
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::WouldDeadlockLocked(TxnId txn, const LockKey& key,
                                      LockMode mode) {
  // Build the set of transactions `txn` would wait on.
  auto blockers = [this, mode](TxnId waiter, const LockKey& k) {
    std::vector<TxnId> result;
    auto it = table_.find(k);
    if (it == table_.end()) return result;
    for (const auto& [holder, held_mode] : it->second->holders) {
      if (holder == waiter) continue;
      if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
        result.push_back(holder);
      }
    }
    return result;
  };

  // DFS over the waits-for graph starting from the transactions blocking us;
  // a path back to `txn` is a cycle. Victim policy: the requester whose
  // request closes the cycle aborts. This always breaks the cycle (waiters
  // already blocked cannot be refused retroactively) at the cost of
  // occasionally aborting an older transaction.
  std::vector<TxnId> stack = blockers(txn, key);
  std::set<TxnId> visited;
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (cur == txn) return true;
    if (!visited.insert(cur).second) continue;
    auto wait_it = waiting_for_.find(cur);
    if (wait_it == waiting_for_.end()) continue;
    auto it = table_.find(wait_it->second);
    if (it == table_.end()) continue;
    for (const auto& [holder, held_mode] : it->second->holders) {
      (void)held_mode;
      if (holder != cur) stack.push_back(holder);
    }
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, const LockKey& key, LockMode mode) {
  obs::SpanTracer* st = span_tracer_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(mu_);
  auto& state_ptr = table_[key];
  if (state_ptr == nullptr) state_ptr = std::make_unique<LockState>();
  LockState& state = *state_ptr;

  auto held = state.holders.find(txn);
  if (held != state.holders.end()) {
    if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already held in a sufficient mode
    }
    // Upgrade S -> X: wait until we are the sole holder.
  }

  // The deadline is read from the clock only once the request has to wait.
  // One lock_wait record times the wait for the span and the wait histogram.
  std::chrono::steady_clock::time_point deadline;
  obs::SpanScope wait;
  bool waiting = false;
  while (!CanGrantLocked(state, txn, mode)) {
    if (!waiting) {
      waiting = true;
      deadline = std::chrono::steady_clock::now() + options_.timeout;
      waits_.fetch_add(1, std::memory_order_relaxed);
      if (wait.Open(st, obs::SpanKind::kLockWait, txn, &wait_ns_)) {
        wait.set_label(key);
      }
    }
    if (WouldDeadlockLocked(txn, key, mode)) {
      deadlocks_.fetch_add(1, std::memory_order_relaxed);
      wait.End();
      DeadlockHook hook = deadlock_hook_;
      lock.unlock();  // the hook snapshots this table; don't hold the latch
      if (hook) hook(txn, key);
      return Status::Deadlock("deadlock victim: txn " + std::to_string(txn) +
                              " on " + key);
    }
    waiting_for_[txn] = key;
    const auto wait_status = state.cv.wait_until(lock, deadline);
    waiting_for_.erase(txn);
    if (wait_status == std::cv_status::timeout &&
        !CanGrantLocked(state, txn, mode)) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      wait.End();
      return Status::LockTimeout("txn " + std::to_string(txn) +
                                 " timed out waiting for " + key);
    }
  }
  wait.End();
  state.holders[txn] = mode;
  return Status::OK();
}

void LockManager::set_deadlock_hook(DeadlockHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  deadlock_hook_ = std::move(hook);
}

std::vector<LockManager::LockInfo> LockManager::SnapshotLocks() const {
  std::vector<LockInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(table_.size());
  for (const auto& [key, state] : table_) {
    if (state->holders.empty()) continue;
    LockInfo info;
    info.key = key;
    for (const auto& [txn, mode] : state->holders) {
      info.holders.push_back({txn, mode});
    }
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const LockInfo& a, const LockInfo& b) { return a.key < b.key; });
  return out;
}

std::vector<LockManager::WaitEdge> LockManager::SnapshotWaits() const {
  std::vector<WaitEdge> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(waiting_for_.size());
  for (const auto& [txn, key] : waiting_for_) {
    out.push_back({txn, key});
  }
  std::sort(out.begin(), out.end(), [](const WaitEdge& a, const WaitEdge& b) {
    return a.txn < b.txn;
  });
  return out;
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  waiting_for_.erase(txn);
  for (auto it = table_.begin(); it != table_.end();) {
    LockState& state = *it->second;
    auto held = state.holders.find(txn);
    if (held != state.holders.end()) {
      state.holders.erase(held);
      state.cv.notify_all();
    }
    if (state.holders.empty()) {
      // Keep the entry only if someone may be waiting on the cv; waiters
      // re-find the entry via table_[key], so it is safe to drop empty
      // states that have no waiters. We conservatively keep the node —
      // dropping requires waiter tracking; memory is reclaimed lazily by
      // the erase below when no txn waits for this key.
      bool has_waiter = false;
      for (const auto& [wtxn, wkey] : waiting_for_) {
        (void)wtxn;
        if (wkey == it->first) {
          has_waiter = true;
          break;
        }
      }
      if (!has_waiter) {
        it = table_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

bool LockManager::Holds(TxnId txn, const LockKey& key, LockMode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  auto held = it->second->holders.find(txn);
  if (held == it->second->holders.end()) return false;
  return mode == LockMode::kShared || held->second == LockMode::kExclusive;
}

std::size_t LockManager::locked_key_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [key, state] : table_) {
    (void)key;
    if (!state->holders.empty()) ++count;
  }
  return count;
}

}  // namespace sentinel::storage
