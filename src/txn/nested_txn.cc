#include "txn/nested_txn.h"

#include <algorithm>

#include "common/failpoint.h"
#include "obs/span.h"

namespace sentinel::txn {

Result<SubTxnId> NestedTransactionManager::Begin(TopTxnId top,
                                                 SubTxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (parent != kInvalidSubTxn) {
    auto it = subs_.find(parent);
    if (it == subs_.end() || !it->second.active) {
      return Status::InvalidArgument("parent subtransaction not active: " +
                                     std::to_string(parent));
    }
    if (it->second.top != top) {
      return Status::InvalidArgument("parent belongs to another transaction");
    }
  }
  return BeginLocked(top, parent);
}

SubTxnId NestedTransactionManager::BeginUnder(TopTxnId top, SubTxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  return BeginLocked(top, parent);
}

SubTxnId NestedTransactionManager::BeginLocked(TopTxnId top, SubTxnId parent) {
  SubTxnId parent_id = kInvalidSubTxn;
  int depth = 1;
  if (parent != kInvalidSubTxn) {
    auto it = subs_.find(parent);
    if (it != subs_.end() && it->second.active && it->second.top == top) {
      parent_id = parent;
      depth = it->second.depth + 1;
      ++it->second.live_children;
    }
  }
  const SubTxnId id = next_id_++;
  SubTxn* sub;
  if (free_subs_.empty()) {
    sub = &subs_[id];
  } else {
    SubTxnMap::node_type node = std::move(free_subs_.back());
    free_subs_.pop_back();
    node.key() = id;
    sub = &subs_.insert(std::move(node)).position->second;
  }
  sub->top = top;
  sub->parent = parent_id;
  sub->depth = depth;
  sub->active = true;
  sub->live_children = 0;
  sub->held_keys.clear();  // a reused node keeps its capacity
  sub->lock_wait_ns = 0;
  return id;
}

bool NestedTransactionManager::IsAncestorLocked(SubTxnId ancestor,
                                                SubTxnId sub) const {
  SubTxnId current = sub;
  while (current != kInvalidSubTxn) {
    if (current == ancestor) return true;
    auto it = subs_.find(current);
    if (it == subs_.end()) return false;
    current = it->second.parent;
  }
  return false;
}

bool NestedTransactionManager::CanGrantLocked(const LockState& state,
                                              SubTxnId sub,
                                              storage::LockMode mode) const {
  auto sub_it = subs_.find(sub);
  const TopTxnId top = sub_it != subs_.end() ? sub_it->second.top : 0;
  // Conflicts with locks retained by other top-level transactions.
  for (const auto& [retainer_top, held_mode] : state.top_retained) {
    if (retainer_top == top) continue;
    if (mode == storage::LockMode::kExclusive ||
        held_mode == storage::LockMode::kExclusive) {
      return false;
    }
  }
  // Conflicts with live subtransaction holders, unless they are ancestors
  // (Moss rule: a subtransaction may hold what its ancestors hold).
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == sub) continue;
    if (IsAncestorLocked(holder, sub)) continue;
    if (mode == storage::LockMode::kExclusive ||
        held_mode == storage::LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status NestedTransactionManager::Acquire(SubTxnId sub,
                                         const storage::LockKey& key,
                                         storage::LockMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  auto sub_it = subs_.find(sub);
  if (sub_it == subs_.end() || !sub_it->second.active) {
    return Status::InvalidArgument("subtransaction not active: " +
                                   std::to_string(sub));
  }
  // Fault site: an injected failure here models lock-table trouble inside a
  // rule's subtransaction; the scheduler contains it to that rule.
  SENTINEL_FAILPOINT("nested.acquire");
  auto& state_ptr = locks_[key];
  if (state_ptr == nullptr) state_ptr = std::make_unique<LockState>();
  LockState& state = *state_ptr;

  auto held = state.holders.find(sub);
  if (held != state.holders.end() &&
      (held->second == storage::LockMode::kExclusive ||
       mode == storage::LockMode::kShared)) {
    return Status::OK();
  }

  bool timed_out = false;
  if (!CanGrantLocked(state, sub, mode)) {
    // Block. The LockState reference stays valid while we wait: entries are
    // never erased while waiters > 0, and unordered_map rehashes do not move
    // the pointed-to unique_ptr targets. One lock_wait record times the wait
    // for the span, the wait histogram and this subtransaction's
    // lock_wait_ns.
    obs::SpanScope wait;
    if (wait.Open(span_tracer_.load(std::memory_order_acquire),
                  obs::SpanKind::kLockWait, sub_it->second.top, &wait_ns_)) {
      wait.set_label(key);
      wait.set_subtxn(sub);
    }
    ++state.waiters;
    const auto deadline =
        std::chrono::steady_clock::now() + options_.lock_timeout;
    while (!CanGrantLocked(state, sub, mode)) {
      if (state.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !CanGrantLocked(state, sub, mode)) {
        timed_out = true;
        break;
      }
    }
    --state.waiters;
    const std::uint64_t waited_ns = wait.End();
    // The wait released mu_, so our subs_ iterator may be stale (rehash) or
    // the subtransaction may have been torn down by EndTop; re-resolve.
    sub_it = subs_.find(sub);
    if (sub_it == subs_.end() || !sub_it->second.active) {
      MaybeEraseLocked(key);
      return Status::InvalidArgument("subtransaction not active: " +
                                     std::to_string(sub));
    }
    sub_it->second.lock_wait_ns += waited_ns;
    if (timed_out) {
      MaybeEraseLocked(key);
      return Status::LockTimeout("subtxn " + std::to_string(sub) +
                                 " timed out on " + key);
    }
  }
  auto [holder_it, inserted] = state.holders.emplace(sub, mode);
  if (inserted) {
    sub_it->second.held_keys.push_back(key);
  } else {
    holder_it->second = mode;
  }
  return Status::OK();
}

void NestedTransactionManager::MaybeEraseLocked(const std::string& key) {
  auto it = locks_.find(key);
  if (it == locks_.end()) return;
  const LockState& state = *it->second;
  if (state.holders.empty() && state.top_retained.empty() &&
      state.waiters == 0) {
    locks_.erase(it);
  }
}

void NestedTransactionManager::InheritLocksLocked(SubTxn& sub_state,
                                                  SubTxnId sub) {
  const SubTxnId parent = sub_state.parent;
  const TopTxnId top = sub_state.top;
  for (const std::string& key : sub_state.held_keys) {
    auto lock_it = locks_.find(key);
    if (lock_it == locks_.end()) continue;
    LockState& state = *lock_it->second;
    auto held = state.holders.find(sub);
    if (held == state.holders.end()) continue;
    const storage::LockMode mode = held->second;
    state.holders.erase(held);
    if (parent != kInvalidSubTxn) {
      auto [existing, inserted] = state.holders.emplace(parent, mode);
      if (inserted) {
        auto parent_it = subs_.find(parent);
        if (parent_it != subs_.end()) {
          parent_it->second.held_keys.push_back(key);
        }
      } else if (mode == storage::LockMode::kExclusive) {
        existing->second = storage::LockMode::kExclusive;
      }
    } else {
      auto [retained_it, inserted] = state.top_retained.emplace(top, mode);
      if (inserted) {
        retained_keys_[top].push_back(key);
      } else if (mode == storage::LockMode::kExclusive) {
        retained_it->second = storage::LockMode::kExclusive;
      }
    }
    state.cv.notify_all();
  }
  sub_state.held_keys.clear();
}

void NestedTransactionManager::ReleaseLocksLocked(SubTxn& sub_state,
                                                  SubTxnId sub) {
  for (const std::string& key : sub_state.held_keys) {
    auto lock_it = locks_.find(key);
    if (lock_it == locks_.end()) continue;
    LockState& state = *lock_it->second;
    if (state.holders.erase(sub) > 0) state.cv.notify_all();
    if (state.holders.empty() && state.top_retained.empty() &&
        state.waiters == 0) {
      locks_.erase(lock_it);
    }
  }
  sub_state.held_keys.clear();
}

Status NestedTransactionManager::Commit(SubTxnId sub,
                                        std::uint64_t* lock_wait_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  if (it == subs_.end() || !it->second.active) {
    return Status::InvalidArgument("commit of inactive subtransaction " +
                                   std::to_string(sub));
  }
  if (lock_wait_ns != nullptr) *lock_wait_ns = it->second.lock_wait_ns;
  if (it->second.live_children > 0) {
    return Status::InvalidArgument("subtransaction has live children");
  }
  const SubTxnId parent = it->second.parent;
  // Inherit locks upward — touches only the keys this subtransaction holds,
  // not the whole lock table.
  InheritLocksLocked(it->second, sub);
  it->second.active = false;
  if (parent != kInvalidSubTxn) {
    auto parent_it = subs_.find(parent);
    if (parent_it != subs_.end()) --parent_it->second.live_children;
  }
  free_subs_.push_back(subs_.extract(it));
  return Status::OK();
}

Status NestedTransactionManager::Abort(SubTxnId sub,
                                       std::uint64_t* lock_wait_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  if (it == subs_.end() || !it->second.active) {
    return Status::InvalidArgument("abort of inactive subtransaction " +
                                   std::to_string(sub));
  }
  if (lock_wait_ns != nullptr) *lock_wait_ns = it->second.lock_wait_ns;
  if (it->second.live_children > 0) {
    return Status::InvalidArgument("subtransaction has live children");
  }
  ReleaseLocksLocked(it->second, sub);
  const SubTxnId parent = it->second.parent;
  if (parent != kInvalidSubTxn) {
    auto parent_it = subs_.find(parent);
    if (parent_it != subs_.end()) --parent_it->second.live_children;
  }
  free_subs_.push_back(subs_.extract(it));
  return Status::OK();
}

void NestedTransactionManager::EndTop(TopTxnId top) {
  std::lock_guard<std::mutex> lock(mu_);
  // Drop any stragglers belonging to this top-level transaction.
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.top == top) {
      ReleaseLocksLocked(it->second, it->first);
      it = subs_.erase(it);  // stragglers are rare: their nodes are not kept
    } else {
      ++it;
    }
  }
  // Release locks retained by this transaction's committed subtransactions
  // (indexed per top, so no full-table scan here either).
  auto retained_it = retained_keys_.find(top);
  if (retained_it != retained_keys_.end()) {
    for (const std::string& key : retained_it->second) {
      auto lock_it = locks_.find(key);
      if (lock_it == locks_.end()) continue;
      LockState& state = *lock_it->second;
      if (state.top_retained.erase(top) > 0) state.cv.notify_all();
      if (state.holders.empty() && state.top_retained.empty() &&
          state.waiters == 0) {
        locks_.erase(lock_it);
      }
    }
    retained_keys_.erase(retained_it);
  }
}

bool NestedTransactionManager::IsActive(SubTxnId sub) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  return it != subs_.end() && it->second.active;
}

Result<int> NestedTransactionManager::Depth(SubTxnId sub) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  if (it == subs_.end()) {
    return Status::NotFound("no subtransaction " + std::to_string(sub));
  }
  return it->second.depth;
}

Result<TopTxnId> NestedTransactionManager::TopOf(SubTxnId sub) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  if (it == subs_.end()) {
    return Status::NotFound("no subtransaction " + std::to_string(sub));
  }
  return it->second.top;
}

std::size_t NestedTransactionManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.size();
}

std::size_t NestedTransactionManager::waiting_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, state] : locks_) {
    (void)key;
    n += static_cast<std::size_t>(state->waiters);
  }
  return n;
}

std::size_t NestedTransactionManager::locked_key_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, state] : locks_) {
    (void)key;
    if (!state->holders.empty() || !state->top_retained.empty()) ++n;
  }
  return n;
}

std::uint64_t NestedTransactionManager::LockWaitNs(SubTxnId sub) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub);
  return it != subs_.end() ? it->second.lock_wait_ns : 0;
}

std::vector<NestedTransactionManager::SubTxnInfo>
NestedTransactionManager::ActiveSubTxns() const {
  std::vector<SubTxnInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, sub] : subs_) {
    if (!sub.active) continue;
    SubTxnInfo info;
    info.id = id;
    info.top = sub.top;
    info.parent = sub.parent;
    info.depth = sub.depth;
    info.held_keys = sub.held_keys;
    info.lock_wait_ns = sub.lock_wait_ns;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const SubTxnInfo& a, const SubTxnInfo& b) { return a.id < b.id; });
  return out;
}

}  // namespace sentinel::txn
