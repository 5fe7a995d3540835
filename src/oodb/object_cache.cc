#include "oodb/object_cache.h"

namespace sentinel::oodb {

Result<std::shared_ptr<const PersistentObject>> ObjectCache::Get(TxnId txn,
                                                                 Oid oid) {
  storage::Rid cached_rid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // This transaction's own writes win.
    auto overlay_it = overlays_.find(txn);
    if (overlay_it != overlays_.end()) {
      auto entry = overlay_it->second.find(oid);
      if (entry != overlay_it->second.end()) {
        if (entry->second.object == nullptr) {
          return Status::NotFound("object deleted in this transaction");
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry->second.object;
      }
    }
    auto it = cache_.find(oid);
    if (it != cache_.end()) cached_rid = it->second.rid;
  }
  // A write this transaction made through the persistence manager directly
  // is not in the overlay above: its view of `oid` is neither the committed
  // entry nor cacheable.
  const bool own_write = objects_->HasOwnWrite(txn, oid);

  // Committed cache: a hit takes the shared lock of the entry's record, so
  // 2PL isolation is identical to the uncached path, and skips the OID
  // index. The lock is taken WITHOUT holding the cache mutex; the entry is
  // then re-checked, because a writer invalidates it while holding the
  // exclusive lock (so waking up behind a committed writer finds the new
  // version or falls through to a fresh load).
  if (cached_rid.valid() && !own_write) {
    SENTINEL_RETURN_NOT_OK(engine_->lock_manager()->Acquire(
        txn, storage::StorageEngine::RecordLockKey(cached_rid),
        storage::LockMode::kShared));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(oid);
    if (it != cache_.end() && it->second.rid == cached_rid) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.Touch(&it->second);
      return it->second.object;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  auto rid = objects_->RidOf(txn, oid);
  if (!rid.ok()) return rid.status();
  auto loaded = objects_->Read(txn, oid, *rid);
  if (!loaded.ok()) return loaded.status();
  auto shared = std::make_shared<const PersistentObject>(std::move(*loaded));
  if (own_write) return shared;
  std::lock_guard<std::mutex> lock(mu_);
  InsertCommittedLocked(oid, *rid, shared);
  return shared;
}

Result<Oid> ObjectCache::Put(TxnId txn, PersistentObject object) {
  storage::Rid rid;
  auto oid = objects_->Put(txn, object, &rid);
  if (!oid.ok()) return oid;
  object.set_oid(*oid);
  auto shared = std::make_shared<const PersistentObject>(std::move(object));
  std::lock_guard<std::mutex> lock(mu_);
  overlays_[txn][*oid] = Pending{rid, std::move(shared)};
  // Invalidate the committed entry: until this transaction resolves, other
  // readers must go through the locked load path.
  EraseCommittedLocked(*oid);
  return oid;
}

Status ObjectCache::Delete(TxnId txn, Oid oid) {
  SENTINEL_RETURN_NOT_OK(objects_->Delete(txn, oid));
  std::lock_guard<std::mutex> lock(mu_);
  overlays_[txn][oid] = Pending{};
  EraseCommittedLocked(oid);
  return Status::OK();
}

void ObjectCache::OnCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = overlays_.find(txn);
  if (it == overlays_.end()) return;
  for (auto& [oid, pending] : it->second) {
    if (pending.object == nullptr) {
      EraseCommittedLocked(oid);
    } else {
      InsertCommittedLocked(oid, pending.rid, std::move(pending.object));
    }
  }
  overlays_.erase(it);
}

void ObjectCache::OnAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  overlays_.erase(txn);
}

void ObjectCache::InsertCommittedLocked(Oid oid, const storage::Rid& rid,
                                        ObjectPtr object) {
  Entry& entry = cache_[oid];
  entry.oid = oid;
  entry.rid = rid;
  entry.object = std::move(object);
  lru_.Touch(&entry);
  while (cache_.size() > capacity_) EraseCommittedLocked(lru_.Oldest()->oid);
}

void ObjectCache::EraseCommittedLocked(Oid oid) {
  auto it = cache_.find(oid);
  if (it == cache_.end()) return;
  lru_.Remove(&it->second);
  cache_.erase(it);
}

std::size_t ObjectCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace sentinel::oodb
