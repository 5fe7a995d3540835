#ifndef SENTINEL_OODB_OBJECT_CACHE_H_
#define SENTINEL_OODB_OBJECT_CACHE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/lru_list.h"
#include "oodb/persistence_manager.h"

namespace sentinel::oodb {

/// Open OODB's address-space-manager / object-translation analogue
/// (Fig. 1): keeps recently used objects deserialized in memory so repeated
/// access avoids record reads and decoding.
///
/// Each committed entry keeps the record id it was read from, so a hit
/// skips the OID index and a miss searches it once. Record ids are stable
/// (updates are in place and OIDs are never reused).
///
/// Isolation is preserved: a cache hit still acquires the record's shared
/// lock through the storage engine's lock manager, so a reader blocks
/// behind a concurrent writer exactly as an uncached read would. The main
/// cache holds only committed versions; a transaction's own writes live in
/// a per-transaction overlay promoted at commit and dropped at abort.
///
/// Updates and deletes of cached objects must go through the cache: a write
/// made on the persistence manager directly is visible to its own
/// transaction, but other transactions' entries are not invalidated by it.
class ObjectCache {
 public:
  ObjectCache(storage::StorageEngine* engine, PersistenceManager* objects,
              std::size_t capacity)
      : engine_(engine), objects_(objects), capacity_(capacity) {}

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  /// Reads an object (cache first, store on miss). The returned pointer is
  /// an immutable snapshot; modify via Put().
  Result<std::shared_ptr<const PersistentObject>> Get(TxnId txn, Oid oid);

  /// Writes through to the persistence manager and updates this
  /// transaction's overlay.
  Result<Oid> Put(TxnId txn, PersistentObject object);

  Status Delete(TxnId txn, Oid oid);

  /// Transaction lifecycle (call alongside the persistence manager's).
  void OnCommit(TxnId txn);
  void OnAbort(TxnId txn);

  std::size_t size() const;
  // Counters are written under mu_ but read lock-free by stats surfaces, so
  // they are relaxed atomics.
  std::uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  using ObjectPtr = std::shared_ptr<const PersistentObject>;

  // A committed object, the record it lives in, and its recency links.
  struct Entry : LruLink {
    Oid oid = kInvalidOid;
    storage::Rid rid;
    ObjectPtr object;
  };
  // A write of this transaction; object == nullptr means deleted.
  struct Pending {
    storage::Rid rid;
    ObjectPtr object;
  };

  void InsertCommittedLocked(Oid oid, const storage::Rid& rid,
                             ObjectPtr object);
  void EraseCommittedLocked(Oid oid);

  storage::StorageEngine* engine_;
  PersistenceManager* objects_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  std::unordered_map<Oid, Entry> cache_;  // nodes are stable: lru_ links them
  LruList<Entry> lru_;
  std::unordered_map<TxnId, std::map<Oid, Pending>> overlays_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace sentinel::oodb

#endif  // SENTINEL_OODB_OBJECT_CACHE_H_
