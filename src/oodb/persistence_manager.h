#ifndef SENTINEL_OODB_PERSISTENCE_MANAGER_H_
#define SENTINEL_OODB_PERSISTENCE_MANAGER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oodb/object.h"
#include "storage/storage_engine.h"

namespace sentinel::oodb {

using TxnId = storage::TxnId;

/// Object store over one heap file: serializes PersistentObjects to records,
/// assigns OIDs, and keeps an in-memory OID -> RID index.
///
/// The index is transaction-aware: changes made by a transaction live in a
/// per-transaction overlay (visible to that transaction only) and are
/// applied to the committed map at commit, or discarded at abort —
/// record-level isolation itself is enforced by the storage engine's 2PL.
///
/// The heap is the only durable copy: Bootstrap() rebuilds the index from
/// one heap scan at every open, as NameManager does for its catalog.
class PersistenceManager {
 public:
  PersistenceManager(storage::StorageEngine* engine, storage::PageId file)
      : engine_(engine), file_(file) {}

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  /// Rebuilds the OID index from the heap and recovers the OID counter.
  Status Bootstrap();

  /// Inserts (oid unset) or updates (oid set) an object; returns its OID.
  /// When `rid` is given, it receives the record id now backing the object.
  Result<Oid> Put(TxnId txn, PersistentObject object,
                  storage::Rid* rid = nullptr);

  Result<PersistentObject> Get(TxnId txn, Oid oid);
  Status Delete(TxnId txn, Oid oid);
  bool Exists(TxnId txn, Oid oid);

  /// RID currently backing `oid` as visible to `txn` (overlay-aware).
  Result<storage::Rid> RidOf(TxnId txn, Oid oid);

  /// Reads object `oid` from the record at `rid` (from RidOf) under the
  /// record's shared lock, without searching the index again. NotFound when
  /// the record no longer holds `oid`.
  Result<PersistentObject> Read(TxnId txn, Oid oid, const storage::Rid& rid);

  /// True when `txn` itself wrote or deleted `oid` and has not yet
  /// committed, i.e. the committed index does not give `txn`'s view of it.
  bool HasOwnWrite(TxnId txn, Oid oid) const;

  /// Invokes `fn` for every object of class `class_name` (empty matches all).
  Status ScanClass(TxnId txn, const std::string& class_name,
                   const std::function<Status(const PersistentObject&)>& fn);

  /// Transaction lifecycle notifications from the Database facade.
  void OnCommit(TxnId txn);
  void OnAbort(TxnId txn);

  /// Number of committed objects.
  std::size_t object_count() const;
  storage::PageId file() const { return file_; }

 private:
  // nullopt == deleted by this transaction.
  using Overlay = std::map<Oid, std::optional<storage::Rid>>;

  std::optional<storage::Rid> Locate(TxnId txn, Oid oid) const;

  storage::StorageEngine* engine_;
  storage::PageId file_;

  mutable std::mutex mu_;
  std::unordered_map<Oid, storage::Rid> index_;
  std::unordered_map<TxnId, Overlay> overlays_;
  std::atomic<Oid> next_oid_{1};
};

}  // namespace sentinel::oodb

#endif  // SENTINEL_OODB_PERSISTENCE_MANAGER_H_
