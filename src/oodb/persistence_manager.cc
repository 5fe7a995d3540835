#include "oodb/persistence_manager.h"

namespace sentinel::oodb {

Status PersistenceManager::Bootstrap() {
  std::lock_guard<std::mutex> lock(mu_);
  overlays_.clear();
  index_.clear();
  Oid max_oid = 0;
  auto txn = engine_->Begin();
  if (!txn.ok()) return txn.status();
  Status st = engine_->Scan(
      *txn, file_,
      [&](const storage::Rid& rid, const std::vector<std::uint8_t>& rec) {
        BytesReader reader(rec);
        auto obj = PersistentObject::Deserialize(&reader);
        if (!obj.ok()) return obj.status();
        index_[obj->oid()] = rid;
        if (obj->oid() > max_oid) max_oid = obj->oid();
        return Status::OK();
      });
  Status end = st.ok() ? engine_->Commit(*txn) : engine_->Abort(*txn);
  SENTINEL_RETURN_NOT_OK(st);
  SENTINEL_RETURN_NOT_OK(end);
  next_oid_.store(max_oid + 1);
  return Status::OK();
}

std::optional<storage::Rid> PersistenceManager::Locate(TxnId txn,
                                                       Oid oid) const {
  auto overlay_it = overlays_.find(txn);
  if (overlay_it != overlays_.end()) {
    auto entry = overlay_it->second.find(oid);
    if (entry != overlay_it->second.end()) return entry->second;
  }
  auto it = index_.find(oid);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<Oid> PersistenceManager::Put(TxnId txn, PersistentObject object,
                                    storage::Rid* rid) {
  if (object.oid() == kInvalidOid) {
    object.set_oid(next_oid_.fetch_add(1));
  }
  BytesWriter writer;
  object.Serialize(&writer);
  const std::vector<std::uint8_t>& bytes = writer.data();

  std::unique_lock<std::mutex> lock(mu_);
  auto existing = Locate(txn, object.oid());
  lock.unlock();

  if (existing.has_value()) {
    SENTINEL_RETURN_NOT_OK(engine_->Update(txn, file_, *existing, bytes));
    if (rid != nullptr) *rid = *existing;
    return object.oid();
  }
  auto inserted = engine_->Insert(txn, file_, bytes);
  if (!inserted.ok()) return inserted.status();
  if (rid != nullptr) *rid = *inserted;
  lock.lock();
  overlays_[txn][object.oid()] = *inserted;
  return object.oid();
}

Result<PersistentObject> PersistenceManager::Get(TxnId txn, Oid oid) {
  auto rid = RidOf(txn, oid);
  if (!rid.ok()) return rid.status();
  return Read(txn, oid, *rid);
}

Result<PersistentObject> PersistenceManager::Read(TxnId txn, Oid oid,
                                                  const storage::Rid& rid) {
  auto rec = engine_->Read(txn, file_, rid);
  if (!rec.ok()) return rec.status();
  BytesReader reader(*rec);
  auto object = PersistentObject::Deserialize(&reader);
  // The rid was found before the record lock was taken: a committed delete
  // in between may have freed the slot for another object.
  if (object.ok() && object->oid() != oid) {
    return Status::NotFound("no object with oid " + std::to_string(oid));
  }
  return object;
}

bool PersistenceManager::HasOwnWrite(TxnId txn, Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = overlays_.find(txn);
  return it != overlays_.end() && it->second.count(oid) != 0;
}

Status PersistenceManager::Delete(TxnId txn, Oid oid) {
  std::unique_lock<std::mutex> lock(mu_);
  auto rid = Locate(txn, oid);
  lock.unlock();
  if (!rid.has_value()) {
    return Status::NotFound("no object with oid " + std::to_string(oid));
  }
  SENTINEL_RETURN_NOT_OK(engine_->Delete(txn, file_, *rid));
  lock.lock();
  overlays_[txn][oid] = std::nullopt;
  return Status::OK();
}

bool PersistenceManager::Exists(TxnId txn, Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  return Locate(txn, oid).has_value();
}

Result<storage::Rid> PersistenceManager::RidOf(TxnId txn, Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto rid = Locate(txn, oid);
  if (!rid.has_value()) {
    return Status::NotFound("no object with oid " + std::to_string(oid));
  }
  return *rid;
}

Status PersistenceManager::ScanClass(
    TxnId txn, const std::string& class_name,
    const std::function<Status(const PersistentObject&)>& fn) {
  return engine_->Scan(
      txn, file_,
      [&](const storage::Rid& rid, const std::vector<std::uint8_t>& rec) {
        (void)rid;
        BytesReader reader(rec);
        auto obj = PersistentObject::Deserialize(&reader);
        if (!obj.ok()) return obj.status();
        if (!class_name.empty() && obj->class_name() != class_name) {
          return Status::OK();
        }
        return fn(*obj);
      });
}

void PersistenceManager::OnCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = overlays_.find(txn);
  if (it == overlays_.end()) return;
  for (const auto& [oid, rid] : it->second) {
    if (rid.has_value()) {
      index_[oid] = *rid;
    } else {
      index_.erase(oid);
    }
  }
  overlays_.erase(it);
}

void PersistenceManager::OnAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  overlays_.erase(txn);
}

std::size_t PersistenceManager::object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace sentinel::oodb
