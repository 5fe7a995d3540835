#include "storage/storage_engine.h"

#include "common/logging.h"
#include "storage/recovery.h"

namespace sentinel::storage {

StorageEngine::~StorageEngine() { (void)Close(); }

Status StorageEngine::Open(const std::string& path_prefix) {
  return Open(path_prefix, Options());
}

Status StorageEngine::Open(const std::string& path_prefix,
                           const Options& options) {
  {
    std::lock_guard<std::mutex> lock(insert_mu_);
    insert_hints_.clear();
  }
  disk_ = std::make_unique<DiskManager>();
  SENTINEL_RETURN_NOT_OK(disk_->Open(path_prefix + ".db"));
  log_ = std::make_unique<LogManager>(options.wal_options);
  pool_ = std::make_unique<BufferPool>(disk_.get(), options.buffer_pool_pages,
                                       log_.get());
  SENTINEL_RETURN_NOT_OK(log_->Open(path_prefix + ".wal"));
  commit_durability_.store(options.commit_durability,
                           std::memory_order_relaxed);
  lock_manager_ = std::make_unique<LockManager>(options.lock_options);

  RecoveryManager recovery(this);
  SENTINEL_RETURN_NOT_OK(recovery.Recover());
  return Status::OK();
}

Status StorageEngine::Close() {
  if (disk_ == nullptr) return Status::OK();
  // Abort transactions left running (application bug or crash simulation).
  std::vector<TxnId> live;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (const auto& [txn, state] : active_) {
      (void)state;
      live.push_back(txn);
    }
  }
  for (TxnId txn : live) (void)Abort(txn);
  SENTINEL_RETURN_NOT_OK(pool_->FlushAll());
  SENTINEL_RETURN_NOT_OK(log_->Close());
  SENTINEL_RETURN_NOT_OK(disk_->Close());
  disk_.reset();
  pool_.reset();
  log_.reset();
  lock_manager_.reset();
  {
    std::lock_guard<std::mutex> lock(insert_mu_);
    insert_hints_.clear();
  }
  return Status::OK();
}

void StorageEngine::SimulateCrash() {
  if (disk_ == nullptr) return;
  // The WAL's user-space tail is flushed (commit records were already
  // forced; losing an uncommitted tail is covered by the torn-tail path),
  // but data pages in the buffer pool are deliberately dropped.
  if (log_ != nullptr) (void)log_->Close();
  if (disk_ != nullptr) (void)disk_->Close();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    active_.clear();
  }
  disk_.reset();
  pool_.reset();
  log_.reset();
  lock_manager_.reset();
  {
    // A remembered page id may belong to a different file's chain after the
    // crash rebuild: drop every hint.
    std::lock_guard<std::mutex> lock(insert_mu_);
    insert_hints_.clear();
  }
}

Result<TxnId> StorageEngine::Begin() {
  TxnId txn = next_txn_.fetch_add(1);
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kBegin;
  auto lsn = log_->Append(std::move(rec));
  if (!lsn.ok()) return lsn.status();
  std::lock_guard<std::mutex> lock(txn_mu_);
  active_[txn] = TxnState{*lsn};
  return txn;
}

Status StorageEngine::Commit(TxnId txn) {
  return Commit(txn, commit_durability_.load(std::memory_order_relaxed));
}

Status StorageEngine::Commit(TxnId txn, CommitDurability durability) {
  Lsn prev_lsn = kInvalidLsn;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::InvalidArgument("commit of unknown txn " +
                                     std::to_string(txn));
    }
    prev_lsn = it->second.last_lsn;
  }
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kCommit;
  rec.prev_lsn = prev_lsn;
  // Appended outside txn_mu_: with group commit the call blocks until the
  // barrier covers this LSN, and holding txn_mu_ across that wait would
  // serialize every Begin/Commit behind a single fsync.
  auto lsn = log_->Append(std::move(rec), durability);
  if (!lsn.ok()) return lsn.status();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    active_.erase(txn);
  }
  lock_manager_->ReleaseAll(txn);
  return Status::OK();
}

Status StorageEngine::Abort(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (active_.find(txn) == active_.end()) {
      return Status::InvalidArgument("abort of unknown txn " +
                                     std::to_string(txn));
    }
  }
  Status undo = UndoTxn(txn);
  Lsn prev_lsn = kInvalidLsn;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = active_.find(txn);
    prev_lsn = it != active_.end() ? it->second.last_lsn : kInvalidLsn;
  }
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kAbort;
  rec.prev_lsn = prev_lsn;
  auto lsn = log_->Append(std::move(rec));
  if (!lsn.ok()) return lsn.status();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    active_.erase(txn);
  }
  lock_manager_->ReleaseAll(txn);
  return undo;
}

Status StorageEngine::WaitWalDurable() {
  if (log_ == nullptr) return Status::IOError("engine not open");
  return log_->WaitDurable(log_->appended_lsn());
}

bool StorageEngine::IsActive(TxnId txn) const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  return active_.find(txn) != active_.end();
}

Result<PageId> StorageEngine::CreateHeapFile() {
  auto head = HeapFile::Create(pool_.get());
  if (!head.ok()) return head;
  // Force the formatted head page to disk: the page id is handed to the
  // caller as a durable handle, so it must survive a crash even if no record
  // is ever logged against it.
  SENTINEL_RETURN_NOT_OK(pool_->FlushPage(*head));
  SENTINEL_RETURN_NOT_OK(disk_->Sync());
  return head;
}

HeapFile StorageEngine::OpenHeap(TxnId txn, PageId file) {
  return HeapFile(
      pool_.get(), file, [this, txn](PageId parent, PageId next) -> Status {
        LogRecord rec;
        rec.txn_id = txn;
        rec.type = LogRecordType::kPageLink;
        rec.rid = Rid{parent, 0};
        rec.after = {static_cast<std::uint8_t>(next),
                     static_cast<std::uint8_t>(next >> 8),
                     static_cast<std::uint8_t>(next >> 16),
                     static_cast<std::uint8_t>(next >> 24)};
        auto lsn = Log(txn, std::move(rec));
        if (!lsn.ok()) return lsn.status();
        HeapFile plain(pool_.get(), parent);
        return plain.SetPageLsn(parent, *lsn);
      });
}

LockKey StorageEngine::RecordKey(const Rid& rid) {
  return "rid:" + std::to_string(rid.page_id) + ":" + std::to_string(rid.slot);
}

LockKey StorageEngine::FileKey(PageId file) {
  return "file:" + std::to_string(file);
}

Result<Lsn> StorageEngine::Log(TxnId txn, LogRecord record) {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::TransactionAborted("txn " + std::to_string(txn) +
                                        " is not active");
    }
    record.prev_lsn = it->second.last_lsn;
  }
  auto lsn = log_->Append(std::move(record));
  if (!lsn.ok()) return lsn.status();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = active_.find(txn);
    if (it != active_.end()) it->second.last_lsn = *lsn;
  }
  return lsn;
}

Result<Rid> StorageEngine::Insert(TxnId txn, PageId file,
                                  const std::vector<std::uint8_t>& rec) {
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, FileKey(file), LockMode::kShared));
  HeapFile heap = OpenHeap(txn, file);
  Rid rid;
  {
    std::lock_guard<std::mutex> lock(insert_mu_);
    PageId& hint =
        insert_hints_.try_emplace(file, kInvalidPageId).first->second;
    auto inserted = heap.Insert(rec, hint);
    if (!inserted.ok()) return inserted.status();
    rid = *inserted;
    hint = rid.page_id;
  }
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, RecordKey(rid), LockMode::kExclusive));
  LogRecord log_rec;
  log_rec.txn_id = txn;
  log_rec.type = LogRecordType::kInsert;
  log_rec.rid = rid;
  log_rec.after = rec;
  auto lsn = Log(txn, std::move(log_rec));
  if (!lsn.ok()) return lsn.status();
  SENTINEL_RETURN_NOT_OK(heap.SetPageLsn(rid.page_id, *lsn));
  return rid;
}

Result<std::vector<std::uint8_t>> StorageEngine::Read(TxnId txn, PageId file,
                                                      const Rid& rid) {
  (void)file;
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, RecordKey(rid), LockMode::kShared));
  HeapFile heap(pool_.get(), file);
  return heap.Read(rid);
}

Status StorageEngine::Update(TxnId txn, PageId file, const Rid& rid,
                             const std::vector<std::uint8_t>& rec) {
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, RecordKey(rid), LockMode::kExclusive));
  HeapFile heap(pool_.get(), file);
  auto before = heap.Read(rid);
  if (!before.ok()) return before.status();
  SENTINEL_RETURN_NOT_OK(heap.Update(rid, rec));
  LogRecord log_rec;
  log_rec.txn_id = txn;
  log_rec.type = LogRecordType::kUpdate;
  log_rec.rid = rid;
  log_rec.before = std::move(*before);
  log_rec.after = rec;
  auto lsn = Log(txn, std::move(log_rec));
  if (!lsn.ok()) return lsn.status();
  return heap.SetPageLsn(rid.page_id, *lsn);
}

Status StorageEngine::Delete(TxnId txn, PageId file, const Rid& rid) {
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, RecordKey(rid), LockMode::kExclusive));
  HeapFile heap(pool_.get(), file);
  auto before = heap.Read(rid);
  if (!before.ok()) return before.status();
  SENTINEL_RETURN_NOT_OK(heap.Delete(rid));
  {
    // Freed space behind the insert hint: lower it so first-fit sees the
    // hole again (chain page ids are monotone along the chain).
    std::lock_guard<std::mutex> lock(insert_mu_);
    auto it = insert_hints_.find(file);
    if (it != insert_hints_.end() && rid.page_id < it->second) {
      it->second = rid.page_id;
    }
  }
  LogRecord log_rec;
  log_rec.txn_id = txn;
  log_rec.type = LogRecordType::kDelete;
  log_rec.rid = rid;
  log_rec.before = std::move(*before);
  auto lsn = Log(txn, std::move(log_rec));
  if (!lsn.ok()) return lsn.status();
  return heap.SetPageLsn(rid.page_id, *lsn);
}

Status StorageEngine::Scan(
    TxnId txn, PageId file,
    const std::function<Status(const Rid&, const std::vector<std::uint8_t>&)>&
        fn) {
  SENTINEL_RETURN_NOT_OK(
      lock_manager_->Acquire(txn, FileKey(file), LockMode::kShared));
  HeapFile heap(pool_.get(), file);
  return heap.Scan(fn);
}

Status StorageEngine::Checkpoint() {
  // A quiescent checkpoint: with no transaction in flight and every dirty
  // page forced, the existing log is no longer needed for recovery, so it
  // is truncated (bounding recovery time and log growth). A checkpoint
  // record carrying the continued LSN sequence seeds the fresh log.
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (!active_.empty()) {
      return Status::InvalidArgument(
          "checkpoint requires no active transactions (" +
          std::to_string(active_.size()) + " in flight)");
    }
  }
  SENTINEL_RETURN_NOT_OK(pool_->FlushAll());
  SENTINEL_RETURN_NOT_OK(disk_->Sync());
  SENTINEL_RETURN_NOT_OK(log_->Truncate());
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  return log_->Append(std::move(rec)).status();
}

Status StorageEngine::UndoTxn(TxnId txn) {
  // Collect this transaction's log records (newest first) and apply inverse
  // operations, writing CLRs so crash-during-abort recovers idempotently.
  std::vector<LogRecord> records;
  SENTINEL_RETURN_NOT_OK(log_->Scan([&](const LogRecord& rec) {
    if (rec.txn_id != txn) return Status::OK();
    if (rec.type == LogRecordType::kInsert ||
        rec.type == LogRecordType::kDelete ||
        rec.type == LogRecordType::kUpdate) {
      records.push_back(rec);
    } else if (rec.type == LogRecordType::kClr && !records.empty()) {
      // Undo proceeds newest-first, so each CLR compensates the newest
      // not-yet-compensated record (relevant when recovering from a crash
      // that interrupted a previous abort of this transaction).
      records.pop_back();
    }
    return Status::OK();
  }));

  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const LogRecord& rec = *it;
    HeapFile heap(pool_.get(), rec.rid.page_id);
    LogRecord clr;
    clr.txn_id = txn;
    clr.type = LogRecordType::kClr;
    clr.rid = rec.rid;
    clr.undone_type = rec.type;
    clr.undo_next_lsn = rec.prev_lsn;
    switch (rec.type) {
      case LogRecordType::kInsert: {
        SENTINEL_RETURN_NOT_OK(heap.Delete(rec.rid));
        break;
      }
      case LogRecordType::kDelete: {
        clr.after = rec.before;
        SENTINEL_RETURN_NOT_OK(heap.InsertAt(rec.rid, rec.before));
        break;
      }
      case LogRecordType::kUpdate: {
        clr.after = rec.before;
        SENTINEL_RETURN_NOT_OK(heap.Update(rec.rid, rec.before));
        break;
      }
      default:
        break;
    }
    auto lsn = Log(txn, std::move(clr));
    if (!lsn.ok()) return lsn.status();
    SENTINEL_RETURN_NOT_OK(heap.SetPageLsn(rec.rid.page_id, *lsn));
  }
  return Status::OK();
}

}  // namespace sentinel::storage
