#include "storage/recovery.h"

#include <map>
#include <set>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "storage/heap_file.h"
#include "storage/storage_engine.h"

namespace sentinel::storage {

Status RecoveryManager::Recover() {
  // Durability bound: nothing past the fsync watermark participates in
  // recovery. Open() sets the watermark to the scanned tail, so this is
  // normally every surviving record; the explicit check keeps async-commit
  // semantics honest if recovery ever runs against a live log.
  const Lsn durable = engine_->log_->durable_lsn();

  // ---- Pass 1: analysis ----------------------------------------------------
  std::set<TxnId> finished;  // committed or fully aborted
  std::map<TxnId, Lsn> last_lsn;
  std::vector<LogRecord> all;
  SENTINEL_RETURN_NOT_OK(engine_->log_->Scan([&](const LogRecord& rec) {
    if (rec.lsn > durable) {
      SENTINEL_LOG(kWarn) << "recovery: skipping lsn " << rec.lsn
                          << " beyond durable watermark " << durable;
      return Status::OK();
    }
    all.push_back(rec);
    if (rec.txn_id != kInvalidTxnId) {
      last_lsn[rec.txn_id] = rec.lsn;
      if (rec.type == LogRecordType::kCommit ||
          rec.type == LogRecordType::kAbort) {
        finished.insert(rec.txn_id);
      }
    }
    // Keep txn ids monotone across restarts.
    TxnId expected = engine_->next_txn_.load();
    while (rec.txn_id >= expected &&
           !engine_->next_txn_.compare_exchange_weak(expected,
                                                     rec.txn_id + 1)) {
    }
    return Status::OK();
  }));

  std::set<TxnId> losers;
  for (const auto& [txn, lsn] : last_lsn) {
    (void)lsn;
    if (finished.find(txn) == finished.end()) losers.insert(txn);
  }

  // ---- Pass 2: redo (repeat history) ----------------------------------------
  for (const LogRecord& rec : all) {
    const bool is_change = rec.type == LogRecordType::kInsert ||
                           rec.type == LogRecordType::kDelete ||
                           rec.type == LogRecordType::kUpdate ||
                           rec.type == LogRecordType::kClr ||
                           rec.type == LogRecordType::kPageLink;
    if (!is_change) continue;
    // Crash/fault site per redone record: recovery must be idempotent, so a
    // crash here simply means the next recovery replays the same prefix.
    SENTINEL_FAILPOINT("recovery.redo");
    // A crash can lose the physical file extension; re-extend before reading.
    SENTINEL_RETURN_NOT_OK(engine_->disk_->EnsureAllocated(rec.rid.page_id));
    HeapFile heap(engine_->pool_.get(), rec.rid.page_id);
    // Page-LSN test: only redo changes the page has not seen.
    auto page = engine_->pool_->FetchPage(rec.rid.page_id);
    if (!page.ok()) return page.status();
    const Lsn page_lsn = (*page)->lsn();
    SENTINEL_RETURN_NOT_OK(engine_->pool_->UnpinPage(rec.rid.page_id, false));
    if (page_lsn >= rec.lsn) continue;

    Status st;
    switch (rec.type) {
      case LogRecordType::kPageLink: {
        const PageId next = static_cast<PageId>(rec.after[0]) |
                            static_cast<PageId>(rec.after[1]) << 8 |
                            static_cast<PageId>(rec.after[2]) << 16 |
                            static_cast<PageId>(rec.after[3]) << 24;
        SENTINEL_RETURN_NOT_OK(engine_->disk_->EnsureAllocated(next));
        auto parent = engine_->pool_->FetchPage(rec.rid.page_id);
        if (!parent.ok()) return parent.status();
        (*parent)->set_next_page_id(next);
        st = engine_->pool_->UnpinPage(rec.rid.page_id, /*dirty=*/true);
        break;
      }
      case LogRecordType::kInsert:
        st = heap.InsertAt(rec.rid, rec.after);
        break;
      case LogRecordType::kDelete:
        st = heap.Delete(rec.rid);
        break;
      case LogRecordType::kUpdate:
        st = heap.Update(rec.rid, rec.after);
        break;
      case LogRecordType::kClr:
        switch (rec.undone_type) {
          case LogRecordType::kInsert:
            st = heap.Delete(rec.rid);
            break;
          case LogRecordType::kDelete:
            st = heap.InsertAt(rec.rid, rec.after);
            break;
          case LogRecordType::kUpdate:
            st = heap.Update(rec.rid, rec.after);
            break;
          default:
            break;
        }
        break;
      default:
        break;
    }
    if (!st.ok()) {
      SENTINEL_LOG(kWarn) << "redo of lsn " << rec.lsn
                          << " failed: " << st.ToString();
      return st;
    }
    SENTINEL_RETURN_NOT_OK(heap.SetPageLsn(rec.rid.page_id, rec.lsn));
  }

  // ---- Pass 3: undo losers ---------------------------------------------------
  for (TxnId loser : losers) {
    SENTINEL_FAILPOINT("recovery.undo");
    // Register as active so UndoTxn's logging path works, then roll back.
    {
      std::lock_guard<std::mutex> lock(engine_->txn_mu_);
      engine_->active_[loser] = StorageEngine::TxnState{last_lsn[loser]};
    }
    SENTINEL_RETURN_NOT_OK(engine_->UndoTxn(loser));
    {
      std::lock_guard<std::mutex> lock(engine_->txn_mu_);
      auto it = engine_->active_.find(loser);
      LogRecord abort_rec;
      abort_rec.txn_id = loser;
      abort_rec.type = LogRecordType::kAbort;
      abort_rec.prev_lsn =
          it != engine_->active_.end() ? it->second.last_lsn : kInvalidLsn;
      SENTINEL_RETURN_NOT_OK(
          engine_->log_->Append(std::move(abort_rec)).status());
      engine_->active_.erase(loser);
    }
  }

  SENTINEL_RETURN_NOT_OK(engine_->pool_->FlushAll());
  return Status::OK();
}

}  // namespace sentinel::storage
