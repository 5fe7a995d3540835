#ifndef SENTINEL_STORAGE_STORAGE_ENGINE_H_
#define SENTINEL_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/lock_manager.h"
#include "storage/wal.h"

namespace sentinel::storage {

/// The Exodus substitute: a transactional record store providing top-level
/// transactions (strict 2PL + WAL + recovery) over heap files of records.
///
/// The OODB layer (persistence manager, name manager) and Sentinel's rule
/// persistence sit on top of this interface, exactly as Sentinel sat on
/// Exodus. Nested transactions for rule execution are handled by a separate
/// manager (`src/txn/`) layered above, as in the paper.
class StorageEngine {
 public:
  struct Options {
    std::size_t buffer_pool_pages = 256;
    LockManager::Options lock_options;
    LogManager::Options wal_options;
    /// Default durability for Commit(txn); per-call overrides via
    /// Commit(txn, durability).
    CommitDurability commit_durability = CommitDurability::kSync;
  };

  StorageEngine() = default;
  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Opens the database + log files under `path_prefix` ("<prefix>.db",
  /// "<prefix>.wal") and runs recovery.
  Status Open(const std::string& path_prefix, const Options& options);
  Status Open(const std::string& path_prefix);
  Status Close();

  /// Test/benchmark hook: simulates a process crash. Dirty pages are
  /// abandoned (never written) and in-flight transactions stay unresolved
  /// in the WAL, so the next Open runs full recovery.
  void SimulateCrash();

  // -- Transactions --------------------------------------------------------
  Result<TxnId> Begin();
  /// Commits with the engine-wide default durability (see
  /// set_commit_durability).
  Status Commit(TxnId txn);
  Status Commit(TxnId txn, CommitDurability durability);
  Status Abort(TxnId txn);

  /// Engine-wide default commit durability. kAsync acks commits on the
  /// WAL-buffer write; the group-commit thread converges durability in the
  /// background (WaitWalDurable blocks until it catches up).
  void set_commit_durability(CommitDurability durability) {
    commit_durability_.store(durability, std::memory_order_relaxed);
  }
  CommitDurability commit_durability() const {
    return commit_durability_.load(std::memory_order_relaxed);
  }
  /// Blocks until every async-acknowledged commit is on stable storage.
  Status WaitWalDurable();
  bool IsActive(TxnId txn) const;
  /// Open top-level transactions (monitoring-plane gauge).
  std::size_t active_txn_count() const {
    std::lock_guard<std::mutex> lock(txn_mu_);
    return active_.size();
  }

  // -- Heap files -----------------------------------------------------------
  /// Creates a heap file; its head page id is the handle the caller persists.
  Result<PageId> CreateHeapFile();

  // -- Record operations (locked, logged) -----------------------------------
  Result<Rid> Insert(TxnId txn, PageId file, const std::vector<std::uint8_t>& rec);
  Result<std::vector<std::uint8_t>> Read(TxnId txn, PageId file, const Rid& rid);
  Status Update(TxnId txn, PageId file, const Rid& rid,
                const std::vector<std::uint8_t>& rec);
  Status Delete(TxnId txn, PageId file, const Rid& rid);
  /// Shared-locks the whole file and scans it.
  Status Scan(TxnId txn, PageId file,
              const std::function<Status(const Rid&,
                                         const std::vector<std::uint8_t>&)>& fn);

  /// Flushes all dirty pages and the log (checkpoint-lite).
  Status Checkpoint();

  /// Lock key protecting the record at `rid` (for layers that must take the
  /// same lock without going through Read/Update, e.g. the object cache).
  static LockKey RecordLockKey(const Rid& rid) { return RecordKey(rid); }

  LockManager* lock_manager() { return lock_manager_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  LogManager* log_manager() { return log_.get(); }
  DiskManager* disk_manager() { return disk_.get(); }

 private:
  friend class RecoveryManager;

  struct TxnState {
    Lsn last_lsn = kInvalidLsn;
  };

  static LockKey RecordKey(const Rid& rid);
  static LockKey FileKey(PageId file);

  // HeapFile handle whose chain extensions are WAL-logged under `txn`.
  HeapFile OpenHeap(TxnId txn, PageId file);

  // Advisory per-file free-space hints: the chain page where the last insert
  // into each heap file landed. Insert starts its first-fit scan there
  // instead of walking the chain from the head (O(1) amortized vs O(pages)
  // per insert); Delete lowers the hint so freed space is found again.
  // In-memory only — cleared on Open/Close/SimulateCrash, because after a
  // crash a remembered page id may belong to a different file's rebuilt
  // chain.
  //
  // insert_mu_ also serialises inserts: it is held across the first-fit
  // walk, the slotted-page insert and the hint update, so two transactions
  // never write one page's slot directory at once. Record locks are taken
  // after it is released.
  std::mutex insert_mu_;
  std::unordered_map<PageId, PageId> insert_hints_;

  // Appends a log record chained to `txn`'s last LSN and stamps the page LSN.
  Result<Lsn> Log(TxnId txn, LogRecord record);
  Status UndoTxn(TxnId txn);

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> lock_manager_;

  mutable std::mutex txn_mu_;
  std::unordered_map<TxnId, TxnState> active_;
  std::atomic<TxnId> next_txn_{1};
  std::atomic<CommitDurability> commit_durability_{CommitDurability::kSync};
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_STORAGE_ENGINE_H_
