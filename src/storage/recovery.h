#ifndef SENTINEL_STORAGE_RECOVERY_H_
#define SENTINEL_STORAGE_RECOVERY_H_

#include <cstdint>

#include "common/status.h"

namespace sentinel::storage {

class StorageEngine;

/// ARIES-style crash recovery over the StorageEngine's write-ahead log.
///
///   1. Analysis: scan the log, classifying transactions as committed,
///      aborted, or in-flight (losers).
///   2. Redo: reapply every logged change (including CLRs) whose LSN is newer
///      than the page LSN — history is repeated.
///   3. Undo: roll back loser transactions newest-first, writing CLRs and a
///      final abort record, so recovery is idempotent under repeated crashes.
///
/// Recovery is bounded by the WAL's durable watermark: only records with
/// LSN <= durable_lsn() participate in the passes. After a real crash the
/// unsynced tail is physically gone (or truncated as torn), so the bound is
/// normally vacuous — but async commit makes it an explicit contract: an
/// acknowledged-but-unsynced commit whose record never reached stable
/// storage is a loser, never a winner.
class RecoveryManager {
 public:
  explicit RecoveryManager(StorageEngine* engine) : engine_(engine) {}

  /// Runs the three recovery passes. Called from StorageEngine::Open.
  Status Recover();

 private:
  StorageEngine* engine_;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_RECOVERY_H_
