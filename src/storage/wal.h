#ifndef SENTINEL_STORAGE_WAL_H_
#define SENTINEL_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/log_record.h"

namespace sentinel::storage {

/// How a forced append (commit/abort/checkpoint) acknowledges durability.
enum class CommitDurability {
  /// Block until the record's LSN is covered by a completed fsync barrier.
  kSync,
  /// Acknowledge once the record is in the WAL buffer; the group-commit
  /// thread converges the durable watermark in the background. A crash may
  /// lose the tail of acknowledged-but-unsynced commits (recovery treats
  /// their records as absent), but the log itself is never corrupted.
  kAsync,
};

/// Append-only write-ahead log. Each entry on disk is:
///   u32 payload_size | u32 crc32(payload) | payload (serialized LogRecord)
///
/// LSNs are assigned densely (1, 2, 3, ...) at append time. Commit records
/// force a flush + fsync (WAL rule: log hits *stable storage* before the
/// commit returns); data pages carry the LSN of their last modification so
/// recovery can skip already-applied redo.
///
/// Group commit: with Options::group_commit (default), a forced append does
/// not fsync inline. It registers a durability request keyed by its LSN and
/// blocks on a condition variable while a dedicated group-commit thread
/// coalesces every pending request into one fflush + one fsync barrier,
/// then wakes all waiters whose LSN <= the new durable watermark. Appenders
/// keep running while the fsync is in flight (the mutex is dropped around
/// the fsync), so the next barrier absorbs everything that arrived during
/// the previous one. With group_commit=false every forced append performs
/// its own inline barrier (the pre-group-commit behaviour; benchmarks use
/// it as the per-commit-fsync baseline).
///
/// Durability watermarks: appended_lsn() is the highest LSN whose frame is
/// fully in the stdio buffer; written_lsn() is the highest LSN fflushed to
/// the OS; durable_lsn() is the highest LSN covered by a completed fsync
/// barrier. A barrier is skipped entirely when its target
/// is already durable (an explicit Flush() raced in, or a concurrent
/// commit's barrier covered it), so sync_count() counts only real fsyncs.
///
/// The CRC makes a torn or corrupted tail detectable: Open() scans the log,
/// truncates the file at the first bad record (short frame, checksum
/// mismatch, or undecodable payload), and never replays garbage. A failed
/// append that may have left partial bytes wedges the log — further appends
/// are refused until reopen — so corruption can only ever be at the tail.
/// A failed fflush/fsync barrier wedges the log the same way (fsyncgate:
/// after a failed fsync the kernel may drop the dirty pages, so a later
/// "successful" fsync proves nothing). Every waiter in the failed batch
/// receives the error; the durable watermark never advances past a wedge,
/// so no waiter can be woken "durable" by a subsequent barrier.
///
/// Failpoints: `wal.open`, `wal.append` (supports torn-write),
/// `wal.append.after`, `wal.flush` (evaluated once per barrier, at the
/// barrier site — group thread or inline).
class LogManager {
 public:
  struct Options {
    /// Coalesce forced appends through the group-commit thread. When false
    /// every forced append runs its own inline fsync barrier.
    bool group_commit = true;
  };

  LogManager() = default;
  explicit LogManager(Options options) : options_(options) {}
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  Status Open(const std::string& path);
  Status Close();

  /// Appends `record`, assigning and returning its LSN. The record's lsn
  /// field is overwritten. Commit/abort/checkpoint records are forced:
  /// with kSync the call blocks until the record is on stable storage,
  /// with kAsync it returns as soon as the record is buffered and leaves
  /// the barrier to the group-commit thread.
  Result<Lsn> Append(LogRecord record,
                     CommitDurability durability = CommitDurability::kSync);

  /// Brings every appended record to stable storage. Skips the barrier when
  /// the buffer holds nothing beyond the durable watermark.
  Status Flush();

  /// Hands every buffered record to the OS (fflush, no fsync) unless
  /// written_lsn() already covers `lsn`. The buffer pool calls it before it
  /// writes a dirty page, so a page never reaches the data file ahead of
  /// the log records that describe it; with nothing buffered past `lsn` it
  /// takes no lock.
  Status FlushThrough(Lsn lsn);

  /// Blocks until durable_lsn() >= lsn (or the log wedges/closes). Used to
  /// converge async commits before a checkpoint or shutdown.
  Status WaitDurable(Lsn lsn);

  /// Truncates the log to empty, preserving the LSN sequence. Only valid
  /// when every logged effect is already durable in the data file
  /// (checkpoint with no active transactions). Clears a wedged log.
  Status Truncate();

  /// Replays the whole log in LSN order, invoking `fn` per record. Used by
  /// recovery; stops early on a corrupt tail (a torn final write is treated
  /// as end-of-log, matching ARIES behaviour).
  Status Scan(const std::function<Status(const LogRecord&)>& fn);

  Lsn next_lsn() const;

  /// Highest LSN whose frame is fully in the WAL buffer.
  Lsn appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  /// Highest LSN handed to the OS (survives a process crash, not power
  /// loss).
  Lsn written_lsn() const {
    return written_lsn_.load(std::memory_order_acquire);
  }
  /// Highest LSN covered by a completed fsync barrier. Lock-free: safe to
  /// read from metrics/watchdog samplers.
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Bytes discarded from the tail by the last Open() (0 = clean log).
  std::uint64_t truncated_bytes() const {
    return truncated_bytes_.load(std::memory_order_relaxed);
  }
  /// Completed fsync barriers. With group commit this counts batches, not
  /// commits; redundant barriers (target already durable) are skipped and
  /// not counted.
  std::uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  /// Forced appends that blocked for (or piggybacked on) a group barrier.
  std::uint64_t group_commit_waits() const {
    return group_commit_waits_.load(std::memory_order_relaxed);
  }
  /// Forced appends acknowledged in kAsync mode (no durability wait).
  std::uint64_t async_commits() const {
    return async_commits_.load(std::memory_order_relaxed);
  }
  /// True after a failed append or a failed fsync barrier; the log refuses
  /// further appends and barriers until reopen.
  bool wedged() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wedged_;
  }

  /// Latency distribution of the fsync barriers: those counted by
  /// sync_count(), plus a failed one that wedged the log.
  const obs::LatencyHistogram& fsync_histogram() const { return fsync_ns_; }

  /// Attaches the span tracer: each fsync barrier is one wal_fsync record
  /// (fsync histogram, rings).
  void set_span_tracer(obs::SpanTracer* tracer) {
    span_tracer_.store(tracer, std::memory_order_release);
  }

 private:
  /// Reads one frame at the current position (ReadFrame); distinguishes a
  /// good record from a bad tail (Corruption) or the end of the log, torn or
  /// clean (NotFound).
  Result<LogRecord> ReadFrameLocked();

  /// Runs one fsync barrier covering everything appended so far. Evaluates
  /// the `wal.flush` failpoint, then fflush under the lock and fsync with
  /// the lock dropped (when `release_during_fsync`), so appenders coalesce
  /// into the next barrier. Wedges the log on any failure. Notifies
  /// durable_cv_ on completion (success or wedge).
  Status BarrierLocked(std::unique_lock<std::mutex>& lock,
                       bool release_during_fsync);
  /// Blocks until durable_lsn_ >= lsn, registering barrier demand with the
  /// group thread (or running the barrier inline without one). Returns the
  /// wedge error if the log wedges first.
  Status WaitDurableLocked(std::unique_lock<std::mutex>& lock, Lsn lsn);
  /// Marks the log wedged with `reason` and wakes every waiter.
  void WedgeLocked(const Status& reason);
  Status WedgedStatusLocked() const;
  void StartGroupThreadLocked();
  /// Stops and joins the group thread; callers must NOT hold mu_.
  void StopGroupThread();
  void GroupCommitLoop();

  const Options options_{};
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  Lsn next_lsn_ = 1;
  bool wedged_ = false;
  std::string wedge_reason_;
  std::atomic<Lsn> appended_lsn_{0};
  std::atomic<Lsn> written_lsn_{0};
  std::atomic<Lsn> durable_lsn_{0};
  Lsn requested_lsn_ = 0;  // highest LSN with registered barrier demand
  bool barrier_in_flight_ = false;
  bool stop_group_ = false;
  std::thread group_thread_;
  std::condition_variable work_cv_;     // wakes the group thread
  std::condition_variable durable_cv_;  // wakes commit waiters + barrier joins
  std::atomic<std::uint64_t> truncated_bytes_{0};
  std::atomic<std::uint64_t> sync_count_{0};
  std::atomic<std::uint64_t> group_commit_waits_{0};
  std::atomic<std::uint64_t> async_commits_{0};
  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
  obs::LatencyHistogram fsync_ns_;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_WAL_H_
