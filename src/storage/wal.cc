#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/span.h"

namespace sentinel::storage {

namespace {
// Sanity bound on a single record: anything larger is a corrupt size field,
// not a real record (payloads carry record images, far below this).
constexpr std::uint32_t kMaxLogRecordSize = 1u << 26;
}  // namespace

LogManager::~LogManager() {
  StopGroupThread();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<LogRecord> LogManager::ReadFrameLocked() {
  std::vector<std::uint8_t> buf;
  SENTINEL_RETURN_NOT_OK(ReadFrame(file_, kMaxLogRecordSize, &buf));
  BytesReader reader(buf);
  auto rec = LogRecord::Deserialize(&reader);
  if (!rec.ok()) {
    return Status::Corruption("undecodable log record: " +
                              rec.status().ToString());
  }
  return rec;
}

Status LogManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    return Status::InvalidArgument("log manager already open: " + path_);
  }
  SENTINEL_FAILPOINT("wal.open");
  path_ = path;
  file_ = std::fopen(path.c_str(), "a+b");
  if (file_ == nullptr) {
    return Status::IOError("cannot open log file: " + path);
  }
  // Recover next_lsn_ by scanning the existing log; stop at the first bad
  // record and physically truncate there so a torn/corrupt tail can never
  // be mistaken for data by a later reader.
  std::fseek(file_, 0, SEEK_SET);
  next_lsn_ = 1;
  truncated_bytes_.store(0, std::memory_order_relaxed);
  wedged_ = false;
  wedge_reason_.clear();
  long good_end = 0;
  for (;;) {
    auto rec = ReadFrameLocked();
    if (!rec.ok()) {
      if (rec.status().IsCorruption()) {
        SENTINEL_LOG(kWarn) << "log " << path
                            << ": bad tail record, truncating ("
                            << rec.status().ToString() << ")";
      }
      break;
    }
    if (rec->lsn >= next_lsn_) next_lsn_ = rec->lsn + 1;
    good_end = std::ftell(file_);
  }
  std::fseek(file_, 0, SEEK_END);
  const long file_size = std::ftell(file_);
  if (file_size > good_end) {
    truncated_bytes_.store(static_cast<std::uint64_t>(file_size - good_end),
                           std::memory_order_relaxed);
    if (::ftruncate(::fileno(file_), good_end) != 0) {
      return Status::IOError("cannot truncate corrupt log tail: " + path);
    }
    std::fseek(file_, 0, SEEK_END);
  }
  // Every surviving record is on stable storage (it was read back from the
  // file): the durable, written and appended watermarks start at the
  // scanned tail.
  appended_lsn_.store(next_lsn_ - 1, std::memory_order_release);
  written_lsn_.store(next_lsn_ - 1, std::memory_order_release);
  durable_lsn_.store(next_lsn_ - 1, std::memory_order_release);
  requested_lsn_ = next_lsn_ - 1;
  StartGroupThreadLocked();
  return Status::OK();
}

Status LogManager::Close() {
  StopGroupThread();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  std::fflush(file_);
  ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  durable_cv_.notify_all();
  return Status::OK();
}

Result<Lsn> LogManager::Append(LogRecord record, CommitDurability durability) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  if (wedged_) return WedgedStatusLocked();
  record.lsn = next_lsn_++;
  BytesWriter payload;
  record.Serialize(&payload);
  BytesWriter frame;
  AppendFrame(payload.data(), &frame);

  if (FailPointRegistry::AnyActive()) {
    FailPointAction action =
        FailPointRegistry::Instance().Evaluate("wal.append");
    if (action.mode == FailPointMode::kReturnError) {
      // Nothing written: withdraw the LSN so the sequence stays dense.
      --next_lsn_;
      return action.ToStatus("wal.append");
    }
    if (action.mode == FailPointMode::kTornWrite) {
      // Write a strict prefix of the frame then fail — exactly what a crash
      // mid-append leaves behind. The log is wedged until reopen.
      const std::size_t n =
          action.torn_bytes != 0
              ? std::min<std::size_t>(action.torn_bytes, frame.size() - 1)
              : frame.size() / 2;
      std::fwrite(frame.data().data(), 1, n, file_);
      std::fflush(file_);
      Status torn = Status::IOError("torn append injected at lsn " +
                                    std::to_string(record.lsn));
      WedgeLocked(torn);
      return torn;
    }
  }

  if (std::fwrite(frame.data().data(), frame.size(), 1, file_) != 1) {
    // The write may have landed partially; refuse further appends so the
    // only possible corruption is at the tail, where Open() truncates it.
    Status failed = Status::IOError("cannot append log record");
    WedgeLocked(failed);
    return failed;
  }
  appended_lsn_.store(record.lsn, std::memory_order_release);
  SENTINEL_FAILPOINT("wal.append.after");
  const bool force = record.type == LogRecordType::kCommit ||
                     record.type == LogRecordType::kAbort ||
                     record.type == LogRecordType::kCheckpoint;
  if (force) {
    if (durability == CommitDurability::kAsync) {
      // Ack on buffer write; the group-commit thread converges the durable
      // watermark behind us (or, without one, the next sync barrier does).
      async_commits_.fetch_add(1, std::memory_order_relaxed);
      if (group_thread_.joinable()) {
        if (record.lsn > requested_lsn_) requested_lsn_ = record.lsn;
        work_cv_.notify_one();
      }
      return record.lsn;
    }
    SENTINEL_RETURN_NOT_OK(WaitDurableLocked(lock, record.lsn));
  }
  return record.lsn;
}

Status LogManager::WaitDurableLocked(std::unique_lock<std::mutex>& lock,
                                     Lsn lsn) {
  // Already covered by a completed barrier (an explicit Flush() raced in or
  // a concurrent commit's barrier absorbed us): skip the redundant fsync.
  if (lsn <= durable_lsn_.load(std::memory_order_relaxed)) return Status::OK();
  if (wedged_) return WedgedStatusLocked();
  if (!group_thread_.joinable()) {
    // No group thread: run the barrier inline under the lock (the classic
    // one-fsync-per-commit path).
    return BarrierLocked(lock, /*release_during_fsync=*/false);
  }
  group_commit_waits_.fetch_add(1, std::memory_order_relaxed);
  // Leader/follower group commit: the first committer to find no barrier in
  // flight runs the barrier itself — on an idle log this is the exact
  // inline-fsync path, so single-committer latency pays no thread handoff.
  // Everyone else piles onto the in-flight barrier and either gets released
  // by its watermark advance or becomes the next leader, absorbing every
  // commit appended while the previous fsync ran.
  for (;;) {
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) {
      return Status::OK();
    }
    if (wedged_) return WedgedStatusLocked();
    if (file_ == nullptr) {
      return Status::IOError("log closed while waiting for durability");
    }
    if (!barrier_in_flight_) {
      // The barrier target is the appended watermark, which covers our lsn,
      // so one OK barrier always terminates the loop.
      SENTINEL_RETURN_NOT_OK(BarrierLocked(lock, /*release_during_fsync=*/true));
      continue;
    }
    durable_cv_.wait(lock);
  }
}

Status LogManager::BarrierLocked(std::unique_lock<std::mutex>& lock,
                                 bool release_during_fsync) {
  // Both sync-commit leaders and the group-commit thread run barriers; only
  // one at a time may own the unlocked-fsync window (barrier_in_flight_
  // doubles as the Truncate/Scan/Close guard for the naked fd).
  durable_cv_.wait(lock, [this] { return !barrier_in_flight_; });
  if (file_ == nullptr) return Status::IOError("log manager not open");
  if (wedged_) return WedgedStatusLocked();
  const Lsn target = appended_lsn_.load(std::memory_order_relaxed);
  if (target <= durable_lsn_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  if (FailPointRegistry::AnyActive()) {
    FailPointAction action =
        FailPointRegistry::Instance().Evaluate("wal.flush");
    if (action.fired()) {
      // An injected barrier failure wedges the log exactly like a real one:
      // the bytes behind `target` are in an unknown durability state.
      Status injected = action.ToStatus("wal.flush");
      WedgeLocked(injected);
      return injected;
    }
  }
  // One wal_fsync record times the barrier for the fsync histogram and the
  // rings alike.
  obs::SpanScope fsync_span;
  if (fsync_span.Open(span_tracer_.load(std::memory_order_acquire),
                      obs::SpanKind::kWalFsync, kInvalidTxnId, &fsync_ns_)) {
    fsync_span.set_label("wal.fsync");
  }
  if (std::fflush(file_) != 0) {
    Status failed = Status::IOError("cannot flush log");
    WedgeLocked(failed);
    return failed;
  }
  written_lsn_.store(target, std::memory_order_release);
  const int fd = ::fileno(file_);
  bool synced = false;
  if (release_during_fsync) {
    // Drop the lock for the fsync so appenders keep filling the buffer; the
    // next barrier absorbs everything that arrived during this one.
    // barrier_in_flight_ keeps Truncate/Close from swapping the FILE* out
    // from under the naked fd.
    barrier_in_flight_ = true;
    lock.unlock();
    synced = ::fsync(fd) == 0;
    lock.lock();
    barrier_in_flight_ = false;
  } else {
    synced = ::fsync(fd) == 0;
  }
  if (!synced) {
    // fsyncgate: the kernel may have dropped the dirty pages on failure, so
    // a later "successful" fsync would prove nothing. Wedge permanently;
    // the durable watermark never advances past this point, so no waiter in
    // the failed batch can be woken "durable" by a subsequent barrier.
    Status failed = Status::IOError("cannot fsync log: " + path_);
    WedgeLocked(failed);
    return failed;
  }
  if (target > durable_lsn_.load(std::memory_order_relaxed)) {
    durable_lsn_.store(target, std::memory_order_release);
  }
  fsync_span.End();
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  durable_cv_.notify_all();
  return Status::OK();
}

void LogManager::WedgeLocked(const Status& reason) {
  wedged_ = true;
  wedge_reason_ = reason.ToString();
  work_cv_.notify_all();
  durable_cv_.notify_all();
}

Status LogManager::WedgedStatusLocked() const {
  return Status::IOError("log wedged (" + wedge_reason_ +
                         "); reopen to truncate the tail");
}

void LogManager::StartGroupThreadLocked() {
  if (!options_.group_commit || group_thread_.joinable()) return;
  stop_group_ = false;
  group_thread_ = std::thread(&LogManager::GroupCommitLoop, this);
}

void LogManager::StopGroupThread() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!group_thread_.joinable()) return;
    stop_group_ = true;
    work_cv_.notify_all();
    durable_cv_.notify_all();
    thread = std::move(group_thread_);
  }
  thread.join();
}

void LogManager::GroupCommitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_group_ ||
             (!wedged_ && file_ != nullptr &&
              requested_lsn_ > durable_lsn_.load(std::memory_order_relaxed));
    });
    if (stop_group_) return;
    // One barrier covers every request registered so far — and, because the
    // fsync runs unlocked, everything appended while it was in flight waits
    // at most one more barrier. Errors wedge the log and wake all waiters
    // inside BarrierLocked.
    (void)BarrierLocked(lock, /*release_during_fsync=*/true);
  }
}

Status LogManager::Truncate() {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  // Never swap the FILE* while the group thread fsyncs its fd unlocked.
  durable_cv_.wait(lock, [this] { return !barrier_in_flight_; });
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "w+b");
  if (file_ == nullptr) {
    return Status::IOError("cannot truncate log file: " + path_);
  }
  wedged_ = false;
  wedge_reason_.clear();
  // next_lsn_ keeps counting: page LSNs stamped before the checkpoint stay
  // larger than any future log record would otherwise be. The truncation
  // contract (all logged effects already durable in the data file) makes
  // every assigned LSN vacuously durable.
  const Lsn tail = next_lsn_ - 1;
  appended_lsn_.store(tail, std::memory_order_release);
  written_lsn_.store(tail, std::memory_order_release);
  if (tail > durable_lsn_.load(std::memory_order_relaxed)) {
    durable_lsn_.store(tail, std::memory_order_release);
  }
  requested_lsn_ = tail;
  durable_cv_.notify_all();
  return Status::OK();
}

Status LogManager::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  if (wedged_) return WedgedStatusLocked();
  return WaitDurableLocked(lock,
                           appended_lsn_.load(std::memory_order_relaxed));
}

Status LogManager::FlushThrough(Lsn lsn) {
  if (lsn <= written_lsn_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  // A wedged log still pushes its complete frames: the page write behind
  // this call needs them in the file, and Open() truncates any torn tail.
  const Lsn target = appended_lsn_.load(std::memory_order_relaxed);
  if (std::fflush(file_) != 0) {
    Status failed = Status::IOError("cannot flush log");
    WedgeLocked(failed);
    return failed;
  }
  written_lsn_.store(target, std::memory_order_release);
  return Status::OK();
}

Status LogManager::WaitDurable(Lsn lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  lsn = std::min(lsn, appended_lsn_.load(std::memory_order_relaxed));
  return WaitDurableLocked(lock, lsn);
}

Status LogManager::Scan(const std::function<Status(const LogRecord&)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("log manager not open");
  // An unlocked fsync does not touch the stream position, but keep the scan
  // ordered after any in-flight barrier for a stable view of the tail.
  durable_cv_.wait(lock, [this] { return !barrier_in_flight_; });
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_SET);
  Status result;
  for (;;) {
    auto rec = ReadFrameLocked();
    if (!rec.ok()) break;  // torn/corrupt tail == end of log
    result = fn(*rec);
    if (!result.ok()) break;
  }
  std::fseek(file_, 0, SEEK_END);
  return result;
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

}  // namespace sentinel::storage
