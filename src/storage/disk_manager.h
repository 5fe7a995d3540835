#ifndef SENTINEL_STORAGE_DISK_MANAGER_H_
#define SENTINEL_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace sentinel::storage {

/// File-backed page store. Pages are allocated sequentially; page 0 is
/// reserved for the database header (catalog root, page count). Thread-safe.
///
/// Fault model: transient I/O errors are retried with bounded exponential
/// backoff; Sync() reaches stable storage via ::fsync (fflush alone only
/// moves bytes to the OS). Failpoints
/// (`disk.open`, `disk.read`, `disk.write`, `disk.extend`, `disk.sync`,
/// `disk.sync.after`, `disk.header`) cover every choke point — see
/// DESIGN.md "Fault model & failpoints".
class DiskManager {
 public:
  DiskManager() = default;
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating if necessary) the database file.
  Status Open(const std::string& path);
  Status Close();
  bool is_open() const { return file_ != nullptr; }

  /// Allocates a fresh page and returns its id.
  Result<PageId> AllocatePage();

  /// Extends the file so that `page_id` is readable (recovery: a crash can
  /// lose the file extension even though the WAL references the page).
  Status EnsureAllocated(PageId page_id);

  /// Reads page `page_id` into `page`. The page must have been allocated.
  Status ReadPage(PageId page_id, Page* page);

  /// Writes `page` to its slot in the file.
  Status WritePage(const Page& page);

  /// Flushes OS buffers AND the OS page cache (::fsync) to stable storage.
  Status Sync();

  /// Number of pages allocated so far.
  PageId page_count() const;

  /// Times a transient I/O error was absorbed by the retry loop.
  std::uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Completed fsync barriers.
  std::uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  /// Latency distribution of the fsync barriers counted by sync_count().
  const obs::LatencyHistogram& fsync_histogram() const { return fsync_ns_; }

 private:
  Status ReadPageCountLocked();
  Status WritePageCountLocked();
  /// fflush + fsync; the only way bytes are guaranteed on stable storage.
  Status SyncLocked();
  /// Runs `op`, retrying transient (IOError) failures with bounded
  /// exponential backoff. Non-transient statuses fail fast.
  Status RetryTransientIo(const std::function<Status()>& op);

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  PageId page_count_ = 1;  // page 0 is the header page
  std::atomic<std::uint64_t> io_retries_{0};
  std::atomic<std::uint64_t> sync_count_{0};
  obs::LatencyHistogram fsync_ns_;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_DISK_MANAGER_H_
