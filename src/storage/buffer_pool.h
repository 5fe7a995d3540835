#ifndef SENTINEL_STORAGE_BUFFER_POOL_H_
#define SENTINEL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/lru_list.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sentinel::obs {
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::storage {

class LogManager;

/// Fixed-capacity page cache with LRU replacement of unpinned frames.
/// Resident frames sit in an intrusive recency list, so a hit moves a frame
/// to the front without allocating; eviction takes the least recently
/// touched frame that is not pinned.
///
/// Callers must bracket page use with Fetch/New and Unpin; a pinned frame is
/// never evicted. Thread-safe via a single pool latch (adequate for the
/// workloads Sentinel drives through it; the active layer is the hot path,
/// not the buffer pool).
///
/// With a log attached, every dirty-page write (eviction, FlushPage,
/// FlushAll) first hands the log through the page's LSN to the OS, so no
/// page reaches the data file ahead of the records recovery needs to undo
/// it. Lock order is pool latch, then log mutex; the log never calls into
/// the pool.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, std::size_t capacity,
             LogManager* log = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the frame for `page_id`, reading it from disk on miss. The frame
  /// is returned pinned.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a new page on disk and returns its (pinned, dirty) frame.
  Result<Page*> NewPage();

  /// Releases one pin; `dirty` marks the frame as modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes the frame for `page_id` to disk if present and dirty.
  Status FlushPage(PageId page_id);

  /// Writes all dirty frames to disk.
  Status FlushAll();

  std::size_t capacity() const { return capacity_; }
  /// Number of resident pages (for tests/benchmarks).
  std::size_t resident_count() const;
  /// Number of resident pages with unwritten modifications (checkpoint
  /// pressure gauge; scans the frame table under the pool latch, which is
  /// fine at watchdog sampling rates).
  std::size_t dirty_count() const;
  // Counters are written under the pool latch but read lock-free by stats
  // surfaces, so they are relaxed atomics.
  std::uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Attaches the causal span tracer; disk reads on miss record page_read
  /// spans.
  void set_span_tracer(obs::SpanTracer* tracer) {
    span_tracer_.store(tracer, std::memory_order_release);
  }

 private:
  struct Frame : LruLink {
    Page page;
  };

  // Picks a frame to (re)use, evicting the LRU unpinned page if needed.
  // Requires mu_ held.
  Result<Frame*> GetFreeFrameLocked();
  // Writes a dirty page back after the log through its LSN. Requires mu_.
  Status WriteBackLocked(Page* page);

  DiskManager* disk_;
  LogManager* log_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Frame> frames_;  // sized once; frames never move
  std::unordered_map<PageId, Frame*> page_table_;
  LruList<Frame> lru_;  // resident frames
  std::vector<Frame*> free_frames_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_BUFFER_POOL_H_
