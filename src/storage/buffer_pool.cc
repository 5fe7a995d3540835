#include "storage/buffer_pool.h"

#include <string>

#include "common/failpoint.h"
#include "obs/span.h"
#include "storage/wal.h"

namespace sentinel::storage {

BufferPool::BufferPool(DiskManager* disk, std::size_t capacity,
                       LogManager* log)
    : disk_(disk), log_(log), capacity_(capacity), frames_(capacity) {
  free_frames_.reserve(capacity);
  for (std::size_t i = capacity; i > 0; --i) {
    free_frames_.push_back(&frames_[i - 1]);
  }
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Frame* frame = it->second;
    frame->page.Pin();
    lru_.Touch(frame);
    return &frame->page;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto frame = GetFreeFrameLocked();
  if (!frame.ok()) return frame.status();
  Page* page = &(*frame)->page;
  obs::SpanScope read_span;
  if (obs::SpanTracer* st = span_tracer_.load(std::memory_order_acquire);
      st != nullptr && st->enabled_for(obs::SpanKind::kPageRead)) {
    read_span.Start(st, obs::SpanKind::kPageRead, kInvalidTxnId,
                    "page " + std::to_string(page_id));
  }
  Status read = disk_->ReadPage(page_id, page);
  read_span.End();
  if (!read.ok()) {
    free_frames_.push_back(*frame);
    return read;
  }
  page->set_page_id(page_id);
  page->Pin();
  page_table_[page_id] = *frame;
  lru_.Touch(*frame);
  return page;
}

Result<Page*> BufferPool::NewPage() {
  auto page_id = disk_->AllocatePage();
  if (!page_id.ok()) return page_id.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto frame = GetFreeFrameLocked();
  if (!frame.ok()) return frame.status();
  Page* page = &(*frame)->page;
  page->Reset();
  page->set_page_id(*page_id);
  page->set_dirty(true);
  page->Pin();
  page_table_[*page_id] = *frame;
  lru_.Touch(*frame);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::InvalidArgument("unpin of non-resident page " +
                                   std::to_string(page_id));
  }
  Page* page = &it->second->page;
  if (page->pin_count() <= 0) {
    return Status::InvalidArgument("unpin of unpinned page " +
                                   std::to_string(page_id));
  }
  page->Unpin();
  if (dirty) page->set_dirty(true);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return Status::OK();
  Page* page = &it->second->page;
  return page->is_dirty() ? WriteBackLocked(page) : Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [page_id, frame] : page_table_) {
    Page* page = &frame->page;
    if (page->is_dirty()) SENTINEL_RETURN_NOT_OK(WriteBackLocked(page));
  }
  return Status::OK();
}

std::size_t BufferPool::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_table_.size();
}

std::size_t BufferPool::dirty_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dirty = 0;
  for (const auto& [page_id, frame] : page_table_) {
    (void)page_id;
    if (frame->page.is_dirty()) ++dirty;
  }
  return dirty;
}

Status BufferPool::WriteBackLocked(Page* page) {
  if (log_ != nullptr) SENTINEL_RETURN_NOT_OK(log_->FlushThrough(page->lsn()));
  SENTINEL_RETURN_NOT_OK(disk_->WritePage(*page));
  page->set_dirty(false);
  return Status::OK();
}

Result<BufferPool::Frame*> BufferPool::GetFreeFrameLocked() {
  if (!free_frames_.empty()) {
    Frame* frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least recently used unpinned frame.
  for (Frame* frame = lru_.Oldest(); frame != nullptr;
       frame = lru_.Newer(frame)) {
    Page* page = &frame->page;
    if (page->pin_count() > 0) continue;
    if (page->is_dirty()) {
      // Eviction writes a dirty page outside any commit path; a failure
      // here must surface to the caller, never silently drop the page.
      SENTINEL_FAILPOINT("bufferpool.evict");
      SENTINEL_RETURN_NOT_OK(WriteBackLocked(page));
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
    page_table_.erase(page->page_id());
    lru_.Remove(frame);
    return frame;
  }
  return Status::ResourceExhausted("all buffer pool frames are pinned");
}

}  // namespace sentinel::storage
