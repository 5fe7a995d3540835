#include "storage/disk_manager.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/failpoint.h"

namespace sentinel::storage {

namespace {
// The header page stores the allocated page count at payload offset 0.
constexpr long PageOffset(PageId page_id) {
  return static_cast<long>(page_id) * static_cast<long>(kPageSize);
}

constexpr int kMaxIoAttempts = 4;
constexpr std::chrono::milliseconds kRetryBackoffBase{1};
}  // namespace

DiskManager::~DiskManager() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status DiskManager::RetryTransientIo(const std::function<Status()>& op) {
  Status st;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(kRetryBackoffBase * (1 << (attempt - 1)));
      // A failed stdio op can leave the stream's error flag set, which
      // would poison the retry.
      if (file_ != nullptr) std::clearerr(file_);
    }
    st = op();
    if (st.ok() || !st.IsIOError()) return st;
  }
  return st;
}

Status DiskManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    return Status::InvalidArgument("disk manager already open: " + path_);
  }
  SENTINEL_FAILPOINT("disk.open");
  path_ = path;
  // Try existing file first, then create.
  file_ = std::fopen(path.c_str(), "r+b");
  const bool created = (file_ == nullptr);
  if (created) {
    file_ = std::fopen(path.c_str(), "w+b");
    if (file_ == nullptr) {
      return Status::IOError("cannot create database file: " + path);
    }
    page_count_ = 1;
    Page header;
    header.set_page_id(0);
    if (std::fwrite(header.data(), kPageSize, 1, file_) != 1) {
      return Status::IOError("cannot initialize header page: " + path);
    }
    SENTINEL_RETURN_NOT_OK(WritePageCountLocked());
  } else {
    SENTINEL_RETURN_NOT_OK(ReadPageCountLocked());
  }
  return Status::OK();
}

Status DiskManager::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  SENTINEL_RETURN_NOT_OK(WritePageCountLocked());
  SENTINEL_RETURN_NOT_OK(SyncLocked());
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("disk manager not open");
  SENTINEL_FAILPOINT("disk.extend");
  PageId id = page_count_++;
  // Extend the file with a zeroed page so later reads succeed.
  Page fresh;
  fresh.set_page_id(id);
  SENTINEL_RETURN_NOT_OK(RetryTransientIo([&]() -> Status {
    if (std::fseek(file_, PageOffset(id), SEEK_SET) != 0 ||
        std::fwrite(fresh.data(), kPageSize, 1, file_) != 1) {
      return Status::IOError("cannot extend database file");
    }
    return Status::OK();
  }));
  SENTINEL_RETURN_NOT_OK(WritePageCountLocked());
  return id;
}

Status DiskManager::EnsureAllocated(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("disk manager not open");
  SENTINEL_FAILPOINT("disk.extend");
  while (page_count_ <= page_id) {
    PageId id = page_count_++;
    Page fresh;
    fresh.set_page_id(id);
    SENTINEL_RETURN_NOT_OK(RetryTransientIo([&]() -> Status {
      if (std::fseek(file_, PageOffset(id), SEEK_SET) != 0 ||
          std::fwrite(fresh.data(), kPageSize, 1, file_) != 1) {
        return Status::IOError("cannot extend database file");
      }
      return Status::OK();
    }));
  }
  return WritePageCountLocked();
}

Status DiskManager::ReadPage(PageId page_id, Page* page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("disk manager not open");
  if (page_id >= page_count_) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(page_id));
  }
  SENTINEL_RETURN_NOT_OK(RetryTransientIo([&]() -> Status {
    SENTINEL_FAILPOINT("disk.read");
    if (std::fseek(file_, PageOffset(page_id), SEEK_SET) != 0 ||
        std::fread(page->data(), kPageSize, 1, file_) != 1) {
      return Status::IOError("cannot read page " + std::to_string(page_id));
    }
    return Status::OK();
  }));
  page->set_dirty(false);
  return Status::OK();
}

Status DiskManager::WritePage(const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("disk manager not open");
  if (page.page_id() >= page_count_) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(page.page_id()));
  }
  return RetryTransientIo([&]() -> Status {
    if (FailPointRegistry::AnyActive()) {
      FailPointAction action =
          FailPointRegistry::Instance().Evaluate("disk.write");
      if (action.mode == FailPointMode::kTornWrite) {
        // Write a prefix of the page, then fail — a torn page write. A
        // successful retry (or recovery redo) repairs it.
        const std::size_t n = action.torn_bytes != 0
                                  ? std::min<std::size_t>(action.torn_bytes,
                                                          kPageSize)
                                  : kPageSize / 2;
        if (std::fseek(file_, PageOffset(page.page_id()), SEEK_SET) == 0) {
          std::fwrite(page.data(), 1, n, file_);
          std::fflush(file_);
        }
        return Status::IOError("torn write injected at page " +
                               std::to_string(page.page_id()));
      }
      if (action.fired()) return action.ToStatus("disk.write");
    }
    if (std::fseek(file_, PageOffset(page.page_id()), SEEK_SET) != 0 ||
        std::fwrite(page.data(), kPageSize, 1, file_) != 1) {
      return Status::IOError("cannot write page " +
                             std::to_string(page.page_id()));
    }
    return Status::OK();
  });
}

Status DiskManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::IOError("disk manager not open");
  SENTINEL_RETURN_NOT_OK(RetryTransientIo([&]() -> Status {
    SENTINEL_FAILPOINT("disk.sync");
    return SyncLocked();
  }));
  // Crash site after the durability barrier: everything written so far must
  // survive a crash landing here.
  SENTINEL_FAILPOINT("disk.sync.after");
  return Status::OK();
}

Status DiskManager::SyncLocked() {
  const auto start = std::chrono::steady_clock::now();
  if (std::fflush(file_) != 0) {
    return Status::IOError("fflush failed: " + path_);
  }
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError("fsync failed: " + path_);
  }
  fsync_ns_.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

PageId DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

Status DiskManager::ReadPageCountLocked() {
  if (std::fseek(file_, PageOffset(0) + Page::kPayloadOffset, SEEK_SET) != 0) {
    return Status::IOError("cannot seek to header page");
  }
  PageId count = 0;
  if (std::fread(&count, sizeof(count), 1, file_) != 1) {
    return Status::Corruption("cannot read page count from header page");
  }
  if (count == 0) count = 1;
  page_count_ = count;
  return Status::OK();
}

Status DiskManager::WritePageCountLocked() {
  SENTINEL_FAILPOINT("disk.header");
  return RetryTransientIo([&]() -> Status {
    if (std::fseek(file_, PageOffset(0) + Page::kPayloadOffset, SEEK_SET) !=
        0) {
      return Status::IOError("cannot seek to header page");
    }
    if (std::fwrite(&page_count_, sizeof(page_count_), 1, file_) != 1) {
      return Status::IOError("cannot persist page count");
    }
    return Status::OK();
  });
}

}  // namespace sentinel::storage
