#ifndef SENTINEL_STORAGE_PAGE_H_
#define SENTINEL_STORAGE_PAGE_H_

#include <atomic>
#include <cstdint>
#include <cstring>

namespace sentinel::storage {

using PageId = std::uint32_t;
using Lsn = std::uint64_t;

constexpr PageId kInvalidPageId = 0xFFFFFFFF;
constexpr Lsn kInvalidLsn = 0;
constexpr std::size_t kPageSize = 4096;

/// In-memory frame for one disk page. The first bytes of `data` hold a
/// PageHeader (page id, LSN of the last modifying log record, next-page link
/// for heap files); the rest is payload managed by SlottedPage.
class Page {
 public:
  /// On-page header, stored at offset 0 of every page.
  struct Header {
    PageId page_id;
    std::uint32_t reserved;  // alignment padding for lsn
    Lsn lsn;
    PageId next_page_id;
    std::uint32_t reserved2;
  };
  static_assert(sizeof(Header) == 24, "unexpected page header layout");

  Page() { Reset(); }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  void Reset() {
    std::memset(data_, 0, kPageSize);
    header()->page_id = kInvalidPageId;
    header()->lsn = kInvalidLsn;
    header()->next_page_id = kInvalidPageId;
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }

  Header* header() { return reinterpret_cast<Header*>(data_); }
  const Header* header() const { return reinterpret_cast<const Header*>(data_); }

  PageId page_id() const { return header()->page_id; }
  void set_page_id(PageId id) { header()->page_id = id; }
  Lsn lsn() const { return header()->lsn; }
  /// Raises the page LSN to `lsn` unless it is already at least that high;
  /// returns whether it changed. Atomic, because transactions writing
  /// different records of one pinned page stamp it concurrently.
  bool RaiseLsn(Lsn lsn) {
    std::atomic_ref<Lsn> page_lsn(header()->lsn);
    Lsn current = page_lsn.load(std::memory_order_relaxed);
    while (current < lsn) {
      if (page_lsn.compare_exchange_weak(current, lsn,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  PageId next_page_id() const { return header()->next_page_id; }
  void set_next_page_id(PageId id) { header()->next_page_id = id; }

  /// Payload area following the header.
  static constexpr std::size_t kPayloadOffset = sizeof(Header);
  static constexpr std::size_t kPayloadSize = kPageSize - kPayloadOffset;
  std::uint8_t* payload() { return data_ + kPayloadOffset; }
  const std::uint8_t* payload() const { return data_ + kPayloadOffset; }

  // Buffer-pool bookkeeping (not persisted).
  bool is_dirty() const { return dirty_; }
  void set_dirty(bool dirty) { dirty_ = dirty; }
  int pin_count() const { return pin_count_; }
  void Pin() { ++pin_count_; }
  void Unpin() { --pin_count_; }

 private:
  alignas(8) std::uint8_t data_[kPageSize];
  bool dirty_ = false;
  int pin_count_ = 0;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_PAGE_H_
