#include "storage/heap_file.h"

#include <string>

namespace sentinel::storage {

namespace {
/// Pins `page_id`, runs `fn(SlottedPage&, Page*)`, then unpins with the
/// dirty flag returned by `fn`.
template <typename Fn>
Status WithPage(BufferPool* pool, PageId page_id, Fn fn) {
  auto page = pool->FetchPage(page_id);
  if (!page.ok()) return page.status();
  SlottedPage sp(*page);
  bool dirty = false;
  Status st = fn(sp, **page, &dirty);
  Status unpin = pool->UnpinPage(page_id, dirty);
  return st.ok() ? unpin : st;
}
}  // namespace

Result<PageId> HeapFile::Create(BufferPool* pool) {
  auto page = pool->NewPage();
  if (!page.ok()) return page.status();
  SlottedPage sp(*page);
  sp.Init();
  PageId id = (*page)->page_id();
  SENTINEL_RETURN_NOT_OK(pool->UnpinPage(id, /*dirty=*/true));
  return id;
}

Result<Rid> HeapFile::Insert(const std::vector<std::uint8_t>& record,
                             PageId start_hint) {
  if (record.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record exceeds max size");
  }
  PageId current = start_hint != kInvalidPageId ? start_hint : head_;
  for (;;) {
    auto page = pool_->FetchPage(current);
    if (!page.ok()) return page.status();
    SlottedPage sp(*page);
    auto slot = sp.Insert(record.data(), static_cast<std::uint16_t>(record.size()));
    if (slot.ok()) {
      Rid rid{current, *slot};
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/true));
      return rid;
    }
    PageId next = (*page)->next_page_id();
    if (next == kInvalidPageId) {
      // Append a fresh page to the chain.
      auto fresh = pool_->NewPage();
      if (!fresh.ok()) {
        (void)pool_->UnpinPage(current, false);
        return fresh.status();
      }
      SlottedPage fresh_sp(*fresh);
      fresh_sp.Init();
      next = (*fresh)->page_id();
      (*page)->set_next_page_id(next);
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/true));
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(next, /*dirty=*/true));
      if (link_logger_) SENTINEL_RETURN_NOT_OK(link_logger_(current, next));
    } else {
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    }
    current = next;
  }
}

Status HeapFile::InsertAt(const Rid& rid, const std::vector<std::uint8_t>& record) {
  return WithPage(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    if (sp.IsLive(rid.slot)) {
                      return sp.Update(rid.slot, record.data(),
                                       static_cast<std::uint16_t>(record.size()));
                    }
                    return sp.InsertInto(
                        rid.slot, record.data(),
                        static_cast<std::uint16_t>(record.size()));
                  });
}

Result<std::vector<std::uint8_t>> HeapFile::Read(const Rid& rid) const {
  std::vector<std::uint8_t> out;
  Status st = WithPage(pool_, rid.page_id,
                       [&](SlottedPage& sp, Page&, bool*) -> Status {
                         auto rec = sp.Read(rid.slot);
                         if (!rec.ok()) return rec.status();
                         out = std::move(*rec);
                         return Status::OK();
                       });
  if (!st.ok()) return st;
  return out;
}

Status HeapFile::Update(const Rid& rid, const std::vector<std::uint8_t>& record) {
  return WithPage(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    return sp.Update(rid.slot, record.data(),
                                     static_cast<std::uint16_t>(record.size()));
                  });
}

Status HeapFile::Delete(const Rid& rid) {
  return WithPage(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    return sp.Delete(rid.slot);
                  });
}

Status HeapFile::Scan(
    const std::function<Status(const Rid&, const std::vector<std::uint8_t>&)>&
        fn) const {
  PageId current = head_;
  while (current != kInvalidPageId) {
    PageId next = kInvalidPageId;
    Status st = WithPage(pool_, current,
                         [&](SlottedPage& sp, Page& page, bool*) -> Status {
                           next = page.next_page_id();
                           for (SlotId s = 0; s < sp.slot_count(); ++s) {
                             if (!sp.IsLive(s)) continue;
                             auto rec = sp.Read(s);
                             if (!rec.ok()) return rec.status();
                             SENTINEL_RETURN_NOT_OK(fn(Rid{current, s}, *rec));
                           }
                           return Status::OK();
                         });
    SENTINEL_RETURN_NOT_OK(st);
    current = next;
  }
  return Status::OK();
}

Status HeapFile::SetPageLsn(PageId page_id, Lsn lsn) {
  return WithPage(pool_, page_id,
                  [&](SlottedPage&, Page& page, bool* dirty) -> Status {
                    *dirty = page.RaiseLsn(lsn);
                    return Status::OK();
                  });
}

}  // namespace sentinel::storage
