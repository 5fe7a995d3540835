#ifndef SENTINEL_COMMON_LRU_LIST_H_
#define SENTINEL_COMMON_LRU_LIST_H_

namespace sentinel {

/// Links of an item in an LruList. An item type derives from it, so linking
/// and unlinking allocate nothing. Not copyable: the links are addresses.
struct LruLink {
  LruLink() = default;
  LruLink(const LruLink&) = delete;
  LruLink& operator=(const LruLink&) = delete;

  LruLink* prev = nullptr;  // towards the most recently used end
  LruLink* next = nullptr;  // towards the least recently used end
};

/// Intrusive recency order over items of type T (T derives from LruLink).
/// A touch is a few pointer writes. The list does not own its items; an
/// item must be removed before it is destroyed.
template <typename T>
class LruList {
 public:
  LruList() { head_.prev = head_.next = &head_; }
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;

  /// Makes `item` the most recently used, linking it if it is not linked.
  void Touch(T* item) {
    LruLink* link = item;
    Remove(item);
    link->prev = &head_;
    link->next = head_.next;
    head_.next->prev = link;
    head_.next = link;
  }

  /// Unlinks `item`; a no-op when it is not linked.
  void Remove(T* item) {
    LruLink* link = item;
    if (link->prev == nullptr) return;
    link->prev->next = link->next;
    link->next->prev = link->prev;
    link->prev = link->next = nullptr;
  }

  /// The least recently used item, or nullptr when the list is empty.
  T* Oldest() { return Item(head_.prev); }
  /// The item used just after `item`, or nullptr when `item` is the newest.
  T* Newer(T* item) { return Item(static_cast<LruLink*>(item)->prev); }

 private:
  T* Item(LruLink* link) {
    return link == &head_ ? nullptr : static_cast<T*>(link);
  }

  LruLink head_;  // head_.next is the newest item, head_.prev the oldest
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_LRU_LIST_H_
