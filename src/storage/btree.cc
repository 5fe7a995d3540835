#include "storage/btree.h"

#include <cstring>
#include <vector>

namespace sentinel::storage {

namespace {

// Node layout within a page's payload:
//   u8  is_leaf | u8 pad | u16 count | u32 link
//   link: next-leaf page id (leaves) or first child page id (internal)
//   entries at offset 8:
//     leaf:     { u64 key, u32 page, u16 slot, u16 pad }   (16 bytes)
//     internal: { u64 key, u32 child }                      (12 bytes)
// Internal invariant: `link` (first child) holds keys < entries[0].key;
// entries[i].child holds keys in [entries[i].key, entries[i+1].key).
constexpr std::size_t kHeaderSize = 8;
constexpr std::size_t kLeafEntrySize = 16;
constexpr std::size_t kInternalEntrySize = 12;
constexpr std::uint16_t kLeafCapacity =
    static_cast<std::uint16_t>((Page::kPayloadSize - kHeaderSize) /
                               kLeafEntrySize);
constexpr std::uint16_t kInternalCapacity =
    static_cast<std::uint16_t>((Page::kPayloadSize - kHeaderSize) /
                               kInternalEntrySize);

struct LeafEntry {
  std::uint64_t key;
  std::uint32_t page;
  std::uint16_t slot;
  std::uint16_t pad;
};
static_assert(sizeof(LeafEntry) == kLeafEntrySize);

#pragma pack(push, 1)
struct InternalEntry {
  std::uint64_t key;
  std::uint32_t child;
};
#pragma pack(pop)
static_assert(sizeof(InternalEntry) == kInternalEntrySize);

/// Typed view over a node page's payload.
struct Node {
  std::uint8_t* payload;

  bool is_leaf() const { return payload[0] != 0; }
  void set_is_leaf(bool leaf) { payload[0] = leaf ? 1 : 0; }
  std::uint16_t count() const {
    std::uint16_t c;
    std::memcpy(&c, payload + 2, sizeof(c));
    return c;
  }
  void set_count(std::uint16_t c) { std::memcpy(payload + 2, &c, sizeof(c)); }
  std::uint32_t link() const {
    std::uint32_t l;
    std::memcpy(&l, payload + 4, sizeof(l));
    return l;
  }
  void set_link(std::uint32_t l) { std::memcpy(payload + 4, &l, sizeof(l)); }

  LeafEntry* leaf_entries() {
    return reinterpret_cast<LeafEntry*>(payload + kHeaderSize);
  }
  InternalEntry* internal_entries() {
    return reinterpret_cast<InternalEntry*>(payload + kHeaderSize);
  }

  // Index of the first leaf entry with key >= k.
  std::uint16_t LeafLowerBound(std::uint64_t k) {
    std::uint16_t lo = 0, hi = count();
    while (lo < hi) {
      std::uint16_t mid = static_cast<std::uint16_t>((lo + hi) / 2);
      if (leaf_entries()[mid].key < k) {
        lo = static_cast<std::uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Child page to descend into for key k (internal nodes).
  std::uint32_t ChildFor(std::uint64_t k) {
    std::uint32_t child = link();
    InternalEntry* entries = internal_entries();
    for (std::uint16_t i = 0; i < count(); ++i) {
      if (entries[i].key <= k) {
        child = entries[i].child;
      } else {
        break;
      }
    }
    return child;
  }
};

void InitLeaf(Page* page) {
  Node node{page->payload()};
  node.set_is_leaf(true);
  node.set_count(0);
  node.set_link(kInvalidPageId);
}

}  // namespace

Result<PageId> BTree::Create(BufferPool* pool) {
  auto page = pool->NewPage();
  if (!page.ok()) return page.status();
  InitLeaf(*page);
  PageId id = (*page)->page_id();
  SENTINEL_RETURN_NOT_OK(pool->UnpinPage(id, /*dirty=*/true));
  return id;
}

Result<Page*> BTree::FindLeaf(std::uint64_t key) const {
  PageId current = root_;
  for (;;) {
    auto page = pool_->FetchPage(current);
    if (!page.ok()) return page.status();
    Node node{(*page)->payload()};
    if (node.is_leaf()) return *page;
    PageId next = node.ChildFor(key);
    SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, false));
    current = next;
  }
}

Result<Rid> BTree::Lookup(std::uint64_t key) const {
  auto leaf = FindLeaf(key);
  if (!leaf.ok()) return leaf.status();
  Node node{(*leaf)->payload()};
  std::uint16_t pos = node.LeafLowerBound(key);
  const bool found = pos < node.count() && node.leaf_entries()[pos].key == key;
  Rid rid;
  if (found) {
    const LeafEntry& entry = node.leaf_entries()[pos];
    rid = Rid{entry.page, entry.slot};
  }
  SENTINEL_RETURN_NOT_OK(pool_->UnpinPage((*leaf)->page_id(), false));
  if (!found) return Status::NotFound("key not in index");
  return rid;
}

Status BTree::InsertRecursive(PageId node_id, std::uint64_t key,
                              const Rid& value, SplitResult* out) {
  out->split = false;
  auto page = pool_->FetchPage(node_id);
  if (!page.ok()) return page.status();
  Node node{(*page)->payload()};

  if (node.is_leaf()) {
    std::uint16_t pos = node.LeafLowerBound(key);
    LeafEntry* entries = node.leaf_entries();
    if (pos < node.count() && entries[pos].key == key) {
      entries[pos].page = value.page_id;
      entries[pos].slot = value.slot;
      return pool_->UnpinPage(node_id, true);
    }
    if (node.count() < kLeafCapacity) {
      std::memmove(entries + pos + 1, entries + pos,
                   (node.count() - pos) * sizeof(LeafEntry));
      entries[pos] = LeafEntry{key, value.page_id, value.slot, 0};
      node.set_count(static_cast<std::uint16_t>(node.count() + 1));
      return pool_->UnpinPage(node_id, true);
    }
    // Split the leaf.
    auto right_page = pool_->NewPage();
    if (!right_page.ok()) {
      (void)pool_->UnpinPage(node_id, false);
      return right_page.status();
    }
    InitLeaf(*right_page);
    Node right{(*right_page)->payload()};
    const std::uint16_t mid = node.count() / 2;
    const std::uint16_t moved = static_cast<std::uint16_t>(node.count() - mid);
    std::memcpy(right.leaf_entries(), entries + mid,
                moved * sizeof(LeafEntry));
    right.set_count(moved);
    right.set_link(node.link());
    node.set_link((*right_page)->page_id());
    node.set_count(mid);
    // Place the new entry.
    const std::uint64_t separator = right.leaf_entries()[0].key;
    Node* target = key < separator ? &node : &right;
    std::uint16_t tpos = target->LeafLowerBound(key);
    LeafEntry* tentries = target->leaf_entries();
    std::memmove(tentries + tpos + 1, tentries + tpos,
                 (target->count() - tpos) * sizeof(LeafEntry));
    tentries[tpos] = LeafEntry{key, value.page_id, value.slot, 0};
    target->set_count(static_cast<std::uint16_t>(target->count() + 1));
    out->split = true;
    out->separator = right.leaf_entries()[0].key;
    out->right = (*right_page)->page_id();
    SENTINEL_RETURN_NOT_OK(
        pool_->UnpinPage((*right_page)->page_id(), true));
    return pool_->UnpinPage(node_id, true);
  }

  // Internal node: descend.
  PageId child = node.ChildFor(key);
  SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(node_id, false));
  SplitResult child_split;
  SENTINEL_RETURN_NOT_OK(InsertRecursive(child, key, value, &child_split));
  if (!child_split.split) return Status::OK();

  // Insert (separator, right) into this node.
  page = pool_->FetchPage(node_id);
  if (!page.ok()) return page.status();
  node = Node{(*page)->payload()};
  InternalEntry* entries = node.internal_entries();
  std::uint16_t pos = 0;
  while (pos < node.count() && entries[pos].key < child_split.separator) {
    ++pos;
  }
  if (node.count() < kInternalCapacity) {
    std::memmove(entries + pos + 1, entries + pos,
                 (node.count() - pos) * sizeof(InternalEntry));
    entries[pos] = InternalEntry{child_split.separator, child_split.right};
    node.set_count(static_cast<std::uint16_t>(node.count() + 1));
    return pool_->UnpinPage(node_id, true);
  }
  // Split the internal node. First place the new entry into a scratch copy.
  std::vector<InternalEntry> all(entries, entries + node.count());
  all.insert(all.begin() + pos,
             InternalEntry{child_split.separator, child_split.right});
  const std::uint16_t total = static_cast<std::uint16_t>(all.size());
  const std::uint16_t mid = total / 2;  // all[mid] moves up as separator
  auto right_page = pool_->NewPage();
  if (!right_page.ok()) {
    (void)pool_->UnpinPage(node_id, false);
    return right_page.status();
  }
  Node right{(*right_page)->payload()};
  right.set_is_leaf(false);
  right.set_link(all[mid].child);  // first child of the right node
  const std::uint16_t right_count = static_cast<std::uint16_t>(total - mid - 1);
  std::memcpy(right.internal_entries(), all.data() + mid + 1,
              right_count * sizeof(InternalEntry));
  right.set_count(right_count);
  std::memcpy(entries, all.data(), mid * sizeof(InternalEntry));
  node.set_count(mid);
  out->split = true;
  out->separator = all[mid].key;
  out->right = (*right_page)->page_id();
  SENTINEL_RETURN_NOT_OK(pool_->UnpinPage((*right_page)->page_id(), true));
  return pool_->UnpinPage(node_id, true);
}

Status BTree::Insert(std::uint64_t key, const Rid& value) {
  SplitResult split;
  SENTINEL_RETURN_NOT_OK(InsertRecursive(root_, key, value, &split));
  if (!split.split) return Status::OK();

  // Root split: copy the old root into a fresh left node; the root page id
  // stays stable and becomes an internal node over {left, right}.
  auto root_page = pool_->FetchPage(root_);
  if (!root_page.ok()) return root_page.status();
  auto left_page = pool_->NewPage();
  if (!left_page.ok()) {
    (void)pool_->UnpinPage(root_, false);
    return left_page.status();
  }
  std::memcpy((*left_page)->payload(), (*root_page)->payload(),
              Page::kPayloadSize);
  Node root{(*root_page)->payload()};
  root.set_is_leaf(false);
  root.set_count(1);
  root.set_link((*left_page)->page_id());
  root.internal_entries()[0] = InternalEntry{split.separator, split.right};
  SENTINEL_RETURN_NOT_OK(pool_->UnpinPage((*left_page)->page_id(), true));
  return pool_->UnpinPage(root_, true);
}

Status BTree::Clear() {
  auto page = pool_->FetchPage(root_);
  if (!page.ok()) return page.status();
  InitLeaf(*page);
  return pool_->UnpinPage(root_, true);
}

Status BTree::Delete(std::uint64_t key) {
  auto leaf = FindLeaf(key);
  if (!leaf.ok()) return leaf.status();
  const PageId leaf_id = (*leaf)->page_id();
  Node node{(*leaf)->payload()};
  std::uint16_t pos = node.LeafLowerBound(key);
  if (pos >= node.count() || node.leaf_entries()[pos].key != key) {
    (void)pool_->UnpinPage(leaf_id, false);
    return Status::NotFound("key not in index");
  }
  LeafEntry* entries = node.leaf_entries();
  std::memmove(entries + pos, entries + pos + 1,
               (node.count() - pos - 1) * sizeof(LeafEntry));
  node.set_count(static_cast<std::uint16_t>(node.count() - 1));
  return pool_->UnpinPage(leaf_id, true);
}

Status BTree::Scan(
    std::uint64_t from, std::uint64_t to,
    const std::function<Status(std::uint64_t, const Rid&)>& fn) const {
  auto page = FindLeaf(from);
  for (;;) {
    if (!page.ok()) return page.status();
    const PageId current = (*page)->page_id();
    Node node{(*page)->payload()};
    const std::uint16_t count = node.count();
    bool done = false;
    Status st;
    for (std::uint16_t i = node.LeafLowerBound(from); i < count; ++i) {
      const LeafEntry& entry = node.leaf_entries()[i];
      if (entry.key > to) {
        done = true;
        break;
      }
      st = fn(entry.key, Rid{entry.page, entry.slot});
      if (!st.ok()) {
        done = true;
        break;
      }
    }
    PageId next = node.link();
    SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, false));
    SENTINEL_RETURN_NOT_OK(st);
    if (done || next == kInvalidPageId) break;
    page = pool_->FetchPage(next);
  }
  return Status::OK();
}

Result<std::size_t> BTree::Size() const {
  std::size_t total = 0;
  SENTINEL_RETURN_NOT_OK(Scan(0, UINT64_MAX,
                              [&total](std::uint64_t, const Rid&) {
                                ++total;
                                return Status::OK();
                              }));
  return total;
}

Result<int> BTree::Height() const {
  int height = 1;
  PageId current = root_;
  for (;;) {
    auto page = pool_->FetchPage(current);
    if (!page.ok()) return page.status();
    Node node{(*page)->payload()};
    const bool leaf = node.is_leaf();
    PageId next = leaf ? kInvalidPageId : node.link();
    SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, false));
    if (leaf) return height;
    ++height;
    current = next;
  }
}

}  // namespace sentinel::storage
