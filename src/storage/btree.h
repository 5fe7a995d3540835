#ifndef SENTINEL_STORAGE_BTREE_H_
#define SENTINEL_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/slotted_page.h"

namespace sentinel::storage {

/// Disk-backed B+-tree mapping u64 keys to RIDs, built over the buffer pool.
/// The role Exodus's index structures played for Open OODB: the persistence
/// manager keeps its OID -> RID index here so that reopening a database does
/// not rescan the object heap.
///
/// Design notes:
///   - The root page id is stable for the tree's lifetime (the root is
///     split in place), so callers persist it once.
///   - Leaves are chained for range scans.
///   - Deletes are lazy: entries are removed but nodes are not merged
///     (the common production trade-off); a tree rebuilt from a heap scan
///     compacts naturally.
///   - The tree itself is not WAL-logged. Callers that need crash safety
///     rebuild it from their primary data after recovery (the persistence
///     manager does exactly that); on a clean close the tree persists.
class BTree {
 public:
  /// Allocates an empty tree; returns its (stable) root page id.
  static Result<PageId> Create(BufferPool* pool);

  BTree(BufferPool* pool, PageId root) : pool_(pool), root_(root) {}

  PageId root() const { return root_; }

  /// Inserts or overwrites `key`.
  Status Insert(std::uint64_t key, const Rid& value);

  Result<Rid> Lookup(std::uint64_t key) const;

  /// Removes `key`; NotFound if absent.
  Status Delete(std::uint64_t key);

  /// Resets the tree to empty (the root becomes an empty leaf). Interior and
  /// leaf pages below the old root are abandoned (no free list — see class
  /// comment); used when rebuilding an index after a crash.
  Status Clear();

  /// Invokes `fn(key, rid)` for every entry with from <= key <= to, in key
  /// order; stops early on non-OK.
  Status Scan(std::uint64_t from, std::uint64_t to,
              const std::function<Status(std::uint64_t, const Rid&)>& fn) const;

  /// Number of entries (walks the leaf chain).
  Result<std::size_t> Size() const;

  /// Height of the tree (1 == root is a leaf). For tests/benchmarks.
  Result<int> Height() const;

 private:
  struct SplitResult {
    bool split = false;
    std::uint64_t separator = 0;  // smallest key in the new right sibling
    PageId right = kInvalidPageId;
  };

  Status InsertRecursive(PageId node, std::uint64_t key, const Rid& value,
                         SplitResult* out);
  // Descends to the leaf that holds `key` and returns it pinned.
  Result<Page*> FindLeaf(std::uint64_t key) const;

  BufferPool* pool_;
  PageId root_;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_BTREE_H_
