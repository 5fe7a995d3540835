#ifndef SENTINEL_COMMON_SYMBOL_H_
#define SENTINEL_COMMON_SYMBOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sentinel::common {

/// Dense id of an interned string. 0 is reserved for "not interned".
using SymbolId = std::uint32_t;
constexpr SymbolId kInvalidSymbol = 0;

/// Interns class names, method signatures and rule names into dense
/// SymbolIds so hot paths compare and store integers instead of strings. The
/// string forms are kept (NameOf) for display and persistence.
///
/// Append-only: a name once interned keeps its id and its string for the
/// table's lifetime. The names live in an arena with stable addresses, and
/// the id index is an open-addressing table published through one atomic
/// pointer. Intern fills free slots of the published table in place and
/// publishes a table of twice the capacity only when the current one is
/// full, so Intern is amortized O(1) and the retired tables sum to less than
/// the live one: the memory kept is O(distinct names).
///
/// Concurrency: TryLookup and NameOf are lock-free (acquire loads of the
/// table pointer and of the slots). Intern takes a mutex only to add a new
/// name. Retired tables are kept until the table is destroyed, so a reader
/// holding an old one needs no hazard pointers; it may only miss the names
/// added since, which Intern then finds under the mutex.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  ~SymbolTable();

  /// Returns the id of `name`, interning it on first use. Thread-safe;
  /// lock-free when the name is already interned.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` or kInvalidSymbol if never interned. Lock-free.
  SymbolId TryLookup(std::string_view name) const;

  /// The string form of a valid id (ids are never recycled); "" for an id
  /// not (yet) interned.
  const std::string& NameOf(SymbolId id) const;

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Process-wide table shared by all detectors (ids stay comparable across
  /// the local detectors and the global event detector).
  static SymbolTable& Global();

 private:
  struct Table {
    explicit Table(std::size_t capacity);
    std::size_t capacity;  // names it indexes; power of two
    std::size_t mask;      // 2 * capacity - 1: load stays at most 1/2
    std::unique_ptr<std::atomic<SymbolId>[]> slots;  // 0 = free
    std::unique_ptr<std::atomic<const std::string*>[]> names;  // [id - 1]
  };

  static SymbolId Find(const Table& table, std::string_view name);
  // Writes `id` (whose name is `stored`) into `table`. Requires write_mu_.
  static void Insert(Table* table, SymbolId id, const std::string& stored);

  mutable std::mutex write_mu_;
  std::deque<std::string> arena_;  // stable addresses; guarded by write_mu_
  std::vector<std::unique_ptr<Table>> tables_;  // back() is the live one
  std::atomic<const Table*> table_{nullptr};
  std::atomic<std::size_t> size_{0};
};

}  // namespace sentinel::common

#endif  // SENTINEL_COMMON_SYMBOL_H_
