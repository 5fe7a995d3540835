#include "common/symbol.h"

#include <functional>

namespace sentinel::common {

namespace {
constexpr std::size_t kInitialCapacity = 16;
}  // namespace

SymbolTable::Table::Table(std::size_t cap)
    : capacity(cap),
      mask(2 * cap - 1),
      slots(new std::atomic<SymbolId>[2 * cap]()),
      names(new std::atomic<const std::string*>[cap]()) {}

SymbolTable::~SymbolTable() = default;

SymbolId SymbolTable::Find(const Table& table, std::string_view name) {
  for (std::size_t i = std::hash<std::string_view>{}(name) & table.mask;;
       i = (i + 1) & table.mask) {
    const SymbolId id = table.slots[i].load(std::memory_order_acquire);
    if (id == kInvalidSymbol) return kInvalidSymbol;
    // The name was stored before the slot was published.
    if (*table.names[id - 1].load(std::memory_order_relaxed) == name) {
      return id;
    }
  }
}

void SymbolTable::Insert(Table* table, SymbolId id, const std::string& stored) {
  table->names[id - 1].store(&stored, std::memory_order_release);
  std::size_t i = std::hash<std::string_view>{}(stored) & table->mask;
  while (table->slots[i].load(std::memory_order_relaxed) != kInvalidSymbol) {
    i = (i + 1) & table->mask;
  }
  table->slots[i].store(id, std::memory_order_release);
}

SymbolId SymbolTable::Intern(std::string_view name) {
  if (SymbolId id = TryLookup(name); id != kInvalidSymbol) return id;

  std::lock_guard<std::mutex> lock(write_mu_);
  Table* table = tables_.empty() ? nullptr : tables_.back().get();
  if (table != nullptr) {
    if (SymbolId id = Find(*table, name); id != kInvalidSymbol) return id;
  }
  const std::size_t count = size_.load(std::memory_order_relaxed);
  if (table == nullptr || count == table->capacity) {
    // Full: index every name again in a table twice the size. Readers still
    // on the old table keep a consistent (older) view of it.
    auto grown = std::make_unique<Table>(
        table == nullptr ? kInitialCapacity : 2 * table->capacity);
    for (std::size_t i = 0; i < count; ++i) {
      Insert(grown.get(), static_cast<SymbolId>(i + 1), arena_[i]);
    }
    table = grown.get();
    tables_.push_back(std::move(grown));
    table_.store(table, std::memory_order_release);
  }
  const std::string& stored = arena_.emplace_back(name);
  const SymbolId id = static_cast<SymbolId>(count + 1);
  Insert(table, id, stored);
  size_.store(count + 1, std::memory_order_release);
  return id;
}

SymbolId SymbolTable::TryLookup(std::string_view name) const {
  const Table* table = table_.load(std::memory_order_acquire);
  return table != nullptr ? Find(*table, name) : kInvalidSymbol;
}

const std::string& SymbolTable::NameOf(SymbolId id) const {
  static const std::string kEmpty;
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr || id == kInvalidSymbol || id > table->capacity) {
    return kEmpty;
  }
  const std::string* name = table->names[id - 1].load(std::memory_order_acquire);
  return name != nullptr ? *name : kEmpty;
}

SymbolTable& SymbolTable::Global() {
  static SymbolTable* table = new SymbolTable();  // never destroyed
  return *table;
}

}  // namespace sentinel::common
