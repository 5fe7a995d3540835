#ifndef SENTINEL_COMMON_INLINE_VECTOR_H_
#define SENTINEL_COMMON_INLINE_VECTOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace sentinel::common {

/// A vector that keeps up to N elements in place and moves them all to the
/// heap only when it outgrows that, so lists that are almost always short (a
/// detection's constituents, a firing's priority path) cost no allocation.
/// Elements are contiguous in either mode. Inline slots past size() hold
/// value-initialized elements, so they never pin what a removed element
/// referenced.
template <typename T, std::size_t N>
class InlineVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using reverse_iterator = std::reverse_iterator<T*>;
  using const_reverse_iterator = std::reverse_iterator<const T*>;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> init) { assign(init); }
  InlineVector(const InlineVector&) = default;
  InlineVector& operator=(const InlineVector&) = default;
  InlineVector(InlineVector&& other) noexcept
      : size_(other.size_),
        inline_(std::move(other.inline_)),
        heap_(std::move(other.heap_)) {
    other.size_ = 0;
    other.heap_.clear();
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      inline_ = std::move(other.inline_);
      heap_ = std::move(other.heap_);
      other.size_ = 0;
      other.heap_.clear();
    }
    return *this;
  }
  InlineVector& operator=(std::initializer_list<T> init) {
    assign(init);
    return *this;
  }

  void push_back(T value) {
    if (on_heap()) {
      heap_.push_back(std::move(value));
    } else if (size_ < N) {
      inline_[size_] = std::move(value);
    } else {
      Spill(2 * N);
      heap_.push_back(std::move(value));
    }
    ++size_;
  }

  /// Makes room for `n` elements; beyond N this moves to the heap at once,
  /// so a long list grows with one allocation.
  void reserve(std::size_t n) {
    if (on_heap()) {
      heap_.reserve(n);
    } else if (n > N) {
      Spill(n);
    }
  }

  void clear() {
    std::fill(inline_.begin(), inline_.begin() + (on_heap() ? 0 : size_), T{});
    heap_.clear();
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return on_heap() ? heap_.data() : inline_.data(); }
  const T* data() const { return on_heap() ? heap_.data() : inline_.data(); }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  const_reverse_iterator rbegin() const { return const_reverse_iterator(end()); }
  const_reverse_iterator rend() const { return const_reverse_iterator(begin()); }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // The heap holds every element once the list has outgrown N; it is never
  // empty then, so an empty heap means inline mode.
  bool on_heap() const { return !heap_.empty(); }

  void Spill(std::size_t capacity) {
    heap_.reserve(std::max(capacity, size_ + 1));
    for (std::size_t i = 0; i < size_; ++i) {
      heap_.push_back(std::move(inline_[i]));
      inline_[i] = T{};
    }
  }

  void assign(std::initializer_list<T> init) {
    clear();
    reserve(init.size());
    for (const T& value : init) push_back(value);
  }

  std::size_t size_ = 0;
  std::array<T, N> inline_{};
  std::vector<T> heap_;
};

}  // namespace sentinel::common

#endif  // SENTINEL_COMMON_INLINE_VECTOR_H_
