#ifndef SENTINEL_COMMON_BYTES_H_
#define SENTINEL_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sentinel {

/// Append-only little-endian encoder used by object serialization and the
/// write-ahead log.
class BytesWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU16(std::uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(std::uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(std::uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(std::int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(std::int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Length-prefixed string (u32 length + bytes).
  void PutString(const std::string& s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Release() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder matching BytesWriter.
class BytesReader {
 public:
  BytesReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BytesReader(const std::vector<std::uint8_t>& buf)
      : BytesReader(buf.data(), buf.size()) {}

  Result<std::uint8_t> ReadU8() { return ReadScalar<std::uint8_t>(); }
  Result<std::uint16_t> ReadU16() { return ReadScalar<std::uint16_t>(); }
  Result<std::uint32_t> ReadU32() { return ReadScalar<std::uint32_t>(); }
  Result<std::uint64_t> ReadU64() { return ReadScalar<std::uint64_t>(); }
  Result<std::int32_t> ReadI32() { return ReadScalar<std::int32_t>(); }
  Result<std::int64_t> ReadI64() { return ReadScalar<std::int64_t>(); }
  Result<double> ReadF64() { return ReadScalar<double>(); }

  Result<bool> ReadBool() {
    auto v = ReadU8();
    if (!v.ok()) return v.status();
    return *v != 0;
  }

  Result<std::string> ReadString() {
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    if (pos_ + *len > size_) {
      return Status::Corruption("string extends past end of buffer");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
    pos_ += *len;
    return s;
  }

  /// Copies the next `n` bytes to `dst` (which may be null when `n` is 0).
  Status ReadRaw(void* dst, std::size_t n) {
    if (n > remaining()) return Status::Corruption("read past end of buffer");
    if (n != 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> ReadScalar() {
    if (pos_ + sizeof(T) > size_) {
      return Status::Corruption("read past end of buffer");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_BYTES_H_
