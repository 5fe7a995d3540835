#include "common/crc32.h"

#include <algorithm>
#include <array>
#include <string>

namespace sentinel {

namespace {

std::array<std::uint32_t, 256> BuildTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = BuildTable();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendFrame(const std::vector<std::uint8_t>& payload, BytesWriter* out) {
  out->PutU32(static_cast<std::uint32_t>(payload.size()));
  out->PutU32(Crc32(payload.data(), payload.size()));
  out->PutRaw(payload.data(), payload.size());
}

Status ReadFrame(std::FILE* file, std::uint32_t max_size,
                 std::vector<std::uint8_t>* payload) {
  std::uint32_t header[2];  // size, crc
  if (std::fread(header, sizeof(header), 1, file) != 1) {
    return Status::NotFound("end of log");
  }
  const std::uint32_t size = header[0];
  if (size == 0 || size > max_size) {
    return Status::Corruption("implausible record size " +
                              std::to_string(size));
  }
  // Grow geometrically but never past `size`, and only while bytes arrive.
  constexpr std::size_t kChunk = 1u << 16;
  payload->clear();
  while (payload->size() < size) {
    const std::size_t have = payload->size();
    const std::size_t want = std::min<std::size_t>(kChunk, size - have);
    if (payload->capacity() < have + want) {
      payload->reserve(std::min<std::size_t>(
          size, std::max(2 * payload->capacity(), have + want)));
    }
    payload->resize(have + want);
    if (std::fread(payload->data() + have, want, 1, file) != 1) {
      return Status::NotFound("torn record");
    }
  }
  if (Crc32(payload->data(), size) != header[1]) {
    return Status::Corruption("record checksum mismatch");
  }
  return Status::OK();
}

}  // namespace sentinel
