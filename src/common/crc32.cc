#include "common/crc32.h"

#include <algorithm>
#include <array>
#include <string>

namespace sentinel {

namespace {

// Slicing-by-8: kTables[0] is the classic bytewise table; kTables[k][i] is
// the CRC of byte i followed by k zero bytes, so eight input bytes fold into
// the running CRC with eight independent lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < tables.size(); ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// Little-endian load; compilers fold it into one unaligned load.
std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const Crc32Tables kTables = BuildTables();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(bytes) ^ crc;
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
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
