#ifndef SENTINEL_COMMON_CRC32_H_
#define SENTINEL_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sentinel {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init/final XOR
/// 0xFFFFFFFF). Pass a previous result as `seed` to checksum incrementally.
std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// The framed-record log format of the WAL and the event log: a native-endian
/// u32 payload size, the payload's CRC32, the payload. Appends one record.
void AppendFrame(const std::vector<std::uint8_t>& payload, BytesWriter* out);

/// Reads the record at `file`'s position into `payload`: OK for a whole
/// record whose CRC matches; NotFound at the end of the log, clean or torn;
/// Corruption for a size of 0 or above `max_size`, or a CRC mismatch. The
/// buffer grows only as bytes arrive and never past the record's size.
Status ReadFrame(std::FILE* file, std::uint32_t max_size,
                 std::vector<std::uint8_t>* payload);

}  // namespace sentinel

#endif  // SENTINEL_COMMON_CRC32_H_
