// Record decoder robustness: seeded bit flips, truncations, splices and
// overwritten length fields of valid serialized records, fed to
// LogRecord::Deserialize, Value::Deserialize and PersistentObject::Deserialize
// on their own. Each must decode to a value or fail with a Corruption status
// — never crash, over-read, return an out-of-range log record type, or make
// one allocation larger than the bytes it was given. The WAL frame's CRC
// stops almost every mutated payload before it reaches these decoders, so
// they are fuzzed here directly; every open decodes every heap record.
// Deterministic per seed.
//
// Builds into net_decode_fuzz_tests, whose allocation probe replaces the
// global allocation functions (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "allocation_probe.h"
#include "common/bytes.h"
#include "oodb/object.h"
#include "oodb/value.h"
#include "storage/log_record.h"

namespace sentinel {
namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
  std::uint32_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state_ >> 33);
  }
  std::size_t Below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

using Bytes = std::vector<std::uint8_t>;

/// One mutation of `bytes`: flip one bit, cut it short, copy a slice of it
/// over another position, or overwrite four bytes with a random u32 (a
/// hostile length field wherever it lands).
void Mutate(Lcg* rng, int kind, Bytes* bytes) {
  const std::size_t size = bytes->size();
  if (size == 0) return;
  switch (kind % 4) {
    case 0:
      (*bytes)[rng->Below(size)] ^=
          static_cast<std::uint8_t>(1u << rng->Below(8));
      break;
    case 1:
      bytes->resize(rng->Below(size));
      break;
    case 2: {
      const std::size_t from = rng->Below(size);
      const std::size_t len = 1 + rng->Below(size - from);
      const Bytes slice(bytes->begin() + from, bytes->begin() + from + len);
      const std::size_t to = rng->Below(size);
      std::copy_n(slice.begin(), std::min(len, size - to),
                  bytes->begin() + to);
      break;
    }
    default: {
      if (size < 4) return;
      const std::uint32_t len = rng->Next();
      std::memcpy(bytes->data() + rng->Below(size - 3), &len, sizeof(len));
      break;
    }
  }
}

/// The most one allocation may take while `n` bytes are decoded: a copy of
/// at most all of them, plus fixed-size objects.
std::size_t DecodeBudget(std::size_t n) { return n + 4096; }

/// Decodes `bytes` with `decode` under the allocation probe; returns the
/// decode status and the largest allocation it made.
Status DecodeProbed(const Bytes& bytes,
                    const std::function<Status(BytesReader*)>& decode,
                    std::size_t* largest) {
  BytesReader reader(bytes);
  AllocationProbe probe;
  Status st = decode(&reader);
  *largest = probe.largest();
  return st;
}

storage::LogRecord SampleLogRecord(Lcg* rng) {
  storage::LogRecord rec;
  rec.lsn = 41;
  rec.prev_lsn = 40;
  rec.txn_id = 7;
  rec.type = storage::LogRecordType::kClr;
  rec.rid = storage::Rid{12, 3};
  rec.before.assign(1 + rng->Below(64), 0xbe);
  rec.after.assign(1 + rng->Below(64), 0xaf);
  rec.undo_next_lsn = 39;
  rec.undone_type = storage::LogRecordType::kUpdate;
  return rec;
}

bool ValidType(storage::LogRecordType type) {
  const auto byte = static_cast<std::uint8_t>(type);
  return byte >= static_cast<std::uint8_t>(storage::LogRecordType::kBegin) &&
         byte <= static_cast<std::uint8_t>(storage::LogRecordType::kPageLink);
}

Status DecodeLogRecord(BytesReader* in) {
  auto rec = storage::LogRecord::Deserialize(in);
  if (!rec.ok()) return rec.status();
  if (!ValidType(rec->type) || !ValidType(rec->undone_type)) {
    return Status::Internal("decoded an out-of-range log record type");
  }
  return Status::OK();
}

Status DecodeValue(BytesReader* in) {
  return oodb::Value::Deserialize(in).status();
}

Status DecodeObject(BytesReader* in) {
  return oodb::PersistentObject::Deserialize(in).status();
}

class RecordFuzz : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kIterations = 400;

  /// Mutates `valid` kIterations times; each result must decode or fail
  /// with Corruption inside the allocation budget.
  void Run(Lcg* rng, const Bytes& valid,
           const std::function<Status(BytesReader*)>& decode) {
    for (int i = 0; i < kIterations; ++i) {
      Bytes bytes = valid;
      Mutate(rng, i, &bytes);
      std::size_t largest = 0;
      const Status st = DecodeProbed(bytes, decode, &largest);
      EXPECT_TRUE(st.ok() || st.IsCorruption())
          << "iteration " << i << ": " << st;
      EXPECT_LE(largest, DecodeBudget(bytes.size())) << "iteration " << i;
    }
  }
};

TEST_P(RecordFuzz, LogRecordDecodesOrReportsCorruption) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()));
  BytesWriter writer;
  SampleLogRecord(&rng).Serialize(&writer);
  Run(&rng, writer.data(), DecodeLogRecord);
}

TEST_P(RecordFuzz, ValueDecodesOrReportsCorruption) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const oodb::Value samples[] = {
      oodb::Value::String(std::string(1 + rng.Below(64), 's')),
      oodb::Value::Int(-5), oodb::Value::Double(2.5), oodb::Value::Bool(true),
      oodb::Value::OfOid(9), oodb::Value::Null()};
  for (const oodb::Value& value : samples) {
    BytesWriter writer;
    value.Serialize(&writer);
    Run(&rng, writer.data(), DecodeValue);
  }
}

TEST_P(RecordFuzz, PersistentObjectDecodesOrReportsCorruption) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  oodb::PersistentObject obj(17, "Order");
  obj.Set("name", oodb::Value::String(std::string(1 + rng.Below(48), 'n')));
  obj.Set("qty", oodb::Value::Int(500));
  obj.Set("price", oodb::Value::Double(9.75));
  obj.Set("owner", oodb::Value::OfOid(3));
  BytesWriter writer;
  obj.Serialize(&writer);
  Run(&rng, writer.data(), DecodeObject);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFuzz, ::testing::Range(1, 5));

// A before-image length of 64 MiB in a record of a few dozen bytes is
// corruption, found before any buffer is sized from it.
TEST(RecordDecode, HostileImageLengthIsCorruptionWithoutAllocation) {
  Lcg rng(1);
  BytesWriter writer;
  SampleLogRecord(&rng).Serialize(&writer);
  Bytes bytes = writer.data();
  // lsn, prev_lsn, txn_id (u64 each), type (u8), rid (u32 + u16).
  const std::size_t before_len_at = 3 * 8 + 1 + 4 + 2;
  const std::uint32_t hostile = 1u << 26;
  std::memcpy(bytes.data() + before_len_at, &hostile, sizeof(hostile));
  std::size_t largest = 0;
  const Status st = DecodeProbed(bytes, DecodeLogRecord, &largest);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_LE(largest, DecodeBudget(bytes.size()));
}

TEST(RecordDecode, OutOfRangeLogRecordTypeIsCorruption) {
  Lcg rng(2);
  BytesWriter writer;
  SampleLogRecord(&rng).Serialize(&writer);
  const std::size_t type_at = 3 * 8;
  const std::size_t undone_at = writer.data().size() - 1;
  for (std::size_t at : {type_at, undone_at}) {
    for (std::uint8_t byte : {0, 10, 255}) {
      Bytes bytes = writer.data();
      bytes[at] = byte;
      BytesReader reader(bytes);
      EXPECT_TRUE(
          storage::LogRecord::Deserialize(&reader).status().IsCorruption())
          << "byte " << int{byte} << " at offset " << at;
    }
  }
}

}  // namespace
}  // namespace sentinel
