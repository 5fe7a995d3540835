// Framed-record log robustness: seeded bit flips, truncations and splices of
// valid event-log and WAL files. EventLog::Load must return the recorded
// occurrences' prefix or fail with a Corruption status; the WAL's scan (Open
// and Scan) must return the appended records' prefix. Neither may crash, and
// no allocation may exceed what the shared frame reader (ReadFrame) bounds:
// a record buffer that grows only as bytes arrive. A splice can move whole
// valid records, so after one every returned record need only be one that
// was written. Deterministic per seed.
//
// Builds into net_decode_fuzz_tests, whose allocation probe replaces the
// global allocation functions (see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "allocation_probe.h"
#include "common/bytes.h"
#include "detector/event_log.h"
#include "net/protocol.h"
#include "storage/wal.h"

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

enum class Mutation { kFlip, kTruncate, kSplice };

/// One mutation of `bytes`: flip one bit, cut the file short, or copy a
/// slice of it over another position (possibly past the end).
void Mutate(Lcg* rng, Mutation kind, std::string* bytes) {
  const std::size_t size = bytes->size();
  if (size == 0) return;
  switch (kind) {
    case Mutation::kFlip:
      (*bytes)[rng->Below(size)] ^= static_cast<char>(1u << rng->Below(8));
      break;
    case Mutation::kTruncate:
      bytes->resize(rng->Below(size));
      break;
    case Mutation::kSplice: {
      const std::size_t from = rng->Below(size);
      const std::size_t len = 1 + rng->Below(size - from);
      const std::string slice = bytes->substr(from, len);
      const std::size_t to = rng->Below(size);
      bytes->replace(to, std::min(len, size - to), slice);
      break;
    }
  }
}

/// The most one allocation may take while a file of `file_size` bytes is
/// read back: a record buffer at most twice the bytes read plus one 64 KiB
/// read chunk, and fixed-size objects.
std::size_t ReadBudget(std::size_t file_size) {
  return 2 * file_size + (1u << 16) + 4096;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// True when `got` is a prefix of `want`, or (after a splice) when every
/// element of `got` occurs in `want`.
bool PrefixOrMembers(const std::vector<std::string>& got,
                     const std::vector<std::string>& want, Mutation kind) {
  if (kind == Mutation::kSplice) {
    return std::all_of(got.begin(), got.end(), [&](const std::string& g) {
      return std::find(want.begin(), want.end(), g) != want.end();
    });
  }
  return got.size() <= want.size() &&
         std::equal(got.begin(), got.end(), want.begin());
}

class FrameFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sentinel_frame_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static constexpr int kIterations = 150;
  std::filesystem::path dir_;
};

std::string Encoded(const detector::PrimitiveOccurrence& occ) {
  BytesWriter writer;
  net::EncodeOccurrence(occ, &writer);
  return std::string(writer.data().begin(), writer.data().end());
}

TEST_P(FrameFuzz, EventLogLoadsAPrefixOrReportsCorruption) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::string> written;
  {
    detector::EventLog log;
    ASSERT_TRUE(log.OpenFile(Path("valid.evlog")).ok());
    for (int i = 0; i < 8; ++i) {
      detector::PrimitiveOccurrence occ;
      occ.event_name = "e" + std::to_string(i);
      occ.class_name = "Order";
      occ.method_signature = "void f(string s)";
      occ.oid = static_cast<std::uint64_t>(i + 1);
      occ.txn = 1;
      auto params = std::make_shared<detector::ParamList>();
      params->Insert("s", oodb::Value::String(std::string(rng.Below(64), 'p')));
      params->Insert("v", oodb::Value::Int(i));
      occ.params = params;
      log.Record(occ);
      written.push_back(Encoded(occ));
    }
    ASSERT_TRUE(log.Close().ok());
  }
  const std::string valid = ReadFile(Path("valid.evlog"));
  ASSERT_FALSE(valid.empty());

  for (int i = 0; i < kIterations; ++i) {
    const auto kind = static_cast<Mutation>(i % 3);
    std::string bytes = valid;
    Mutate(&rng, kind, &bytes);
    WriteFile(Path("mutated.evlog"), bytes);

    detector::EventLog log;
    ASSERT_TRUE(log.OpenFile(Path("mutated.evlog")).ok());
    std::size_t largest = 0;
    Result<std::vector<detector::PrimitiveOccurrence>> loaded =
        Status::Internal("not loaded");
    {
      AllocationProbe probe;
      loaded = log.Load();
      largest = probe.largest();
    }
    ASSERT_TRUE(log.Close().ok());
    EXPECT_LE(largest, ReadBudget(bytes.size())) << "iteration " << i;
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsCorruption())
          << "iteration " << i << ": " << loaded.status();
      continue;
    }
    std::vector<std::string> got;
    for (const auto& occ : *loaded) got.push_back(Encoded(occ));
    EXPECT_TRUE(PrefixOrMembers(got, written, kind)) << "iteration " << i;
  }
}

TEST_P(FrameFuzz, WalScanReturnsAPrefixOfTheAppendedRecords) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  std::vector<std::string> written;
  {
    storage::LogManager wal(storage::LogManager::Options{false});
    ASSERT_TRUE(wal.Open(Path("valid.wal")).ok());
    for (int i = 0; i < 12; ++i) {
      storage::LogRecord rec;
      rec.txn_id = static_cast<storage::TxnId>(1 + i / 3);
      rec.type = i % 3 == 0 ? storage::LogRecordType::kBegin
                            : storage::LogRecordType::kInsert;
      rec.after.assign(rng.Below(96), static_cast<std::uint8_t>(i));
      auto lsn = wal.Append(rec);
      ASSERT_TRUE(lsn.ok());
      rec.lsn = *lsn;
      BytesWriter writer;
      rec.Serialize(&writer);
      written.emplace_back(writer.data().begin(), writer.data().end());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  const std::string valid = ReadFile(Path("valid.wal"));
  ASSERT_FALSE(valid.empty());

  for (int i = 0; i < kIterations; ++i) {
    const auto kind = static_cast<Mutation>(i % 3);
    std::string bytes = valid;
    Mutate(&rng, kind, &bytes);
    WriteFile(Path("mutated.wal"), bytes);

    std::vector<std::string> got;
    std::size_t largest = 0;
    {
      storage::LogManager wal(storage::LogManager::Options{false});
      AllocationProbe probe;
      ASSERT_TRUE(wal.Open(Path("mutated.wal")).ok()) << "iteration " << i;
      ASSERT_TRUE(wal.Scan([&](const storage::LogRecord& rec) {
                       BytesWriter writer;
                       rec.Serialize(&writer);
                       got.emplace_back(writer.data().begin(),
                                        writer.data().end());
                       return Status::OK();
                     })
                      .ok());
      largest = probe.largest();
      ASSERT_TRUE(wal.Close().ok());
    }
    EXPECT_LE(largest, ReadBudget(bytes.size())) << "iteration " << i;
    EXPECT_TRUE(PrefixOrMembers(got, written, kind)) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace sentinel
