// Crash-recovery fuzz: random interleavings of inserts/updates/deletes across
// committed and uncommitted transactions, followed by a simulated crash
// (unflushed pages lost, WAL survives) and reopen. Invariant: exactly the
// committed state is visible afterwards.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "storage/storage_engine.h"

namespace sentinel::storage {
namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
  std::uint32_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state_ >> 33);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<unsigned>(n)); }

 private:
  std::uint64_t state_;
};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}
std::string Str(const std::vector<std::uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

class RecoveryFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryFuzzTest, CommittedStateExactlySurvivesCrash) {
  const int seed = GetParam();
  Lcg rng(static_cast<std::uint64_t>(seed));
  const std::string prefix =
      (std::filesystem::temp_directory_path() /
       ("sentinel_fuzz_" + std::to_string(::getpid()) + "_" +
        std::to_string(seed)))
          .string();
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());

  // expected committed value per rid ("" == deleted/never-committed).
  std::map<std::string, std::string> committed;
  std::vector<Rid> all_rids;
  PageId file;
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(prefix).ok());
    auto created = engine.CreateHeapFile();
    ASSERT_TRUE(created.ok());
    file = *created;

    auto key = [](const Rid& rid) {
      return std::to_string(rid.page_id) + ":" + std::to_string(rid.slot);
    };

    for (int round = 0; round < 12; ++round) {
      auto txn = engine.Begin();
      ASSERT_TRUE(txn.ok());
      // Shadow state for this transaction.
      std::map<std::string, std::string> local = committed;
      const int ops = 1 + rng.Below(8);
      for (int op = 0; op < ops; ++op) {
        const int kind = rng.Below(3);
        if (kind == 0 || all_rids.empty()) {
          std::string value =
              "v" + std::to_string(round) + "_" + std::to_string(op);
          auto rid = engine.Insert(*txn, file, Bytes(value));
          ASSERT_TRUE(rid.ok());
          all_rids.push_back(*rid);
          local[key(*rid)] = value;
        } else {
          const Rid& rid = all_rids[static_cast<std::size_t>(
              rng.Below(static_cast<int>(all_rids.size())))];
          auto it = local.find(key(rid));
          const bool live = it != local.end() && !it->second.empty();
          if (!live) continue;
          if (kind == 1) {
            std::string value = "u" + std::to_string(round) + "_" +
                                std::to_string(op);
            ASSERT_TRUE(engine.Update(*txn, file, rid, Bytes(value)).ok());
            local[key(rid)] = value;
          } else {
            ASSERT_TRUE(engine.Delete(*txn, file, rid).ok());
            local[key(rid)] = "";
          }
        }
      }
      const int fate = rng.Below(3);
      if (fate == 0) {
        ASSERT_TRUE(engine.Abort(*txn).ok());
      } else if (fate == 1) {
        ASSERT_TRUE(engine.Commit(*txn).ok());
        committed = local;
      } else {
        // Leave in flight — a loser at crash time. Each round uses fresh
        // rids or rids it could lock, so later rounds may block on its
        // locks; release them by aborting half the time at the *end*.
        if (rng.Below(2) == 0) {
          ASSERT_TRUE(engine.Abort(*txn).ok());
        } else {
          ASSERT_TRUE(engine.Commit(*txn).ok());
          committed = local;
        }
      }
    }
    ASSERT_TRUE(engine.log_manager()->Flush().ok());
    // Crash: buffered pages are lost.
    engine.SimulateCrash();
  }

  StorageEngine recovered;
  ASSERT_TRUE(recovered.Open(prefix).ok());
  auto txn = recovered.Begin();
  ASSERT_TRUE(txn.ok());
  std::map<std::string, std::string> visible;
  ASSERT_TRUE(recovered
                  .Scan(*txn, file,
                        [&](const Rid& rid, const std::vector<std::uint8_t>& rec) {
                          visible[std::to_string(rid.page_id) + ":" +
                                  std::to_string(rid.slot)] = Str(rec);
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(recovered.Commit(*txn).ok());

  // Every committed live record is visible with the right value...
  for (const auto& [k, v] : committed) {
    if (v.empty()) {
      EXPECT_EQ(visible.count(k), 0u) << "deleted record resurrected: " << k;
    } else {
      ASSERT_EQ(visible.count(k), 1u) << "lost record " << k;
      EXPECT_EQ(visible[k], v) << "wrong value at " << k;
    }
  }
  // ...and nothing else is.
  for (const auto& [k, v] : visible) {
    (void)v;
    auto it = committed.find(k);
    EXPECT_TRUE(it != committed.end() && !it->second.empty())
        << "phantom record " << k;
  }
  ASSERT_TRUE(recovered.Close().ok());
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzzTest, ::testing::Range(1, 9));

// A torn final append (injected via failpoint, then a crash) must never be
// replayed: the checksum catches the partial frame, Open() truncates it, and
// recovery sees exactly the state as of the last intact commit.
TEST(RecoveryTornWriteTest, TornTailRecordIsNeverReplayed) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() /
       ("sentinel_torn_" + std::to_string(::getpid())))
          .string();
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());

  PageId file;
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(prefix).ok());
    auto created = engine.CreateHeapFile();
    ASSERT_TRUE(created.ok());
    file = *created;

    auto txn1 = engine.Begin();
    ASSERT_TRUE(txn1.ok());
    ASSERT_TRUE(engine.Insert(*txn1, file, Bytes("intact")).ok());
    ASSERT_TRUE(engine.Commit(*txn1).ok());

    // txn2's insert append is torn: a strict prefix of the frame reaches
    // the OS before the "crash".
    auto txn2 = engine.Begin();
    ASSERT_TRUE(txn2.ok());
    ASSERT_TRUE(FailPointRegistry::Instance()
                    .Enable("wal.append", "torn(hit=1)")
                    .ok());
    auto rid2 = engine.Insert(*txn2, file, Bytes("torn-victim"));
    FailPointRegistry::Instance().DisableAll();
    EXPECT_FALSE(rid2.ok());  // the injected torn write surfaced as an error
    EXPECT_TRUE(engine.log_manager()->wedged());
    engine.SimulateCrash();
  }

  StorageEngine recovered;
  ASSERT_TRUE(recovered.Open(prefix).ok());
  // The partial frame was detected and physically truncated.
  EXPECT_GT(recovered.log_manager()->truncated_bytes(), 0u);
  auto txn = recovered.Begin();
  ASSERT_TRUE(txn.ok());
  int count = 0;
  std::string only;
  ASSERT_TRUE(recovered
                  .Scan(*txn, file,
                        [&](const Rid&, const std::vector<std::uint8_t>& rec) {
                          ++count;
                          only = Str(rec);
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(only, "intact");
  ASSERT_TRUE(recovered.Commit(*txn).ok());

  // The recovered log accepts appends again: the system is fully usable.
  auto txn2 = recovered.Begin();
  ASSERT_TRUE(txn2.ok());
  ASSERT_TRUE(recovered.Insert(*txn2, file, Bytes("after")).ok());
  ASSERT_TRUE(recovered.Commit(*txn2).ok());
  ASSERT_TRUE(recovered.Close().ok());
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

// Sweep every possible torn-frame length of the final append: whatever prefix
// of the last frame survives, recovery must land on the state of the last
// intact record and never crash or replay garbage.
TEST(RecoveryTornWriteTest, EveryTornPrefixLengthTruncatesCleanly) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() /
       ("sentinel_torn_sweep_" + std::to_string(::getpid())))
          .string();
  for (std::uint32_t torn_bytes : {1u, 3u, 4u, 7u, 8u, 9u, 20u}) {
    std::remove((prefix + ".db").c_str());
    std::remove((prefix + ".wal").c_str());
    PageId file;
    {
      StorageEngine engine;
      ASSERT_TRUE(engine.Open(prefix).ok());
      auto created = engine.CreateHeapFile();
      ASSERT_TRUE(created.ok());
      file = *created;
      auto txn1 = engine.Begin();
      ASSERT_TRUE(engine.Insert(*txn1, file, Bytes("keep")).ok());
      ASSERT_TRUE(engine.Commit(*txn1).ok());

      auto txn2 = engine.Begin();
      ASSERT_TRUE(FailPointRegistry::Instance()
                      .Enable("wal.append",
                              "torn(hit=1,bytes=" +
                                  std::to_string(torn_bytes) + ")")
                      .ok());
      EXPECT_FALSE(engine.Insert(*txn2, file, Bytes("gone")).ok());
      FailPointRegistry::Instance().DisableAll();
      engine.SimulateCrash();
    }
    StorageEngine recovered;
    ASSERT_TRUE(recovered.Open(prefix).ok()) << "torn_bytes=" << torn_bytes;
    auto txn = recovered.Begin();
    int count = 0;
    ASSERT_TRUE(recovered
                    .Scan(*txn, file,
                          [&](const Rid&, const std::vector<std::uint8_t>&) {
                            ++count;
                            return Status::OK();
                          })
                    .ok());
    EXPECT_EQ(count, 1) << "torn_bytes=" << torn_bytes;
    ASSERT_TRUE(recovered.Commit(*txn).ok());
    ASSERT_TRUE(recovered.Close().ok());
  }
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

}  // namespace
}  // namespace sentinel::storage
