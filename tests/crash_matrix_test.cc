// Crash-consistency matrix: a child process runs a commit workload with a
// crash failpoint armed at one WAL/disk choke point, dies mid-operation via
// std::_Exit (stdio buffers lost, fsync'd bytes kept — a process crash), and
// the parent reopens the database and checks the fundamental invariant:
//
//   every commit the child observed as successful is visible after recovery;
//   the never-committed transaction is not.
//
// The child records each acknowledged commit in a progress file using raw
// write()+fsync(), which survives _Exit.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "storage/storage_engine.h"

namespace sentinel {
namespace {

using storage::PageId;
using storage::StorageEngine;

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Appends one line to the progress file, durably (raw fd: survives _Exit).
void RecordProgress(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (::write(fd, out.data(), out.size()) !=
      static_cast<ssize_t>(out.size())) {
    std::_Exit(7);
  }
  if (::fsync(fd) != 0) std::_Exit(7);
}

constexpr int kRounds = 8;

/// Child body. Exits 42 if the armed crash failpoint fired, 0 if the
/// workload completed without the site being exercised, 7 on harness bugs.
[[noreturn]] void ChildWorkload(const std::string& prefix,
                                const std::string& progress_path,
                                const std::string& failpoint_config) {
  int fd = ::open(progress_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) std::_Exit(7);

  StorageEngine engine;
  if (!engine.Open(prefix).ok()) std::_Exit(7);
  auto file = engine.CreateHeapFile();
  if (!file.ok()) std::_Exit(7);
  RecordProgress(fd, "file " + std::to_string(*file));

  // A committed baseline and a never-committed loser, both before the fault
  // is armed: recovery must keep the first and roll back the second no
  // matter where the crash lands.
  {
    auto txn = engine.Begin();
    if (!txn.ok() || !engine.Insert(*txn, *file, Bytes("base")).ok() ||
        !engine.Commit(*txn).ok()) {
      std::_Exit(7);
    }
    RecordProgress(fd, "commit base");
  }
  auto loser = engine.Begin();
  if (!loser.ok() || !engine.Insert(*loser, *file, Bytes("loser")).ok()) {
    std::_Exit(7);
  }

  if (!FailPointRegistry::Instance().Configure(failpoint_config).ok()) {
    std::_Exit(7);
  }

  // Commit rounds; a crash can land inside any Insert/Commit/Checkpoint.
  // Only commits that RETURNED OK are recorded — the invariant under test.
  for (int i = 0; i < kRounds; ++i) {
    const std::string name = "round-" + std::to_string(i);
    auto txn = engine.Begin();
    if (!txn.ok()) break;
    if (!engine.Insert(*txn, *file, Bytes(name)).ok()) {
      (void)engine.Abort(*txn);
      continue;
    }
    if (engine.Commit(*txn).ok()) {
      RecordProgress(fd, "commit " + name);
    }
    // Push dirty pages through disk.write/disk.sync sites as well.
    (void)engine.Checkpoint();
  }
  std::_Exit(0);  // site never fired (or only injected errors): fine too
}

/// Non-parameterized variant of the crash-matrix fixture, for one-off
/// group-commit scenarios (wedge containment, async durability).
class CrashMatrixFixtureBase : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sentinel_crash_matrix_f_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().DisableAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

class CrashMatrixTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    std::string name = GetParam();
    for (char& c : name) {
      if (c == '.' || c == '=' || c == '(' || c == ')') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() /
            ("sentinel_crash_matrix_" + std::to_string(::getpid()) + "_" +
             name))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().DisableAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_P(CrashMatrixTest, CommittedSurvivesUncommittedRollsBack) {
  const std::string prefix = dir_ + "/db";
  const std::string progress_path = dir_ + "/progress";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildWorkload(prefix, progress_path, GetParam());

  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status)) << "child killed by signal "
                                      << WTERMSIG(wait_status);
  const int code = WEXITSTATUS(wait_status);
  ASSERT_TRUE(code == kFailPointCrashExitCode || code == 0)
      << "unexpected child exit code " << code;

  // Parse the durably-recorded progress.
  std::set<std::string> acknowledged;
  PageId file = storage::kInvalidPageId;
  std::ifstream progress(progress_path);
  std::string line;
  while (std::getline(progress, line)) {
    std::istringstream in(line);
    std::string verb, arg;
    in >> verb >> arg;
    if (verb == "file") {
      file = static_cast<PageId>(std::stoul(arg));
    } else if (verb == "commit") {
      acknowledged.insert(arg == "base" ? "base" : arg);
    }
  }
  ASSERT_NE(file, storage::kInvalidPageId);
  ASSERT_TRUE(acknowledged.count("base"));

  // Reopen (runs recovery) and collect what survived.
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(prefix).ok());
  auto txn = engine.Begin();
  ASSERT_TRUE(txn.ok());
  std::set<std::string> visible;
  ASSERT_TRUE(engine
                  .Scan(*txn, file,
                        [&](const storage::Rid&,
                            const std::vector<std::uint8_t>& rec) {
                          visible.insert(std::string(rec.begin(), rec.end()));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(engine.Commit(*txn).ok());
  ASSERT_TRUE(engine.Close().ok());

  // Invariants: acknowledged ⊆ visible; the loser never reappears.
  acknowledged.erase("base");
  EXPECT_TRUE(visible.count("base"));
  EXPECT_FALSE(visible.count("loser"))
      << "uncommitted transaction resurrected after crash";
  for (const std::string& name : acknowledged) {
    EXPECT_TRUE(visible.count(name))
        << "acknowledged commit '" << name << "' lost after crash at "
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, CrashMatrixTest,
    ::testing::Values("wal.append=crash(hit=1)",      //
                      "wal.append=crash(hit=3)",      //
                      "wal.append.after=crash(hit=1)",//
                      "wal.flush=crash(hit=1)",       //
                      "wal.flush=crash(hit=3)",       //
                      "disk.write=crash(hit=1)",      //
                      "disk.sync=crash(hit=1)",       //
                      "disk.sync.after=crash(hit=1)", //
                      "disk.extend=crash(hit=1)",     //
                      "disk.header=crash(hit=1)"));

// ---------------------------------------------------------------------------
// Group commit under crashes: N threads commit concurrently while a
// `wal.flush` crash failpoint kills the process mid-barrier (on the
// group-commit thread). The invariant is the same: a commit acknowledged to
// any thread was covered by a completed fsync barrier, so it must be
// visible after recovery; the never-committed loser must not.
// ---------------------------------------------------------------------------

constexpr int kGroupThreads = 4;
constexpr int kGroupRounds = 6;

[[noreturn]] void GroupCommitChildWorkload(const std::string& prefix,
                                           const std::string& progress_path,
                                           const std::string& failpoint_config) {
  int fd = ::open(progress_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) std::_Exit(7);

  StorageEngine engine;
  if (!engine.Open(prefix).ok()) std::_Exit(7);
  auto file = engine.CreateHeapFile();
  if (!file.ok()) std::_Exit(7);
  RecordProgress(fd, "file " + std::to_string(*file));

  {
    auto txn = engine.Begin();
    if (!txn.ok() || !engine.Insert(*txn, *file, Bytes("base")).ok() ||
        !engine.Commit(*txn).ok()) {
      std::_Exit(7);
    }
    RecordProgress(fd, "commit base");
  }
  auto loser = engine.Begin();
  if (!loser.ok() || !engine.Insert(*loser, *file, Bytes("loser")).ok()) {
    std::_Exit(7);
  }

  if (!FailPointRegistry::Instance().Configure(failpoint_config).ok()) {
    std::_Exit(7);
  }

  std::mutex progress_mu;
  std::vector<std::thread> threads;
  threads.reserve(kGroupThreads);
  for (int t = 0; t < kGroupThreads; ++t) {
    threads.emplace_back([&engine, &file, &progress_mu, fd, t] {
      for (int i = 0; i < kGroupRounds; ++i) {
        const std::string name =
            "t" + std::to_string(t) + "-r" + std::to_string(i);
        auto txn = engine.Begin();
        if (!txn.ok()) return;  // log wedged or crashed under us
        if (!engine.Insert(*txn, *file, Bytes(name)).ok()) {
          (void)engine.Abort(*txn);
          continue;
        }
        if (engine.Commit(*txn).ok()) {
          std::lock_guard<std::mutex> lock(progress_mu);
          RecordProgress(fd, "commit " + name);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::_Exit(0);
}

class GroupCommitCrashMatrixTest : public CrashMatrixTest {};

TEST_P(GroupCommitCrashMatrixTest, AcknowledgedGroupCommitsSurviveCrash) {
  const std::string prefix = dir_ + "/db";
  const std::string progress_path = dir_ + "/progress";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) GroupCommitChildWorkload(prefix, progress_path, GetParam());

  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status))
      << "child killed by signal " << WTERMSIG(wait_status);
  const int code = WEXITSTATUS(wait_status);
  ASSERT_TRUE(code == kFailPointCrashExitCode || code == 0)
      << "unexpected child exit code " << code;

  std::set<std::string> acknowledged;
  PageId file = storage::kInvalidPageId;
  std::ifstream progress(progress_path);
  std::string line;
  while (std::getline(progress, line)) {
    std::istringstream in(line);
    std::string verb, arg;
    in >> verb >> arg;
    if (verb == "file") {
      file = static_cast<PageId>(std::stoul(arg));
    } else if (verb == "commit") {
      acknowledged.insert(arg);
    }
  }
  ASSERT_NE(file, storage::kInvalidPageId);
  ASSERT_TRUE(acknowledged.count("base"));

  StorageEngine engine;
  ASSERT_TRUE(engine.Open(prefix).ok());
  auto txn = engine.Begin();
  ASSERT_TRUE(txn.ok());
  std::set<std::string> visible;
  ASSERT_TRUE(engine
                  .Scan(*txn, file,
                        [&](const storage::Rid&,
                            const std::vector<std::uint8_t>& rec) {
                          visible.insert(std::string(rec.begin(), rec.end()));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(engine.Commit(*txn).ok());
  ASSERT_TRUE(engine.Close().ok());

  EXPECT_FALSE(visible.count("loser"))
      << "uncommitted transaction resurrected after crash";
  for (const std::string& name : acknowledged) {
    EXPECT_TRUE(visible.count(name))
        << "acknowledged group commit '" << name << "' lost after crash at "
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroupSites, GroupCommitCrashMatrixTest,
    ::testing::Values("wal.flush=crash(hit=1)",  //
                      "wal.flush=crash(hit=3)",  //
                      "wal.append=crash(hit=5)"));

// Error-mode wedge containment, in-process: a failed barrier fails every
// commit in the batch, wedges the log against further work, and recovery
// after a simulated crash keeps exactly the commits acknowledged before the
// wedge.
TEST_F(CrashMatrixFixtureBase, GroupBarrierErrorWedgesAndRecoversPrefix) {
  const std::string prefix = dir_ + "/db";
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(prefix).ok());
  auto file = engine.CreateHeapFile();
  ASSERT_TRUE(file.ok());

  std::set<std::string> acknowledged;
  {
    auto txn = engine.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(engine.Insert(*txn, *file, Bytes("base")).ok());
    ASSERT_TRUE(engine.Commit(*txn).ok());
    acknowledged.insert("base");
  }
  auto loser = engine.Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE(engine.Insert(*loser, *file, Bytes("loser")).ok());

  // The next barrier (and every later one) fails: the first group batch all
  // errors out and the log wedges.
  ASSERT_TRUE(FailPointRegistry::Instance().Enable("wal.flush", "error").ok());
  std::atomic<int> commit_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kGroupThreads);
  for (int t = 0; t < kGroupThreads; ++t) {
    threads.emplace_back([&engine, &file, &commit_failures, t] {
      const std::string name = "post-wedge-" + std::to_string(t);
      auto txn = engine.Begin();
      if (!txn.ok()) {
        commit_failures.fetch_add(1);
        return;
      }
      if (!engine.Insert(*txn, *file, Bytes(name)).ok() ||
          !engine.Commit(*txn).ok()) {
        commit_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every member of the failed batch saw the error; none was acked.
  EXPECT_EQ(commit_failures.load(), kGroupThreads);
  EXPECT_TRUE(engine.log_manager()->wedged());
  EXPECT_EQ(engine.log_manager()->sync_count(), 1u);  // the base commit only
  FailPointRegistry::Instance().DisableAll();

  engine.SimulateCrash();

  StorageEngine reopened;
  ASSERT_TRUE(reopened.Open(prefix).ok());
  auto txn = reopened.Begin();
  ASSERT_TRUE(txn.ok());
  std::set<std::string> visible;
  ASSERT_TRUE(reopened
                  .Scan(*txn, *file,
                        [&](const storage::Rid&,
                            const std::vector<std::uint8_t>& rec) {
                          visible.insert(std::string(rec.begin(), rec.end()));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(reopened.Commit(*txn).ok());
  ASSERT_TRUE(reopened.Close().ok());

  EXPECT_TRUE(visible.count("base"));
  EXPECT_FALSE(visible.count("loser"));
}

// Async commit across a crash: acks that the durable watermark had not yet
// covered may be lost (the documented trade), but everything acknowledged
// by a completed WaitWalDurable must survive, and the loser never returns.
TEST_F(CrashMatrixFixtureBase, AsyncCommitCrashKeepsDurableWatermarkPrefix) {
  const std::string prefix = dir_ + "/db";
  const std::string progress_path = dir_ + "/progress";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int fd = ::open(progress_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0) std::_Exit(7);
    StorageEngine engine;
    if (!engine.Open(prefix).ok()) std::_Exit(7);
    auto file = engine.CreateHeapFile();
    if (!file.ok()) std::_Exit(7);
    RecordProgress(fd, "file " + std::to_string(*file));
    auto loser = engine.Begin();
    if (!loser.ok() || !engine.Insert(*loser, *file, Bytes("loser")).ok()) {
      std::_Exit(7);
    }
    engine.set_commit_durability(storage::CommitDurability::kAsync);
    if (!FailPointRegistry::Instance()
             .Configure("wal.flush=crash(hit=2)")
             .ok()) {
      std::_Exit(7);
    }
    for (int i = 0; i < kRounds; ++i) {
      const std::string name = "round-" + std::to_string(i);
      auto txn = engine.Begin();
      if (!txn.ok()) break;
      if (!engine.Insert(*txn, *file, Bytes(name)).ok()) {
        (void)engine.Abort(*txn);
        continue;
      }
      if (engine.Commit(*txn).ok()) RecordProgress(fd, "acked " + name);
      // Converge the watermark; only then is the commit crash-proof.
      if (engine.WaitWalDurable().ok()) RecordProgress(fd, "durable " + name);
    }
    std::_Exit(0);
  }

  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status))
      << "child killed by signal " << WTERMSIG(wait_status);
  const int code = WEXITSTATUS(wait_status);
  ASSERT_TRUE(code == kFailPointCrashExitCode || code == 0)
      << "unexpected child exit code " << code;

  std::set<std::string> durable;
  PageId file = storage::kInvalidPageId;
  std::ifstream progress(progress_path);
  std::string line;
  while (std::getline(progress, line)) {
    std::istringstream in(line);
    std::string verb, arg;
    in >> verb >> arg;
    if (verb == "file") {
      file = static_cast<PageId>(std::stoul(arg));
    } else if (verb == "durable") {
      durable.insert(arg);
    }
  }
  ASSERT_NE(file, storage::kInvalidPageId);

  StorageEngine engine;
  ASSERT_TRUE(engine.Open(prefix).ok());
  auto txn = engine.Begin();
  ASSERT_TRUE(txn.ok());
  std::set<std::string> visible;
  ASSERT_TRUE(engine
                  .Scan(*txn, file,
                        [&](const storage::Rid&,
                            const std::vector<std::uint8_t>& rec) {
                          visible.insert(std::string(rec.begin(), rec.end()));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(engine.Commit(*txn).ok());
  ASSERT_TRUE(engine.Close().ok());

  EXPECT_FALSE(visible.count("loser"))
      << "uncommitted transaction resurrected after crash";
  for (const std::string& name : durable) {
    EXPECT_TRUE(visible.count(name))
        << "watermark-covered async commit '" << name << "' lost after crash";
  }
}

// WAL rule on page write-back: a dirty page evicted while its log record
// still sits in the WAL's stdio buffer must not reach the data file first.
// The child updates record A without committing, evicts A's page through a
// 4-frame pool by reading other pages, and dies via std::_Exit (the stdio
// buffer is lost). Recovery must then find the update's log record and
// roll it back; otherwise A keeps the uncommitted bytes.
TEST_F(CrashMatrixFixtureBase, EvictedUncommittedUpdateRollsBackAfterCrash) {
  const std::string prefix = dir_ + "/db";
  const std::string progress_path = dir_ + "/progress";
  constexpr int kRecords = 12;  // two per page: six heap pages
  const std::string filler(1500, 'f');

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int fd = ::open(progress_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0) std::_Exit(7);
    StorageEngine::Options options;
    options.buffer_pool_pages = 4;
    options.commit_durability = storage::CommitDurability::kSync;
    StorageEngine engine;
    if (!engine.Open(prefix, options).ok()) std::_Exit(7);
    auto file = engine.CreateHeapFile();
    if (!file.ok()) std::_Exit(7);
    std::vector<storage::Rid> rids;
    auto txn = engine.Begin();
    if (!txn.ok()) std::_Exit(7);
    for (int i = 0; i < kRecords; ++i) {
      const std::string rec = "committed-" + std::to_string(i) + filler;
      auto rid = engine.Insert(*txn, *file, Bytes(rec));
      if (!rid.ok()) std::_Exit(7);
      rids.push_back(*rid);
    }
    if (!engine.Commit(*txn).ok() || !engine.Checkpoint().ok()) std::_Exit(7);
    RecordProgress(fd, "file " + std::to_string(*file));

    auto writer = engine.Begin();
    if (!writer.ok() ||
        !engine.Update(*writer, *file, rids[0], Bytes("uncommitted" + filler))
             .ok()) {
      std::_Exit(7);
    }
    // Touch every other page: A's page becomes the LRU victim and is
    // written back while the update's log record is still buffered.
    auto reader = engine.Begin();
    if (!reader.ok()) std::_Exit(7);
    for (const storage::Rid& rid : rids) {
      if (rid.page_id == rids[0].page_id) continue;
      if (!engine.Read(*reader, *file, rid).ok()) std::_Exit(7);
    }
    RecordProgress(fd, "evicted");
    std::_Exit(0);
  }

  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 0);
  PageId file = storage::kInvalidPageId;
  bool evicted = false;
  std::ifstream progress(progress_path);
  std::string line;
  while (std::getline(progress, line)) {
    std::istringstream in(line);
    std::string verb, arg;
    in >> verb >> arg;
    if (verb == "file") file = static_cast<PageId>(std::stoul(arg));
    if (verb == "evicted") evicted = true;
  }
  ASSERT_NE(file, storage::kInvalidPageId);
  ASSERT_TRUE(evicted);

  StorageEngine engine;
  ASSERT_TRUE(engine.Open(prefix).ok());
  auto txn = engine.Begin();
  ASSERT_TRUE(txn.ok());
  std::set<std::string> visible;
  ASSERT_TRUE(engine
                  .Scan(*txn, file,
                        [&](const storage::Rid&,
                            const std::vector<std::uint8_t>& rec) {
                          visible.insert(std::string(
                              rec.begin(),
                              rec.end() - static_cast<long>(filler.size())));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_TRUE(engine.Commit(*txn).ok());
  ASSERT_TRUE(engine.Close().ok());

  EXPECT_FALSE(visible.count("uncommitted"))
      << "uncommitted update reached disk ahead of its log record";
  EXPECT_TRUE(visible.count("committed-0"));
  EXPECT_EQ(visible.size(), static_cast<std::size_t>(kRecords));
}

}  // namespace
}  // namespace sentinel
