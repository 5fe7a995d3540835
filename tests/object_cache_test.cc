#include "oodb/object_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "oodb/database.h"

namespace sentinel::oodb {
namespace {

class ObjectCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = (std::filesystem::temp_directory_path() /
               ("sentinel_objcache_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                  .string();
    Cleanup();
    ASSERT_TRUE(db_.Open(prefix_).ok());
    cache_ = std::make_unique<ObjectCache>(db_.engine(), db_.objects(), 8);
  }
  void TearDown() override {
    cache_.reset();
    (void)db_.Close();
    Cleanup();
  }
  void Cleanup() {
    std::remove((prefix_ + ".db").c_str());
    std::remove((prefix_ + ".wal").c_str());
  }

  std::int64_t ValueOf(storage::TxnId txn, Oid oid) {
    auto got = cache_->Get(txn, oid);
    EXPECT_TRUE(got.ok()) << got.status();
    return got.ok() ? (*got)->Get("v")->AsInt() : -1;
  }

  // Whether a Get of `oid` is served from the cache.
  bool GetIsHit(storage::TxnId txn, Oid oid) {
    const std::uint64_t hits = cache_->hit_count();
    EXPECT_TRUE(cache_->Get(txn, oid).ok());
    return cache_->hit_count() == hits + 1;
  }

  Oid MakeObject(storage::TxnId txn, int v) {
    PersistentObject obj(kInvalidOid, "Part");
    obj.Set("v", Value::Int(v));
    auto oid = cache_->Put(txn, std::move(obj));
    EXPECT_TRUE(oid.ok());
    return *oid;
  }

  void Commit(storage::TxnId txn) {
    ASSERT_TRUE(db_.Commit(txn).ok());
    cache_->OnCommit(txn);
  }
  void Abort(storage::TxnId txn) {
    ASSERT_TRUE(db_.Abort(txn).ok());
    cache_->OnAbort(txn);
  }

  std::string prefix_;
  Database db_;
  std::unique_ptr<ObjectCache> cache_;
};

TEST_F(ObjectCacheTest, OwnWritesVisibleBeforeCommit) {
  auto txn = db_.Begin();
  Oid oid = MakeObject(*txn, 7);
  auto got = cache_->Get(*txn, oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->Get("v")->AsInt(), 7);
  Commit(*txn);
}

TEST_F(ObjectCacheTest, SecondReadIsAHit) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);

  auto txn = db_.Begin();
  ASSERT_TRUE(cache_->Get(*txn, oid).ok());  // may hit (promoted at commit)
  const auto hits_before = cache_->hit_count();
  ASSERT_TRUE(cache_->Get(*txn, oid).ok());
  EXPECT_GT(cache_->hit_count(), hits_before);
  Commit(*txn);
}

TEST_F(ObjectCacheTest, AbortDropsOverlay) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);

  auto txn = db_.Begin();
  PersistentObject updated(oid, "Part");
  updated.Set("v", Value::Int(99));
  ASSERT_TRUE(cache_->Put(*txn, std::move(updated)).ok());
  EXPECT_EQ((*cache_->Get(*txn, oid))->Get("v")->AsInt(), 99);
  Abort(*txn);

  auto check = db_.Begin();
  EXPECT_EQ((*cache_->Get(*check, oid))->Get("v")->AsInt(), 1);
  Commit(*check);
}

TEST_F(ObjectCacheTest, DeleteHidesObjectWithinTxnAndAfterCommit) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);

  auto txn = db_.Begin();
  ASSERT_TRUE(cache_->Delete(*txn, oid).ok());
  EXPECT_TRUE(cache_->Get(*txn, oid).status().IsNotFound());
  Commit(*txn);

  auto check = db_.Begin();
  EXPECT_TRUE(cache_->Get(*check, oid).status().IsNotFound());
  Commit(*check);
}

TEST_F(ObjectCacheTest, CommitPromotesNewVersion) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);

  auto writer = db_.Begin();
  PersistentObject updated(oid, "Part");
  updated.Set("v", Value::Int(2));
  ASSERT_TRUE(cache_->Put(*writer, std::move(updated)).ok());
  Commit(*writer);

  auto reader = db_.Begin();
  EXPECT_EQ((*cache_->Get(*reader, oid))->Get("v")->AsInt(), 2);
  Commit(*reader);
}

TEST_F(ObjectCacheTest, CapacityEvictsLru) {
  auto txn = db_.Begin();
  std::vector<Oid> oids;
  for (int i = 0; i < 20; ++i) oids.push_back(MakeObject(*txn, i));
  Commit(*txn);

  auto reader = db_.Begin();
  for (Oid oid : oids) ASSERT_TRUE(cache_->Get(*reader, oid).ok());
  EXPECT_LE(cache_->size(), 8u);  // capacity respected
  Commit(*reader);
}

TEST_F(ObjectCacheTest, EvictsLeastRecentlyUsedAndKeepsRereadEntries) {
  auto setup = db_.Begin();
  std::vector<Oid> oids;
  for (int i = 0; i < 9; ++i) oids.push_back(MakeObject(*setup, i));
  Commit(*setup);
  // Start from an empty cache of capacity 8.
  cache_ = std::make_unique<ObjectCache>(db_.engine(), db_.objects(), 8);

  auto reader = db_.Begin();
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(GetIsHit(*reader, oids[i]));
  EXPECT_TRUE(GetIsHit(*reader, oids[0]));  // re-read: now most recent
  EXPECT_FALSE(GetIsHit(*reader, oids[8]));  // evicts oids[1]
  EXPECT_EQ(cache_->size(), 8u);
  EXPECT_TRUE(GetIsHit(*reader, oids[0]));
  for (int i = 2; i <= 8; ++i) EXPECT_TRUE(GetIsHit(*reader, oids[i]));
  EXPECT_FALSE(GetIsHit(*reader, oids[1]));
  Commit(*reader);
}

TEST_F(ObjectCacheTest, DeleteThroughPersistenceManagerHidesCachedObject) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);
  auto warm = db_.Begin();
  ASSERT_TRUE(GetIsHit(*warm, oid));
  Commit(*warm);

  // The delete bypasses the cache, so the committed entry stays; the
  // deleting transaction must still not see it.
  auto txn = db_.Begin();
  ASSERT_TRUE(db_.objects()->Delete(*txn, oid).ok());
  EXPECT_TRUE(cache_->Get(*txn, oid).status().IsNotFound());
  Abort(*txn);

  auto check = db_.Begin();
  EXPECT_TRUE(GetIsHit(*check, oid));
  EXPECT_EQ(ValueOf(*check, oid), 1);
  Commit(*check);
}

TEST_F(ObjectCacheTest, HitWaitingBehindWriterReturnsCommittedVersion) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);
  auto warm = db_.Begin();
  ASSERT_TRUE(GetIsHit(*warm, oid));
  Commit(*warm);

  // The writer holds the record's exclusive lock before it writes, so the
  // reader finds the committed entry and waits on its lock.
  auto writer = db_.Begin();
  auto rid = db_.objects()->RidOf(*writer, oid);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db_.engine()
                  ->lock_manager()
                  ->Acquire(*writer, storage::StorageEngine::RecordLockKey(*rid),
                            storage::LockMode::kExclusive)
                  .ok());
  const std::uint64_t waits = db_.engine()->lock_manager()->wait_count();
  std::atomic<std::int64_t> value_seen{-1};
  std::thread reader([&] {
    auto txn = db_.Begin();
    value_seen = ValueOf(*txn, oid);
    Commit(*txn);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db_.engine()->lock_manager()->wait_count() == waits &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_GT(db_.engine()->lock_manager()->wait_count(), waits)
      << "the cached read did not wait for the writer's lock";
  PersistentObject updated(oid, "Part");
  updated.Set("v", Value::Int(2));
  ASSERT_TRUE(cache_->Put(*writer, std::move(updated)).ok());
  EXPECT_EQ(value_seen, -1);
  Commit(*writer);
  reader.join();
  EXPECT_EQ(value_seen, 2);
}

TEST_F(ObjectCacheTest, AbortedWriterLeavesCachedVersionReadable) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);

  // Through the cache: the write invalidates the entry and the abort
  // restores the record.
  auto writer = db_.Begin();
  PersistentObject updated(oid, "Part");
  updated.Set("v", Value::Int(2));
  ASSERT_TRUE(cache_->Put(*writer, std::move(updated)).ok());
  Abort(*writer);
  auto reader = db_.Begin();
  EXPECT_EQ(ValueOf(*reader, oid), 1);
  Commit(*reader);

  // Around the cache: an object inserted through the persistence manager
  // and read back through the cache by its own transaction must not become
  // a committed entry, or it would outlive the abort.
  auto direct = db_.Begin();
  PersistentObject fresh(kInvalidOid, "Part");
  fresh.Set("v", Value::Int(3));
  auto fresh_oid = db_.objects()->Put(*direct, std::move(fresh));
  ASSERT_TRUE(fresh_oid.ok());
  EXPECT_EQ(ValueOf(*direct, *fresh_oid), 3);
  Abort(*direct);
  auto check = db_.Begin();
  EXPECT_TRUE(cache_->Get(*check, *fresh_oid).status().IsNotFound());
  EXPECT_TRUE(GetIsHit(*check, oid));
  Commit(*check);
}

TEST_F(ObjectCacheTest, ConcurrentReadersSeeOnlyCommittedVersions) {
  // One writer sets object v % 4 to v in transaction v and aborts every
  // fifth transaction; four readers read every object twice per
  // transaction. A read must never return an aborted value, must repeat
  // within a transaction, and must not go back in time across a reader's
  // transactions (committed values of one object only grow). Shared locks
  // are not fair to a waiting writer, so each reader starts at most one
  // transaction per write.
  constexpr int kObjects = 4;
  constexpr int kWrites = 200;
  constexpr int kReaders = 4;
  const auto aborted = [](std::int64_t v) { return v != 0 && v % 5 == 0; };
  std::vector<Oid> oids;
  auto setup = db_.Begin();
  for (int i = 0; i < kObjects; ++i) oids.push_back(MakeObject(*setup, 0));
  Commit(*setup);

  std::atomic<bool> done{false};
  std::atomic<int> writes{0};
  std::atomic<int> bad_reads{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::int64_t> last(kObjects, 0);
      while (!done.load()) {
        const int writes_seen = writes.load();
        auto txn = db_.Begin();
        if (!txn.ok()) {
          ++errors;
          return;
        }
        for (int i = 0; i < kObjects; ++i) {
          for (int repeat = 0; repeat < 2; ++repeat) {
            auto got = cache_->Get(*txn, oids[i]);
            if (!got.ok()) {
              ++errors;
              continue;
            }
            const std::int64_t v = (*got)->Get("v")->AsInt();
            if (aborted(v) || v < last[i] || (repeat == 1 && v != last[i])) {
              ++bad_reads;
            }
            last[i] = v;
          }
        }
        if (!db_.Commit(*txn).ok()) ++errors;
        cache_->OnCommit(*txn);
        while (writes.load() == writes_seen && !done.load()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int v = 1; v <= kWrites; ++v) {
    auto txn = db_.Begin();
    PersistentObject updated(oids[v % kObjects], "Part");
    updated.Set("v", Value::Int(v));
    if (!txn.ok() || !cache_->Put(*txn, std::move(updated)).ok()) {
      ADD_FAILURE() << "write " << v << " failed";
      break;
    }
    if (aborted(v)) {
      Abort(*txn);
    } else {
      Commit(*txn);
    }
    ++writes;
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(cache_->hit_count(), 0u);
}

TEST_F(ObjectCacheTest, CacheHitStillBlocksBehindWriterLock) {
  auto setup = db_.Begin();
  Oid oid = MakeObject(*setup, 1);
  Commit(*setup);
  // Warm the cache.
  auto warm = db_.Begin();
  ASSERT_TRUE(cache_->Get(*warm, oid).ok());
  Commit(*warm);

  // Writer holds the X lock.
  auto writer = db_.Begin();
  PersistentObject updated(oid, "Part");
  updated.Set("v", Value::Int(2));
  ASSERT_TRUE(cache_->Put(*writer, std::move(updated)).ok());

  std::atomic<bool> read_done{false};
  std::atomic<std::int64_t> value_seen{-1};
  std::thread reader([&] {
    auto txn = db_.Begin();
    auto got = cache_->Get(*txn, oid);  // must block despite the cache hit
    if (got.ok()) value_seen = (*got)->Get("v")->AsInt();
    read_done = true;
    (void)db_.Commit(*txn);
    cache_->OnCommit(*txn);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(read_done);
  Commit(*writer);
  reader.join();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(value_seen, 2);
}

}  // namespace
}  // namespace sentinel::oodb
