// OID index integration: the index lives in memory and every open rebuilds
// it from the object heap, so a clean close and a crash reopen to the same
// index and OID counter.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "oodb/database.h"

namespace sentinel::oodb {
namespace {

class OidIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = (std::filesystem::temp_directory_path() /
               ("sentinel_oididx_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                  .string();
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::remove((prefix_ + ".db").c_str());
    std::remove((prefix_ + ".wal").c_str());
  }

  /// Commits one object that a second transaction deletes, then `n` Part
  /// objects (field n = 0..n-1); returns the live OIDs in insert order and
  /// the deleted one in `*deleted`.
  std::vector<Oid> Populate(Database* db, int n, Oid* deleted) {
    std::vector<Oid> oids;
    auto txn = db->Begin();
    *deleted = *db->objects()->Put(*txn, PersistentObject(kInvalidOid, "Gone"));
    for (int i = 0; i < n; ++i) {
      PersistentObject obj(kInvalidOid, "Part");
      obj.Set("n", Value::Int(i));
      oids.push_back(*db->objects()->Put(*txn, std::move(obj)));
    }
    EXPECT_TRUE(db->Commit(*txn).ok());
    auto txn2 = db->Begin();
    EXPECT_TRUE(db->objects()->Delete(*txn2, *deleted).ok());
    EXPECT_TRUE(db->Commit(*txn2).ok());
    return oids;
  }

  /// Reopens the database and checks the rebuilt index against `oids`.
  void ExpectRebuilt(const std::vector<Oid>& oids, Oid deleted) {
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    EXPECT_EQ(db.objects()->object_count(), oids.size());
    auto txn = db.Begin();
    for (std::size_t i = 0; i < oids.size(); ++i) {
      auto obj = db.objects()->Get(*txn, oids[i]);
      ASSERT_TRUE(obj.ok()) << i;
      EXPECT_EQ(obj->Get("n")->AsInt(), static_cast<std::int64_t>(i));
    }
    EXPECT_FALSE(db.objects()->Exists(*txn, deleted));
    EXPECT_TRUE(db.objects()->Get(*txn, deleted).status().IsNotFound());
    // The OID counter resumes right after the largest live OID.
    auto next = db.objects()->Put(*txn, PersistentObject(kInvalidOid, "P"));
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, oids.back() + 1);
    ASSERT_TRUE(db.Abort(*txn).ok());
    ASSERT_TRUE(db.Close().ok());
  }

  std::string prefix_;
};

TEST_F(OidIndexTest, CleanCloseReopenRebuildsIndexFromHeap) {
  std::vector<Oid> oids;
  Oid deleted = kInvalidOid;
  {
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    oids = Populate(&db, 600, &deleted);  // spans many heap pages
    ASSERT_TRUE(db.Close().ok());
  }
  ExpectRebuilt(oids, deleted);
}

TEST_F(OidIndexTest, CrashReopenRebuildsIndexFromHeap) {
  std::vector<Oid> oids;
  Oid deleted = kInvalidOid;
  {
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    oids = Populate(&db, 600, &deleted);
    // Dirty heap pages are dropped; recovery replays them from the WAL.
    db.SimulateCrash();
  }
  ExpectRebuilt(oids, deleted);
}

TEST_F(OidIndexTest, RebuildIsTheSameAfterCleanCloseAndAfterCrash) {
  std::vector<Oid> oids;
  Oid deleted = kInvalidOid;
  {
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    oids = Populate(&db, 50, &deleted);
    ASSERT_TRUE(db.Close().ok());
  }
  ExpectRebuilt(oids, deleted);
  {
    // Reopen, add nothing, crash: the next open rebuilds the same index.
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    db.SimulateCrash();
  }
  ExpectRebuilt(oids, deleted);
}

TEST_F(OidIndexTest, UncommittedInsertIsAbsentAfterCrash) {
  std::vector<Oid> oids;
  Oid deleted = kInvalidOid;
  {
    Database db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    oids = Populate(&db, 10, &deleted);
    auto txn = db.Begin();
    ASSERT_TRUE(
        db.objects()->Put(*txn, PersistentObject(kInvalidOid, "L")).ok());
    ASSERT_TRUE(db.engine()->log_manager()->Flush().ok());
    db.SimulateCrash();  // the loser's insert is rolled back by recovery
  }
  Database db;
  ASSERT_TRUE(db.Open(prefix_).ok());
  EXPECT_EQ(db.objects()->object_count(), oids.size());
  ASSERT_TRUE(db.Close().ok());
}

TEST_F(OidIndexTest, DeletedObjectsLeaveIndexAfterCommit) {
  Database db;
  ASSERT_TRUE(db.Open(prefix_).ok());
  auto txn = db.Begin();
  auto oid = db.objects()->Put(*txn, PersistentObject(kInvalidOid, "P"));
  ASSERT_TRUE(db.Commit(*txn).ok());
  EXPECT_EQ(db.objects()->object_count(), 1u);

  auto txn2 = db.Begin();
  ASSERT_TRUE(db.objects()->Delete(*txn2, *oid).ok());
  // Still counted until commit (overlay only).
  EXPECT_EQ(db.objects()->object_count(), 1u);
  ASSERT_TRUE(db.Commit(*txn2).ok());
  EXPECT_EQ(db.objects()->object_count(), 0u);
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace sentinel::oodb
