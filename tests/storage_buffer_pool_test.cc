#include "storage/buffer_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "storage/wal.h"

namespace sentinel::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("sentinel_bp_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".db"))
                .string();
    std::remove(path_.c_str());
    ASSERT_TRUE(disk_.Open(path_).ok());
  }

  void TearDown() override {
    (void)disk_.Close();
    std::remove(path_.c_str());
  }

  std::string path_;
  DiskManager disk_;
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndDirty) {
  BufferPool pool(&disk_, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->pin_count(), 1);
  EXPECT_TRUE((*page)->is_dirty());
  EXPECT_TRUE(pool.UnpinPage((*page)->page_id(), true).ok());
}

TEST_F(BufferPoolTest, FetchHitsCache) {
  BufferPool pool(&disk_, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId id = (*page)->page_id();
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *page);  // same frame
  EXPECT_GE(pool.hit_count(), 1u);
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(&disk_, 2);
  // Create 3 pages, writing a marker into each; capacity 2 forces eviction.
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok()) << page.status();
    ids[i] = (*page)->page_id();
    (*page)->payload()[0] = static_cast<std::uint8_t>(0xA0 + i);
    ASSERT_TRUE(pool.UnpinPage(ids[i], true).ok());
  }
  // All three readable with their markers intact.
  for (int i = 0; i < 3; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->payload()[0], 0xA0 + i);
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
  }
}

// Fetches `id` and unpins it again; returns whether the fetch was a hit.
bool FetchIsHit(BufferPool* pool, PageId id) {
  const std::uint64_t hits = pool->hit_count();
  const std::uint64_t misses = pool->miss_count();
  auto page = pool->FetchPage(id);
  EXPECT_TRUE(page.ok()) << page.status();
  EXPECT_TRUE(pool->UnpinPage(id, false).ok());
  EXPECT_EQ(pool->hit_count() - hits + pool->miss_count() - misses, 1u);
  return pool->hit_count() == hits + 1;
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyTouchedFrame) {
  BufferPool pool(&disk_, 3);
  PageId ids[3];
  for (PageId& id : ids) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    id = (*page)->page_id();
    ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  }
  // Touch the oldest page: the second one becomes least recently used.
  EXPECT_TRUE(FetchIsHit(&pool, ids[0]));
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  const PageId fresh_id = (*fresh)->page_id();
  ASSERT_TRUE(pool.UnpinPage(fresh_id, true).ok());
  EXPECT_EQ(pool.eviction_count(), 1u);

  EXPECT_TRUE(FetchIsHit(&pool, ids[0]));
  EXPECT_TRUE(FetchIsHit(&pool, ids[2]));
  EXPECT_TRUE(FetchIsHit(&pool, fresh_id));
  EXPECT_FALSE(FetchIsHit(&pool, ids[1]));  // it was the one evicted
}

TEST_F(BufferPoolTest, EvictionSkipsPinnedFrames) {
  BufferPool pool(&disk_, 3);
  PageId ids[3];
  for (PageId& id : ids) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    id = (*page)->page_id();
  }
  // The oldest page stays pinned; the other two are released in order.
  ASSERT_TRUE(pool.UnpinPage(ids[1], true).ok());
  ASSERT_TRUE(pool.UnpinPage(ids[2], true).ok());
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  const PageId fresh_id = (*fresh)->page_id();
  ASSERT_TRUE(pool.UnpinPage(fresh_id, true).ok());

  EXPECT_TRUE(FetchIsHit(&pool, ids[0]));  // pinned: skipped by eviction
  EXPECT_TRUE(FetchIsHit(&pool, ids[2]));
  EXPECT_TRUE(FetchIsHit(&pool, fresh_id));
  EXPECT_FALSE(FetchIsHit(&pool, ids[1]));  // oldest unpinned: evicted
  ASSERT_TRUE(pool.UnpinPage(ids[0], true).ok());
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  BufferPool pool(&disk_, 2);
  auto p1 = pool.NewPage();
  auto p2 = pool.NewPage();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  auto p3 = pool.NewPage();
  EXPECT_EQ(p3.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.UnpinPage((*p1)->page_id(), false).ok());
  auto p4 = pool.NewPage();
  EXPECT_TRUE(p4.ok());
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(&disk_, 2);
  EXPECT_FALSE(pool.UnpinPage(99, false).ok());
  auto p = pool.NewPage();
  ASSERT_TRUE(p.ok());
  PageId id = (*p)->page_id();
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_FALSE(pool.UnpinPage(id, false).ok());  // already unpinned
}

TEST_F(BufferPoolTest, FlushAllPersistsAcrossReopen) {
  {
    BufferPool pool(&disk_, 4);
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->payload()[10] = 0x5A;
    ASSERT_TRUE(pool.UnpinPage((*page)->page_id(), true).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  ASSERT_TRUE(disk_.Close().ok());
  DiskManager disk2;
  ASSERT_TRUE(disk2.Open(path_).ok());
  BufferPool pool2(&disk2, 4);
  auto page = pool2.FetchPage(1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->payload()[10], 0x5A);
  ASSERT_TRUE(pool2.UnpinPage(1, false).ok());
  ASSERT_TRUE(disk2.Close().ok());
}

// WAL rule: every dirty-page write (FlushPage, eviction, FlushAll) first
// hands the log through the page's LSN to the OS.
TEST_F(BufferPoolTest, WriteBackFlushesTheLogThroughThePageLsn) {
  const std::string wal_path = path_ + ".wal";
  std::remove(wal_path.c_str());
  LogManager log(LogManager::Options{/*group_commit=*/false});
  ASSERT_TRUE(log.Open(wal_path).ok());
  BufferPool pool(&disk_, 1, &log);
  // Appends an unforced record and stamps `page_id` with its LSN.
  auto dirty_with_buffered_record = [&](PageId page_id) -> Lsn {
    LogRecord rec;
    rec.txn_id = 1;
    rec.type = LogRecordType::kInsert;
    auto lsn = log.Append(std::move(rec));
    EXPECT_TRUE(lsn.ok());
    EXPECT_LT(log.written_lsn(), *lsn);
    auto page = pool.FetchPage(page_id);
    EXPECT_TRUE(page.ok());
    (*page)->RaiseLsn(*lsn);
    EXPECT_TRUE(pool.UnpinPage(page_id, true).ok());
    return *lsn;
  };
  auto first_page = pool.NewPage();
  ASSERT_TRUE(first_page.ok());
  const PageId first = (*first_page)->page_id();
  ASSERT_TRUE(pool.UnpinPage(first, true).ok());

  const Lsn flushed = dirty_with_buffered_record(first);
  ASSERT_TRUE(pool.FlushPage(first).ok());
  EXPECT_GE(log.written_lsn(), flushed);
  EXPECT_GT(std::filesystem::file_size(wal_path), 0u);

  const Lsn evicted = dirty_with_buffered_record(first);
  auto second_page = pool.NewPage();  // one frame: evicts the first page
  ASSERT_TRUE(second_page.ok());
  EXPECT_GE(log.written_lsn(), evicted);
  const PageId second = (*second_page)->page_id();
  ASSERT_TRUE(pool.UnpinPage(second, true).ok());

  const Lsn closed = dirty_with_buffered_record(second);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GE(log.written_lsn(), closed);
  ASSERT_TRUE(log.Close().ok());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace sentinel::storage
