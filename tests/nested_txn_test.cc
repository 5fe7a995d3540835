#include "txn/nested_txn.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace sentinel::txn {
namespace {

using storage::LockMode;

TEST(NestedTxnTest, BeginCommitLifecycle) {
  NestedTransactionManager ntm;
  auto sub = ntm.Begin(1);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(ntm.IsActive(*sub));
  EXPECT_EQ(*ntm.Depth(*sub), 1);
  EXPECT_EQ(*ntm.TopOf(*sub), 1u);
  ASSERT_TRUE(ntm.Commit(*sub).ok());
  EXPECT_FALSE(ntm.IsActive(*sub));
}

TEST(NestedTxnTest, NestingDepthTracked) {
  NestedTransactionManager ntm;
  auto s1 = ntm.Begin(1);
  auto s2 = ntm.Begin(1, *s1);
  auto s3 = ntm.Begin(1, *s2);
  EXPECT_EQ(*ntm.Depth(*s3), 3);
  // Parent cannot commit with live children.
  EXPECT_FALSE(ntm.Commit(*s1).ok());
  ASSERT_TRUE(ntm.Commit(*s3).ok());
  ASSERT_TRUE(ntm.Commit(*s2).ok());
  ASSERT_TRUE(ntm.Commit(*s1).ok());
}

TEST(NestedTxnTest, ParentMustBeActiveAndSameTop) {
  NestedTransactionManager ntm;
  auto s1 = ntm.Begin(1);
  EXPECT_FALSE(ntm.Begin(2, *s1).ok());  // wrong top
  ASSERT_TRUE(ntm.Commit(*s1).ok());
  EXPECT_FALSE(ntm.Begin(1, *s1).ok());  // no longer active
}

TEST(NestedTxnTest, ChildMayAcquireWhatAncestorHolds) {
  NestedTransactionManager ntm;
  auto parent = ntm.Begin(1);
  ASSERT_TRUE(ntm.Acquire(*parent, "k", LockMode::kExclusive).ok());
  auto child = ntm.Begin(1, *parent);
  // Moss rule: conflicting holder is an ancestor -> grant.
  EXPECT_TRUE(ntm.Acquire(*child, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Commit(*child).ok());
  ASSERT_TRUE(ntm.Commit(*parent).ok());
}

TEST(NestedTxnTest, SiblingsConflictOnExclusive) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::milliseconds(100)});
  auto parent = ntm.Begin(1);
  auto s1 = ntm.Begin(1, *parent);
  auto s2 = ntm.Begin(1, *parent);
  ASSERT_TRUE(ntm.Acquire(*s1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(ntm.Acquire(*s2, "k", LockMode::kExclusive).IsLockTimeout());
  // Shared locks between siblings are fine.
  ASSERT_TRUE(ntm.Acquire(*s1, "s", LockMode::kShared).ok());
  EXPECT_TRUE(ntm.Acquire(*s2, "s", LockMode::kShared).ok());
}

TEST(NestedTxnTest, CommitInheritsLocksToParent) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::milliseconds(100)});
  auto parent = ntm.Begin(1);
  auto child = ntm.Begin(1, *parent);
  ASSERT_TRUE(ntm.Acquire(*child, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Commit(*child).ok());
  // A new sibling still conflicts: the lock now belongs to the parent.
  auto sibling = ntm.Begin(1, *parent);
  EXPECT_TRUE(
      ntm.Acquire(*sibling, "k", LockMode::kExclusive).ok());  // child of holder
  // But a subtransaction of ANOTHER top conflicts.
  auto other = ntm.Begin(2);
  EXPECT_FALSE(ntm.Acquire(*other, "k", LockMode::kExclusive).ok());
}

TEST(NestedTxnTest, AbortReleasesLocks) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::milliseconds(100)});
  auto s1 = ntm.Begin(1);
  auto s2 = ntm.Begin(2);
  ASSERT_TRUE(ntm.Acquire(*s1, "k", LockMode::kExclusive).ok());
  EXPECT_FALSE(ntm.Acquire(*s2, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Abort(*s1).ok());
  EXPECT_TRUE(ntm.Acquire(*s2, "k", LockMode::kExclusive).ok());
}

TEST(NestedTxnTest, RootCommitRetainsForTopUntilEndTop) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::milliseconds(100)});
  auto sub = ntm.Begin(1);
  ASSERT_TRUE(ntm.Acquire(*sub, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Commit(*sub).ok());
  // Lock retained on behalf of top txn 1: conflicting top 2 blocked.
  auto other = ntm.Begin(2);
  EXPECT_FALSE(ntm.Acquire(*other, "k", LockMode::kExclusive).ok());
  // Same top's later subtransaction shares the retained lock.
  auto same_top = ntm.Begin(1);
  EXPECT_TRUE(ntm.Acquire(*same_top, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Commit(*same_top).ok());
  ntm.EndTop(1);
  EXPECT_TRUE(ntm.Acquire(*other, "k", LockMode::kExclusive).ok());
}

TEST(NestedTxnTest, BlockedSiblingWakesOnRelease) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::seconds(5)});
  auto parent = ntm.Begin(1);
  auto s1 = ntm.Begin(1, *parent);
  ASSERT_TRUE(ntm.Acquire(*s1, "k", LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  auto s2 = ntm.Begin(1, *parent);
  std::thread waiter([&] {
    ASSERT_TRUE(ntm.Acquire(*s2, "k", LockMode::kExclusive).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted);
  ASSERT_TRUE(ntm.Abort(*s1).ok());
  waiter.join();
  EXPECT_TRUE(granted);
}

TEST(NestedTxnTest, LockTableDrainsAsSubtxnsFinish) {
  // Finishing a subtransaction must erase lock-table entries it leaves empty
  // (via its held-key index) rather than parking them until EndTop — the
  // table size tracks live locks, not historical ones.
  NestedTransactionManager ntm;
  auto parent = ntm.Begin(1);
  auto child = ntm.Begin(1, *parent);
  ASSERT_TRUE(ntm.Acquire(*child, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Acquire(*child, "b", LockMode::kShared).ok());
  ASSERT_TRUE(ntm.Acquire(*parent, "c", LockMode::kExclusive).ok());
  EXPECT_EQ(ntm.locked_key_count(), 3u);
  // Commit inherits a and b to the parent: entries stay live.
  ASSERT_TRUE(ntm.Commit(*child).ok());
  EXPECT_EQ(ntm.locked_key_count(), 3u);
  // Abort of the parent drops all three immediately — no EndTop needed.
  ASSERT_TRUE(ntm.Abort(*parent).ok());
  EXPECT_EQ(ntm.locked_key_count(), 0u);

  // Depth-1 commit retains for the top; EndTop drains the retained set.
  auto sub = ntm.Begin(2);
  ASSERT_TRUE(ntm.Acquire(*sub, "k", LockMode::kExclusive).ok());
  ASSERT_TRUE(ntm.Commit(*sub).ok());
  EXPECT_EQ(ntm.locked_key_count(), 1u);
  ntm.EndTop(2);
  EXPECT_EQ(ntm.locked_key_count(), 0u);
}

TEST(NestedTxnTest, ReacquiringAHeldKeyDoesNotDuplicate) {
  // Upgrades/re-acquires reuse the existing holder entry; the held-key index
  // must not double-count, or release would try to drop the key twice.
  NestedTransactionManager ntm;
  auto sub = ntm.Begin(1);
  ASSERT_TRUE(ntm.Acquire(*sub, "k", LockMode::kShared).ok());
  ASSERT_TRUE(ntm.Acquire(*sub, "k", LockMode::kExclusive).ok());
  EXPECT_EQ(ntm.locked_key_count(), 1u);
  ASSERT_TRUE(ntm.Abort(*sub).ok());
  EXPECT_EQ(ntm.locked_key_count(), 0u);
  ntm.EndTop(1);
}

TEST(NestedTxnTest, LockWaitTimeIsAccounted) {
  NestedTransactionManager ntm(
      NestedTransactionManager::Options{std::chrono::seconds(5)});
  auto parent = ntm.Begin(1);
  auto s1 = ntm.Begin(1, *parent);
  auto s2 = ntm.Begin(1, *parent);
  ASSERT_TRUE(ntm.Acquire(*s1, "k", LockMode::kExclusive).ok());
  EXPECT_EQ(ntm.LockWaitNs(*s2), 0u);
  std::thread waiter([&] {
    ASSERT_TRUE(ntm.Acquire(*s2, "k", LockMode::kExclusive).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(ntm.Abort(*s1).ok());
  waiter.join();
  // s2 blocked for ~50ms; the accounting only needs to be non-zero and sane.
  EXPECT_GT(ntm.LockWaitNs(*s2), 1000000u);  // > 1ms
  // One lock_wait record timed that wait: the histogram holds exactly it,
  // even with no span tracer attached.
  const auto waits = ntm.wait_histogram().TakeSnapshot();
  EXPECT_EQ(waits.count, 1u);
  EXPECT_EQ(waits.sum_ns, ntm.LockWaitNs(*s2));
}

TEST(NestedTxnTest, EndTopCleansEverything) {
  NestedTransactionManager ntm;
  auto s1 = ntm.Begin(7);
  auto s2 = ntm.Begin(7, *s1);
  ASSERT_TRUE(ntm.Acquire(*s2, "a", LockMode::kShared).ok());
  ASSERT_TRUE(ntm.Acquire(*s1, "b", LockMode::kExclusive).ok());
  ntm.EndTop(7);
  EXPECT_EQ(ntm.active_count(), 0u);
  EXPECT_EQ(ntm.locked_key_count(), 0u);
}

}  // namespace
}  // namespace sentinel::txn
