// Heap allocations on the hot paths, counted by the allocation probe: a
// steady-state notify that fires immediate rules, a CHRONICLE SEQ
// detection, and interning many distinct names into the symbol table.
//
// Builds into net_decode_fuzz_tests, whose allocation probe replaces the
// global allocation functions (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>

#include "allocation_probe.h"
#include "common/symbol.h"
#include "core/active_database.h"

namespace sentinel {
namespace {

using detector::EventModifier;
using detector::ParamContext;
using rules::RuleContext;
using rules::RuleManager;

constexpr int kWarmups = 300;
constexpr std::size_t kMeasured = 64;

// Heap allocations per call of `step` once pools, the flight ring, the
// rules' histograms and the spare scheduler and subtransaction storage have
// reached their steady state.
template <typename Step>
double AllocationsPerStep(Step step) {
  for (int i = 0; i < kWarmups; ++i) step();
  AllocationProbe probe;
  for (std::size_t i = 0; i < kMeasured; ++i) step();
  return static_cast<double>(probe.count()) / kMeasured;
}

// Allocations per notify of an event with `rules` immediate rules
// subscribed, each at its own priority so every firing runs on the
// notifying thread.
double AllocationsPerNotifyFiring(int rules) {
  core::ActiveDatabase db;
  EXPECT_TRUE(db.OpenInMemory().ok());
  EXPECT_TRUE(
      db.DeclareEvent("e", "STOCK", EventModifier::kEnd, "void f()").ok());
  int fired = 0;
  for (int r = 0; r < rules; ++r) {
    RuleManager::RuleOptions options;
    options.priority = r;
    EXPECT_TRUE(db.rule_manager()
                    ->DefineRule(
                        "r" + std::to_string(r), "e",
                        [](const RuleContext&) { return true; },
                        [&fired](const RuleContext&) { ++fired; }, options)
                    .ok());
  }
  auto txn = db.Begin();
  EXPECT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  const double per_notify = AllocationsPerStep([&] {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params,
                    *txn);
  });
  EXPECT_EQ(fired, rules * (kWarmups + static_cast<int>(kMeasured)));
  EXPECT_TRUE(db.Commit(*txn).ok());
  EXPECT_TRUE(db.Close().ok());
  return per_notify;
}

// The raw notification is labelled in place, the detection is one pooled
// node, and the firing holds its handle and keeps its priority path inline;
// the scheduler's batch vector, the firing's frame, the subtransaction's
// node and the rule's histograms are reused or allocated once. What is left
// per notify is at most one allocation.
TEST(HotPathAllocTest, NotifyFiringOneImmediateRuleMakesAtMostOne) {
  const double per_notify = AllocationsPerNotifyFiring(1);
  EXPECT_LE(per_notify, 1.0) << per_notify << " per notify";
}

// Every rule a detection triggers shares its one occurrence by handle, so
// four firings cost no more allocations than one.
TEST(HotPathAllocTest, FourRulesOnOneEventAllocateNoMoreThanOne) {
  const double one = AllocationsPerNotifyFiring(1);
  const double four = AllocationsPerNotifyFiring(4);
  EXPECT_LE(four, one) << four << " per notify with four rules, " << one
                       << " with one";
}

// A CHRONICLE SEQ buffers the initiator's handle and composes one pooled
// node linking both constituents in place: at most one allocation per
// detection (two notifies), which covers the operator buffer's occasional
// block.
TEST(HotPathAllocTest, ChronicleSeqDetectionMakesAtMostOne) {
  core::ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  auto a = db.DeclareEvent("a", "STOCK", EventModifier::kEnd, "void a()");
  auto b = db.DeclareEvent("b", "STOCK", EventModifier::kEnd, "void b()");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(db.detector()->DefineSeq("ab", *a, *b).ok());
  RuleManager::RuleOptions options;
  options.context = ParamContext::kChronicle;
  int fired = 0;
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule(
                      "r", "ab", [](const RuleContext&) { return true; },
                      [&fired](const RuleContext&) { ++fired; }, options)
                  .ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  const double per_detection = AllocationsPerStep([&] {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void a()", params,
                    *txn);
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void b()", params,
                    *txn);
  });
  EXPECT_EQ(fired, kWarmups + static_cast<int>(kMeasured));
  EXPECT_LE(per_detection, 1.0) << per_detection << " per detection";
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_TRUE(db.Close().ok());
}

// Intern keeps O(n) memory: it fills the published index in place and
// republishes only when the index doubles, instead of copying it per name.
TEST(HotPathAllocTest, Interning4000NamesAllocatesUnder4MB) {
  common::SymbolTable table;
  AllocationProbe probe;
  for (int i = 0; i < 4000; ++i) {
    const std::string name = "rule_" + std::to_string(i);
    ASSERT_NE(table.Intern(name), common::kInvalidSymbol);
  }
  EXPECT_EQ(table.size(), 4000u);
  EXPECT_LT(probe.bytes(), std::size_t{4} << 20);
}

}  // namespace
}  // namespace sentinel
