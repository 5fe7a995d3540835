// Heap allocations on the hot paths, counted by the allocation probe: a
// steady-state notify that fires one immediate rule, and interning many
// distinct names into the symbol table.
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
using rules::RuleContext;

// The scheduler's batch vector, the firing's frame, the subtransaction's
// node and the rule's histograms are all reused or allocated once, so what
// is left per notify is the firing itself (its priority path and its copy
// of the occurrence) and the detector's occurrence.
TEST(HotPathAllocTest, NotifyFiringOneImmediateRuleMakesAtMostThree) {
  core::ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("e", "STOCK", EventModifier::kEnd, "void f()").ok());
  int fired = 0;
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule(
                      "r", "e", [](const RuleContext&) { return true; },
                      [&fired](const RuleContext&) { ++fired; })
                  .ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  auto notify = [&] {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params,
                    *txn);
  };
  // Warm up: pools, the flight ring, the rule's histograms and the spare
  // scheduler and subtransaction storage reach their steady state.
  for (int i = 0; i < 300; ++i) notify();

  constexpr std::size_t kNotifies = 64;
  std::size_t allocations = 0;
  {
    AllocationProbe probe;
    for (std::size_t i = 0; i < kNotifies; ++i) notify();
    allocations = probe.count();
  }
  EXPECT_EQ(fired, 300 + static_cast<int>(kNotifies));
  EXPECT_LE(allocations, 3 * kNotifies)
      << static_cast<double>(allocations) / kNotifies << " per notify";
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
