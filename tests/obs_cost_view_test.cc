// Cost attribution is a view of records the pipeline always keeps: the
// top-cost rule comes from the rule latency histograms, which every firing
// feeds whatever the trace mode, per-rule totals stay exact under a
// concurrent notify storm, and the watchdog names the top-cost rule only on
// degrade. (The flame view, per-node cost included, is a view
// of the span rings; obs_span_test covers it.) Suite names start with Obs*
// so the TSan CI job's --gtest_filter picks them up.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/active_database.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "rules/rule.h"
#include "rules/rule_manager.h"

namespace sentinel {
namespace {

using core::ActiveDatabase;
using detector::EventModifier;
using obs::HealthState;
using obs::MonitorSample;
using obs::Watchdog;
using rules::RuleContext;

// ---------------------------------------------------------------------------
// Top-cost rule: read from the always-on rule histograms
// ---------------------------------------------------------------------------

TEST(ObsCostViewTest, TopCostRuleNamesTheSlowRule) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("ev_fast", "STOCK", EventModifier::kEnd, "void f()")
          .ok());
  ASSERT_TRUE(
      db.DeclareEvent("ev_slow", "STOCK", EventModifier::kEnd, "void g()")
          .ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_fast", "ev_fast", nullptr,
                               [&](const RuleContext&) { ++fired; })
                  .ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_slow", "ev_slow", nullptr,
                               [&](const RuleContext&) {
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(1));
                                 ++fired;
                               })
                  .ok());
  EXPECT_EQ(db.rule_manager()->TopCostRule(), "");

  // The fast rule fires more often; the slow one costs more in total.
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < 20; ++i) {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params, *txn);
  }
  for (int i = 0; i < 3; ++i) {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void g()", params, *txn);
  }
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_EQ(fired, 23);

  EXPECT_EQ(db.rule_manager()->TopCostRule(), "r_slow");
  ASSERT_TRUE(db.Close().ok());
}

// With the tracer off, every firing still feeds all three cost histograms
// (condition, action, subtransaction commit), so the top-cost rule does not
// depend on the trace mode.
TEST(ObsCostViewTest, TracingOffStillFeedsEveryRuleHistogram) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("e", "STOCK", EventModifier::kEnd, "void f()").ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule(
                      "r_hot", "e", [](const RuleContext&) { return true; },
                      [&](const RuleContext&) { ++fired; })
                  .ok());
  db.span_tracer()->set_mode(obs::TraceMode::kOff);

  constexpr int kFirings = 25;
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < kFirings; ++i) {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params, *txn);
  }
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_EQ(fired, kFirings);

  auto rule = db.rule_manager()->Find("r_hot");
  ASSERT_TRUE(rule.ok());
  const auto& m = (*rule)->metrics();
  const auto n = static_cast<std::uint64_t>(kFirings);
  EXPECT_EQ(m.condition_ns.TakeSnapshot().count, n);
  EXPECT_EQ(m.action_ns.TakeSnapshot().count, n);
  EXPECT_EQ(m.commit_ns.TakeSnapshot().count, n);
  EXPECT_EQ((*rule)->fired_count(), n);
  EXPECT_EQ(db.rule_manager()->TopCostRule(), "r_hot");
  EXPECT_TRUE(db.span_tracer()->Snapshot().empty());
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// Concurrent notify storm: per-rule totals stay exact (TSan-covered)
// ---------------------------------------------------------------------------

TEST(ObsCostViewTest, ConcurrentNotifyStormKeepsExactTotals) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("ev_a", "ACCT", EventModifier::kEnd, "void f()").ok());
  ASSERT_TRUE(
      db.DeclareEvent("ev_b", "AUDIT", EventModifier::kEnd, "void g()").ok());
  std::atomic<int> fired_a{0};
  std::atomic<int> fired_b{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_a", "ev_a", nullptr,
                               [&](const RuleContext&) { ++fired_a; })
                  .ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_b", "ev_b", nullptr,
                               [&](const RuleContext&) { ++fired_b; })
                  .ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db.Begin();
      ASSERT_TRUE(txn.ok());
      auto params = std::make_shared<detector::ParamList>();
      for (int i = 0; i < kPerThread; ++i) {
        if ((t + i) % 2 == 0) {
          db.NotifyMethod("ACCT", t + 1, EventModifier::kEnd, "void f()",
                          params, *txn);
        } else {
          db.NotifyMethod("AUDIT", t + 1, EventModifier::kEnd, "void g()",
                          params, *txn);
        }
      }
      ASSERT_TRUE(db.Commit(*txn).ok());
    });
  }
  for (auto& th : threads) th.join();

  const int total = kThreads * kPerThread;
  ASSERT_EQ(fired_a + fired_b, total);

  // The action histograms lose no record under concurrency: their counts
  // are each rule's firings and sum to the storm size.
  auto r_a = db.rule_manager()->Find("r_a");
  auto r_b = db.rule_manager()->Find("r_b");
  ASSERT_TRUE(r_a.ok());
  ASSERT_TRUE(r_b.ok());
  const auto a = (*r_a)->metrics().action_ns.TakeSnapshot();
  const auto b = (*r_b)->metrics().action_ns.TakeSnapshot();
  EXPECT_EQ(a.count, static_cast<std::uint64_t>(fired_a.load()));
  EXPECT_EQ(b.count, static_cast<std::uint64_t>(fired_b.load()));
  EXPECT_EQ(a.count + b.count, static_cast<std::uint64_t>(total));
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// Watchdog detail: the top-cost rule is named on degrade
// ---------------------------------------------------------------------------

TEST(ObsWatchdogDetailTest, TopCostRuleNamedOnDegradeOnly) {
  Watchdog::Options options;
  options.max_lock_waiters = 4;
  Watchdog wd([] { return MonitorSample{}; }, options);
  wd.set_detail_provider([] { return std::string("r_hot"); });

  MonitorSample healthy{};
  healthy.at_ns = 100;
  wd.TickForTest(healthy);
  EXPECT_EQ(wd.health(), HealthState::kHealthy);
  EXPECT_EQ(wd.HealthJson().find("top_cost_rule"), std::string::npos);

  MonitorSample pileup{};
  pileup.at_ns = 200;
  pileup.lock_waiters = 5;
  wd.TickForTest(pileup);
  EXPECT_EQ(wd.health(), HealthState::kDegraded);
  const std::string json = wd.HealthJson();
  EXPECT_NE(json.find("\"top_cost_rule\":\"r_hot\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace sentinel
