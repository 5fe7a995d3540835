#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "detector/local_detector.h"
#include "detector_test_util.h"
#include "rules/rule_manager.h"
#include "rules/scheduler.h"
#include "txn/nested_txn.h"

namespace sentinel::rules {
namespace {

using detector::EventModifier;
using detector::LocalEventDetector;
using detector::ParamContext;

/// Detector + scheduler + manager without persistence.
class RulesTest : public ::testing::Test {
 protected:
  RulesTest()
      : scheduler_(&nested_, nullptr, RuleScheduler::Options{}),
        manager_(&det_, &scheduler_) {
    e1_ = *det_.DefinePrimitive("e1", "C", EventModifier::kEnd, "void f()");
    e2_ = *det_.DefinePrimitive("e2", "C", EventModifier::kEnd, "void g()");
  }

  void FireF(int v = 0, detector::TxnId txn = 1) {
    detector::Fire(&det_, "C", "void f()", v, txn);
    scheduler_.Drain();
  }
  void FireG(int v = 0, detector::TxnId txn = 1) {
    detector::Fire(&det_, "C", "void g()", v, txn);
    scheduler_.Drain();
  }

  LocalEventDetector det_;
  txn::NestedTransactionManager nested_;
  RuleScheduler scheduler_;
  RuleManager manager_;
  detector::EventNode* e1_ = nullptr;
  detector::EventNode* e2_ = nullptr;
};

TEST_F(RulesTest, RuleFiresWhenConditionHolds) {
  std::atomic<int> actions{0};
  auto rule = manager_.DefineRule(
      "r1", "e1",
      [](const RuleContext& ctx) { return ctx.Param("v")->AsInt() > 10; },
      [&](const RuleContext&) { ++actions; });
  ASSERT_TRUE(rule.ok());
  FireF(5);
  EXPECT_EQ(actions, 0);
  EXPECT_EQ(scheduler_.condition_rejections(), 1u);
  FireF(15);
  EXPECT_EQ(actions, 1);
  EXPECT_EQ((*rule)->fired_count(), 1u);
}

TEST_F(RulesTest, NullConditionAlwaysFires) {
  std::atomic<int> actions{0};
  ASSERT_TRUE(manager_
                  .DefineRule("r1", "e1", nullptr,
                              [&](const RuleContext&) { ++actions; })
                  .ok());
  FireF();
  FireF();
  EXPECT_EQ(actions, 2);
}

TEST_F(RulesTest, MultipleRulesOnOneEvent) {
  std::atomic<int> a{0}, b{0};
  ASSERT_TRUE(manager_.DefineRule("ra", "e1", nullptr,
                                  [&](const RuleContext&) { ++a; })
                  .ok());
  ASSERT_TRUE(manager_.DefineRule("rb", "e1", nullptr,
                                  [&](const RuleContext&) { ++b; })
                  .ok());
  FireF();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(RulesTest, DisableEnableDelete) {
  std::atomic<int> actions{0};
  ASSERT_TRUE(manager_.DefineRule("r1", "e1", nullptr,
                                  [&](const RuleContext&) { ++actions; })
                  .ok());
  FireF();
  EXPECT_EQ(actions, 1);
  ASSERT_TRUE(manager_.DisableRule("r1").ok());
  FireF();
  EXPECT_EQ(actions, 1);
  ASSERT_TRUE(manager_.EnableRule("r1").ok());
  FireF();
  EXPECT_EQ(actions, 2);
  ASSERT_TRUE(manager_.DeleteRule("r1").ok());
  FireF();
  EXPECT_EQ(actions, 2);
  EXPECT_TRUE(manager_.Find("r1").status().IsNotFound());
}

TEST_F(RulesTest, DeleteDeferredRuleRemovesRewrittenNode) {
  // The DEFERRED rewrite generates a per-rule A*(begin, E, pre_commit) node;
  // deleting the rule must remove it again, including anything it buffered —
  // otherwise every define/delete cycle leaks a node that accumulates
  // occurrences for the rest of the process lifetime.
  ASSERT_TRUE(det_.DefineExplicit("sys_begin_transaction").ok());
  ASSERT_TRUE(det_.DefineExplicit("sys_pre_commit_transaction").ok());
  const std::size_t baseline_nodes = det_.node_count();
  const std::size_t baseline_buffered = det_.BufferedCount();

  RuleManager::RuleOptions options;
  options.coupling = CouplingMode::kDeferred;
  std::atomic<int> actions{0};
  ASSERT_TRUE(manager_
                  .DefineRule("rd", "e1", nullptr,
                              [&](const RuleContext&) { ++actions; }, options)
                  .ok());
  EXPECT_EQ(det_.node_count(), baseline_nodes + 1);

  // Open the A* window and accumulate an occurrence in it.
  auto params = std::make_shared<detector::ParamList>();
  ASSERT_TRUE(det_.RaiseExplicit("sys_begin_transaction", params, 1).ok());
  FireF(1, 1);
  EXPECT_GT(det_.BufferedCount(), baseline_buffered);

  ASSERT_TRUE(manager_.DeleteRule("rd").ok());
  EXPECT_EQ(det_.node_count(), baseline_nodes);
  EXPECT_EQ(det_.BufferedCount(), baseline_buffered);

  // The event graph stays fully usable: a fresh deferred rule gets its own
  // node and still executes at pre_commit.
  ASSERT_TRUE(manager_
                  .DefineRule("rd2", "e1", nullptr,
                              [&](const RuleContext&) { ++actions; }, options)
                  .ok());
  ASSERT_TRUE(det_.RaiseExplicit("sys_begin_transaction", params, 2).ok());
  FireF(1, 2);
  ASSERT_TRUE(det_.RaiseExplicit("sys_pre_commit_transaction", params, 2).ok());
  scheduler_.Drain();
  EXPECT_EQ(actions, 1);
}

TEST_F(RulesTest, RuleOnUndefinedEventFails) {
  EXPECT_TRUE(manager_.DefineRule("r", "nope", nullptr, nullptr)
                  .status()
                  .IsNotFound());
}

TEST_F(RulesTest, DuplicateRuleNameRejected) {
  ASSERT_TRUE(manager_.DefineRule("r", "e1", nullptr, nullptr).ok());
  EXPECT_TRUE(
      manager_.DefineRule("r", "e1", nullptr, nullptr).status().IsAlreadyExists());
}

TEST_F(RulesTest, ContextMismatchDoesNotTrigger) {
  // Rule in CHRONICLE must not fire from RECENT detections of another rule.
  std::atomic<int> recent_count{0}, chron_count{0};
  auto and_node = det_.DefineAnd("both", e1_, e2_);
  ASSERT_TRUE(and_node.ok());
  RuleManager::RuleOptions recent_options;
  recent_options.context = ParamContext::kRecent;
  RuleManager::RuleOptions chron_options;
  chron_options.context = ParamContext::kChronicle;
  ASSERT_TRUE(manager_
                  .DefineRule("r_recent", "both", nullptr,
                              [&](const RuleContext&) { ++recent_count; },
                              recent_options)
                  .ok());
  ASSERT_TRUE(manager_
                  .DefineRule("r_chron", "both", nullptr,
                              [&](const RuleContext&) { ++chron_count; },
                              chron_options)
                  .ok());
  FireF();
  FireG();
  FireG();  // RECENT re-pairs, CHRONICLE does not
  EXPECT_EQ(recent_count, 2);
  EXPECT_EQ(chron_count, 1);
}

TEST_F(RulesTest, TriggerModeNowIgnoresPastOccurrences) {
  // Buffer an initiator before the rule exists, using another rule to keep
  // the AND node active.
  auto and_node = det_.DefineAnd("both", e1_, e2_);
  ASSERT_TRUE(and_node.ok());
  ASSERT_TRUE(manager_.DefineRule("keeper", "both", nullptr, nullptr).ok());
  FireF(1);  // buffered initiator, before r_now exists

  std::atomic<int> now_count{0}, prev_count{0};
  RuleManager::RuleOptions now_options;  // NOW is the default
  ASSERT_TRUE(manager_
                  .DefineRule("r_now", "both", nullptr,
                              [&](const RuleContext&) { ++now_count; },
                              now_options)
                  .ok());
  RuleManager::RuleOptions prev_options;
  prev_options.trigger_mode = TriggerMode::kPrevious;
  ASSERT_TRUE(manager_
                  .DefineRule("r_prev", "both", nullptr,
                              [&](const RuleContext&) { ++prev_count; },
                              prev_options)
                  .ok());
  FireG(2);  // completes the AND; its interval starts before r_now's birth
  EXPECT_EQ(prev_count, 1);
  EXPECT_EQ(now_count, 0);  // t_start precedes rule definition
}

TEST_F(RulesTest, NestedRuleTriggeringRunsDepthFirst) {
  std::vector<std::string> order;
  std::mutex order_mu;
  auto log = [&](const std::string& s) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(s);
  };
  // r_outer (prio 5) raises e2 in its action -> r_inner fires nested.
  // r_low (prio 1) also on e1. Depth-first: r_outer, r_inner, then r_low.
  RuleManager::RuleOptions outer_options;
  outer_options.priority = 5;
  ASSERT_TRUE(manager_
                  .DefineRule("r_outer", "e1", nullptr,
                              [&](const RuleContext& ctx) {
                                log("outer");
                                detector::Fire(&det_, "C", "void g()", 0,
                                               ctx.txn);
                              },
                              outer_options)
                  .ok());
  RuleManager::RuleOptions low_options;
  low_options.priority = 1;
  ASSERT_TRUE(manager_
                  .DefineRule("r_low", "e1", nullptr,
                              [&](const RuleContext&) { log("low"); },
                              low_options)
                  .ok());
  RuleManager::RuleOptions inner_options;
  inner_options.priority = 3;
  ASSERT_TRUE(manager_
                  .DefineRule("r_inner", "e2", nullptr,
                              [&](const RuleContext&) { log("inner"); },
                              inner_options)
                  .ok());
  scheduler_.set_policy(SchedulingPolicy::kSerial);
  FireF();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "outer");
  EXPECT_EQ(order[1], "inner");  // nested before the lower-priority sibling
  EXPECT_EQ(order[2], "low");
  EXPECT_GE(scheduler_.max_depth_seen(), 2);
}

TEST_F(RulesTest, PriorityOrderSerial) {
  std::vector<int> order;
  std::mutex order_mu;
  for (int p : {1, 9, 5}) {
    RuleManager::RuleOptions options;
    options.priority = p;
    ASSERT_TRUE(manager_
                    .DefineRule("r" + std::to_string(p), "e1", nullptr,
                                [&, p](const RuleContext&) {
                                  std::lock_guard<std::mutex> lock(order_mu);
                                  order.push_back(p);
                                },
                                options)
                    .ok());
  }
  scheduler_.set_policy(SchedulingPolicy::kSerial);
  FireF();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{9, 5, 1}));
}

TEST_F(RulesTest, PriorityClassesByName) {
  ASSERT_TRUE(manager_.DefinePriorityClass("high", 10).ok());
  ASSERT_TRUE(manager_.DefinePriorityClass("low", 1).ok());
  EXPECT_EQ(*manager_.PriorityClassRank("high"), 10);
  std::vector<int> order;
  std::mutex order_mu;
  auto mk = [&](const std::string& name, const std::string& cls) {
    RuleManager::RuleOptions options;
    auto rank = manager_.PriorityClassRank(cls);
    ASSERT_TRUE(rank.ok());
    ASSERT_TRUE(manager_
                    .DefineRuleWithPriorityClass(
                        name, "e1", nullptr,
                        [&, r = *rank](const RuleContext&) {
                          std::lock_guard<std::mutex> lock(order_mu);
                          order.push_back(r);
                        },
                        options, cls)
                    .ok());
  };
  mk("r_low", "low");
  mk("r_high", "high");
  scheduler_.set_policy(SchedulingPolicy::kSerial);
  FireF();
  EXPECT_EQ(order, (std::vector<int>{10, 1}));
}

TEST_F(RulesTest, ConditionCannotRaiseEvents) {
  // A condition that invokes an event-generating call must not trigger
  // other rules (signalling suppressed, §3.2.1).
  std::atomic<int> g_rules{0};
  ASSERT_TRUE(manager_.DefineRule("on_g", "e2", nullptr,
                                  [&](const RuleContext&) { ++g_rules; })
                  .ok());
  ASSERT_TRUE(manager_
                  .DefineRule("sneaky", "e1",
                              [&](const RuleContext&) {
                                detector::Fire(&det_, "C", "void g()", 0, 1);
                                return true;
                              },
                              nullptr)
                  .ok());
  FireF();
  EXPECT_EQ(g_rules, 0);
  // Raised from an action it does work.
  ASSERT_TRUE(manager_.DeleteRule("sneaky").ok());
  ASSERT_TRUE(manager_
                  .DefineRule("loud", "e1", nullptr,
                              [&](const RuleContext&) {
                                detector::Fire(&det_, "C", "void g()", 0, 1);
                              })
                  .ok());
  FireF();
  EXPECT_EQ(g_rules, 1);
}

TEST_F(RulesTest, RulesRunAsSubtransactions) {
  std::atomic<int> depth_seen{-1};
  ASSERT_TRUE(manager_
                  .DefineRule("r1", "e1", nullptr,
                              [&](const RuleContext& ctx) {
                                if (ctx.subtxn != txn::kInvalidSubTxn) {
                                  auto d = nested_.Depth(ctx.subtxn);
                                  if (d.ok()) depth_seen = *d;
                                }
                              })
                  .ok());
  FireF(0, /*txn=*/42);
  EXPECT_EQ(depth_seen, 1);
  EXPECT_EQ(nested_.active_count(), 0u);  // committed after execution
}

TEST_F(RulesTest, DeleteWithQueuedFiringIsSafe) {
  // A firing already queued when its rule is deleted must neither execute
  // nor touch freed memory (DeleteRule disables, drops it, then erases).
  std::atomic<int> actions{0};
  auto rule = manager_.DefineRule("r1", "e1", nullptr,
                                  [&](const RuleContext&) { ++actions; });
  ASSERT_TRUE(rule.ok());
  auto occ = std::make_shared<detector::Occurrence>();
  occ->event_name = "e1";
  occ->t_start = occ->t_end = 1;
  manager_.Trigger(*rule, occ, detector::ParamContext::kRecent);  // queued
  ASSERT_TRUE(manager_.DeleteRule("r1").ok());
  scheduler_.Drain();
  EXPECT_EQ(actions, 0);
}

TEST_F(RulesTest, DeleteRuleInsideActionDropsItsQueuedFirings) {
  // The victim's firing is queued below the deleting action's class, where
  // a Drain inside that action does not reach: DeleteRule must drop it
  // before the rule object dies (ASan reports the use after free if not).
  std::atomic<int> victim_ran{0};
  RuleManager::RuleOptions low;
  low.priority = 1;
  ASSERT_TRUE(manager_
                  .DefineRule("victim", "e1", nullptr,
                              [&](const RuleContext&) { ++victim_ran; }, low)
                  .ok());
  RuleManager::RuleOptions high;
  high.priority = 5;
  ASSERT_TRUE(manager_
                  .DefineRule("killer", "e1", nullptr,
                              [&](const RuleContext&) {
                                ASSERT_TRUE(manager_.DeleteRule("victim").ok());
                              },
                              high)
                  .ok());
  FireF();
  EXPECT_EQ(victim_ran, 0);
  EXPECT_FALSE(manager_.Find("victim").ok());
  EXPECT_EQ(scheduler_.pending_count(), 0u);
}

}  // namespace
}  // namespace sentinel::rules
