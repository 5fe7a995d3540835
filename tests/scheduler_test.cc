#include "rules/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "rules/thread_pool.h"

namespace sentinel::rules {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { ++done; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done, 100);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      int now = ++concurrent;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --concurrent;
    });
  }
  pool.WaitIdle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
}

TEST(ThreadPoolTest, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : scheduler_(&nested_, nullptr,
                   RuleScheduler::Options{SchedulingPolicy::kSerial, 2}) {}

  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }

  Firing MakeFiring(Rule* rule, int priority, storage::TxnId txn = 1) {
    Firing f;
    f.rule = rule;
    f.txn = txn;
    f.priority_path = {priority};
    return f;
  }

  txn::NestedTransactionManager nested_;
  RuleScheduler scheduler_;
};

TEST_F(SchedulerTest, DrainOnEmptyQueueReturns) {
  scheduler_.Drain();
  EXPECT_EQ(scheduler_.executed_count(), 0u);
}

TEST_F(SchedulerTest, SerialPolicyOrdersByPriority) {
  std::vector<int> order;
  std::mutex mu;
  std::vector<std::unique_ptr<Rule>> rules;
  for (int p : {2, 7, 5, 7, 1}) {
    rules.push_back(std::make_unique<Rule>(
        "r" + std::to_string(static_cast<int>(rules.size())), "e", nullptr,
        [&order, &mu, p](const RuleContext&) {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(p);
        }));
    rules.back()->set_priority(p);
    scheduler_.Enqueue(MakeFiring(rules.back().get(), p));
  }
  scheduler_.Drain();
  EXPECT_EQ(order, (std::vector<int>{7, 7, 5, 2, 1}));
  EXPECT_EQ(scheduler_.executed_count(), 5u);
}

TEST_F(SchedulerTest, DeeperPathPreemptsSiblingOfEqualPriority) {
  // Path {5,3} (a nested rule under priority-5) must run before {5}'s
  // sibling {4} and before {5} itself if both pending.
  std::vector<std::string> order;
  std::mutex mu;
  auto mk = [&](const std::string& name) {
    auto rule = std::make_unique<Rule>(name, "e", nullptr,
                                       [&order, &mu, name](const RuleContext&) {
                                         std::lock_guard<std::mutex> lock(mu);
                                         order.push_back(name);
                                       });
    return rule;
  };
  auto nested = mk("nested"), sibling = mk("sibling");
  Firing deep;
  deep.rule = nested.get();
  deep.priority_path = {5, 3};
  deep.depth = 2;
  Firing shallow;
  shallow.rule = sibling.get();
  shallow.priority_path = {4};
  scheduler_.Enqueue(shallow);
  scheduler_.Enqueue(deep);
  scheduler_.Drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "nested");
  EXPECT_EQ(order[1], "sibling");
}

TEST_F(SchedulerTest, DisabledRuleSkipped) {
  auto rule = std::make_unique<Rule>("r", "e", nullptr,
                                     [](const RuleContext&) { FAIL(); });
  rule->set_enabled(false);
  scheduler_.Enqueue(MakeFiring(rule.get(), 1));
  scheduler_.Drain();
  EXPECT_EQ(scheduler_.executed_count(), 0u);
}

TEST_F(SchedulerTest, ObserverSeesExecutions) {
  std::atomic<int> observed{0};
  std::atomic<int> held{0};
  scheduler_.SetExecutionObserver(
      [&](const Firing&, bool condition_held, Status) {
        ++observed;
        if (condition_held) ++held;
      });
  auto yes = std::make_unique<Rule>("yes", "e", nullptr,
                                    [](const RuleContext&) {});
  auto no = std::make_unique<Rule>(
      "no", "e", [](const RuleContext&) { return false; },
      [](const RuleContext&) {});
  scheduler_.Enqueue(MakeFiring(yes.get(), 1));
  scheduler_.Enqueue(MakeFiring(no.get(), 1));
  scheduler_.Drain();
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(held, 1);
  EXPECT_EQ(scheduler_.condition_rejections(), 1u);
}

TEST_F(SchedulerTest, PriorityClassesRunEqualPathsTogether) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::unique_ptr<Rule>> rules;
  auto add = [&](int priority) {
    rules.push_back(std::make_unique<Rule>(
        "r" + std::to_string(priority) + "_" +
            std::to_string(static_cast<int>(rules.size())),
        "e", nullptr, [&mu, &order, priority](const RuleContext&) {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(priority);
        }));
    Firing f;
    f.rule = rules.back().get();
    f.priority_path = {priority};
    f.txn = 1;
    scheduler.Enqueue(f);
  };
  add(1);
  add(9);
  add(9);
  add(1);
  scheduler.Drain();
  ASSERT_EQ(order.size(), 4u);
  // Both 9s strictly precede both 1s (within class, order is concurrent).
  EXPECT_EQ(order[0], 9);
  EXPECT_EQ(order[1], 9);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 1);
}

TEST_F(SchedulerTest, PriorityClassMembersStillOverlap) {
  // Each member waits for the other to arrive: a class that ran its members
  // one after another would time out.
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> met{0};
  auto rendezvous = [&](const RuleContext&) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&arrived] { return arrived == 2; })) {
      ++met;
    }
  };
  Rule a("a", "e", nullptr, rendezvous);
  Rule b("b", "e", nullptr, rendezvous);
  scheduler.Enqueue(MakeFiring(&a, 3));
  scheduler.Enqueue(MakeFiring(&b, 3));
  scheduler.Drain();
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(scheduler.executed_count(), 2u);
}

TEST_F(SchedulerTest, DrainRunsOneClassMemberOnCallingThread) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  Rule rule("r", "e", nullptr, [&](const RuleContext&) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on.push_back(std::this_thread::get_id());
  });
  for (int i = 0; i < 3; ++i) scheduler.Enqueue(MakeFiring(&rule, 2));
  scheduler.Drain();
  ASSERT_EQ(ran_on.size(), 3u);
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(),
                       std::this_thread::get_id()),
            1);
  EXPECT_EQ(nested_.active_count(), 0u);
}

TEST_F(SchedulerTest, DrainWaitsForClassWhenCallingThreadMemberThrows) {
  // The pool members reference Drain's frame, so an exception from the
  // member the draining thread runs must not unwind before they finish.
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  const std::thread::id drainer = std::this_thread::get_id();
  scheduler.SetExecutionObserver([drainer](const Firing&, bool, Status) {
    if (std::this_thread::get_id() == drainer) {
      throw std::runtime_error("observer");
    }
  });
  Rule rule("r", "e", nullptr, [drainer](const RuleContext&) {
    if (std::this_thread::get_id() != drainer) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  for (int i = 0; i < 3; ++i) scheduler.Enqueue(MakeFiring(&rule, 2));
  EXPECT_THROW(scheduler.Drain(), std::runtime_error);
  EXPECT_EQ(scheduler.executed_count(), 3u);
}

TEST_F(SchedulerTest, PoolMemberThrowDoesNotHangDrain) {
  // The worker loop contains an exception thrown by a pool member's
  // observer; the class must still complete. Drain runs on a helper thread
  // so that a hang fails the test instead of stalling the suite.
  auto scheduler = std::make_unique<RuleScheduler>(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  auto drainer = std::make_shared<std::atomic<std::thread::id>>();
  scheduler->SetExecutionObserver([drainer](const Firing&, bool, Status) {
    if (std::this_thread::get_id() != drainer->load()) {
      throw std::runtime_error("observer");
    }
  });
  Rule rule("r", "e", nullptr, [](const RuleContext&) {});
  for (int i = 0; i < 3; ++i) scheduler->Enqueue(MakeFiring(&rule, 2));
  auto drained = std::make_shared<std::promise<void>>();
  std::future<void> finished = drained->get_future();
  RuleScheduler* raw = scheduler.get();
  std::thread helper([raw, drainer, drained] {
    drainer->store(std::this_thread::get_id());
    raw->Drain();
    drained->set_value();
  });
  if (finished.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    // Leave the stuck thread and the scheduler it blocks in behind.
    helper.detach();
    (void)scheduler.release();
    FAIL() << "Drain did not return after a pool member threw";
  }
  helper.join();
  EXPECT_EQ(scheduler->executed_count(), 3u);
  EXPECT_EQ(nested_.active_count(), 0u);
}

TEST_F(SchedulerTest, WarmCheapClassRunsInOrderOnCallingThread) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  // The rules do no work, so once known they are cheaper than any
  // hand-off; the observer records where each one ran.
  std::mutex mu;
  std::vector<std::string> order;
  std::vector<std::thread::id> ran_on;
  scheduler.SetExecutionObserver([&](const Firing& f, bool, Status) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(f.rule->name());
    ran_on.push_back(std::this_thread::get_id());
  });
  Rule a("a", "e", nullptr, nullptr);
  Rule b("b", "e", nullptr, nullptr);
  Rule c("c", "e", nullptr, nullptr);
  auto fire = [&] {
    for (Rule* rule : {&a, &b, &c}) scheduler.Enqueue(MakeFiring(rule, 2));
    scheduler.Drain();
  };
  fire();  // warm-up: every rule is unknown, so two members go to the pool
  order.clear();
  ran_on.clear();
  fire();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(ran_on.size(), 3u);
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(),
                       std::this_thread::get_id()),
            3);
  EXPECT_EQ(scheduler.executed_count(), 6u);
}

TEST_F(SchedulerTest, RuleThatTurnsSlowIsSpilledFromItsNextFiring) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4});
  std::atomic<bool> slow{false};
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  scheduler.SetExecutionObserver([&](const Firing&, bool, Status) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on.push_back(std::this_thread::get_id());
  });
  auto action = [&slow](const RuleContext&) {
    if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  // Three rules, so one preempted (and so slow-looking) warm-up execution
  // cannot by itself send the class to the pool.
  Rule r1("r1", "e", nullptr, action);
  Rule r2("r2", "e", nullptr, action);
  Rule r3("r3", "e", nullptr, action);
  auto on_caller = [&] {
    for (Rule* rule : {&r1, &r2, &r3}) {
      scheduler.Enqueue(MakeFiring(rule, 2));
    }
    ran_on.clear();
    scheduler.Drain();
    EXPECT_EQ(ran_on.size(), 3u);
    return std::count(ran_on.begin(), ran_on.end(),
                      std::this_thread::get_id());
  };
  on_caller();  // warm-up
  slow = true;
  // Known cheap when the class starts: it runs here, and the rules' wall
  // times now mark them slow.
  EXPECT_EQ(on_caller(), 3);
  EXPECT_EQ(on_caller(), 1);  // two of the three overlap on the pool
}

TEST_F(SchedulerTest, DrainInsideActionRunsOnlyWhatOutranksIt) {
  // An action that triggers a nested rule and drains (as
  // ActiveDatabase::Notify does) runs that rule before it resumes, but not
  // a sibling of its own priority or a lower one.
  std::mutex mu;
  std::vector<std::string> order;
  auto log = [&](const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(name);
  };
  Rule nested("nested", "e", nullptr,
              [&](const RuleContext&) { log("nested"); });
  Rule a("a", "e", nullptr, [&](const RuleContext&) {
    log("a");
    Firing f = MakeFiring(&nested, 0);
    f.priority_path = RuleScheduler::CurrentFrame()->priority_path;
    f.priority_path.push_back(1);
    scheduler_.Enqueue(f);
    scheduler_.Drain();
    log("a resumed");
  });
  Rule b("b", "e", nullptr, [&](const RuleContext&) { log("b"); });
  Rule c("c", "e", nullptr, [&](const RuleContext&) { log("c"); });
  scheduler_.Enqueue(MakeFiring(&a, 5));
  scheduler_.Enqueue(MakeFiring(&b, 5));
  scheduler_.Enqueue(MakeFiring(&c, 1));
  scheduler_.Drain();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "nested", "a resumed", "b",
                                             "c"}));
}

TEST_F(SchedulerTest, SubtransactionsCleanedUpAfterDrain) {
  auto rule = std::make_unique<Rule>("r", "e", nullptr,
                                     [](const RuleContext&) {});
  for (int i = 0; i < 10; ++i) {
    scheduler_.Enqueue(MakeFiring(rule.get(), 1, /*txn=*/7));
  }
  scheduler_.Drain();
  EXPECT_EQ(nested_.active_count(), 0u);
  EXPECT_EQ(scheduler_.executed_count(), 10u);
}

TEST_F(SchedulerTest, ThrowingActionIsContained) {
  // A rule whose action throws must not take the process down: its
  // subtransaction is aborted, the failure is counted and reported to the
  // observer, and later rules still run.
  std::vector<Status> statuses;
  std::mutex mu;
  scheduler_.SetExecutionObserver([&](const Firing&, bool, Status st) {
    std::lock_guard<std::mutex> lock(mu);
    statuses.push_back(std::move(st));
  });
  auto bomb = std::make_unique<Rule>("bomb", "e", nullptr,
                                     [](const RuleContext&) {
                                       throw std::runtime_error("boom");
                                     });
  std::atomic<bool> survivor_ran{false};
  auto survivor = std::make_unique<Rule>(
      "survivor", "e", nullptr,
      [&survivor_ran](const RuleContext&) { survivor_ran = true; });
  scheduler_.Enqueue(MakeFiring(bomb.get(), 9));
  scheduler_.Enqueue(MakeFiring(survivor.get(), 1));
  scheduler_.Drain();
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(scheduler_.failed_count(), 1u);
  EXPECT_EQ(scheduler_.executed_count(), 1u);
  EXPECT_EQ(nested_.active_count(), 0u);  // failed subtxn was aborted
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_FALSE(statuses[0].ok());  // bomb ran first (priority 9)
  EXPECT_NE(statuses[0].ToString().find("boom"), std::string::npos);
  EXPECT_TRUE(statuses[1].ok());
}

TEST_F(SchedulerTest, ThrowingConditionIsContained) {
  auto rule = std::make_unique<Rule>(
      "r", "e",
      [](const RuleContext&) -> bool { throw std::runtime_error("cond"); },
      [](const RuleContext&) { FAIL() << "action must not run"; });
  scheduler_.Enqueue(MakeFiring(rule.get(), 1));
  scheduler_.Drain();
  EXPECT_EQ(scheduler_.failed_count(), 1u);
  EXPECT_EQ(scheduler_.executed_count(), 0u);
  EXPECT_EQ(nested_.active_count(), 0u);
  EXPECT_EQ(rule->fired_count(), 0u);
}

TEST_F(SchedulerTest, FailpointInjectedRuleFailure) {
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .Enable("scheduler.execute", "error(hit=1)")
                  .ok());
  std::atomic<bool> second_ran{false};
  auto first = std::make_unique<Rule>("first", "e", nullptr,
                                      [](const RuleContext&) {});
  auto second = std::make_unique<Rule>(
      "second", "e", nullptr,
      [&second_ran](const RuleContext&) { second_ran = true; });
  scheduler_.Enqueue(MakeFiring(first.get(), 9));
  scheduler_.Enqueue(MakeFiring(second.get(), 1));
  scheduler_.Drain();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(scheduler_.failed_count(), 1u);
  EXPECT_EQ(scheduler_.executed_count(), 1u);
  EXPECT_EQ(first->fired_count(), 0u);  // injected failure before the action
  EXPECT_EQ(nested_.active_count(), 0u);
}

TEST_F(SchedulerTest, AbortTopContingencyDropsPendingFirings) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kSerial, 2,
                             ContingencyPolicy::kAbortTop});
  auto bomb = std::make_unique<Rule>("bomb", "e", nullptr,
                                     [](const RuleContext&) {
                                       throw std::runtime_error("boom");
                                     });
  std::atomic<int> same_txn_ran{0};
  auto same_txn = std::make_unique<Rule>(
      "same", "e", nullptr,
      [&same_txn_ran](const RuleContext&) { ++same_txn_ran; });
  std::atomic<int> other_txn_ran{0};
  auto other_txn = std::make_unique<Rule>(
      "other", "e", nullptr,
      [&other_txn_ran](const RuleContext&) { ++other_txn_ran; });
  scheduler.Enqueue(MakeFiring(bomb.get(), 9, /*txn=*/7));
  scheduler.Enqueue(MakeFiring(same_txn.get(), 5, /*txn=*/7));
  scheduler.Enqueue(MakeFiring(same_txn.get(), 4, /*txn=*/7));
  scheduler.Enqueue(MakeFiring(other_txn.get(), 1, /*txn=*/8));
  scheduler.Drain();
  // The doomed transaction's queued rules were dropped; the unrelated
  // transaction's rule still ran.
  EXPECT_EQ(same_txn_ran, 0);
  EXPECT_EQ(other_txn_ran, 1);
  EXPECT_EQ(scheduler.failed_count(), 1u);
  EXPECT_EQ(scheduler.abort_top_count(), 1u);
  EXPECT_EQ(nested_.active_count(), 0u);
}

TEST_F(SchedulerTest, AbortTopDropsClassMembersNotYetStarted) {
  RuleScheduler scheduler(
      &nested_, nullptr,
      RuleScheduler::Options{SchedulingPolicy::kPriorityClasses, 4,
                             ContingencyPolicy::kAbortTop});
  std::atomic<bool> armed{false};
  Rule bomb("bomb", "e", nullptr, [&armed](const RuleContext&) {
    if (armed) throw std::runtime_error("boom");
  });
  // The siblings do no work, so once known they are cheaper than any
  // hand-off; the observer counts their executions.
  Rule sibling("sibling", "e", nullptr, nullptr);
  Rule other("other", "e", nullptr, nullptr);
  std::atomic<int> sibling_ran{0};
  std::atomic<int> other_ran{0};
  scheduler.SetExecutionObserver([&](const Firing& f, bool, Status) {
    if (f.rule == &sibling) ++sibling_ran;
    if (f.rule == &other) ++other_ran;
  });
  // Warm-up: every rule executes once, so all are known and the class
  // below runs on the calling thread in queue order.
  for (Rule* rule : {&bomb, &sibling, &other}) {
    scheduler.Enqueue(MakeFiring(rule, 3, /*txn=*/7));
  }
  scheduler.Drain();
  ASSERT_EQ(sibling_ran, 1);
  sibling_ran = 0;
  other_ran = 0;
  armed = true;
  scheduler.Enqueue(MakeFiring(&bomb, 3, /*txn=*/7));
  scheduler.Enqueue(MakeFiring(&sibling, 3, /*txn=*/7));
  scheduler.Enqueue(MakeFiring(&other, 3, /*txn=*/8));
  scheduler.Enqueue(MakeFiring(&sibling, 3, /*txn=*/7));
  scheduler.Drain();
  // The doomed transaction's members after the failure were dropped; the
  // unrelated transaction's member still ran.
  EXPECT_EQ(sibling_ran, 0);
  EXPECT_EQ(other_ran, 1);
  EXPECT_EQ(scheduler.abort_top_count(), 1u);
  EXPECT_EQ(nested_.active_count(), 0u);
}

}  // namespace
}  // namespace sentinel::rules
