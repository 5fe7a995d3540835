#include "ged/global_detector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "detector_test_util.h"

namespace sentinel::ged {
namespace {

using detector::EventModifier;
using detector::ParamContext;

class GedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(app1_.OpenInMemory().ok());
    ASSERT_TRUE(app2_.OpenInMemory().ok());
    ASSERT_TRUE(ged_.RegisterApplication("app1", &app1_).ok());
    ASSERT_TRUE(ged_.RegisterApplication("app2", &app2_).ok());
  }

  void Fire(core::ActiveDatabase* app, const std::string& method, int v) {
    auto params = std::make_shared<detector::ParamList>();
    params->Insert("v", oodb::Value::Int(v));
    app->NotifyMethod("Order", 1, EventModifier::kEnd, method, params, 1);
  }

  core::ActiveDatabase app1_, app2_;
  GlobalEventDetector ged_;
};

TEST_F(GedTest, GlobalPrimitiveMirrorsApplicationEvent) {
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("g1", "app1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  detector::RecordingSink sink;
  ASSERT_TRUE(ged_.Subscribe("g1", &sink, ParamContext::kRecent).ok());
  Fire(&app1_, "void submit()", 7);
  ged_.WaitQuiescent();
  ASSERT_EQ(sink.hits.size(), 1u);
  EXPECT_EQ(sink.hits[0].occurrence.Param("v")->AsInt(), 7);
}

TEST_F(GedTest, EventsAreScopedToTheirApplication) {
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("g1", "app1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  detector::RecordingSink sink;
  ASSERT_TRUE(ged_.Subscribe("g1", &sink, ParamContext::kRecent).ok());
  Fire(&app2_, "void submit()", 1);  // same class+method, other application
  ged_.WaitQuiescent();
  EXPECT_TRUE(sink.hits.empty());
}

TEST_F(GedTest, CrossApplicationSequence) {
  // Paper Fig. 2: composite events whose constituents come from different
  // applications (workflow: app1 submits, app2 approves).
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("submitted", "app1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("approved", "app2", "Order",
                                         EventModifier::kEnd, "void approve()")
                  .ok());
  auto submitted = ged_.graph()->Find("submitted");
  auto approved = ged_.graph()->Find("approved");
  ASSERT_TRUE(
      ged_.graph()->DefineSeq("submit_then_approve", *submitted, *approved).ok());
  detector::RecordingSink sink;
  ASSERT_TRUE(
      ged_.Subscribe("submit_then_approve", &sink, ParamContext::kRecent).ok());

  Fire(&app2_, "void approve()", 1);  // wrong order: no detection
  Fire(&app1_, "void submit()", 2);
  ged_.WaitQuiescent();
  EXPECT_TRUE(sink.hits.empty());
  Fire(&app2_, "void approve()", 3);
  ged_.WaitQuiescent();
  ASSERT_EQ(sink.hits.size(), 1u);
  EXPECT_EQ(sink.hits[0].occurrence.constituents.size(), 2u);
}

TEST_F(GedTest, DeliverToExecutesDetachedRuleInTargetApp) {
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("submitted", "app1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  // Target application defines an explicit event + a detached rule on it.
  ASSERT_TRUE(app2_.detector()->DefineExplicit("order_arrived").ok());
  std::atomic<int> fired{0};
  rules::RuleManager::RuleOptions options;
  options.coupling = rules::CouplingMode::kDetached;
  ASSERT_TRUE(app2_.rule_manager()
                  ->DefineRule("on_order", "order_arrived", nullptr,
                               [&](const rules::RuleContext& ctx) {
                                 if (ctx.Param("v").ok()) ++fired;
                               },
                               options)
                  .ok());
  ASSERT_TRUE(ged_.DeliverTo("submitted", "app2", "order_arrived").ok());
  EXPECT_TRUE(ged_.DeliverTo("submitted", "app2", "missing").IsNotFound());
  EXPECT_TRUE(ged_.DeliverTo("submitted", "nope", "order_arrived").IsNotFound());

  Fire(&app1_, "void submit()", 5);
  ged_.WaitQuiescent();
  app2_.scheduler()->WaitDetached();
  EXPECT_EQ(fired, 1);
}

TEST_F(GedTest, DuplicateApplicationRejected) {
  EXPECT_TRUE(ged_.RegisterApplication("app1", &app1_).IsAlreadyExists());
  EXPECT_TRUE(ged_.DefineGlobalPrimitive("g", "ghost", "C",
                                         EventModifier::kEnd, "void f()")
                  .status()
                  .IsNotFound());
}

TEST_F(GedTest, ForwardedCountTracksBusTraffic) {
  const std::uint64_t before = ged_.forwarded_count();
  Fire(&app1_, "void whatever()", 1);
  Fire(&app2_, "void whatever()", 2);
  ged_.WaitQuiescent();
  EXPECT_EQ(ged_.forwarded_count(), before + 2);
}

detector::PrimitiveOccurrence RemoteOccurrence(int v) {
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.oid = 1;
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = "void submit()";
  occ.txn = 1;
  auto params = std::make_shared<detector::ParamList>();
  params->Insert("v", oodb::Value::Int(v));
  occ.params = params;
  return occ;
}

TEST_F(GedTest, RemoteApplicationLifecycle) {
  ASSERT_TRUE(ged_.RegisterRemoteApplication("remote1").ok());
  EXPECT_TRUE(ged_.RegisterRemoteApplication("remote1").IsAlreadyExists());
  EXPECT_TRUE(ged_.RegisterApplication("remote1", &app1_).IsAlreadyExists());
  EXPECT_TRUE(ged_.RegisterRemoteApplication("app1").IsAlreadyExists());
  EXPECT_TRUE(ged_.IsRegistered("remote1"));

  ASSERT_TRUE(ged_.DefineGlobalPrimitive("g_remote", "remote1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  detector::RecordingSink sink;
  ASSERT_TRUE(ged_.Subscribe("g_remote", &sink, ParamContext::kRecent).ok());

  ASSERT_TRUE(ged_.InjectRemote("remote1", RemoteOccurrence(7)).ok());
  ged_.WaitQuiescent();
  ASSERT_EQ(sink.hits.size(), 1u);
  EXPECT_EQ(sink.hits[0].occurrence.Param("v")->AsInt(), 7);

  // Unregistration is liveness only: the name frees up and late events are
  // dropped, but the graph keeps the definition for the next session.
  ASSERT_TRUE(ged_.UnregisterApplication("remote1").ok());
  EXPECT_FALSE(ged_.IsRegistered("remote1"));
  const std::uint64_t dropped = ged_.dropped_count();
  EXPECT_TRUE(ged_.InjectRemote("remote1", RemoteOccurrence(8)).IsNotFound());
  EXPECT_EQ(ged_.dropped_count(), dropped + 1);
  ASSERT_TRUE(ged_.RegisterRemoteApplication("remote1").ok());
  EXPECT_TRUE(ged_.graph()->Find("g_remote").ok());
  ASSERT_TRUE(ged_.InjectRemote("remote1", RemoteOccurrence(9)).ok());
  ged_.WaitQuiescent();
  EXPECT_EQ(sink.hits.size(), 2u);

  // Local registrations have no removal path (their raw-observer hook is
  // permanent) and must refuse to unregister.
  EXPECT_FALSE(ged_.UnregisterApplication("app1").ok());
  EXPECT_TRUE(ged_.UnregisterApplication("never-registered").IsNotFound());
}

TEST_F(GedTest, ShutdownIsIdempotentAndRefusesLateArrivals) {
  ged_.Shutdown();
  ged_.Shutdown();  // second call must be a no-op, not a double-join
  EXPECT_TRUE(ged_.shut_down());

  EXPECT_TRUE(ged_.RegisterApplication("late", &app1_).IsRetryLater());
  EXPECT_TRUE(ged_.RegisterRemoteApplication("late").IsRetryLater());
  EXPECT_TRUE(ged_.InjectRemote("app1", RemoteOccurrence(1)).IsRetryLater());

  // Events from still-attached local apps are dropped, not queued forever.
  const std::uint64_t dropped = ged_.dropped_count();
  Fire(&app1_, "void submit()", 1);
  EXPECT_GE(ged_.dropped_count(), dropped + 1);
}

TEST_F(GedTest, ConcurrentRegistrationDuringShutdownNeverCorrupts) {
  // Satellite regression: RegisterApplication racing Shutdown used to be
  // able to observe a half-torn bus. Every racer must get a clean verdict —
  // OK (registered before the stop) or RetryLater (after) — and the GED
  // must come out shut down with no crash or deadlock.
  constexpr int kRacers = 8;
  std::vector<std::unique_ptr<core::ActiveDatabase>> apps(kRacers);
  for (auto& app : apps) {
    app = std::make_unique<core::ActiveDatabase>();
    ASSERT_TRUE(app->OpenInMemory().ok());
  }

  std::atomic<bool> go{false};
  std::atomic<int> ok_count{0};
  std::atomic<int> retry_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers + 2);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::string name = "racer" + std::to_string(i);
      const Status st = (i % 2 == 0)
                            ? ged_.RegisterApplication(name, apps[i].get())
                            : ged_.RegisterRemoteApplication(name);
      if (st.ok()) {
        ok_count.fetch_add(1);
      } else {
        EXPECT_TRUE(st.IsRetryLater()) << st.ToString();
        retry_count.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ged_.Shutdown();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_TRUE(ged_.shut_down());
  EXPECT_EQ(ok_count.load() + retry_count.load(), kRacers);
  // Registrations that won the race are still visible; losers left nothing
  // half-registered behind.
  for (int i = 0; i < kRacers; ++i) {
    const std::string name = "racer" + std::to_string(i);
    if (!ged_.IsRegistered(name)) {
      EXPECT_TRUE(ged_.RegisterRemoteApplication(name).IsRetryLater());
    }
  }
}

// The two feeds of the global graph at once: a loopback application event
// (queued on the bus, injected by the bus thread) and a remote one
// (InjectRemote, injected on the caller's thread), ANDed in CHRONICLE
// context. Both paths inject under one mutex, so the FIFO pairing must match
// the i-th loopback event with the i-th remote one, each exactly once.
TEST_F(GedTest, LoopbackAndRemoteEventsPairExactlyOnceUnderConcurrency) {
  constexpr int kPairs = 200;
  ASSERT_TRUE(ged_.RegisterRemoteApplication("remote1").ok());
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("local_submit", "app1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("remote_submit", "remote1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  auto local = ged_.graph()->Find("local_submit");
  auto remote = ged_.graph()->Find("remote_submit");
  ASSERT_TRUE(ged_.graph()->DefineAnd("both", *local, *remote).ok());
  detector::RecordingSink sink;
  ASSERT_TRUE(ged_.Subscribe("both", &sink, ParamContext::kChronicle).ok());

  std::thread loopback([&] {
    for (int v = 0; v < kPairs; ++v) Fire(&app1_, "void submit()", v);
  });
  std::thread remote_feed([&] {
    for (int v = 0; v < kPairs; ++v) {
      ASSERT_TRUE(ged_.InjectRemote("remote1", RemoteOccurrence(v)).ok());
    }
  });
  loopback.join();
  remote_feed.join();
  ged_.WaitQuiescent();

  ASSERT_EQ(sink.hits.size(), static_cast<std::size_t>(kPairs));
  std::vector<int> seen(kPairs, 0);
  for (const auto& hit : sink.hits) {
    const auto& parts = hit.occurrence.constituents;
    ASSERT_EQ(parts.size(), 2u);
    const std::int64_t v = parts[0]->params->Get("v")->AsInt();
    EXPECT_EQ(parts[1]->params->Get("v")->AsInt(), v);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kPairs);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int v = 0; v < kPairs; ++v) EXPECT_EQ(seen[v], 1) << "pair " << v;
}

// Shutdown must not return while an InjectRemote it raced can still reach
// the graph. A sink holds the first injection inside the graph, a second
// InjectRemote queues behind it, and Shutdown starts. Once the sink lets
// go, the queued call must be refused: stop_ was set before it could
// inject.
TEST_F(GedTest, InjectRemoteQueuedBehindShutdownIsRefused) {
  struct GateSink : detector::EventSink {
    void OnEvent(const detector::Occurrence&, ParamContext) override {
      std::unique_lock<std::mutex> lock(mu);
      ++calls;
      if (shutdown_returned) ++late_calls;
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    }
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    bool shutdown_returned = false;
    int calls = 0;
    int late_calls = 0;
  };
  ASSERT_TRUE(ged_.RegisterRemoteApplication("remote1").ok());
  ASSERT_TRUE(ged_.DefineGlobalPrimitive("g_remote", "remote1", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  GateSink sink;
  ASSERT_TRUE(ged_.Subscribe("g_remote", &sink, ParamContext::kRecent).ok());

  std::thread first([&] {
    EXPECT_TRUE(ged_.InjectRemote("remote1", RemoteOccurrence(1)).ok());
  });
  {
    std::unique_lock<std::mutex> lock(sink.mu);
    sink.cv.wait(lock, [&] { return sink.entered; });
  }
  Status second_status;
  std::thread second([&] {
    second_status = ged_.InjectRemote("remote1", RemoteOccurrence(2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] {
    ged_.Shutdown();
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.shutdown_returned = true;
  });
  while (!ged_.shut_down()) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.released = true;
  }
  sink.cv.notify_all();
  first.join();
  second.join();
  stopper.join();

  EXPECT_TRUE(second_status.IsRetryLater()) << second_status.ToString();
  EXPECT_EQ(sink.calls, 1);
  EXPECT_EQ(sink.late_calls, 0);
}

}  // namespace
}  // namespace sentinel::ged
