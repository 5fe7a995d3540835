// Continuous profiling plane: off-mode gating (no account accumulates unless
// profiling is on), exact per-rule attribution agreeing with the rule latency
// histograms, exact per-rule totals under a concurrent notify storm,
// the try-then-wait contention table, and the /profile HTTP round-trip.
// Suite names start with Obs* so the TSan CI job's --gtest_filter picks
// them up.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/active_database.h"
#include "ged/global_detector.h"
#include "obs/profiler.h"
#include "obs/watchdog.h"
#include "rules/rule.h"
#include "rules/rule_manager.h"

namespace sentinel {
namespace {

using core::ActiveDatabase;
using detector::EventModifier;
using obs::HealthState;
using obs::MonitorSample;
using obs::Profiler;
using obs::Watchdog;
using rules::RuleContext;

// ---------------------------------------------------------------------------
// HTTP helpers (same minimal client as obs_monitor_test)
// ---------------------------------------------------------------------------

std::string HttpRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int StatusOf(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// ---------------------------------------------------------------------------
// Off-mode gating
// ---------------------------------------------------------------------------

TEST(ObsProfilerTest, OffByDefaultRecordsNothing) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("e", "STOCK", EventModifier::kEnd, "void f()").ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_off", "e", nullptr,
                               [&](const RuleContext&) { ++fired; })
                  .ok());

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < 10; ++i) {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params, *txn);
  }
  ASSERT_TRUE(db.Commit(*txn).ok());
  EXPECT_EQ(fired, 10);

  Profiler* prof = db.profiler();
  EXPECT_FALSE(prof->enabled());
  EXPECT_TRUE(prof->RuleSnapshots().empty());
  EXPECT_EQ(prof->TopCostRule(), "");
  EXPECT_NE(prof->ProfileJson().find("\"mode\":\"off\""), std::string::npos);
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// Exact attribution: profiler accounts agree with the rule histograms
// ---------------------------------------------------------------------------

TEST(ObsProfilerTest, RuleAttributionMatchesLatencyHistograms) {
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

  db.profiler()->Start();

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

  // System rules (flush-on-commit) are profiled too; pick ours by name.
  const auto rules = db.profiler()->RuleSnapshots();
  const auto it = std::find_if(rules.begin(), rules.end(),
                               [](const auto& r) { return r.name == "r_hot"; });
  ASSERT_NE(it, rules.end());
  const auto& snap = *it;

  // The scheduler reuses the same measured wall deltas for the profiler and
  // the latency histograms, so counts and wall totals agree exactly.
  const auto cond_hist = (*rule)->metrics().condition_ns.TakeSnapshot();
  const auto act_hist = (*rule)->metrics().action_ns.TakeSnapshot();
  const auto& cond =
      snap.seams[static_cast<int>(Profiler::RuleSeam::kCondition)];
  const auto& act = snap.seams[static_cast<int>(Profiler::RuleSeam::kAction)];
  EXPECT_EQ(cond.invocations, static_cast<std::uint64_t>(kFirings));
  EXPECT_EQ(act.invocations, static_cast<std::uint64_t>(kFirings));
  EXPECT_EQ(cond.invocations, cond_hist.count);
  EXPECT_EQ(act.invocations, act_hist.count);
  EXPECT_EQ(cond.wall_ns, cond_hist.sum_ns);
  EXPECT_EQ(act.wall_ns, act_hist.sum_ns);
  EXPECT_EQ((*rule)->fired_count(), static_cast<std::uint64_t>(kFirings));

  EXPECT_EQ(db.profiler()->TopCostRule(), "r_hot");
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// Concurrent notify storm: attribution totals stay exact (TSan-covered)
// ---------------------------------------------------------------------------

TEST(ObsProfilerTest, ConcurrentNotifyStormKeepsExactTotals) {
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

  db.profiler()->Start();

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

  // Sharded counters lose nothing under concurrency: per-rule invocation
  // counts sum to the storm size.
  std::uint64_t rule_actions = 0;
  for (const auto& rule : db.profiler()->RuleSnapshots()) {
    if (rule.name != "r_a" && rule.name != "r_b") continue;  // skip __sys_*
    rule_actions +=
        rule.seams[static_cast<int>(Profiler::RuleSeam::kAction)].invocations;
  }
  EXPECT_EQ(rule_actions, static_cast<std::uint64_t>(total));
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// The span tracer is the seam: the profiler is one of its sinks
// ---------------------------------------------------------------------------

/// Declares submit/confirm primitives on Order, SEQ(submit; confirm), and a
/// rule with a condition on the sequence.
void InstallSeqRule(ActiveDatabase* db, std::atomic<int>* fired) {
  auto submit = db->DeclareEvent("ev_submit", "Order", EventModifier::kEnd,
                                 "void submit()");
  auto confirm = db->DeclareEvent("ev_confirm", "Order", EventModifier::kEnd,
                                  "void confirm()");
  ASSERT_TRUE(submit.ok());
  ASSERT_TRUE(confirm.ok());
  ASSERT_TRUE(db->detector()->DefineSeq("ev_seq", *submit, *confirm).ok());
  ASSERT_TRUE(db->rule_manager()
                  ->DefineRule(
                      "r_seq", "ev_seq", [](const RuleContext&) { return true; },
                      [fired](const RuleContext&) { ++*fired; })
                  .ok());
}

/// Raises `pairs` submit/confirm pairs in one transaction and commits it.
void RunSeqPairs(ActiveDatabase* db, int pairs) {
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < pairs; ++i) {
    db->NotifyMethod("Order", 1, EventModifier::kEnd, "void submit()", params,
                     *txn);
    db->NotifyMethod("Order", 1, EventModifier::kEnd, "void confirm()",
                     params, *txn);
  }
  if (db->database() != nullptr) {
    ASSERT_TRUE(db->CreateObject(*txn, "Order").ok());  // a WAL write
  }
  ASSERT_TRUE(db->Commit(*txn).ok());
}

std::uint64_t NodeInvocations(const Profiler& prof, const std::string& node) {
  for (const auto& snap : prof.NodeSnapshots()) {
    if (snap.name == node) return snap.eval.invocations;
  }
  return 0;
}

TEST(ObsProfilerTest, TracingOffStillFeedsEveryProfilerAccount) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() /
       ("sentinel_prof_seam_" + std::to_string(::getpid())))
          .string();
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.Open(prefix).ok());
    ASSERT_TRUE(db.database()
                    ->classes()
                    ->Register(oodb::ClassDef("Order", "")
                                   .AddMethod("void submit()", {})
                                   .AddMethod("void confirm()", {}))
                    .ok());
    std::atomic<int> fired{0};
    InstallSeqRule(&db, &fired);
    db.span_tracer()->set_mode(obs::TraceMode::kOff);
    db.profiler()->Start();

    constexpr int kPairs = 10;
    RunSeqPairs(&db, kPairs);
    ASSERT_EQ(fired, kPairs);

    // Rule accounts: the histograms and the profiler are fed from one
    // record, so counts and wall sums agree exactly.
    auto rule = db.rule_manager()->Find("r_seq");
    ASSERT_TRUE(rule.ok());
    const auto rules = db.profiler()->RuleSnapshots();
    const auto it = std::find_if(
        rules.begin(), rules.end(),
        [](const auto& r) { return r.name == "r_seq"; });
    ASSERT_NE(it, rules.end());
    const auto& cond =
        it->seams[static_cast<int>(Profiler::RuleSeam::kCondition)];
    const auto& act = it->seams[static_cast<int>(Profiler::RuleSeam::kAction)];
    const auto& commit =
        it->seams[static_cast<int>(Profiler::RuleSeam::kCommit)];
    const auto cond_hist = (*rule)->metrics().condition_ns.TakeSnapshot();
    const auto act_hist = (*rule)->metrics().action_ns.TakeSnapshot();
    const auto commit_hist = (*rule)->metrics().commit_ns.TakeSnapshot();
    EXPECT_EQ(cond.invocations, static_cast<std::uint64_t>(kPairs));
    EXPECT_EQ(cond.invocations, cond_hist.count);
    EXPECT_EQ(cond.wall_ns, cond_hist.sum_ns);
    EXPECT_EQ(act.invocations, act_hist.count);
    EXPECT_EQ(act.wall_ns, act_hist.sum_ns);
    EXPECT_EQ(commit.invocations, commit_hist.count);
    EXPECT_EQ(commit.wall_ns, commit_hist.sum_ns);

    // Node and commit-barrier accounts fill without any ring.
    EXPECT_GE(NodeInvocations(*db.profiler(), "ev_seq"),
              static_cast<std::uint64_t>(kPairs));
    EXPECT_GT(
        db.profiler()->GlobalSnapshot(Profiler::GlobalSeam::kCommitBarrier)
            .invocations,
        0u);
    EXPECT_EQ(db.span_tracer()->recorded(), 0u);
    EXPECT_TRUE(db.span_tracer()->Snapshot().empty());
    ASSERT_TRUE(db.Close().ok());
  }
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

TEST(ObsProfilerTest, FlightTracingMeasuresNodesWithoutRecordingThem) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  std::atomic<int> fired{0};
  InstallSeqRule(&db, &fired);
  ASSERT_EQ(db.span_tracer()->mode(), obs::TraceMode::kFlightOnly);
  db.profiler()->Start();

  // Few enough spans that the 256-span flight rings drop none.
  constexpr int kPairs = 8;
  RunSeqPairs(&db, kPairs);
  ASSERT_EQ(fired, kPairs);
  EXPECT_GE(NodeInvocations(*db.profiler(), "ev_seq"),
            static_cast<std::uint64_t>(kPairs));

  const auto spans = db.span_tracer()->Snapshot();
  ASSERT_FALSE(spans.empty());
  ASSERT_LT(spans.size(), 256u);
  std::set<std::uint64_t> ids;
  for (const auto& span : spans) ids.insert(span.id);
  for (const auto& span : db.span_tracer()->OpenTxnSpans()) {
    ids.insert(span.id);
  }
  for (const auto& span : spans) {
    EXPECT_NE(span.kind, obs::SpanKind::kCompositeDetect);
    // A parent the flight ring never kept would be a dangling link.
    if (span.parent != 0) {
      EXPECT_EQ(ids.count(span.parent), 1u)
          << obs::SpanKindToString(span.kind) << " span " << span.id
          << " has unrecorded parent " << span.parent;
    }
  }
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsProfilerTest, GedOnTheDatabaseTracerAttributesForwards) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ged::GlobalEventDetector ged;
  ged.set_span_tracer(db.span_tracer());
  ASSERT_TRUE(ged.RegisterApplication("app", &db).ok());
  db.profiler()->Start();

  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < 3; ++i) {
    db.NotifyMethod("Order", 1, EventModifier::kEnd, "void submit()", params,
                    1);
  }
  ged.WaitQuiescent();
  EXPECT_GE(
      db.profiler()->GlobalSnapshot(Profiler::GlobalSeam::kGedForward)
          .invocations,
      3u);
  ged.Shutdown();
  ASSERT_TRUE(db.Close().ok());
}

// ---------------------------------------------------------------------------
// Contention profiling
// ---------------------------------------------------------------------------

TEST(ObsProfilerTest, LockContendedRecordsWaitsAndTopKOrders) {
  Profiler prof;
  prof.Start();

  auto* hot = prof.GetContentionSite("hot_site");
  auto* cold = prof.GetContentionSite("cold_site");
  auto* idle = prof.GetContentionSite("idle_site");
  std::mutex mu;

  // Uncontended acquisition: try_lock succeeds, no wait recorded.
  { auto lock = Profiler::LockContended(&prof, cold, mu); }

  // Contended acquisition: a holder sleeps while we block.
  std::atomic<bool> held{false};
  std::thread holder([&] {
    std::unique_lock<std::mutex> lock(mu);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  while (!held.load()) std::this_thread::yield();
  { auto lock = Profiler::LockContended(&prof, hot, mu); }
  holder.join();

  const auto top = prof.TopContended(8);
  // idle_site never acquired: skipped entirely.
  for (const auto& site : top) EXPECT_NE(site.site, "idle_site");
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top.front().site, "hot_site");
  EXPECT_EQ(top.front().acquisitions, 1u);
  EXPECT_EQ(top.front().contended, 1u);
  EXPECT_GT(top.front().wait_ns, 0u);

  // Condition-wait sites report measured waits directly.
  Profiler::RecordSiteAcquire(idle);
  Profiler::RecordSiteWait(idle, 5);
  EXPECT_EQ(idle->acquisitions.value(), 1u);
  EXPECT_EQ(idle->wait_ns.value(), 5u);

  // Off-mode LockContended is a plain lock: nothing recorded.
  prof.Stop();
  { auto lock = Profiler::LockContended(&prof, cold, mu); }
  EXPECT_EQ(cold->acquisitions.value(), 1u);
}

TEST(ObsProfilerTest, ResetZeroesAccountsInPlace) {
  Profiler prof;
  prof.Start();
  auto* cell = prof.NodeAccount("and_node");
  cell->Record(10, 20);
  auto* site = prof.GetContentionSite("s");
  Profiler::RecordSiteAcquire(site);
  prof.Stop();
  prof.Reset();
  // Pointers stay valid; counters are zeroed in place.
  EXPECT_EQ(prof.NodeAccount("and_node"), cell);
  EXPECT_EQ(prof.GetContentionSite("s"), site);
  EXPECT_EQ(cell->Snap().invocations, 0u);
  EXPECT_EQ(cell->Snap().wall_ns, 0u);
  EXPECT_EQ(site->acquisitions.value(), 0u);
  EXPECT_TRUE(prof.TopContended(4).empty());
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

// ---------------------------------------------------------------------------
// End-to-end: /profile over HTTP and sentinel_profile_* exposition
// ---------------------------------------------------------------------------

TEST(ObsProfileE2ETest, ProfileEndpointRoundTrip) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("e", "STOCK", EventModifier::kEnd, "void f()").ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_http", "e", nullptr,
                               [&](const RuleContext&) { ++fired; })
                  .ok());
  db.profiler()->Start();
  auto bound = db.StartMonitoring(0);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const int port = *bound;

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < 5; ++i) {
    db.NotifyMethod("STOCK", 1, EventModifier::kEnd, "void f()", params, *txn);
  }
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_EQ(fired, 5);

  const auto profile = HttpGet(port, "/profile");
  EXPECT_EQ(StatusOf(profile), 200);
  const std::string body = BodyOf(profile);
  EXPECT_NE(body.find("\"mode\":\"on\""), std::string::npos);
  EXPECT_NE(body.find("\"rules\""), std::string::npos);
  EXPECT_NE(body.find("\"r_http\""), std::string::npos);
  EXPECT_EQ(body.find("\"symbols\""), std::string::npos);
  EXPECT_NE(body.find("\"contention\""), std::string::npos);
  EXPECT_NE(body.find("\"seams\""), std::string::npos);

  const auto metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  const std::string exposition = BodyOf(metrics);
  EXPECT_NE(exposition.find("sentinel_profile_mode 1"), std::string::npos);
  EXPECT_NE(exposition.find("sentinel_profile_rule_wall_ns_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("rule=\"r_http\""), std::string::npos);
  EXPECT_EQ(exposition.find("sentinel_profile_symbol_"), std::string::npos);

  db.StopMonitoring();
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsProfileE2ETest, MetricsKeepProfileFamiliesWhenOff) {
  // The CI exposition check requires sentinel_profile_ families even when
  // profiling never ran: mode and duration are always emitted.
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  auto bound = db.StartMonitoring(0);
  ASSERT_TRUE(bound.ok());
  const std::string exposition = BodyOf(HttpGet(*bound, "/metrics"));
  EXPECT_NE(exposition.find("sentinel_profile_mode 0"), std::string::npos);
  EXPECT_NE(exposition.find("sentinel_profile_duration_ns"),
            std::string::npos);
  db.StopMonitoring();
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace sentinel
