// Live monitoring plane: Prometheus exposition shape (le ordering, cumulative
// monotone buckets, label escaping), the embedded HTTP monitor server, the
// health watchdog's stall predicates and rate-limited postmortems, and the
// end-to-end acceptance path — a failpoint-induced scheduler stall flips
// /healthz to 503 and triggers exactly one automatic postmortem. Suite names
// start with Obs* so the TSan CI job's --gtest_filter picks them up.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/active_database.h"
#include "obs/monitor_server.h"
#include "obs/prometheus.h"
#include "obs/watchdog.h"

namespace sentinel {
namespace {

using core::ActiveDatabase;
using obs::HealthState;
using obs::LatencyHistogram;
using obs::MonitorSample;
using obs::MonitorServer;
using obs::PromWriter;
using obs::Watchdog;

// ---------------------------------------------------------------------------
// Prometheus exposition shape
// ---------------------------------------------------------------------------

TEST(ObsPromTest, CounterEmitsHelpAndTypeOncePerFamily) {
  PromWriter p;
  p.Counter("x_total", "Things.", {{"a", "1"}}, 3);
  p.Counter("x_total", "Things.", {{"a", "2"}}, 5);
  const std::string out = p.Take();
  EXPECT_EQ(out,
            "# HELP x_total Things.\n"
            "# TYPE x_total counter\n"
            "x_total{a=\"1\"} 3\n"
            "x_total{a=\"2\"} 5\n");
}

TEST(ObsPromTest, LabelValuesAreEscaped) {
  EXPECT_EQ(PromWriter::EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  PromWriter p;
  p.Gauge("g", "h", {{"k", "v\"w\n"}}, 1);
  EXPECT_NE(p.str().find("g{k=\"v\\\"w\\n\"} 1\n"), std::string::npos);
}

/// Parses `<name>_bucket{...le="<le>"} <value>` lines of one family.
struct BucketLine {
  std::string le;
  std::uint64_t value = 0;
};
std::vector<BucketLine> ParseBuckets(const std::string& text,
                                     const std::string& family) {
  std::vector<BucketLine> out;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = family + "_bucket{";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const auto le_pos = line.find("le=\"");
    const auto le_end = line.find('"', le_pos + 4);
    const auto space = line.rfind(' ');
    BucketLine b;
    b.le = line.substr(le_pos + 4, le_end - le_pos - 4);
    b.value = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    out.push_back(b);
  }
  return out;
}

TEST(ObsPromTest, HistogramBucketsAreCumulativeMonotoneAndLeOrdered) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(100);
  h.Record(100);
  h.Record(100000);
  PromWriter p;
  p.Histogram("lat_ns", "Latency.", {}, h.TakeSnapshot());
  const std::string out = p.Take();

  const auto buckets = ParseBuckets(out, "lat_ns");
  ASSERT_GE(buckets.size(), 3u);
  EXPECT_EQ(buckets.back().le, "+Inf");
  EXPECT_EQ(buckets.back().value, 4u);  // +Inf bucket == count
  std::uint64_t prev_le = 0;
  std::uint64_t prev_value = 0;
  bool first = true;
  for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
    const std::uint64_t le = std::strtoull(buckets[i].le.c_str(), nullptr, 10);
    if (!first) {
      EXPECT_GT(le, prev_le) << "le values must increase";
    }
    EXPECT_GE(buckets[i].value, prev_value) << "buckets must be cumulative";
    prev_le = le;
    prev_value = buckets[i].value;
    first = false;
  }
  EXPECT_GE(buckets.back().value, prev_value);
  // _sum and _count close the family.
  EXPECT_NE(out.find("lat_ns_sum 100200\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ns_count 4\n"), std::string::npos);
  // Power-of-two bounds: 100 lands in [64,128) => le="127" must appear.
  EXPECT_NE(out.find("le=\"127\""), std::string::npos);
}

TEST(ObsPromTest, HistogramElidesTrailingZeroBuckets) {
  LatencyHistogram h;
  h.Record(1);  // bucket 1 is the last non-empty one
  PromWriter p;
  p.Histogram("x_ns", "X.", {}, h.TakeSnapshot());
  const auto buckets = ParseBuckets(p.str(), "x_ns");
  // le="0", le="1", le="+Inf" — the other 46 buckets are elided.
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].le, "0");
  EXPECT_EQ(buckets[1].le, "1");
  EXPECT_EQ(buckets[2].le, "+Inf");
  EXPECT_EQ(buckets[2].value, 1u);
}

TEST(ObsPromTest, HistogramLabelsRideEverySeries) {
  LatencyHistogram h;
  h.Record(5);
  PromWriter p;
  p.Histogram("r_ns", "R.", {{"rule", "audit"}}, h.TakeSnapshot());
  const std::string out = p.str();
  EXPECT_NE(out.find("r_ns_bucket{rule=\"audit\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("r_ns_sum{rule=\"audit\"} 5\n"), std::string::npos);
  EXPECT_NE(out.find("r_ns_count{rule=\"audit\"} 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Watchdog predicates (synthetic samples through the real evaluation path)
// ---------------------------------------------------------------------------

MonitorSample SampleAt(std::uint64_t at_ms) {
  MonitorSample s;
  s.at_ns = at_ms * 1000000ull;
  return s;
}

TEST(ObsWatchdogTest, SchedulerStallFlipsUnhealthyAndRecovers) {
  Watchdog::Options options;
  options.stall_samples = 2;
  Watchdog wd([] { return MonitorSample{}; }, options);
  int postmortems = 0;
  wd.set_postmortem_hook([&](const std::string& reason) {
    ++postmortems;
    EXPECT_NE(reason.find("scheduler_stall"), std::string::npos) << reason;
  });

  // Queue depth constant at 5, executed frozen: stalled after
  // stall_samples + 1 readings.
  for (int i = 0; i < 3; ++i) {
    MonitorSample s = SampleAt(100 * (i + 1));
    s.sched_pending = 5;
    s.executed = 10;
    wd.TickForTest(s);
  }
  EXPECT_EQ(wd.health(), HealthState::kUnhealthy);
  ASSERT_FALSE(wd.reasons().empty());
  EXPECT_NE(wd.reasons().front().find("scheduler_stall"), std::string::npos);
  EXPECT_EQ(wd.transitions(), 1u);
  EXPECT_EQ(postmortems, 1);
  EXPECT_EQ(wd.postmortems_triggered(), 1u);

  // The queue drains: healthy again, no further postmortems.
  MonitorSample s = SampleAt(400);
  s.sched_pending = 0;
  s.executed = 15;
  wd.TickForTest(s);
  EXPECT_EQ(wd.health(), HealthState::kHealthy);
  EXPECT_TRUE(wd.reasons().empty());
  EXPECT_EQ(postmortems, 1);
}

TEST(ObsWatchdogTest, DrainingQueueIsNotAStall) {
  Watchdog::Options options;
  options.stall_samples = 2;
  Watchdog wd([] { return MonitorSample{}; }, options);
  // Depth shrinks every tick — busy, not wedged.
  for (int i = 0; i < 4; ++i) {
    MonitorSample s = SampleAt(100 * (i + 1));
    s.sched_pending = static_cast<std::uint64_t>(10 - i);
    s.executed = 10;
    wd.TickForTest(s);
  }
  EXPECT_EQ(wd.health(), HealthState::kHealthy);
}

TEST(ObsWatchdogTest, LockPileupDegrades) {
  Watchdog::Options options;
  options.max_lock_waiters = 4;
  Watchdog wd([] { return MonitorSample{}; }, options);
  MonitorSample s = SampleAt(100);
  s.lock_waiters = 3;
  s.nested_waiters = 2;  // 5 > 4
  wd.TickForTest(s);
  EXPECT_EQ(wd.health(), HealthState::kDegraded);
  ASSERT_FALSE(wd.reasons().empty());
  EXPECT_NE(wd.reasons().front().find("lock_pileup"), std::string::npos);
}

TEST(ObsWatchdogTest, WalWedgedIsUnhealthy) {
  Watchdog wd([] { return MonitorSample{}; }, Watchdog::Options{});
  MonitorSample s = SampleAt(100);
  s.wal_wedged = true;
  wd.TickForTest(s);
  EXPECT_EQ(wd.health(), HealthState::kUnhealthy);
}

TEST(ObsWatchdogTest, BufferGrowthWithoutDetectionsDegrades) {
  Watchdog::Options options;
  options.buffer_growth_min = 10;
  Watchdog wd([] { return MonitorSample{}; }, options);
  MonitorSample s1 = SampleAt(100);
  s1.detector_buffered = 0;
  s1.detections = 7;
  wd.TickForTest(s1);
  MonitorSample s2 = SampleAt(200);
  s2.detector_buffered = 100;
  s2.detections = 7;
  wd.TickForTest(s2);
  EXPECT_EQ(wd.health(), HealthState::kDegraded);
  ASSERT_FALSE(wd.reasons().empty());
  EXPECT_NE(wd.reasons().front().find("detector_buffer_growth"),
            std::string::npos);

  // Same growth with detections moving is fine: someone consumes the events.
  Watchdog wd2([] { return MonitorSample{}; }, options);
  s1.detections = 1;
  s2.detections = 2;
  wd2.TickForTest(s1);
  wd2.TickForTest(s2);
  EXPECT_EQ(wd2.health(), HealthState::kHealthy);
}

TEST(ObsWatchdogTest, NetE2eP99BreachDegrades) {
  Watchdog::Options options;
  options.net_e2e_p99_degraded_ns = 1000000;  // 1ms SLO for the test
  options.window = 2;  // compare each tick against the previous one only
  Watchdog wd([] { return MonitorSample{}; }, options);

  // Baseline tick: the cumulative e2e histogram already holds some fast
  // deliveries — they must not count against the window.
  LatencyHistogram e2e;
  for (int i = 0; i < 100; ++i) e2e.Record(50000);  // 50us, well under SLO
  MonitorSample s1 = SampleAt(100);
  s1.net_e2e = e2e.TakeSnapshot();
  wd.TickForTest(s1);
  EXPECT_EQ(wd.health(), HealthState::kHealthy);

  // The window between ticks sees a latency spike: p99 of the delta
  // blows through the SLO even though the cumulative p99 barely moves.
  for (int i = 0; i < 10; ++i) e2e.Record(50000000);  // 50ms
  MonitorSample s2 = SampleAt(200);
  s2.net_e2e = e2e.TakeSnapshot();
  wd.TickForTest(s2);
  EXPECT_EQ(wd.health(), HealthState::kDegraded);
  ASSERT_FALSE(wd.reasons().empty());
  EXPECT_NE(wd.reasons().front().find("net_e2e_p99"), std::string::npos);

  // Spike passes, window is clean again: back to healthy.
  for (int i = 0; i < 100; ++i) e2e.Record(50000);
  MonitorSample s3 = SampleAt(300);
  s3.net_e2e = e2e.TakeSnapshot();
  wd.TickForTest(s3);
  EXPECT_EQ(wd.health(), HealthState::kHealthy);
}

TEST(ObsWatchdogTest, PostmortemsAreRateLimitedPerTransition) {
  Watchdog::Options options;
  options.postmortem_min_interval = std::chrono::milliseconds(1000);
  Watchdog wd([] { return MonitorSample{}; }, options);
  int postmortems = 0;
  wd.set_postmortem_hook([&](const std::string&) { ++postmortems; });

  auto wedge = [&](std::uint64_t at_ms, bool wedged) {
    MonitorSample s = SampleAt(at_ms);
    s.wal_wedged = wedged;
    wd.TickForTest(s);
  };
  wedge(100, true);   // transition 1: hook fires
  wedge(200, false);  // recover
  wedge(300, true);   // transition 2, 200ms after the last dump: suppressed
  wedge(400, false);  // recover
  wedge(1500, true);  // transition 3, 1400ms later: fires again
  EXPECT_EQ(wd.transitions(), 3u);
  EXPECT_EQ(postmortems, 2);
  EXPECT_EQ(wd.postmortems_triggered(), 2u);
}

TEST(ObsWatchdogTest, DeltaSnapshotSubtractsBucketwise) {
  LatencyHistogram h;
  h.Record(100);
  auto oldest = h.TakeSnapshot();
  h.Record(100);
  for (int i = 0; i < 9; ++i) h.Record(1000000);
  auto newest = h.TakeSnapshot();
  auto delta = Watchdog::DeltaSnapshot(newest, oldest);
  EXPECT_EQ(delta.count, 10u);
  EXPECT_EQ(delta.sum_ns, 9000100u);
  // The windowed p99 sees the new spike even though the cumulative p50
  // would still sit in the 100ns bucket.
  EXPECT_GT(delta.QuantileNs(0.99), 500000u);
}

TEST(ObsWatchdogTest, RatesComeFromTheRingWindow) {
  Watchdog wd([] { return MonitorSample{}; }, Watchdog::Options{});
  MonitorSample s1 = SampleAt(1000);
  s1.notifications = 0;
  s1.executed = 0;
  wd.TickForTest(s1);
  MonitorSample s2 = SampleAt(2000);  // exactly 1s later
  s2.notifications = 500;
  s2.executed = 50;
  wd.TickForTest(s2);
  const Watchdog::Rates rates = wd.rates();
  EXPECT_NEAR(rates.events_per_sec, 500.0, 1e-6);
  EXPECT_NEAR(rates.firings_per_sec, 50.0, 1e-6);
  EXPECT_NEAR(rates.window_sec, 1.0, 1e-6);
}

TEST(ObsWatchdogTest, SamplerThreadTicksAndStops) {
  Watchdog::Options options;
  options.interval = std::chrono::milliseconds(5);
  Watchdog wd([] { return MonitorSample{}; }, options);
  ASSERT_TRUE(wd.Start().ok());
  EXPECT_TRUE(wd.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wd.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(wd.ticks(), 3u);
  wd.Stop();
  EXPECT_FALSE(wd.running());
}

// ---------------------------------------------------------------------------
// HTTP monitor server
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.0 client: sends `request` to 127.0.0.1:port, returns the
/// raw response (status line + headers + body).
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
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
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
  // "HTTP/1.0 200 OK"
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ObsMonitorServerTest, ServesRoutesAndErrorCodes) {
  MonitorServer server;
  server.Route("/ping", [] {
    MonitorServer::Response r;
    r.body = "pong";
    return r;
  });
  server.Route("/boom", []() -> MonitorServer::Response {
    throw std::runtime_error("handler exploded");
  });
  ASSERT_TRUE(server.Start(MonitorServer::Options{}).ok());
  ASSERT_GT(server.port(), 0);

  auto ok = HttpGet(server.port(), "/ping");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "pong");
  // Query strings are stripped before routing.
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/ping?x=1")), 200);
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/nope")), 404);
  EXPECT_EQ(StatusOf(HttpRequest(server.port(),
                                 "POST /ping HTTP/1.1\r\nHost: t\r\n\r\n")),
            405);
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/boom")), 500);
  EXPECT_EQ(server.requests(), 3u);  // only routed requests count
  server.Stop();
  EXPECT_FALSE(server.running());
}

// A client that trickles its request line one byte every 500 ms and never
// sends CRLF holds the single accept thread only until the request deadline
// (2 s from accept), so a concurrent /healthz is still answered.
TEST(ObsMonitorServerTest, TricklingClientCannotStarveHealthz) {
  MonitorServer server;
  server.Route("/healthz", [] {
    MonitorServer::Response r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(server.Start(MonitorServer::Options{}).ok());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<bool> connected{false};
  std::thread trickler([&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok = fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                         sizeof(addr)) == 0;
    EXPECT_TRUE(ok);
    connected = true;
    // Bounded at 12 bytes (6 s), so a server without the deadline makes
    // this test fail rather than hang.
    for (int i = 0; ok && i < 12 && !stop; ++i) {
      if (::send(fd, "G", 1, MSG_NOSIGNAL) != 1) break;
      for (int slice = 0; slice < 10 && !stop; ++slice) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (fd >= 0) ::close(fd);
  });
  while (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Let the accept loop pick the trickler up first.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto t0 = std::chrono::steady_clock::now();
  const std::string response = HttpGet(port, "/healthz");
  const auto waited = std::chrono::steady_clock::now() - t0;
  stop = true;
  trickler.join();

  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "ok");
  EXPECT_LT(waited, std::chrono::seconds(3));
  server.Stop();
}

TEST(ObsMonitorServerTest, RefusesTakenPort) {
  MonitorServer a;
  ASSERT_TRUE(a.Start(MonitorServer::Options{}).ok());
  MonitorServer b;
  MonitorServer::Options taken;
  taken.port = a.port();
  EXPECT_FALSE(b.Start(taken).ok());
  a.Stop();
}

// ---------------------------------------------------------------------------
// End-to-end: ActiveDatabase monitoring plane
// ---------------------------------------------------------------------------

TEST(ObsMonitorE2ETest, MetricsHealthzAndFriendsOverHttp) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(db.detector()->DefineExplicit("audit_evt").ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("audit\"rule", "audit_evt", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  auto bound = db.StartMonitoring(0);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const int port = *bound;
  ASSERT_GT(port, 0);
  EXPECT_EQ(db.monitor_server()->port(), port);

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto params = std::make_shared<detector::ParamList>();
  ASSERT_TRUE(db.RaiseEvent("audit_evt", params, *txn).ok());
  ASSERT_TRUE(db.Commit(*txn).ok());

  const auto metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = BodyOf(metrics);
  EXPECT_NE(body.find("# TYPE sentinel_rules_executed_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE sentinel_scheduler_pending gauge"),
            std::string::npos);
  EXPECT_NE(body.find("sentinel_detector_notifications_total"),
            std::string::npos);
  // Rule label escaped per the exposition spec.
  EXPECT_NE(body.find("sentinel_rule_fired_total{rule=\"audit\\\"rule\""),
            std::string::npos);
  EXPECT_NE(body.find("sentinel_rule_action_ns_bucket"), std::string::npos);
  EXPECT_NE(body.find("sentinel_health_state"), std::string::npos);

  const auto healthz = HttpGet(port, "/healthz");
  EXPECT_EQ(StatusOf(healthz), 200);
  EXPECT_NE(BodyOf(healthz).find("\"status\":\"healthy\""),
            std::string::npos);

  // /metrics is the one counter export: the JSON /stats route is gone (the
  // server drops the query string, so this asks for that route), and the
  // scheduler configuration it carried is an info family.
  EXPECT_EQ(StatusOf(HttpGet(port, "/stats?format=json")), 404);
  EXPECT_NE(body.find("sentinel_scheduler_info{policy=\""), std::string::npos);
  EXPECT_NE(BodyOf(HttpGet(port, "/graph")).find("digraph"),
            std::string::npos);
  EXPECT_EQ(StatusOf(HttpGet(port, "/trace")), 200);
  EXPECT_NE(BodyOf(HttpGet(port, "/postmortem")).find("\"reason\""),
            std::string::npos);
  EXPECT_EQ(StatusOf(HttpGet(port, "/nope")), 404);

  db.StopMonitoring();
  EXPECT_EQ(db.monitor_server(), nullptr);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsMonitorE2ETest, StartMonitoringTwiceFailsCleanly) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  auto first = db.StartMonitoring(0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(db.StartMonitoring(0).ok());
  db.StopMonitoring();
  // After a stop the plane can come back.
  EXPECT_TRUE(db.StartMonitoring(-1).ok());  // watchdog-only
  EXPECT_EQ(db.monitor_server(), nullptr);
  EXPECT_NE(db.watchdog(), nullptr);
  ASSERT_TRUE(db.Close().ok());
}

// Acceptance: a failpoint-induced scheduler stall (every rule execution
// delayed far beyond the watchdog window) flips /healthz to 503 with exactly
// one automatic postmortem; clearing the failpoint lets the queue drain and
// health returns to 200.
TEST(ObsMonitorE2ETest, FailpointStallFlips503WithOnePostmortem) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(db.detector()->DefineExplicit("slow_evt").ok());
  rules::RuleManager::RuleOptions detached;
  detached.coupling = rules::CouplingMode::kDetached;
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("slow_rule", "slow_evt", nullptr,
                               [](const rules::RuleContext&) {}, detached)
                  .ok());

  Watchdog::Options wd;
  wd.interval = std::chrono::milliseconds(10);
  wd.stall_samples = 3;
  wd.postmortem_min_interval = std::chrono::seconds(60);  // one dump max
  auto bound = db.StartMonitoring(0, wd);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const int port = *bound;

  // Every scheduler execution sleeps 400ms — detached firings pile up while
  // the watchdog samples every 10ms.
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .Enable("scheduler.execute", "delay(ms=400)")
                  .ok());
  auto params = std::make_shared<detector::ParamList>();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        db.RaiseEvent("slow_evt", params, storage::kInvalidTxnId).ok());
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (db.watchdog()->health() != HealthState::kUnhealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(db.watchdog()->health(), HealthState::kUnhealthy)
      << "watchdog never tripped";

  const auto unhealthy = HttpGet(port, "/healthz");
  EXPECT_EQ(StatusOf(unhealthy), 503);
  EXPECT_NE(BodyOf(unhealthy).find("scheduler_stall"), std::string::npos);
  // Exactly one automatic postmortem for the transition, despite the
  // predicate stays tripped across many watchdog ticks.
  EXPECT_EQ(db.watchdog()->postmortems_triggered(), 1u);

  // Clear the fault; the queue drains and health recovers.
  FailPointRegistry::Instance().DisableAll();
  db.scheduler()->WaitDetached();
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (db.watchdog()->health() != HealthState::kHealthy &&
         std::chrono::steady_clock::now() < recover_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(db.watchdog()->health(), HealthState::kHealthy);
  EXPECT_EQ(StatusOf(HttpGet(port, "/healthz")), 200);
  EXPECT_EQ(db.watchdog()->postmortems_triggered(), 1u);
  ASSERT_TRUE(db.Close().ok());
}

// SENTINEL_MONITOR_PORT auto-start: Open wires the full plane from the
// environment, Close tears it down.
TEST(ObsMonitorE2ETest, EnvVarAutoStartsMonitoring) {
  ::setenv("SENTINEL_MONITOR_PORT", "0", 1);
  ::setenv("SENTINEL_WATCHDOG_MS", "20", 1);
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.OpenInMemory().ok());
    ASSERT_NE(db.monitor_server(), nullptr);
    ASSERT_NE(db.watchdog(), nullptr);
    const int port = db.monitor_server()->port();
    ASSERT_GT(port, 0);
    EXPECT_EQ(StatusOf(HttpGet(port, "/metrics")), 200);
    ASSERT_TRUE(db.Close().ok());
    EXPECT_EQ(db.monitor_server(), nullptr);
  }
  ::unsetenv("SENTINEL_MONITOR_PORT");
  ::unsetenv("SENTINEL_WATCHDOG_MS");
}

}  // namespace
}  // namespace sentinel
