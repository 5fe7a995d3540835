// Golden test of the /metrics exposition, the one export of the pipeline's
// counters. With a persistent database, a rule on a composite event, the
// monitor, an event-bus server and a remote client attached, every family
// the exposition carried before it became the only export keeps its name,
// # TYPE and label keys; the families that replaced the JSON-only fields
// are present; no other family appears; and each family has exactly one
// # HELP and one # TYPE header. Suite names start with Obs* so the TSan CI
// job's --gtest_filter picks them up.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/active_database.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"

namespace sentinel {
namespace {

struct Family {
  const char* name;
  const char* type;
  const char* label_keys;  // comma-separated, sorted; "" for none
};

// Every family of the exposition in the scenario below, with its # TYPE
// and label keys, as the exposition had them when a JSON snapshot
// (/stats) still duplicated it.
constexpr Family kGolden[] = {
    {"sentinel_detector_notifications_total", "counter", ""},
    {"sentinel_detector_detections_total", "counter", ""},
    {"sentinel_detector_flushed_total", "counter", ""},
    {"sentinel_detector_buffered", "gauge", ""},
    {"sentinel_event_received_total", "counter", "context,event,kind"},
    {"sentinel_event_detected_total", "counter", "context,event,kind"},
    {"sentinel_event_buffered", "gauge", "event,kind"},
    {"sentinel_event_context_refs", "gauge", "context,event,kind"},
    {"sentinel_rules_executed_total", "counter", ""},
    {"sentinel_rules_condition_rejections_total", "counter", ""},
    {"sentinel_rules_failed_total", "counter", ""},
    {"sentinel_rules_abort_top_total", "counter", ""},
    {"sentinel_scheduler_pending", "gauge", ""},
    {"sentinel_scheduler_detached_pending", "gauge", ""},
    {"sentinel_scheduler_max_depth", "gauge", ""},
    {"sentinel_rule_fired_total", "counter", "event,rule"},
    {"sentinel_rule_condition_ns", "histogram", "rule"},
    {"sentinel_rule_action_ns", "histogram", "rule"},
    {"sentinel_rule_commit_ns", "histogram", "rule"},
    {"sentinel_rule_abort_ns", "histogram", "rule"},
    {"sentinel_rule_lock_wait_ns", "histogram", "rule"},
    {"sentinel_open_txns", "gauge", ""},
    {"sentinel_subtxns_active", "gauge", ""},
    {"sentinel_nested_locked_keys", "gauge", ""},
    {"sentinel_nested_waiters", "gauge", ""},
    {"sentinel_buffer_pool_hits_total", "counter", ""},
    {"sentinel_buffer_pool_misses_total", "counter", ""},
    {"sentinel_buffer_pool_evictions_total", "counter", ""},
    {"sentinel_buffer_pool_resident", "gauge", ""},
    {"sentinel_buffer_pool_dirty", "gauge", ""},
    {"sentinel_buffer_pool_capacity", "gauge", ""},
    {"sentinel_object_cache_hits_total", "counter", ""},
    {"sentinel_object_cache_misses_total", "counter", ""},
    {"sentinel_object_cache_resident", "gauge", ""},
    {"sentinel_wal_syncs_total", "counter", ""},
    {"sentinel_wal_truncated_bytes_total", "counter", ""},
    {"sentinel_wal_wedged", "gauge", ""},
    {"sentinel_wal_durable_lsn", "gauge", ""},
    {"sentinel_wal_appended_lsn", "gauge", ""},
    {"sentinel_wal_group_commit_waits_total", "counter", ""},
    {"sentinel_wal_async_commits_total", "counter", ""},
    {"sentinel_wal_fsync_ns", "histogram", ""},
    {"sentinel_disk_syncs_total", "counter", ""},
    {"sentinel_disk_io_retries_total", "counter", ""},
    {"sentinel_disk_pages", "gauge", ""},
    {"sentinel_disk_fsync_ns", "histogram", ""},
    {"sentinel_lock_waits_total", "counter", ""},
    {"sentinel_lock_deadlocks_total", "counter", ""},
    {"sentinel_lock_timeouts_total", "counter", ""},
    {"sentinel_lock_waiters", "gauge", ""},
    {"sentinel_lock_wait_ns", "histogram", ""},
    {"sentinel_spans_recorded_total", "counter", ""},
    {"sentinel_spans_dropped_total", "counter", ""},
    {"sentinel_postmortems_total", "counter", ""},
    {"sentinel_health_state", "gauge", ""},
    {"sentinel_watchdog_ticks_total", "counter", ""},
    {"sentinel_watchdog_transitions_total", "counter", ""},
    {"sentinel_watchdog_postmortems_total", "counter", ""},
    {"sentinel_rate_events_per_sec", "gauge", ""},
    {"sentinel_rate_firings_per_sec", "gauge", ""},
    {"sentinel_rate_aborts_per_sec", "gauge", ""},
    {"sentinel_monitor_requests_total", "counter", ""},
    {"sentinel_net_accepted_total", "counter", ""},
    {"sentinel_net_rejected_sessions_total", "counter", ""},
    {"sentinel_net_superseded_sessions_total", "counter", ""},
    {"sentinel_net_open_sessions", "gauge", ""},
    {"sentinel_net_notifies_received_total", "counter", ""},
    {"sentinel_net_dispatched_total", "counter", ""},
    {"sentinel_net_sheds_total", "counter", ""},
    {"sentinel_net_frame_errors_total", "counter", ""},
    {"sentinel_net_slow_consumer_disconnects_total", "counter", ""},
    {"sentinel_net_idle_disconnects_total", "counter", ""},
    {"sentinel_net_pushes_sent_total", "counter", ""},
    {"sentinel_net_bytes_in_total", "counter", ""},
    {"sentinel_net_bytes_out_total", "counter", ""},
    {"sentinel_net_admission_depth", "gauge", ""},
    {"sentinel_net_admission_peak", "gauge", ""},
    {"sentinel_net_outbound_queued_bytes", "gauge", ""},
    {"sentinel_net_overloaded", "gauge", ""},
    {"sentinel_net_e2e_delivery_ns", "histogram", ""},
    {"sentinel_net_e2e_detect_ns", "histogram", ""},
    {"sentinel_net_rtt_samples_total", "counter", ""},
    {"sentinel_net_rtt_us", "histogram", ""},
    {"sentinel_net_session_rtt_us", "histogram", "app,session"},
    {"sentinel_net_clock_offset_us", "gauge", "app,session"},
    {"sentinel_net_client_connected", "gauge", ""},
    {"sentinel_net_client_connect_attempts_total", "counter", ""},
    {"sentinel_net_client_sessions_total", "counter", ""},
    {"sentinel_net_client_disconnects_total", "counter", ""},
    {"sentinel_net_client_notifies_sent_total", "counter", ""},
    {"sentinel_net_client_notifies_dropped_total", "counter", ""},
    {"sentinel_net_client_pushes_received_total", "counter", ""},
    {"sentinel_net_client_sheds_received_total", "counter", ""},
    {"sentinel_net_client_journal_replays_total", "counter", ""},
    {"sentinel_net_client_rtt_samples_total", "counter", ""},
    {"sentinel_net_client_rtt_us", "histogram", ""},
    {"sentinel_net_client_clock_offset_us", "gauge", ""},
    {"sentinel_net_client_e2e_action_ns", "histogram", ""},
};

// Families added when the JSON snapshot was deleted: each carries a field
// that only the JSON had.
constexpr Family kAdded[] = {
    {"sentinel_event_sinks", "gauge", "event,kind"},
    {"sentinel_event_flushed_total", "counter", "event,kind"},
    {"sentinel_scheduler_info", "gauge", "contingency,policy"},
    {"sentinel_rule_info", "gauge", "coupling,event,rule"},
    {"sentinel_span_trace_info", "gauge", "mode"},
    {"sentinel_net_pings_sent_total", "counter", ""},
};

struct Parsed {
  int helps = 0;
  int types = 0;
  std::string type;
  std::set<std::string> label_keys;
  int samples = 0;
};

/// Label keys of one `{k="v",...}` body (values may hold escaped quotes).
std::set<std::string> LabelKeys(const std::string& body) {
  std::set<std::string> keys;
  std::size_t i = 0;
  while (i < body.size()) {
    const std::size_t eq = body.find('=', i);
    if (eq == std::string::npos) break;
    keys.insert(body.substr(i, eq - i));
    std::size_t j = eq + 2;  // past ="
    while (j < body.size() && body[j] != '"') j += body[j] == '\\' ? 2 : 1;
    i = j + 2;  // past ",
  }
  return keys;
}

std::map<std::string, Parsed> ParseExposition(const std::string& text) {
  std::map<std::string, Parsed> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      ++families[line.substr(7, line.find(' ', 7) - 7)].helps;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      Parsed& f = families[line.substr(7, space - 7)];
      ++f.types;
      f.type = line.substr(space + 1);
      continue;
    }
    const std::size_t end = line.find_first_of("{ ");
    std::string name = line.substr(0, end);
    std::set<std::string> keys;
    if (line[end] == '{') {
      keys = LabelKeys(line.substr(end + 1, line.rfind('}') - end - 1));
    }
    // Histogram series belong to their family, minus the `le` bucket key.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string base = name.substr(0, name.size() - s.size());
        auto it = families.find(base);
        if (it != families.end() && it->second.type == "histogram") {
          name = base;
          keys.erase("le");
          break;
        }
      }
    }
    Parsed& f = families[name];
    ++f.samples;
    f.label_keys.insert(keys.begin(), keys.end());
  }
  return families;
}

std::string Joined(const std::set<std::string>& keys) {
  std::string out;
  for (const std::string& key : keys) out += (out.empty() ? "" : ",") + key;
  return out;
}

TEST(ObsExpositionTest, FamiliesKeepNamesTypesAndLabelKeys) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sentinel_exposition_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  core::ActiveDatabase db;
  ASSERT_TRUE(db.Open(dir + "/db").ok());
  std::string text;
  {
    ged::GlobalEventDetector ged;
    net::EventBusServer server(&ged);
    net::EventBusServer::Options server_options;
    server_options.port = 0;
    ASSERT_TRUE(server.Start(server_options).ok());
    net::RemoteGedClient::Options client_options;
    client_options.port = server.port();
    client_options.app_name = "app";
    net::RemoteGedClient client(client_options);
    ASSERT_TRUE(client.Start().ok());
    ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));
    db.AttachEventBusServer(&server);
    db.AttachRemoteGedClient(&client);

    auto a = db.detector()->DefineExplicit("e_a");
    auto b = db.detector()->DefineExplicit("e_b");
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(db.detector()->DefineAnd("e_ab", *a, *b).ok());
    ASSERT_TRUE(db.rule_manager()
                    ->DefineRule("r_ab", "e_ab", nullptr,
                                 [](const rules::RuleContext&) {})
                    .ok());
    ASSERT_TRUE(db.StartMonitoring(0).ok());
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    auto params = std::make_shared<detector::ParamList>();
    ASSERT_TRUE(db.RaiseEvent("e_a", params, *txn).ok());
    ASSERT_TRUE(db.RaiseEvent("e_b", params, *txn).ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
    text = db.PrometheusText();
    db.StopMonitoring();
    db.AttachRemoteGedClient(nullptr);
    db.AttachEventBusServer(nullptr);
    client.Stop();
    server.Stop();
  }
  ASSERT_TRUE(db.Close().ok());
  std::filesystem::remove_all(dir);

  const std::map<std::string, Parsed> families = ParseExposition(text);
  std::set<std::string> expected;
  auto check = [&](const auto& table) {
    for (const Family& want : table) {
      expected.insert(want.name);
      auto it = families.find(want.name);
      if (it == families.end()) {
        ADD_FAILURE() << "missing family " << want.name;
        continue;
      }
      EXPECT_EQ(it->second.type, want.type) << want.name;
      EXPECT_GT(it->second.samples, 0) << want.name;
      EXPECT_EQ(Joined(it->second.label_keys), want.label_keys) << want.name;
    }
  };
  check(kGolden);
  check(kAdded);
  for (const auto& [name, family] : families) {
    EXPECT_EQ(family.helps, 1) << name << ": # HELP lines";
    EXPECT_EQ(family.types, 1) << name << ": # TYPE lines";
    EXPECT_TRUE(expected.count(name)) << "unexpected family " << name;
  }
}

/// Counts the pushes a client's handler sees. Waiting on it orders
/// everything the client's worker did before the handler ran (the spans of
/// earlier round trips included) before the waiter's next step.
struct PushCounter {
  std::mutex mu;
  std::condition_variable cv;
  int pushes = 0;

  void OnPush() {
    std::lock_guard<std::mutex> lock(mu);
    ++pushes;
    cv.notify_all();
  }
};

/// Sends one NOTIFY from `client` and waits for the server's push to reach
/// the handler. The server's stats() takes the session lock its I/O thread
/// takes every iteration, so the server's earlier spans are ordered too.
void RoundTrip(net::RemoteGedClient& client, net::EventBusServer& server,
               PushCounter& counter) {
  std::unique_lock<std::mutex> lock(counter.mu);
  const int before = counter.pushes;
  ASSERT_TRUE(client
                  .NotifyMethod("Order", 1, detector::EventModifier::kEnd,
                                "void f()", nullptr, 1)
                  .ok());
  ASSERT_TRUE(counter.cv.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return counter.pushes > before; }))
      << "no push";
  (void)server.stats();
}

// A server or client detached from a database, or still attached when the
// database closes, stops recording into its tracer, so once idle either may
// outlive the database.
TEST(ObsNetDetachTest, DetachedServerAndClientStopRecording) {
  ged::GlobalEventDetector ged;
  net::EventBusServer server(&ged);
  net::EventBusServer::Options server_options;
  server_options.port = 0;
  ASSERT_TRUE(server.Start(server_options).ok());
  net::RemoteGedClient::Options client_options;
  client_options.port = server.port();
  client_options.app_name = "app";
  net::RemoteGedClient client(client_options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_f", "Order",
                                         detector::EventModifier::kEnd,
                                         "void f()")
                  .ok());
  PushCounter counter;
  ASSERT_TRUE(client
                  .Subscribe("g_f", detector::ParamContext::kRecent,
                             [&counter](const std::string&,
                                        const detector::Occurrence&) {
                               counter.OnPush();
                             })
                  .ok());
  {
    core::ActiveDatabase db;
    ASSERT_TRUE(db.OpenInMemory().ok());
    obs::SpanTracer* tracer = db.span_tracer();
    tracer->set_mode(obs::TraceMode::kFull);
    db.AttachEventBusServer(&server);
    db.AttachRemoteGedClient(&client);
    std::uint64_t before = tracer->recorded();
    RoundTrip(client, server, counter);
    EXPECT_GT(tracer->recorded(), before);  // attached: net spans recorded

    db.AttachRemoteGedClient(nullptr);
    db.AttachEventBusServer(nullptr);
    // Spans opened before the detach still close into the tracer; one
    // round trip lets them finish.
    RoundTrip(client, server, counter);
    before = tracer->recorded();
    RoundTrip(client, server, counter);
    EXPECT_EQ(tracer->recorded(), before);

    // Destroyed while attached: Close detaches both.
    db.AttachEventBusServer(&server);
    db.AttachRemoteGedClient(&client);
  }
  // Traffic after the database is gone must not reach its tracer (ASan).
  RoundTrip(client, server, counter);
  client.Stop();
  server.Stop();
}

// The watchdog thread and /metrics scrapes read the attached server. A
// detach waits for a sample or scrape in flight, so the caller may destroy
// the server as soon as the detach returns (TSan checks the hand-over).
TEST(ObsNetDetachTest, DetachWhileMonitoringThenDestroyIsSafe) {
  core::ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  obs::Watchdog::Options watchdog;
  watchdog.interval = std::chrono::milliseconds(1);
  ASSERT_TRUE(db.StartMonitoring(-1, watchdog).ok());
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) (void)db.PrometheusText();
  });
  ged::GlobalEventDetector ged;
  for (int i = 0; i < 100; ++i) {
    auto server = std::make_unique<net::EventBusServer>(&ged);
    db.AttachEventBusServer(server.get());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    db.AttachEventBusServer(nullptr);
    server.reset();
  }
  stop = true;
  scraper.join();
  db.StopMonitoring();
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace sentinel
