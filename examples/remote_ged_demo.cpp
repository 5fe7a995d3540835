// Remote GED demo: the paper's Fig. 2 global event detector as a network
// daemon, with applications in separate processes.
//
// One binary, two roles:
//
//   # terminal 1 — the GED daemon (bus on 9475, monitor on 9464):
//   ./build/examples/example_remote_ged_demo daemon 9475 9464
//
//   # terminal 2 — an application that declares a global primitive,
//   # subscribes to it, and streams 20 events:
//   ./build/examples/example_remote_ged_demo client 9475 inventory 20
//
//   # terminal 3 — a second application sharing the same bus:
//   ./build/examples/example_remote_ged_demo client 9475 billing 20
//
// While both clients run, `curl 127.0.0.1:9464/metrics | grep sentinel_net`
// shows the daemon-side session/admission counters, and /healthz flips to
// degraded if you flood the bus past its admission capacity.
//
// Distributed tracing (DESIGN.md §14): set SENTINEL_TRACE_EXPORT=<prefix>
// on both processes and each writes a Chrome-trace JSON on exit — the
// daemon to <prefix>_daemon.json, a client to <prefix>_<app>.json, stamped
// with its process name and heartbeat-estimated clock offset. Merge them:
//
//   python3 tools/merge_traces.py --check --out merged.json <prefix>_*.json
//
// and the result loads in ui.perfetto.dev as one timeline: client txn →
// notify encode → server decode/admission/ged_forward → global detect →
// event-push → client condition/action.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/active_database.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"
#include "obs/span.h"

namespace {

using sentinel::detector::EventModifier;
using sentinel::detector::ParamContext;

// SENTINEL_TRACE_EXPORT names the per-process export prefix ("" = off).
std::string TraceExportPrefix() {
  const char* env = std::getenv("SENTINEL_TRACE_EXPORT");
  return env != nullptr ? std::string(env) : std::string();
}

int RunDaemon(int bus_port, int monitor_port, int seconds) {
  sentinel::core::ActiveDatabase db;
  if (!db.OpenInMemory().ok()) return 1;
  sentinel::ged::GlobalEventDetector ged;
  sentinel::net::EventBusServer server(&ged);

  const std::string trace_prefix = TraceExportPrefix();
  if (!trace_prefix.empty()) {
    db.span_tracer()->set_mode(sentinel::obs::TraceMode::kFull);
    ged.set_span_tracer(db.span_tracer());
    std::printf("[daemon] tracing to %s_daemon.json\n", trace_prefix.c_str());
  }

  sentinel::net::EventBusServer::Options options;
  options.port = bus_port;
  // Fast heartbeat so short-lived demo clients still yield a few RTT /
  // clock-offset samples on the per-session gauges before they exit.
  options.heartbeat_interval = std::chrono::milliseconds(500);
  auto status = server.Start(options);
  if (!status.ok()) {
    std::fprintf(stderr, "daemon: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("[daemon] GED event bus on 127.0.0.1:%d\n", server.port());

  db.AttachEventBusServer(&server);
  if (monitor_port >= 0) {
    auto bound = db.StartMonitoring(monitor_port);
    if (bound.ok()) {
      std::printf("[daemon] monitor on http://127.0.0.1:%d "
                  "(/metrics /healthz)\n",
                  *bound);
    }
  }

  for (int i = 0; i < seconds; ++i) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const auto stats = server.stats();
    std::printf("[daemon] sessions=%llu notifies=%llu dispatched=%llu "
                "pushes=%llu sheds=%llu%s\n",
                static_cast<unsigned long long>(stats.open_sessions),
                static_cast<unsigned long long>(stats.notifies_received),
                static_cast<unsigned long long>(stats.dispatched),
                static_cast<unsigned long long>(stats.pushes_sent),
                static_cast<unsigned long long>(stats.sheds),
                server.overloaded() ? "  [OVERLOADED]" : "");
  }

  if (!trace_prefix.empty()) {
    sentinel::obs::SpanTracer::ExportMeta meta;
    meta.process = "daemon";  // the reference timeline: offset 0
    auto exported = db.span_tracer()->ExportChromeTrace(
        trace_prefix + "_daemon.json", meta);
    if (!exported.ok()) {
      std::fprintf(stderr, "daemon: trace export failed: %s\n",
                   exported.ToString().c_str());
    }
  }
  db.AttachEventBusServer(nullptr);
  server.Stop();
  ged.Shutdown();
  (void)db.Close();
  std::printf("[daemon] done\n");
  return 0;
}

int RunClient(int bus_port, const std::string& app, int events) {
  // The client is itself a (detector-only) active database: remote
  // detections re-enter it as an explicit event so a local ECA rule —
  // condition + action — closes the loop, and in traced mode those rule
  // spans join the distributed trace begun by the originating notify.
  sentinel::core::ActiveDatabase db;
  if (!db.OpenInMemory().ok()) return 1;
  const std::string trace_prefix = TraceExportPrefix();
  if (!trace_prefix.empty()) {
    db.span_tracer()->set_mode(sentinel::obs::TraceMode::kFull);
    std::printf("[%s] tracing to %s_%s.json\n", app.c_str(),
                trace_prefix.c_str(), app.c_str());
  }

  sentinel::net::RemoteGedClient::Options options;
  options.port = bus_port;
  options.app_name = app;
  // Ping briskly: short demo runs still collect RTT/clock-offset samples.
  options.ping_interval = std::chrono::milliseconds(200);
  sentinel::net::RemoteGedClient client(options);
  if (!client.Start().ok()) return 1;
  if (!client.WaitConnected(std::chrono::milliseconds(10000))) {
    std::fprintf(stderr, "client: could not reach the daemon (%s)\n",
                 client.last_error().c_str());
    return 1;
  }
  db.AttachRemoteGedClient(&client);
  std::printf("[%s] connected to 127.0.0.1:%d\n", app.c_str(), bus_port);

  // Declare a global primitive mirroring this application's sell events and
  // subscribe to its detections — the round trip app → GED → app.
  const std::string event = "g_" + app + "_sold";
  auto status = client.DefineGlobalPrimitive(event, "Order",
                                             EventModifier::kEnd,
                                             "void sell(int qty)");
  if (!status.ok()) {
    std::fprintf(stderr, "client: define failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  // Local ECA rule on an explicit event the push handler raises: the full
  // remote round trip ends in a condition + action firing in this process.
  const std::string local_event = "got_" + event;
  if (!db.detector()->DefineExplicit(local_event).ok()) return 1;
  std::atomic<int> fired{0};
  auto rule = db.rule_manager()->DefineRule(
      "report_" + event, local_event,
      [](const sentinel::rules::RuleContext& ctx) {
        return ctx.Param("qty").ok();
      },
      [&](const sentinel::rules::RuleContext& ctx) {
        auto qty = ctx.Param("qty");
        std::printf("  [%s] rule fired qty=%lld\n", app.c_str(),
                    qty.ok() ? static_cast<long long>(qty->AsInt()) : -1);
        fired.fetch_add(1);
      });
  if (!rule.ok()) return 1;

  std::atomic<int> received{0};
  status = client.Subscribe(
      event, ParamContext::kRecent,
      [&](const std::string& name, const sentinel::detector::Occurrence& occ) {
        auto qty = occ.Param("qty");
        std::printf("  [%s] detection %s qty=%lld\n", app.c_str(),
                    name.c_str(),
                    qty.ok() ? static_cast<long long>(qty->AsInt()) : -1);
        auto params = std::make_shared<sentinel::detector::ParamList>();
        params->Insert("qty", qty.ok() ? *qty : sentinel::oodb::Value::Int(-1));
        auto txn = db.Begin();
        if (txn.ok()) {
          (void)db.RaiseEvent(local_event, params, *txn);
          (void)db.Commit(*txn);
        }
        received.fetch_add(1);
      });
  if (!status.ok()) return 1;

  for (int i = 1; i <= events; ++i) {
    // One client transaction per event so the trace roots at a txn span.
    auto txn = db.Begin();
    auto params = std::make_shared<sentinel::detector::ParamList>();
    params->Insert("qty", sentinel::oodb::Value::Int(i));
    (void)client.NotifyMethod("Order", /*oid=*/1, EventModifier::kEnd,
                              "void sell(int qty)", params,
                              txn.ok() ? *txn : 1);
    if (txn.ok()) (void)db.Commit(*txn);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // At-most-once delivery: wait for what made it through, then report.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < events &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Linger for one heartbeat round trip so a short run still leaves with
  // an RTT sample and a primed clock-offset estimate for the trace export.
  const auto rtt_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (client.stats().rtt_samples == 0 &&
         std::chrono::steady_clock::now() < rtt_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (!trace_prefix.empty()) {
    sentinel::obs::SpanTracer::ExportMeta meta;
    meta.process = "client:" + app;
    meta.clock_offset_ns = client.clock_offset_ns();
    auto exported = db.span_tracer()->ExportChromeTrace(
        trace_prefix + "_" + app + ".json", meta);
    if (!exported.ok()) {
      std::fprintf(stderr, "client: trace export failed: %s\n",
                   exported.ToString().c_str());
    }
  }
  const auto stats = client.stats();
  std::printf("[%s] sent=%llu received=%d fired=%d dropped=%llu sheds=%llu "
              "reconnects=%llu rtt_samples=%llu offset_us=%lld\n",
              app.c_str(),
              static_cast<unsigned long long>(stats.notifies_sent),
              received.load(), fired.load(),
              static_cast<unsigned long long>(stats.notifies_dropped),
              static_cast<unsigned long long>(stats.sheds_received),
              static_cast<unsigned long long>(
                  stats.sessions_established > 0
                      ? stats.sessions_established - 1
                      : 0),
              static_cast<unsigned long long>(stats.rtt_samples),
              static_cast<long long>(stats.clock_offset_us));
  client.Stop();
  db.AttachRemoteGedClient(nullptr);
  (void)db.Close();
  return received.load() > 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "daemon") == 0) {
    const int bus_port = std::atoi(argv[2]);
    const int monitor_port = argc >= 4 ? std::atoi(argv[3]) : -1;
    const int seconds = argc >= 5 ? std::atoi(argv[4]) : 30;
    return RunDaemon(bus_port, monitor_port, seconds);
  }
  if (argc >= 5 && std::strcmp(argv[1], "client") == 0) {
    return RunClient(std::atoi(argv[2]), argv[3], std::atoi(argv[4]));
  }
  std::fprintf(stderr,
               "usage: %s daemon <bus_port> [monitor_port] [seconds]\n"
               "       %s client <bus_port> <app_name> <n_events>\n",
               argv[0], argv[0]);
  return 64;
}
