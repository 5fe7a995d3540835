// Failpoint chaos matrix for the network plane, in the style of the crash
// matrix: every fault the wire can throw — torn frames, failed reads and
// writes, refused connects, a stalled dispatcher — is injected while
// traffic flows, and in every case the contract is the same: the daemon
// never crashes, overload degrades /healthz instead of killing the
// process, and every client reconnects with backoff and resumes receiving
// detections.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/active_database.h"
#include "detector/event_types.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"
#include "obs/span.h"
#include "oodb/value.h"

namespace sentinel::net {
namespace {

using detector::EventModifier;
using detector::ParamContext;

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

detector::PrimitiveOccurrence Occ(const std::string& method, int v) {
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.oid = 1;
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = method;
  occ.txn = 1;
  auto params = std::make_shared<detector::ParamList>();
  params->Insert("v", oodb::Value::Int(v));
  occ.params = params;
  return occ;
}

RemoteGedClient::Options FastClient(int port, const std::string& app,
                                    std::uint64_t seed = 0x5eed) {
  RemoteGedClient::Options o;
  o.port = port;
  o.app_name = app;
  o.backoff_base = std::chrono::milliseconds(10);
  o.backoff_max = std::chrono::milliseconds(80);
  o.request_timeout = std::chrono::milliseconds(500);
  o.jitter_seed = seed;
  return o;
}

/// Walks every delivered push back to the notify-encode span that
/// originated it, hop by hop: remote_parent when the causal parent crossed
/// the wire, the local parent otherwise. Both roles share one tracer here,
/// so the whole cross-process chain resolves inside a single snapshot —
/// the in-process equivalent of tools/merge_traces.py --check.
struct ChainCheck {
  int pushes = 0;     // client-side push-decode spans seen
  int connected = 0;  // of those, how many chain back to a notify encode
};

ChainCheck CheckPushChains(const std::vector<obs::Span>& spans) {
  std::map<std::uint64_t, const obs::Span*> by_id;
  for (const obs::Span& s : spans) by_id[s.id] = &s;
  ChainCheck check;
  for (const obs::Span& s : spans) {
    if (s.kind != obs::SpanKind::kNetFrameDecode) continue;
    if (s.label.rfind("push ", 0) != 0) continue;
    ++check.pushes;
    const obs::Span* cur = &s;
    for (int hops = 0; hops < 64 && cur != nullptr; ++hops) {
      if (cur->kind == obs::SpanKind::kNetFrameEncode &&
          cur->label.rfind("notify ", 0) == 0) {
        if (cur->trace == s.trace && s.trace != 0) ++check.connected;
        break;
      }
      const std::uint64_t up =
          cur->remote_parent != 0 ? cur->remote_parent : cur->parent;
      const auto it = by_id.find(up);
      cur = it == by_id.end() ? nullptr : it->second;
    }
  }
  return check;
}

class NetChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }

  /// One matrix cell: connect, then arm `spec` at `failpoint` and keep
  /// driving events until detections flow again. `arm_before_start` covers
  /// faults on the dial path itself.
  void RunCase(const std::string& failpoint, const std::string& spec,
               bool arm_before_start) {
    SCOPED_TRACE(failpoint + "=" + spec);
    ged::GlobalEventDetector ged;
    EventBusServer server(&ged);
    EventBusServer::Options sopts;
    sopts.retry_after_ms = 5;
    ASSERT_TRUE(server.Start(sopts).ok());

    RemoteGedClient client(FastClient(server.port(), "chaos"));
    if (arm_before_start) {
      ASSERT_TRUE(
          FailPointRegistry::Instance().Enable(failpoint, spec).ok());
    }
    ASSERT_TRUE(client.Start().ok());
    ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(10)));

    std::atomic<std::uint64_t> received{0};
    ASSERT_TRUE(client
                    .DefineGlobalPrimitive("g_chaos", "Order",
                                           EventModifier::kEnd, "void f()")
                    .ok());
    ASSERT_TRUE(client
                    .Subscribe("g_chaos", ParamContext::kRecent,
                               [&](const std::string&,
                                   const detector::Occurrence&) {
                                 received.fetch_add(1);
                               })
                    .ok());
    if (!arm_before_start) {
      ASSERT_TRUE(
          FailPointRegistry::Instance().Enable(failpoint, spec).ok());
    }

    // At-most-once delivery means individual events may vanish into the
    // injected fault; the contract under test is that the *pipeline*
    // recovers. Keep notifying until a healthy batch of detections lands.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (received.load() < 20) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "pipeline did not recover; pushes=" << received.load()
          << " client disconnects=" << client.stats().disconnects
          << " last_error=" << client.last_error();
      (void)client.Notify(Occ("void f()", 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    EXPECT_TRUE(server.running());
    EXPECT_TRUE(client.connected());
    client.Stop();
    server.Stop();
    FailPointRegistry::Instance().DisableAll();
  }
};

TEST_F(NetChaosTest, ServerReadError) {
  RunCase("net.server.read", "error(hit=3,count=1)", false);
}

TEST_F(NetChaosTest, ServerWriteTorn) {
  RunCase("net.server.write", "torn(hit=2,count=1)", false);
}

TEST_F(NetChaosTest, ClientWriteError) {
  RunCase("net.client.write", "error(hit=4,count=1)", false);
}

TEST_F(NetChaosTest, ClientWriteTorn) {
  RunCase("net.client.write", "torn(hit=3,count=1)", false);
}

TEST_F(NetChaosTest, ClientReadError) {
  RunCase("net.client.read", "error(hit=2,count=1)", false);
}

TEST_F(NetChaosTest, ConnectRefusedThenBackoffRecovers) {
  RunCase("net.connect", "error(count=3)", true);
}

TEST_F(NetChaosTest, DispatcherDropsAreAtMostOnce) {
  RunCase("net.server.dispatch", "error(prob=0.2)", false);
}

TEST_F(NetChaosTest, ServerRestartClientRedialsAndReplaysJournal) {
  ged::GlobalEventDetector ged;
  auto server = std::make_unique<EventBusServer>(&ged);
  ASSERT_TRUE(server->Start({}).ok());
  const int port = server->port();

  RemoteGedClient client(FastClient(port, "persistent"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(10)));
  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_restart", "Order",
                                         EventModifier::kEnd, "void f()")
                  .ok());
  ASSERT_TRUE(
      client
          .Subscribe("g_restart", ParamContext::kRecent,
                     [&](const std::string&, const detector::Occurrence&) {
                       received.fetch_add(1);
                     })
          .ok());
  ASSERT_TRUE(client.Notify(Occ("void f()", 1)).ok());
  ASSERT_TRUE(WaitUntil([&] { return received.load() >= 1; },
                        std::chrono::seconds(10)));

  // Hard server death: the client is left dialing a genuinely refused
  // port (real ECONNREFUSED, not a failpoint).
  server->Stop();
  ASSERT_TRUE(WaitUntil([&] { return !client.connected(); },
                        std::chrono::seconds(10)));

  // Resurrect on the same port. The client must redial with backoff,
  // re-register, replay its journal, and detections must flow again
  // without any help from the application.
  server = std::make_unique<EventBusServer>(&ged);
  EventBusServer::Options opts;
  opts.port = port;
  ASSERT_TRUE(server->Start(opts).ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(20)));
  EXPECT_GE(client.stats().journal_replays, 2u);  // define + subscribe

  const std::uint64_t before = received.load();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load() <= before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    (void)client.Notify(Occ("void f()", 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  client.Stop();
  server->Stop();
}

TEST_F(NetChaosTest, OverloadDegradesHealthzAndRecovers) {
  core::ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ged::GlobalEventDetector ged;
  EventBusServer server(&ged);
  EventBusServer::Options sopts;
  sopts.admission_capacity = 8;
  sopts.retry_after_ms = 5;
  ASSERT_TRUE(server.Start(sopts).ok());
  db.AttachEventBusServer(&server);

  // Two local rules run before the overload, one with a ~1 ms action: the
  // degraded verdict names that one as the top-cost rule, read from the
  // always-on rule histograms.
  ASSERT_TRUE(db.detector()->DefineExplicit("fast_evt").ok());
  ASSERT_TRUE(db.detector()->DefineExplicit("slow_evt").ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_fast", "fast_evt", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r_slow", "slow_evt", nullptr,
                               [](const rules::RuleContext&) {
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(1));
                               })
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.RaiseEvent("fast_evt", nullptr, storage::kInvalidTxnId)
                    .ok());
  }
  ASSERT_TRUE(
      db.RaiseEvent("slow_evt", nullptr, storage::kInvalidTxnId).ok());

  obs::Watchdog::Options wopts;
  wopts.interval = std::chrono::milliseconds(20);
  ASSERT_TRUE(db.StartMonitoring(/*port=*/-1, wopts).ok());

  // Stall the dispatcher so the admission queue passes its high-water mark.
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .Enable("net.server.dispatch", "delay(ms=30)")
                  .ok());

  RemoteGedClient client(FastClient(server.port(), "flooder"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(10)));

  // Flood until the watchdog reports degraded — not unhealthy, not dead.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool degraded_seen = false;
  while (!degraded_seen) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "overload never degraded /healthz; sheds=" << server.stats().sheds;
    for (int i = 0; i < 32; ++i) (void)client.Notify(Occ("void f()", i));
    degraded_seen =
        db.watchdog()->health() == obs::HealthState::kDegraded;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int http_status = 0;
  const std::string verdict = db.HealthJson(&http_status);
  if (db.watchdog()->health() == obs::HealthState::kDegraded) {
    EXPECT_EQ(http_status, 503);
    EXPECT_NE(verdict.find("net_overload"), std::string::npos) << verdict;
    EXPECT_NE(verdict.find("\"top_cost_rule\":\"r_slow\""),
              std::string::npos)
        << verdict;
  }
  EXPECT_TRUE(server.running()) << "overload must shed, never kill the daemon";
  EXPECT_GE(server.stats().sheds, 1u);

  // Recovery: stop the flood, disarm the stall; the queue drains and the
  // verdict returns to healthy with no restart.
  FailPointRegistry::Instance().DisableAll();
  EXPECT_TRUE(WaitUntil(
      [&] {
        return !server.overloaded() &&
               db.watchdog()->health() == obs::HealthState::kHealthy;
      },
      std::chrono::seconds(20)));
  db.HealthJson(&http_status);
  EXPECT_EQ(http_status, 200);

  client.Stop();
  db.AttachEventBusServer(nullptr);
  server.Stop();
  db.StopMonitoring();
  ASSERT_TRUE(db.Close().ok());
}

// Supersede under tracing: a second connection stealing the app name dooms
// the first session, and every push delivered on the surviving session
// still carries a trace chain that walks back to its notify encode. The
// superseded client is parked on a long backoff so the two connections
// don't keep dooming each other.
TEST_F(NetChaosTest, TracedSupersedeKeepsTraceChainsConnected) {
  obs::SpanTracer tracer(1 << 16);
  tracer.set_mode(obs::TraceMode::kFull);
  ged::GlobalEventDetector ged;
  ged.set_span_tracer(&tracer);
  EventBusServer server(&ged);
  server.set_span_tracer(&tracer);
  ASSERT_TRUE(server.Start({}).ok());

  RemoteGedClient::Options fopts = FastClient(server.port(), "traced");
  fopts.backoff_base = std::chrono::seconds(60);  // stay down once doomed
  fopts.backoff_max = std::chrono::seconds(60);
  RemoteGedClient first(fopts);
  first.set_span_tracer(&tracer);
  ASSERT_TRUE(first.Start().ok());
  ASSERT_TRUE(first.WaitConnected(std::chrono::seconds(10)));

  RemoteGedClient client(FastClient(server.port(), "traced", 0xabcd));
  client.set_span_tracer(&tracer);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(10)));
  ASSERT_TRUE(WaitUntil(
      [&] { return server.stats().superseded_sessions >= 1; },
      std::chrono::seconds(10)));

  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_traced", "Order",
                                         EventModifier::kEnd, "void f()")
                  .ok());
  ASSERT_TRUE(
      client
          .Subscribe("g_traced", ParamContext::kRecent,
                     [&](const std::string&, const detector::Occurrence&) {
                       received.fetch_add(1);
                     })
          .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load() < 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    (void)client.Notify(Occ("void f()", 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The push handler bumps `received` before its decode span commits to
  // the ring, so poll until the spans land rather than racing the worker.
  ChainCheck check;
  ASSERT_TRUE(WaitUntil(
      [&] {
        check = CheckPushChains(tracer.Snapshot());
        return check.pushes >= 5;
      },
      std::chrono::seconds(10)));
  EXPECT_EQ(check.connected, check.pushes)
      << "a delivered push lost its causal chain across the supersede";

  client.Stop();
  first.Stop();
  server.Stop();
}

// Shed/retry under tracing: the admission queue sheds NOTIFY traffic with
// RETRY_LATER while the dispatcher is stalled; after the stall clears,
// deliveries resume and every push that made it through — during or after
// the overload — still has a fully connected trace chain. Shed events
// simply have no push; they must not leave half-built trees behind.
TEST_F(NetChaosTest, TracedShedRetryKeepsTraceChainsConnected) {
  obs::SpanTracer tracer(1 << 16);
  tracer.set_mode(obs::TraceMode::kFull);
  ged::GlobalEventDetector ged;
  ged.set_span_tracer(&tracer);
  EventBusServer server(&ged);
  server.set_span_tracer(&tracer);
  EventBusServer::Options sopts;
  sopts.admission_capacity = 4;
  sopts.retry_after_ms = 5;
  ASSERT_TRUE(server.Start(sopts).ok());

  RemoteGedClient client(FastClient(server.port(), "traced_shed"));
  client.set_span_tracer(&tracer);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::seconds(10)));

  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_shed", "Order",
                                         EventModifier::kEnd, "void f()")
                  .ok());
  ASSERT_TRUE(
      client
          .Subscribe("g_shed", ParamContext::kRecent,
                     [&](const std::string&, const detector::Occurrence&) {
                       received.fetch_add(1);
                     })
          .ok());

  // Stall the dispatcher and flood until the server sheds at least once.
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .Enable("net.server.dispatch", "delay(ms=30)")
                  .ok());
  const auto flood_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.stats().sheds_received < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), flood_deadline)
        << "overload never shed; server sheds=" << server.stats().sheds;
    for (int i = 0; i < 16; ++i) (void)client.Notify(Occ("void f()", i));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Clear the stall, let the queue drain, then push one more event through.
  FailPointRegistry::Instance().DisableAll();
  ASSERT_TRUE(WaitUntil([&] { return !server.overloaded(); },
                        std::chrono::seconds(20)));
  const std::uint64_t before = received.load();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load() <= before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    (void)client.Notify(Occ("void f()", 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The push handler bumps `received` before its decode span commits to
  // the ring, so poll until the spans land rather than racing the worker.
  ChainCheck check;
  ASSERT_TRUE(WaitUntil(
      [&] {
        check = CheckPushChains(tracer.Snapshot());
        return check.pushes >= 1;
      },
      std::chrono::seconds(10)));
  EXPECT_EQ(check.connected, check.pushes)
      << "a delivered push lost its causal chain across shed/retry";
  EXPECT_GE(client.stats().sheds_received, 1u);

  client.Stop();
  server.Stop();
}

// The acceptance swarm: ≥50 concurrent clients while probabilistic faults
// chew on every wire path. The daemon must survive, shed under pressure,
// and every client must end the test reconnected and receiving pushes.
TEST(NetChaosSwarm, FiftyClientsSurviveInjectedFaults) {
  constexpr int kClients = 50;

  ged::GlobalEventDetector ged;
  EventBusServer server(&ged);
  EventBusServer::Options sopts;
  sopts.max_sessions = kClients + 10;
  sopts.admission_capacity = 128;
  sopts.retry_after_ms = 5;
  ASSERT_TRUE(server.Start(sopts).ok());

  struct Slot {
    std::unique_ptr<RemoteGedClient> client;
    std::shared_ptr<std::atomic<std::uint64_t>> received =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    std::string event;
  };
  std::vector<Slot> slots(kClients);
  for (int i = 0; i < kClients; ++i) {
    slots[i].event = "g_swarm_" + std::to_string(i);
    slots[i].client = std::make_unique<RemoteGedClient>(FastClient(
        server.port(), "swarm_" + std::to_string(i),
        /*seed=*/0x5eed + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(slots[i].client->Start().ok());
  }
  for (auto& slot : slots) {
    ASSERT_TRUE(slot.client->WaitConnected(std::chrono::seconds(20)));
  }

  // Control-plane setup with a retry loop: a fault can eat any individual
  // request, but once acked the journal owns it.
  auto establish = [&](Slot& slot) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!slot.client
                ->DefineGlobalPrimitive(slot.event, "Order",
                                        EventModifier::kEnd, "void f()")
                .ok()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    auto received = slot.received;
    while (!slot.client
                ->Subscribe(slot.event, ParamContext::kRecent,
                            [received](const std::string&,
                                       const detector::Occurrence&) {
                              received->fetch_add(1);
                            })
                .ok()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  for (auto& slot : slots) establish(slot);

  // Chaos phase: probabilistic faults on every wire path while all fifty
  // clients stream events.
  auto& registry = FailPointRegistry::Instance();
  ASSERT_TRUE(registry.Enable("net.server.read", "error(prob=0.003)").ok());
  ASSERT_TRUE(registry.Enable("net.server.write", "torn(prob=0.003)").ok());
  ASSERT_TRUE(registry.Enable("net.client.write", "error(prob=0.003)").ok());
  ASSERT_TRUE(registry.Enable("net.client.read", "error(prob=0.003)").ok());

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kClients; ++i) {
      (void)slots[i].client->Notify(Occ("void f()", round));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(server.running()) << "the daemon must ride out the chaos";

  // Calm phase: disarm everything; every client — including each one that
  // was disconnected mid-stream — must reconnect and resume receiving
  // detections of its own event.
  registry.DisableAll();
  for (auto& slot : slots) {
    ASSERT_TRUE(slot.client->WaitConnected(std::chrono::seconds(30)))
        << "a client failed to reconnect after the faults were cleared";
  }
  for (int i = 0; i < kClients; ++i) {
    const std::uint64_t before = slots[i].received->load();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (slots[i].received->load() <= before) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "client " << i << " stopped receiving detections";
      (void)slots[i].client->Notify(Occ("void f()", 999));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  EXPECT_TRUE(server.running());
  std::uint64_t total_disconnects = 0;
  for (auto& slot : slots) {
    total_disconnects += slot.client->stats().disconnects;
    slot.client->Stop();
  }
  server.Stop();
  SUCCEED() << "swarm survived; client disconnects=" << total_disconnects;
}

}  // namespace
}  // namespace sentinel::net
