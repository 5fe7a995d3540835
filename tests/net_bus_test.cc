#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "detector/event_types.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/protocol.h"
#include "net/remote_client.h"
#include "obs/prometheus.h"
#include "net/socket_util.h"
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

/// Hand-rolled protocol speaker for tests that need to misbehave in ways
/// RemoteGedClient never would (stop reading, send illegal frames, hold a
/// session hostage).
struct RawClient {
  int fd = -1;
  FrameAssembler assembler;

  ~RawClient() { Close(); }

  Status Connect(int port) {
    auto fd_or = ConnectTcp("127.0.0.1", port);
    if (!fd_or.ok()) return fd_or.status();
    fd = *fd_or;
    return Status::OK();
  }

  Status Send(const std::string& frame) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("raw send failed");
      sent += static_cast<std::size_t>(n);
    }
    return Status::OK();
  }

  /// Blocks until the next complete frame, the timeout, or peer close.
  Result<FrameAssembler::Frame> Expect(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      FrameAssembler::Frame frame;
      auto ready = assembler.Next(&frame);
      if (!ready.ok()) return ready.status();
      if (*ready) return frame;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return Status::IOError("timed out awaiting frame");
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      if (::poll(&pfd, 1, static_cast<int>(std::min<long long>(left, 50))) <=
          0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return Status::IOError("peer closed");
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return Status::IOError("raw recv failed");
      }
      assembler.Feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Drains frames until the server closes the connection.
  bool WaitClosed(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR && errno != EAGAIN) return true;
    }
    return false;
  }

  void Close() {
    if (fd >= 0) CloseQuietly(fd);
    fd = -1;
  }
};

class NetBusTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPointRegistry::Instance().DisableAll();
    server_.Stop();
  }

  Status StartServer(EventBusServer::Options opts = {}) {
    opts.port = 0;
    return server_.Start(opts);
  }

  RemoteGedClient::Options ClientOptions(const std::string& app) const {
    RemoteGedClient::Options o;
    o.port = server_.port();
    o.app_name = app;
    o.backoff_base = std::chrono::milliseconds(10);
    o.backoff_max = std::chrono::milliseconds(100);
    return o;
  }

  static std::shared_ptr<detector::ParamList> Params(int v) {
    auto p = std::make_shared<detector::ParamList>();
    p->Insert("v", oodb::Value::Int(v));
    return p;
  }

  /// Registers a raw session and consumes the Hello ack.
  Status RawHello(RawClient* raw, const std::string& app) {
    HelloMsg hello;
    hello.seq = 1;
    hello.app_name = app;
    SENTINEL_RETURN_NOT_OK(raw->Send(hello.Encode()));
    auto frame = raw->Expect(std::chrono::milliseconds(2000));
    if (!frame.ok()) return frame.status();
    if (frame->type != MessageType::kStatusReply) {
      return Status::Internal("expected STATUS reply to HELLO");
    }
    BytesReader reader(frame->body);
    auto reply = StatusReplyMsg::Decode(&reader);
    SENTINEL_RETURN_NOT_OK(reply.status());
    if (reply->code != WireCode::kOk) {
      return Status::Internal("HELLO refused: " + reply->message);
    }
    return Status::OK();
  }

  ged::GlobalEventDetector ged_;
  EventBusServer server_{&ged_};
};

TEST_F(NetBusTest, EndToEndDefineSubscribeNotifyPush) {
  ASSERT_TRUE(StartServer().ok());

  RemoteGedClient client(ClientOptions("appA"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(ged_.IsRegistered("appA"));

  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_submit", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<detector::Occurrence> got;
  ASSERT_TRUE(client
                  .Subscribe("g_submit", ParamContext::kRecent,
                             [&](const std::string& event,
                                 const detector::Occurrence& occ) {
                               EXPECT_EQ(event, "g_submit");
                               std::lock_guard<std::mutex> lock(mu);
                               got.push_back(occ);
                               cv.notify_all();
                             })
                  .ok());

  ASSERT_TRUE(client
                  .NotifyMethod("Order", 1, EventModifier::kEnd,
                                "void submit()", Params(42), 1)
                  .ok());

  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !got.empty(); }))
        << "no detection pushed back to the client";
    auto v = got[0].Param("v");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 42);
  }

  const EventBusServerStats stats = server_.stats();
  EXPECT_GE(stats.notifies_received, 1u);
  EXPECT_GE(stats.dispatched, 1u);
  EXPECT_GE(stats.pushes_sent, 1u);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_GE(client.stats().pushes_received, 1u);
  client.Stop();
}

TEST_F(NetBusTest, DefineAndSubscribeAreIdempotent) {
  ASSERT_TRUE(StartServer().ok());
  RemoteGedClient client(ClientOptions("appA"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));

  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_submit", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  EXPECT_TRUE(client
                  .DefineGlobalPrimitive("g_submit", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok())
      << "re-declaring an existing global primitive must be a no-op";

  auto noop = [](const std::string&, const detector::Occurrence&) {};
  ASSERT_TRUE(client.Subscribe("g_submit", ParamContext::kRecent, noop).ok());
  EXPECT_TRUE(client.Subscribe("g_submit", ParamContext::kRecent, noop).ok())
      << "duplicate subscription must be accepted idempotently";
  client.Stop();
}

TEST_F(NetBusTest, DefineRejectsSpecMismatchAndCrossAppAliasing) {
  ASSERT_TRUE(StartServer().ok());
  RemoteGedClient client(ClientOptions("appA"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));

  ASSERT_TRUE(client
                  .DefineGlobalPrimitive("g_submit", "Order",
                                         EventModifier::kEnd, "void submit()")
                  .ok());
  EXPECT_FALSE(client
                   .DefineGlobalPrimitive("g_submit", "Order",
                                          EventModifier::kBegin,
                                          "void submit()")
                   .ok())
      << "re-declaring with a different modifier must be refused";
  EXPECT_FALSE(client
                   .DefineGlobalPrimitive("g_submit", "Order",
                                          EventModifier::kEnd, "void cancel()")
                   .ok())
      << "re-declaring with a different method signature must be refused";

  RemoteGedClient other(ClientOptions("appB"));
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.WaitConnected(std::chrono::milliseconds(5000)));
  EXPECT_FALSE(other
                   .DefineGlobalPrimitive("g_submit", "Order",
                                          EventModifier::kEnd, "void submit()")
                   .ok())
      << "another application must not silently alias the primitive";
  other.Stop();
  client.Stop();
}

TEST_F(NetBusTest, SessionLimitRejectsWithRetryLater) {
  EventBusServer::Options opts;
  opts.max_sessions = 1;
  ASSERT_TRUE(StartServer(opts).ok());

  RawClient first;
  ASSERT_TRUE(first.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&first, "holder").ok());

  RawClient second;
  ASSERT_TRUE(second.Connect(server_.port()).ok());
  auto verdict = second.Expect(std::chrono::milliseconds(2000));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_EQ(verdict->type, MessageType::kStatusReply);
  BytesReader reader(verdict->body);
  auto reply = StatusReplyMsg::Decode(&reader);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kRetryLater);
  EXPECT_GT(reply->retry_after_ms, 0u);
  EXPECT_TRUE(second.WaitClosed(std::chrono::milliseconds(2000)));
  EXPECT_GE(server_.stats().rejected_sessions, 1u);

  // Freeing the slot readmits new sessions: the limit is admission control,
  // not a death sentence.
  first.Close();
  ASSERT_TRUE(WaitUntil([&] { return server_.session_count() == 0; },
                        std::chrono::milliseconds(5000)));
  RawClient third;
  ASSERT_TRUE(third.Connect(server_.port()).ok());
  EXPECT_TRUE(RawHello(&third, "holder").ok());
}

TEST_F(NetBusTest, ReconnectOfSameAppSupersedesOldSession) {
  ASSERT_TRUE(StartServer().ok());

  RawClient old_session;
  ASSERT_TRUE(old_session.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&old_session, "dup").ok());

  RawClient new_session;
  ASSERT_TRUE(new_session.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&new_session, "dup").ok())
      << "a reconnecting application must not be locked out by its own "
         "zombie session";

  // The zombie gets a BYE and the connection is closed under it.
  EXPECT_TRUE(old_session.WaitClosed(std::chrono::milliseconds(5000)));
  EXPECT_GE(server_.stats().superseded_sessions, 1u);
  EXPECT_TRUE(ged_.IsRegistered("dup"));
}

TEST_F(NetBusTest, ClientDisconnectUnregistersAppButKeepsDefinitions) {
  ASSERT_TRUE(StartServer().ok());
  {
    RemoteGedClient client(ClientOptions("ephemeral"));
    ASSERT_TRUE(client.Start().ok());
    ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));
    ASSERT_TRUE(client
                    .DefineGlobalPrimitive("g_eph", "Order",
                                           EventModifier::kEnd, "void f()")
                    .ok());
    client.Stop();
  }
  // Registration is liveness: it must drop with the session, leaving no
  // half-registered application node behind.
  ASSERT_TRUE(WaitUntil([&] { return !ged_.IsRegistered("ephemeral"); },
                        std::chrono::milliseconds(5000)));
  EXPECT_TRUE(ged_.graph()->Find("g_eph").ok())
      << "definitions are shared state and survive the session";

  // The name is reusable immediately, and the old definition is found.
  RemoteGedClient reborn(ClientOptions("ephemeral"));
  ASSERT_TRUE(reborn.Start().ok());
  ASSERT_TRUE(reborn.WaitConnected(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(reborn
                  .DefineGlobalPrimitive("g_eph", "Order", EventModifier::kEnd,
                                         "void f()")
                  .ok());
  reborn.Stop();
}

TEST_F(NetBusTest, NotifyBeforeHelloIsAProtocolError) {
  ASSERT_TRUE(StartServer().ok());
  RawClient raw;
  ASSERT_TRUE(raw.Connect(server_.port()).ok());
  BytesWriter body;
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.method_signature = "void f()";
  EncodeOccurrence(occ, &body);
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageType::kNotify, body)).ok());
  EXPECT_TRUE(raw.WaitClosed(std::chrono::milliseconds(5000)));
}

TEST_F(NetBusTest, ServerOnlyFrameFromClientDropsConnection) {
  ASSERT_TRUE(StartServer().ok());
  RawClient raw;
  ASSERT_TRUE(raw.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&raw, "rogue").ok());

  EventPushMsg illegal;
  illegal.event = "nope";
  ASSERT_TRUE(raw.Send(illegal.Encode()).ok());
  EXPECT_TRUE(raw.WaitClosed(std::chrono::milliseconds(5000)));
  EXPECT_GE(server_.stats().frame_errors, 1u);
  // The rogue's registration was torn down with the session.
  EXPECT_TRUE(WaitUntil([&] { return !ged_.IsRegistered("rogue"); },
                        std::chrono::milliseconds(5000)));
}

TEST_F(NetBusTest, IdleSessionIsReaped) {
  EventBusServer::Options opts;
  opts.heartbeat_interval = std::chrono::milliseconds(30);
  opts.idle_timeout = std::chrono::milliseconds(120);
  ASSERT_TRUE(StartServer(opts).ok());

  RawClient mute;
  ASSERT_TRUE(mute.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&mute, "mute").ok());
  // Never answer the pings; the watchdog timer must reap us.
  EXPECT_TRUE(mute.WaitClosed(std::chrono::milliseconds(5000)));
  EXPECT_GE(server_.stats().idle_disconnects, 1u);
  EXPECT_GE(server_.stats().pings_sent, 1u);
}

TEST_F(NetBusTest, HeartbeatKeepsAQuietClientAlive) {
  EventBusServer::Options opts;
  opts.heartbeat_interval = std::chrono::milliseconds(40);
  opts.idle_timeout = std::chrono::milliseconds(160);
  ASSERT_TRUE(StartServer(opts).ok());

  RemoteGedClient client(ClientOptions("quiet"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));
  // Several idle windows pass; the PING/PONG exchange must keep the
  // session off the idle reaper's list.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(server_.stats().idle_disconnects, 0u);
  EXPECT_EQ(client.stats().disconnects, 0u);
  client.Stop();
}

TEST_F(NetBusTest, AdmissionQueueShedsWithRetryLaterAndRecovers) {
  EventBusServer::Options opts;
  opts.admission_capacity = 4;
  opts.retry_after_ms = 10;
  ASSERT_TRUE(StartServer(opts).ok());

  // Stall (and drop inside) the dispatcher so the admission queue backs up.
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .Enable("net.server.dispatch", "delay(ms=20)")
                  .ok());

  RemoteGedClient client(ClientOptions("flood"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));

  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = "void submit()";
  occ.oid = 1;
  occ.txn = 1;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(client.Notify(occ).ok());
  }

  // The server must shed rather than grow, and the client must hear the
  // typed RETRY_LATER verdict.
  EXPECT_TRUE(WaitUntil([&] { return server_.stats().sheds >= 1; },
                        std::chrono::seconds(10)));
  EXPECT_TRUE(WaitUntil([&] { return client.stats().sheds_received >= 1; },
                        std::chrono::seconds(10)));

  // Recovery: disarm the stall, and the backlog drains without a restart.
  FailPointRegistry::Instance().DisableAll();
  EXPECT_TRUE(WaitUntil(
      [&] {
        return server_.stats().admission_depth == 0 && !server_.overloaded();
      },
      std::chrono::seconds(10)));

  // The pipe still works end to end after the storm.
  const std::uint64_t before = server_.stats().dispatched;
  ASSERT_TRUE(client.Notify(occ).ok());
  EXPECT_TRUE(WaitUntil([&] { return server_.stats().dispatched > before; },
                        std::chrono::seconds(10)));
  client.Stop();
}

TEST_F(NetBusTest, SlowConsumerIsDisconnectedNotWedged) {
  EventBusServer::Options opts;
  opts.outbound_max_bytes = 64 * 1024;
  ASSERT_TRUE(StartServer(opts).ok());

  // Producer defines the event; the raw subscriber then stops reading.
  RemoteGedClient producer(ClientOptions("producer"));
  ASSERT_TRUE(producer.Start().ok());
  ASSERT_TRUE(producer.WaitConnected(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(producer
                  .DefineGlobalPrimitive("g_bulk", "Order",
                                         EventModifier::kEnd, "void bulk()")
                  .ok());

  RawClient hog;
  ASSERT_TRUE(hog.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&hog, "hog").ok());
  SubscribeMsg sub;
  sub.seq = 2;
  sub.event = "g_bulk";
  sub.context = ParamContext::kRecent;
  ASSERT_TRUE(hog.Send(sub.Encode()).ok());
  auto ack = hog.Expect(std::chrono::milliseconds(2000));
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->type, MessageType::kStatusReply);

  // 16 KiB per detection, never read. The kernel's socket buffers take the
  // first pushes (several MiB on loopback: up to the tcp_wmem maximum plus
  // the reader's receive buffer); once a send comes back short the queue
  // passes its budget and the hog is cut loose. Push until then, up to
  // 64 MiB — well above any loopback buffering — so the verdict does not
  // depend on the host's buffer sizes.
  auto params = std::make_shared<detector::ParamList>();
  params->Insert("blob", oodb::Value::String(std::string(16 * 1024, 'x')));
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = "void bulk()";
  occ.oid = 1;
  occ.txn = 1;
  occ.params = params;
  constexpr int kMaxPushes = 4096;  // 64 MiB of pushes
  for (int i = 0;
       i < kMaxPushes && server_.stats().slow_consumer_disconnects == 0; ++i) {
    ASSERT_TRUE(producer.Notify(occ).ok());
    if (i % 32 == 31) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  EXPECT_TRUE(
      WaitUntil([&] { return server_.stats().slow_consumer_disconnects >= 1; },
                std::chrono::seconds(20)));
  // The producer session is unaffected — one slow consumer cannot take the
  // daemon (or its neighbours) down.
  EXPECT_TRUE(producer.connected());
  const std::uint64_t before = server_.stats().dispatched;
  ASSERT_TRUE(producer
                  .NotifyMethod("Order", 2, EventModifier::kEnd, "void bulk()",
                                Params(1), 1)
                  .ok());
  EXPECT_TRUE(WaitUntil([&] { return server_.stats().dispatched > before; },
                        std::chrono::seconds(10)));
  producer.Stop();
}

TEST_F(NetBusTest, ReaderThatKeepsUpOutlastsOneOverBudgetBatch) {
  // One injection fans out to four 16 KiB pushes for one reader, more than
  // its 16 KiB budget in a single poll iteration. The reader keeps up, so
  // the kernel never refuses a byte and the session must survive.
  EventBusServer::Options opts;
  opts.outbound_max_bytes = 16 * 1024;
  ASSERT_TRUE(StartServer(opts).ok());

  RemoteGedClient producer(ClientOptions("producer"));
  ASSERT_TRUE(producer.Start().ok());
  ASSERT_TRUE(producer.WaitConnected(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(producer
                  .DefineGlobalPrimitive("g_fan", "Order",
                                         EventModifier::kEnd, "void fan()")
                  .ok());

  RawClient reader;
  ASSERT_TRUE(reader.Connect(server_.port()).ok());
  ASSERT_TRUE(RawHello(&reader, "reader").ok());
  constexpr int kContexts = detector::kNumContexts;
  for (int c = 0; c < kContexts; ++c) {
    SubscribeMsg sub;
    sub.seq = static_cast<std::uint32_t>(2 + c);
    sub.event = "g_fan";
    sub.context = static_cast<ParamContext>(c);
    ASSERT_TRUE(reader.Send(sub.Encode()).ok());
    auto ack = reader.Expect(std::chrono::milliseconds(2000));
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->type, MessageType::kStatusReply);
  }

  constexpr int kInjections = 3;
  int pushes = 0;
  for (int i = 0; i < kInjections; ++i) {
    auto params = std::make_shared<detector::ParamList>();
    params->Insert("blob", oodb::Value::String(std::string(16 * 1024, 'x')));
    ASSERT_TRUE(producer
                    .NotifyMethod("Order", i + 1, EventModifier::kEnd,
                                  "void fan()", params, 1)
                    .ok());
    while (pushes < (i + 1) * kContexts) {
      auto frame = reader.Expect(std::chrono::milliseconds(10000));
      ASSERT_TRUE(frame.ok()) << frame.status().ToString() << " after "
                              << pushes << " pushes";
      if (frame->type == MessageType::kEventPush) ++pushes;
    }
  }
  EXPECT_EQ(pushes, kInjections * kContexts);
  EXPECT_EQ(server_.stats().slow_consumer_disconnects, 0u);
  producer.Stop();
}

/// Pre-connected publishers and one subscriber: each publisher declares its
/// own global primitive, and the subscriber subscribes to all of them before
/// a test body runs.
class NetBusBurstTest : public NetBusTest {
 protected:
  static constexpr int kPublishers = 4;
  static constexpr int kEventsPerPublisher = 64;

  void SetUp() override {
    ASSERT_TRUE(StartServer().ok());
    subscriber_ = std::make_unique<RemoteGedClient>(ClientOptions("burst_sub"));
    ASSERT_TRUE(subscriber_->Start().ok());
    ASSERT_TRUE(subscriber_->WaitConnected(std::chrono::milliseconds(5000)));
    for (int p = 0; p < kPublishers; ++p) {
      publishers_[p] = std::make_unique<RemoteGedClient>(
          ClientOptions("burst_pub" + std::to_string(p)));
      ASSERT_TRUE(publishers_[p]->Start().ok());
      ASSERT_TRUE(
          publishers_[p]->WaitConnected(std::chrono::milliseconds(5000)));
      ASSERT_TRUE(publishers_[p]
                      ->DefineGlobalPrimitive(Event(p), "Order",
                                              EventModifier::kEnd,
                                              "void burst(int seq)")
                      .ok());
      ASSERT_TRUE(subscriber_
                      ->Subscribe(Event(p), ParamContext::kRecent,
                                  [this, p](const std::string&,
                                            const detector::Occurrence& occ) {
                                    auto seq = occ.Param("v");
                                    std::lock_guard<std::mutex> lock(mu_);
                                    got_[p].push_back(
                                        seq.ok() ? seq->AsInt() : -1);
                                    cv_.notify_all();
                                  })
                      .ok());
    }
  }

  void TearDown() override {
    for (auto& publisher : publishers_) {
      if (publisher != nullptr) publisher->Stop();
    }
    if (subscriber_ != nullptr) subscriber_->Stop();
    NetBusTest::TearDown();
  }

  static std::string Event(int p) { return "g_burst" + std::to_string(p); }

  std::size_t Received() {
    std::size_t n = 0;
    for (const auto& seqs : got_) n += seqs.size();
    return n;
  }

  std::unique_ptr<RemoteGedClient> publishers_[kPublishers];
  std::unique_ptr<RemoteGedClient> subscriber_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::int64_t> got_[kPublishers];  // guarded by mu_
};

TEST_F(NetBusBurstTest, ConcurrentBurstsArriveOnceAndInPublisherOrder) {
  std::vector<std::thread> threads;
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([this, p] {
      for (int seq = 0; seq < kEventsPerPublisher; ++seq) {
        EXPECT_TRUE(publishers_[p]
                        ->NotifyMethod("Order", 1, EventModifier::kEnd,
                                       "void burst(int seq)", Params(seq), 1)
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr std::size_t kTotal = kPublishers * kEventsPerPublisher;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(10),
                             [&] { return Received() >= kTotal; }))
        << "received " << Received() << " of " << kTotal;
  }
  // A duplicate would only land after the last expected push; give one a
  // moment to show up before the exact count is checked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < kPublishers; ++p) {
    ASSERT_EQ(got_[p].size(), static_cast<std::size_t>(kEventsPerPublisher))
        << "publisher " << p;
    for (int seq = 0; seq < kEventsPerPublisher; ++seq) {
      EXPECT_EQ(got_[p][static_cast<std::size_t>(seq)], seq)
          << "publisher " << p << " delivered out of order";
    }
    EXPECT_EQ(publishers_[p]->stats().notifies_dropped, 0u);
    EXPECT_EQ(publishers_[p]->stats().sheds_received, 0u);
  }
  EXPECT_EQ(server_.stats().sheds, 0u);
  EXPECT_EQ(server_.stats().dispatched, kTotal);
}

TEST_F(NetBusTest, WritePrometheusSmoke) {
  ASSERT_TRUE(StartServer().ok());
  RemoteGedClient client(ClientOptions("appA"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.WaitConnected(std::chrono::milliseconds(5000)));

  obs::PromWriter p;
  server_.WritePrometheus(p);
  client.WritePrometheus(p);
  const std::string text = p.Take();
  EXPECT_NE(text.find("\nsentinel_net_accepted_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nsentinel_net_admission_depth "), std::string::npos);
  EXPECT_NE(text.find("\nsentinel_net_client_connected 1\n"),
            std::string::npos);
  client.Stop();
}

}  // namespace
}  // namespace sentinel::net
