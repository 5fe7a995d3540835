#include "net/event_bus_server.h"

#include <poll.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/logging.h"
#include "detector/event_node.h"
#include "obs/prometheus.h"
#include "obs/span.h"

namespace sentinel::net {

namespace {

constexpr auto NowNs = &obs::SpanTracer::NowNs;

/// Upper bound on the bytes one FlushSession concatenates into a send.
constexpr std::size_t kMaxWriteBytes = 64 * 1024;

/// Time one poll iteration may spend injecting before it leaves the rest of
/// the batch to the next, so a stalled GED does not stop reads, sheds,
/// flushes and heartbeats. Far above one injection, so batches stay whole.
constexpr std::uint64_t kDispatchBudgetNs = 10'000'000;

std::uint64_t ToNs(std::chrono::milliseconds ms) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ms).count());
}

}  // namespace

struct EventBusServer::Session {
  explicit Session(std::size_t max_frame_bytes)
      : assembler(max_frame_bytes) {}

  std::uint64_t id = 0;
  int fd = -1;

  // I/O-thread-owned state.
  std::string app_name;
  bool app_registered = false;  // this session owns the GED registration
  FrameAssembler assembler;
  std::uint64_t last_recv_ns = 0;
  std::uint64_t last_ping_ns = 0;
  std::uint64_t last_shed_notice_ns = 0;
  struct Sub {
    std::string event;
    detector::ParamContext context;
    std::unique_ptr<PushSink> sink;
  };
  std::vector<Sub> subs;

  // Heartbeat timing (DESIGN.md §14). The histogram and the published
  // atomics are read by stats scrapers from other threads; the EWMA state
  // (offset_ewma_ns / offset_primed) is I/O-thread-only.
  obs::LatencyHistogram rtt_us;
  std::atomic<std::int64_t> clock_offset_ns{0};
  std::int64_t offset_ewma_ns = 0;
  bool offset_primed = false;

  // Guarded by EventBusServer::sessions_mu_.
  std::deque<OutFrame> out;
  std::size_t out_bytes = 0;
  std::size_t out_offset = 0;  // flushed prefix of out.front()
  bool doomed = false;
  std::string doom_reason;
};

/// Subscription sink: encodes each detection and appends it to the owning
/// session's outbound queue. Runs on the I/O thread for detections a remote
/// occurrence completes, and on the GED bus thread for loopback ones. Holds
/// the session weakly — the session owns the sink, not vice versa.
class EventBusServer::PushSink : public detector::EventSink {
 public:
  PushSink(EventBusServer* server, std::weak_ptr<Session> session,
           std::string event, detector::ParamContext context)
      : server_(server),
        session_(std::move(session)),
        event_(std::move(event)),
        context_(context) {}

  void OnEvent(const detector::Occurrence& occurrence,
               detector::ParamContext context) override {
    if (context != context_) return;
    std::shared_ptr<Session> session = session_.lock();
    if (session == nullptr) return;
    EventPushMsg msg;
    msg.event = event_;
    msg.occurrence = occurrence;
    // Trace/origin context of the detection: the trace of the newest traced
    // constituent, and the newest origin stamp (a composite's e2e latency is
    // measured from its completing — most recent — constituent).
    for (const auto& constituent : occurrence.constituents) {
      if (constituent->trace_id != 0) msg.trace.trace_id = constituent->trace_id;
      if (constituent->origin_ns > msg.trace.origin_ns) {
        msg.trace.origin_ns = constituent->origin_ns;
      }
    }
    if (msg.trace.has_origin()) {
      const std::uint64_t now = WallNs();
      if (now > msg.trace.origin_ns) {
        server_->e2e_detect_ns_.Record(now - msg.trace.origin_ns);
      }
    }
    // Push-encode span: runs inside the ged_forward / composite_detect
    // scopes, so it parents locally; its id crosses the wire as the push's
    // remote parent.
    obs::SpanScope encode_span;
    if (obs::SpanTracer* st =
            server_->tracer_.load(std::memory_order_acquire);
        st != nullptr && st->enabled_for(obs::SpanKind::kNetFrameEncode)) {
      encode_span.Start(st, obs::SpanKind::kNetFrameEncode, occurrence.txn,
                        "push " + event_);
      if (msg.trace.trace_id != 0) {
        encode_span.AnnotateRemote(msg.trace.trace_id, 0);
      }
      msg.trace.parent_span = encode_span.id();
    }
    std::string frame = msg.Encode();
    encode_span.End();
    server_->EnqueueFrame(session, std::move(frame), /*is_push=*/true,
                          msg.trace.trace_id, msg.trace.parent_span);
  }

 private:
  EventBusServer* const server_;
  const std::weak_ptr<Session> session_;
  const std::string event_;
  const detector::ParamContext context_;
};

EventBusServer::EventBusServer(ged::GlobalEventDetector* ged) : ged_(ged) {}

EventBusServer::~EventBusServer() { Stop(); }

Status EventBusServer::Start(const Options& options) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("event-bus server already running");
  }
  options_ = options;
  IgnoreSigpipe();
  SENTINEL_ASSIGN_OR_RETURN(int fd, ListenTcp(options_.port));
  auto port = BoundPort(fd);
  if (!port.ok()) {
    CloseQuietly(fd);
    return port.status();
  }
  Status wake_st = wake_.Open();
  if (!wake_st.ok()) {
    CloseQuietly(fd);
    return wake_st;
  }
  SetNonBlocking(fd);
  listen_fd_ = fd;
  port_.store(*port, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void EventBusServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  wake_.Signal();
  if (io_thread_.joinable()) io_thread_.join();
  admitted_.clear();  // uninjected notifies drop: at-most-once
  CloseQuietly(listen_fd_);
  listen_fd_ = -1;
  wake_.Close();
  overloaded_.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

std::size_t EventBusServer::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// I/O thread

void EventBusServer::IoLoop() {
  io_thread_id_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Session>> polled;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [id, session] : sessions_) {
        short events = POLLIN;
        if (!session->out.empty()) events |= POLLOUT;
        pfds.push_back(pollfd{session->fd, events, 0});
        polled.push_back(session);
      }
    }
    // 100ms cap so heartbeat/idle timers fire even on a silent wire; no
    // wait while admitted occurrences are still to be injected.
    int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                    admitted_.empty() ? 100 : 0);
    if (rc < 0 && errno != EINTR) {
      SENTINEL_LOG(kError) << "event-bus poll failed: "
                           << std::strerror(errno);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if ((pfds[0].revents & POLLIN) != 0) wake_.Drain();
    if ((pfds[1].revents & POLLIN) != 0) AcceptPending();
    // Run the iteration to completion: read and admit, detect, then write.
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = pfds[i + 2].revents;
      if ((revents & POLLIN) != 0) ReadSession(polled[i]);
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        Doom(polled[i], "socket error");
      }
    }
    DispatchAdmitted();
    CheckTimers(NowNs());
    // A session the poll found unwritable with output queued waits for
    // POLLOUT: its kernel buffer already refused bytes, so only its byte
    // budget is checked.
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const pollfd& p = pfds[i + 2];
      FlushSession(polled[i],
                   (p.events & POLLOUT) == 0 || (p.revents & POLLOUT) != 0);
    }
    ReapDoomed();
  }
  // Shutdown: say goodbye to everyone, tear down GED state, close sockets.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      if (!session->doomed) {
        session->doomed = true;
        session->doom_reason = "server shutting down";
      }
    }
  }
  ReapDoomed();
  // The listen socket and wake pipe stay open until Stop() has joined this
  // thread: Stop() signals the pipe concurrently, so closing here would race
  // the fd with that write.
}

void EventBusServer::AcceptPending() {
  for (;;) {
    int fd = AcceptRetry(listen_fd_);
    if (fd < 0) return;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::size_t count;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      count = sessions_.size();
    }
    if (count >= options_.max_sessions) {
      // Connection admission control: refuse politely with a typed verdict
      // instead of letting the accept backlog absorb the overload.
      rejected_sessions_.fetch_add(1, std::memory_order_relaxed);
      StatusReplyMsg reply;
      reply.seq = 0;
      reply.code = WireCode::kRetryLater;
      reply.retry_after_ms = options_.retry_after_ms;
      reply.message = "session limit reached";
      const std::string frame = reply.Encode();
      (void)SendSome(fd, frame.data(), frame.size(), "net.server.write");
      // The client's HELLO may already sit unread in our receive buffer; a
      // plain close() would RST and discard the verdict before the client
      // reads it. Half-close and drain briefly instead.
      ShutdownDrainClose(fd);
      continue;
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    auto session = std::make_shared<Session>(options_.max_frame_bytes);
    session->fd = fd;
    session->last_recv_ns = NowNs();
    // Stamp the ping clock too: the first heartbeat PING comes one full
    // interval after accept, never racing ahead of the HELLO/STATUS
    // handshake (raw peers read the ack as their first frame).
    session->last_ping_ns = session->last_recv_ns;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->id = next_session_id_++;
      sessions_[session->id] = session;
    }
  }
}

void EventBusServer::ReadSession(const std::shared_ptr<Session>& session) {
  char buf[16 * 1024];
  for (;;) {
    IoResult r = RecvSome(session->fd, buf, sizeof(buf), "net.server.read");
    if (r.kind == IoResult::Kind::kWouldBlock) return;
    if (r.kind == IoResult::Kind::kClosed) {
      Doom(session, "peer closed connection");
      return;
    }
    if (r.kind == IoResult::Kind::kError) {
      Doom(session, "read failed: " + r.error);
      return;
    }
    bytes_in_.fetch_add(r.bytes, std::memory_order_relaxed);
    session->last_recv_ns = NowNs();
    session->assembler.Feed(buf, r.bytes);
    for (;;) {
      FrameAssembler::Frame frame;
      auto more = session->assembler.Next(&frame);
      if (!more.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        Doom(session, "protocol error: " + more.status().ToString());
        return;
      }
      if (!*more) break;
      HandleFrame(session, frame);
      if (IsDoomed(session)) return;
    }
    if (r.bytes < sizeof(buf)) return;  // short read: socket is drained
  }
}

void EventBusServer::FlushSession(const std::shared_ptr<Session>& session,
                                  bool writable) {
  std::string doom_why;
  obs::SpanTracer* st = tracer_.load(std::memory_order_acquire);
  const bool trace_waits =
      st != nullptr && st->enabled_for(obs::SpanKind::kNetOutboundWait);
  const bool trace_write =
      st != nullptr && st->enabled_for(obs::SpanKind::kNetWrite);
  // Frames that finish flushing: their queue waits are recorded as spans
  // only after sessions_mu_ is released.
  std::vector<OutFrame> done;
  const std::uint64_t write_start_ns = trace_write ? NowNs() : 0;
  std::size_t wrote = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Judges a session whose kernel buffer refused bytes.
    auto doom_if_over_budget = [&] {
      if (session->out_bytes <= options_.outbound_max_bytes) return;
      session->doomed = true;
      session->doom_reason = "slow consumer: outbound queue exceeded " +
                             std::to_string(options_.outbound_max_bytes) +
                             " bytes";
      slow_consumer_disconnects_.fetch_add(1, std::memory_order_relaxed);
    };
    if (session->out.empty() || session->doomed) return;
    if (!writable) {
      doom_if_over_budget();
      return;
    }
    // Concatenate whole frames (the first one from its unsent offset) up to
    // kMaxWriteBytes, so the session costs one send per iteration.
    write_buf_.assign(session->out.front().bytes, session->out_offset);
    for (std::size_t i = 1; i < session->out.size(); ++i) {
      const std::string& bytes = session->out[i].bytes;
      if (write_buf_.size() + bytes.size() > kMaxWriteBytes) break;
      write_buf_ += bytes;
    }
    IoResult r = SendSome(session->fd, write_buf_.data(), write_buf_.size(),
                          "net.server.write");
    if (r.kind == IoResult::Kind::kClosed) {
      doom_why = "peer closed connection";
    } else if (r.kind == IoResult::Kind::kError) {
      doom_why = "write failed: " + r.error;
    }
    bytes_out_.fetch_add(r.bytes, std::memory_order_relaxed);
    wrote = r.bytes;
    // Retire the frames the send completed; a partial one keeps its offset.
    for (std::size_t left = r.bytes; left > 0;) {
      const OutFrame& front = session->out.front();
      const std::size_t rest = front.bytes.size() - session->out_offset;
      if (left < rest) {
        session->out_offset += left;
        break;
      }
      left -= rest;
      session->out_bytes -= front.bytes.size();
      if (trace_waits) done.push_back(std::move(session->out.front()));
      session->out.pop_front();
      session->out_offset = 0;
    }
    // Only a send the kernel cut short judges the reader: a backlog left by
    // the per-send cap alone goes out next iteration.
    if (r.kind == IoResult::Kind::kWouldBlock ||
        (r.kind == IoResult::Kind::kOk && r.bytes < write_buf_.size())) {
      doom_if_over_budget();
    }
  }
  if (st != nullptr && (trace_waits || trace_write)) {
    const std::uint64_t now = NowNs();
    for (const OutFrame& f : done) {
      st->RecordTimedSpan(obs::SpanKind::kNetOutboundWait, f.enqueued_ns, now,
                          storage::kInvalidTxnId,
                          f.is_push ? "push" : "control",
                          /*parent=*/f.parent_span, /*trace=*/f.trace);
    }
    if (trace_write && wrote > 0) {
      st->RecordTimedSpan(obs::SpanKind::kNetWrite, write_start_ns, now,
                          storage::kInvalidTxnId,
                          session->app_name.empty() ? "flush"
                                                    : session->app_name,
                          /*parent=*/0);
    }
  }
  if (!doom_why.empty()) Doom(session, doom_why);
}

// ---------------------------------------------------------------------------
// Frame handling (I/O thread)

void EventBusServer::HandleFrame(const std::shared_ptr<Session>& session,
                                 FrameAssembler::Frame& frame) {
  BytesReader reader(frame.body);
  switch (frame.type) {
    case MessageType::kHello: {
      auto msg = HelloMsg::Decode(&reader);
      if (!msg.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        Doom(session, "bad HELLO: " + msg.status().ToString());
        return;
      }
      HandleHello(session, *msg);
      return;
    }
    case MessageType::kDefinePrimitive: {
      auto msg = DefinePrimitiveMsg::Decode(&reader);
      if (!msg.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        Doom(session, "bad DEFINE_PRIMITIVE: " + msg.status().ToString());
        return;
      }
      if (!session->app_registered) {
        Reply(session, msg->seq, WireCode::kError, 0,
              "HELLO required before DEFINE_PRIMITIVE");
        return;
      }
      // Idempotent re-declaration: a reconnecting client replays its
      // definition journal, and the graph keeps nodes across sessions — an
      // existing node is accepted only when its stored spec matches the
      // request exactly. The stored class name embeds the owning app
      // ("app::class"), so a mismatch also catches one client trying to
      // alias another application's primitive (DESIGN.md §12).
      if (auto existing = ged_->graph()->Find(msg->name); existing.ok()) {
        const auto* prim =
            dynamic_cast<const detector::PrimitiveEventNode*>(*existing);
        const bool same_spec =
            prim != nullptr &&
            prim->class_name() == ged::GlobalEventDetector::NamespacedClass(
                                      msg->app_name, msg->class_name) &&
            prim->modifier() == msg->modifier &&
            prim->method_signature() == msg->method_signature;
        if (same_spec) {
          Reply(session, msg->seq, WireCode::kOk, 0, "");
        } else {
          Reply(session, msg->seq, WireCode::kError, 0,
                "event already defined with a different specification: " +
                    msg->name);
        }
        return;
      }
      auto node = ged_->DefineGlobalPrimitive(msg->name, msg->app_name,
                                              msg->class_name, msg->modifier,
                                              msg->method_signature);
      if (!node.ok()) {
        Reply(session, msg->seq, WireCode::kError, 0,
              node.status().ToString());
      } else {
        Reply(session, msg->seq, WireCode::kOk, 0, "");
      }
      return;
    }
    case MessageType::kSubscribe: {
      auto msg = SubscribeMsg::Decode(&reader);
      if (!msg.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        Doom(session, "bad SUBSCRIBE: " + msg.status().ToString());
        return;
      }
      if (!session->app_registered) {
        Reply(session, msg->seq, WireCode::kError, 0,
              "HELLO required before SUBSCRIBE");
        return;
      }
      for (const auto& sub : session->subs) {
        if (sub.event == msg->event && sub.context == msg->context) {
          Reply(session, msg->seq, WireCode::kOk, 0, "");  // idempotent
          return;
        }
      }
      auto sink = std::make_unique<PushSink>(
          this, std::weak_ptr<Session>(session), msg->event, msg->context);
      Status st = ged_->Subscribe(msg->event, sink.get(), msg->context);
      if (!st.ok()) {
        Reply(session, msg->seq, WireCode::kError, 0, st.ToString());
        return;
      }
      session->subs.push_back(
          Session::Sub{msg->event, msg->context, std::move(sink)});
      Reply(session, msg->seq, WireCode::kOk, 0, "");
      return;
    }
    case MessageType::kNotify: {
      notifies_received_.fetch_add(1, std::memory_order_relaxed);
      if (!session->app_registered) {
        Doom(session, "NOTIFY before HELLO");
        return;
      }
      HandleNotify(session, &reader, frame.flags);
      return;
    }
    case MessageType::kPing:
      // Echo the peer's send time and add our steady clock so it can derive
      // RTT + clock offset (empty pre-PR9 pings echo a zero, which the peer
      // skips as a sample).
      EnqueueFrame(session, EncodePong(ReadPingT0(&reader), NowNs()),
                   /*is_push=*/false);
      return;
    case MessageType::kPong:
      HandlePong(session, &reader);
      return;  // last_recv_ns already refreshed by ReadSession
    case MessageType::kBye:
      Doom(session, "client closed the session");
      return;
    case MessageType::kStatusReply:
    case MessageType::kEventPush:
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      Doom(session, std::string("unexpected client frame: ") +
                        MessageTypeToString(frame.type));
      return;
  }
  frame_errors_.fetch_add(1, std::memory_order_relaxed);
  Doom(session, "unknown frame type");
}

void EventBusServer::HandleHello(const std::shared_ptr<Session>& session,
                                 const HelloMsg& msg) {
  if (msg.app_name.empty()) {
    Reply(session, msg.seq, WireCode::kError, 0, "empty application name");
    return;
  }
  if (session->app_registered) {
    if (session->app_name == msg.app_name) {
      Reply(session, msg.seq, WireCode::kOk, 0, "");  // idempotent
    } else {
      Reply(session, msg.seq, WireCode::kError, 0,
            "session already registered as " + session->app_name);
    }
    return;
  }
  // A live session already holding the name is superseded: the common case
  // is a client reconnecting before the server noticed its old socket die.
  std::shared_ptr<Session> old;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, s] : sessions_) {
      if (s != session && !s->doomed && s->app_name == msg.app_name) {
        old = s;
        break;
      }
    }
  }
  if (old != nullptr) {
    superseded_sessions_.fetch_add(1, std::memory_order_relaxed);
    DetachFromGed(*old);  // frees the name before re-registering below
    Doom(old, "superseded by a reconnect of " + msg.app_name);
  }
  Status st = ged_->RegisterRemoteApplication(msg.app_name);
  if (st.IsRetryLater()) {
    Reply(session, msg.seq, WireCode::kRetryLater, options_.retry_after_ms,
          st.ToString());
    return;
  }
  if (!st.ok()) {
    // e.g. an in-process application owns the name.
    Reply(session, msg.seq, WireCode::kError, 0, st.ToString());
    return;
  }
  session->app_name = msg.app_name;
  session->app_registered = true;
  Reply(session, msg.seq, WireCode::kOk, 0, "");
}

void EventBusServer::HandleNotify(const std::shared_ptr<Session>& session,
                                  BytesReader* body, std::uint16_t flags) {
  const std::uint64_t decode_start_ns = NowNs();
  auto occ = DecodeOccurrence(body);
  if (!occ.ok()) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    Doom(session, "bad NOTIFY: " + occ.status().ToString());
    return;
  }
  // Trace trailer (absent → zeros). origin_ns rides into the occurrence
  // unconditionally — the e2e layer is always on; the span linkage only
  // materializes when a tracer is attached and recording.
  const TraceContext tc = ReadTraceContext(flags, body);
  occ->origin_ns = tc.origin_ns;
  std::uint64_t decode_span = 0;
  if (obs::SpanTracer* st = tracer_.load(std::memory_order_acquire);
      st != nullptr && st->enabled_for(obs::SpanKind::kNetFrameDecode)) {
    // The remote parent is the CLIENT's encode span id — resolvable only by
    // the cross-file merge, hence remote_parent, not parent.
    decode_span = st->RecordTimedSpan(
        obs::SpanKind::kNetFrameDecode, decode_start_ns, NowNs(), occ->txn,
        "notify " + occ->event_name, /*parent=*/0, tc.trace_id,
        tc.parent_span);
    occ->trace_id = tc.trace_id;
    occ->trace_parent = decode_span;
  }
  if (admitted_.size() >= options_.admission_capacity) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    // Unsolicited typed shed notice, rate-limited per session so a
    // firehosing client doesn't get a notice per dropped event.
    const std::uint64_t now = NowNs();
    if (now - session->last_shed_notice_ns > 10'000'000ull) {
      session->last_shed_notice_ns = now;
      Reply(session, 0, WireCode::kRetryLater, options_.retry_after_ms,
            "admission queue full; event dropped");
    }
    return;
  }
  AdmissionItem item;
  item.app = session->app_name;
  item.occ = std::move(*occ);
  item.enqueued_ns = decode_span != 0 ? NowNs() : 0;
  item.decode_span = decode_span;
  admitted_.push_back(std::move(item));
  if (admitted_.size() > admission_peak_.load(std::memory_order_relaxed)) {
    admission_peak_.store(admitted_.size(), std::memory_order_relaxed);
  }
}

void EventBusServer::HandlePong(const std::shared_ptr<Session>& session,
                                BytesReader* body) {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  if (!ReadPongTimes(body, &t0, &t1)) return;  // old peer: empty pong
  const std::uint64_t t2 = NowNs();
  if (t2 <= t0) return;  // clock went backwards / bogus echo
  const std::uint64_t rtt_ns = t2 - t0;
  session->rtt_us.Record(rtt_ns / 1000);
  rtt_us_.Record(rtt_ns / 1000);
  rtt_samples_.fetch_add(1, std::memory_order_relaxed);
  // NTP-style offset sample: responder clock minus the midpoint of our
  // send/receive pair, EWMA-smoothed (alpha 1/8) against jitter. Both
  // clocks are steady — the offset aligns span timelines, not wall time.
  const std::int64_t sample =
      static_cast<std::int64_t>(t1) -
      static_cast<std::int64_t>(t0 + (rtt_ns / 2));
  if (!session->offset_primed) {
    session->offset_primed = true;
    session->offset_ewma_ns = sample;
  } else {
    session->offset_ewma_ns += (sample - session->offset_ewma_ns) / 8;
  }
  session->clock_offset_ns.store(session->offset_ewma_ns,
                                 std::memory_order_relaxed);
}

void EventBusServer::DispatchAdmitted() {
  const std::uint64_t start_ns = NowNs();
  while (!admitted_.empty()) {
    AdmissionItem& item = admitted_.front();
    // Admission wait: from admission to injection, parented into the decode
    // span.
    if (obs::SpanTracer* st = tracer_.load(std::memory_order_acquire);
        st != nullptr &&
        st->enabled_for(obs::SpanKind::kNetAdmissionWait) &&
        item.decode_span != 0) {
      const std::uint64_t wait_span = st->RecordTimedSpan(
          obs::SpanKind::kNetAdmissionWait, item.enqueued_ns, NowNs(),
          item.occ.txn, "admission", item.decode_span, item.occ.trace_id);
      item.occ.trace_parent = wait_span;
    }
    // net.server.dispatch: delay stalls the injection (the backlog then
    // meets the next iteration's reads, which shed past capacity); error
    // drops the occurrence.
    const bool dropped =
        FailPointRegistry::AnyActive() &&
        FailPointRegistry::Instance().Evaluate("net.server.dispatch").fired();
    // Delivery latency is taken at the hand-off, before detection runs.
    const std::uint64_t origin_ns = item.occ.origin_ns;
    const std::uint64_t delivered_ns = origin_ns != 0 ? WallNs() : 0;
    // NotFound (session torn down mid-flight) and RetryLater (GED shut
    // down) both drop the occurrence — at-most-once delivery.
    if (!dropped && ged_->InjectRemote(item.app, std::move(item.occ)).ok()) {
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      if (delivered_ns > origin_ns) {
        e2e_delivery_ns_.Record(delivered_ns - origin_ns);
      }
    }
    admitted_.pop_front();
    // The depth is published here, after injections, so a backlog a slow
    // injection leaves behind reads as overload.
    UpdateOverload(admitted_.size());
    if (NowNs() - start_ns > kDispatchBudgetNs) return;
  }
}

// ---------------------------------------------------------------------------
// Session plumbing

void EventBusServer::EnqueueFrame(const std::shared_ptr<Session>& session,
                                  std::string frame, bool is_push,
                                  std::uint64_t trace,
                                  std::uint64_t parent_span) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (session->doomed || session->fd < 0) return;
    session->out_bytes += frame.size();
    OutFrame out;
    out.bytes = std::move(frame);
    out.enqueued_ns = NowNs();
    out.trace = trace;
    out.parent_span = parent_span;
    out.is_push = is_push;
    session->out.push_back(std::move(out));
    if (is_push) pushes_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  // The I/O thread flushes (or reaps) before it polls again; any other
  // thread must wake it.
  if (std::this_thread::get_id() !=
      io_thread_id_.load(std::memory_order_relaxed)) {
    wake_.Signal();
  }
}

void EventBusServer::Reply(const std::shared_ptr<Session>& session,
                           std::uint32_t seq, WireCode code,
                           std::uint32_t retry_after_ms,
                           const std::string& message) {
  StatusReplyMsg reply;
  reply.seq = seq;
  reply.code = code;
  reply.retry_after_ms = retry_after_ms;
  reply.message = message;
  EnqueueFrame(session, reply.Encode(), /*is_push=*/false);
}

void EventBusServer::Doom(const std::shared_ptr<Session>& session,
                          const std::string& why) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (session->doomed) return;
  session->doomed = true;
  session->doom_reason = why;
}

bool EventBusServer::IsDoomed(
    const std::shared_ptr<Session>& session) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return session->doomed;
}

void EventBusServer::CheckTimers(std::uint64_t now_ns) {
  const std::uint64_t heartbeat_ns = ToNs(options_.heartbeat_interval);
  const std::uint64_t idle_ns = ToNs(options_.idle_timeout);
  std::vector<std::shared_ptr<Session>> to_ping;
  std::vector<std::shared_ptr<Session>> to_idle_out;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      if (session->doomed) continue;
      const std::uint64_t quiet = now_ns - session->last_recv_ns;
      if (idle_ns > 0 && quiet > idle_ns) {
        to_idle_out.push_back(session);
      } else if (heartbeat_ns > 0 &&
                 now_ns - session->last_ping_ns > heartbeat_ns) {
        // Ping on every heartbeat interval, busy wire or not: each pong is
        // an RTT + clock-offset sample, so the estimate keeps converging
        // while traffic flows (liveness alone would only need quiet pings).
        to_ping.push_back(session);
      }
    }
  }
  for (auto& session : to_idle_out) {
    idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
    Doom(session, "idle timeout: no frames or pongs");
  }
  for (auto& session : to_ping) {
    session->last_ping_ns = now_ns;
    pings_sent_.fetch_add(1, std::memory_order_relaxed);
    EnqueueFrame(session, EncodePing(NowNs()), /*is_push=*/false);
  }
}

void EventBusServer::ReapDoomed() {
  std::vector<std::shared_ptr<Session>> doomed;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->doomed) {
        doomed.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : doomed) {
    // Unsubscribe/unregister first so no push lands in the queue of a
    // session whose socket is closing, and so a half-registered app node
    // can never outlive its connection.
    DetachFromGed(*session);
    // Best-effort goodbye so the client can tell a policy disconnect from
    // a crash; the socket may be dead, which is fine.
    ByeMsg bye;
    bye.reason = session->doom_reason;
    const std::string frame = bye.Encode();
    (void)SendSome(session->fd, frame.data(), frame.size(), nullptr);
    CloseQuietly(session->fd);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->fd = -1;
    }
    SENTINEL_LOG(kInfo) << "event-bus session closed (app="
                        << (session->app_name.empty() ? "<anonymous>"
                                                      : session->app_name)
                        << "): " << session->doom_reason;
  }
}

void EventBusServer::DetachFromGed(Session& session) {
  for (auto& sub : session.subs) {
    (void)ged_->graph()->Unsubscribe(sub.event, sub.sink.get(), sub.context);
  }
  session.subs.clear();
  if (session.app_registered) {
    session.app_registered = false;
    (void)ged_->UnregisterApplication(session.app_name);
  }
}

void EventBusServer::UpdateOverload(std::size_t depth) {
  admission_depth_.store(depth, std::memory_order_relaxed);
  const std::size_t high =
      options_.admission_capacity - options_.admission_capacity / 4;
  const std::size_t low = options_.admission_capacity / 4;
  if (depth >= high) {
    overloaded_.store(true, std::memory_order_release);
  } else if (depth <= low) {
    overloaded_.store(false, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Introspection

EventBusServerStats EventBusServer::stats() const {
  EventBusServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_sessions = rejected_sessions_.load(std::memory_order_relaxed);
  s.superseded_sessions =
      superseded_sessions_.load(std::memory_order_relaxed);
  s.notifies_received = notifies_received_.load(std::memory_order_relaxed);
  s.dispatched = dispatched_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  s.slow_consumer_disconnects =
      slow_consumer_disconnects_.load(std::memory_order_relaxed);
  s.idle_disconnects = idle_disconnects_.load(std::memory_order_relaxed);
  s.pushes_sent = pushes_sent_.load(std::memory_order_relaxed);
  s.pings_sent = pings_sent_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.admission_peak = admission_peak_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_acquire);
  s.rtt_samples = rtt_samples_.load(std::memory_order_relaxed);
  s.rtt_us = rtt_us_.TakeSnapshot();
  s.e2e_delivery_ns = e2e_delivery_ns_.TakeSnapshot();
  s.e2e_detect_ns = e2e_detect_ns_.TakeSnapshot();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.open_sessions = sessions_.size();
    for (const auto& [id, session] : sessions_) {
      s.outbound_queued_bytes += session->out_bytes;
    }
  }
  s.admission_depth = admission_depth_.load(std::memory_order_relaxed);
  return s;
}

std::vector<SessionClockStats> EventBusServer::SessionClocks() const {
  std::vector<SessionClockStats> out;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    if (session->doomed) continue;
    SessionClockStats c;
    c.session_id = id;
    c.app = session->app_name;
    c.clock_offset_us =
        session->clock_offset_ns.load(std::memory_order_relaxed) / 1000;
    c.rtt_us = session->rtt_us.TakeSnapshot();
    out.push_back(std::move(c));
  }
  return out;
}

void EventBusServer::WritePrometheus(obs::PromWriter& p) const {
  const EventBusServerStats n = stats();
  p.Counter("sentinel_net_accepted_total",
            "Connections accepted by the event-bus server.", {}, n.accepted);
  p.Counter("sentinel_net_rejected_sessions_total",
            "Connections refused at the session limit.", {},
            n.rejected_sessions);
  p.Counter("sentinel_net_superseded_sessions_total",
            "Sessions superseded by a reconnect of the same application.", {},
            n.superseded_sessions);
  p.Gauge("sentinel_net_open_sessions", "Open event-bus sessions.", {},
          n.open_sessions);
  p.Counter("sentinel_net_notifies_received_total",
            "NOTIFY frames decoded by the event-bus server.", {},
            n.notifies_received);
  p.Counter("sentinel_net_dispatched_total",
            "Occurrences handed from the admission queue to the GED.", {},
            n.dispatched);
  p.Counter("sentinel_net_sheds_total",
            "NOTIFY frames shed by admission control (RETRY_LATER).", {},
            n.sheds);
  p.Counter("sentinel_net_frame_errors_total",
            "Framing/CRC violations observed on client streams.", {},
            n.frame_errors);
  p.Counter("sentinel_net_slow_consumer_disconnects_total",
            "Sessions dropped for exceeding their outbound byte budget.", {},
            n.slow_consumer_disconnects);
  p.Counter("sentinel_net_idle_disconnects_total",
            "Sessions reaped by the idle/heartbeat timeout.", {},
            n.idle_disconnects);
  p.Counter("sentinel_net_pushes_sent_total",
            "EVENT_PUSH frames queued to subscribers.", {}, n.pushes_sent);
  p.Counter("sentinel_net_pings_sent_total",
            "Heartbeat PING frames sent to sessions.", {}, n.pings_sent);
  p.Counter("sentinel_net_bytes_in_total",
            "Bytes received by the event-bus server.", {}, n.bytes_in);
  p.Counter("sentinel_net_bytes_out_total",
            "Bytes sent by the event-bus server.", {}, n.bytes_out);
  p.Gauge("sentinel_net_admission_depth", "Admission-control queue depth.",
          {}, n.admission_depth);
  p.Gauge("sentinel_net_admission_peak",
          "Deepest the admission queue has been.", {}, n.admission_peak);
  p.Gauge("sentinel_net_outbound_queued_bytes",
          "Bytes queued across all session outbound buffers.", {},
          n.outbound_queued_bytes);
  p.Gauge("sentinel_net_overloaded",
          "1 while the admission queue sits past its high-water mark.", {},
          n.overloaded ? 1 : 0);
  // Always-on end-to-end latency (client origin stamp → server-side
  // milestone; wall clock, so cross-host skew shows up here, not in the
  // steady-clock trace export).
  p.Histogram("sentinel_net_e2e_delivery_ns",
              "Origin-stamped occurrence to GED dispatch (ns).", {},
              n.e2e_delivery_ns);
  p.Histogram("sentinel_net_e2e_detect_ns",
              "Origin-stamped occurrence to global detection push (ns).", {},
              n.e2e_detect_ns);
  p.Counter("sentinel_net_rtt_samples_total",
            "Heartbeat round-trip samples collected.", {}, n.rtt_samples);
  p.Histogram("sentinel_net_rtt_us",
              "Heartbeat round-trip time across all sessions (us).", {},
              n.rtt_us);
  for (const SessionClockStats& sc : SessionClocks()) {
    const obs::PromWriter::Labels labels = {
        {"app", sc.app}, {"session", std::to_string(sc.session_id)}};
    p.Histogram("sentinel_net_session_rtt_us",
                "Heartbeat round-trip time per session (us).", labels,
                sc.rtt_us);
    p.GaugeF("sentinel_net_clock_offset_us",
             "EWMA steady-clock offset of the client vs this server (us; "
             "may be negative).",
             labels, static_cast<double>(sc.clock_offset_us));
  }
}

}  // namespace sentinel::net
