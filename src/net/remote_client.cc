#include "net/remote_client.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>

#include "common/logging.h"
#include "obs/prometheus.h"
#include "obs/span.h"

namespace sentinel::net {

namespace {

constexpr auto NowNs = &obs::SpanTracer::NowNs;

}  // namespace

RemoteGedClient::RemoteGedClient(Options options)
    : options_(std::move(options)) {}

RemoteGedClient::~RemoteGedClient() { Stop(); }

Status RemoteGedClient::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::InvalidArgument("client already started");
    if (options_.app_name.empty()) {
      return Status::InvalidArgument("app_name is required");
    }
  }
  IgnoreSigpipe();
  SENTINEL_RETURN_NOT_OK(wake_.Open());
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stop_ = false;
    backoff_attempt_ = 0;
    jitter_state_ = options_.jitter_seed | 1;  // LCG state must be nonzero
    // Trace ids must be distinct across processes: mix the app name with
    // the wall clock at start, then count.
    trace_seed_ = std::hash<std::string>{}(options_.app_name) ^ WallNs();
  }
  worker_ = std::thread([this] { WorkerLoop(); });
  return Status::OK();
}

void RemoteGedClient::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  worker_cv_.notify_all();
  cv_.notify_all();
  wake_.Signal();
  if (worker_.joinable()) worker_.join();
  connected_.store(false, std::memory_order_release);
  wake_.Close();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

bool RemoteGedClient::WaitConnected(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [this] {
    return stop_ || connected_.load(std::memory_order_acquire);
  });
  return connected_.load(std::memory_order_acquire);
}

std::string RemoteGedClient::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

// ---------------------------------------------------------------------------
// Application-thread API

Status RemoteGedClient::DefineGlobalPrimitive(
    const std::string& name, const std::string& class_name,
    detector::EventModifier modifier, const std::string& method_signature) {
  DefinePrimitiveMsg msg;
  msg.name = name;
  msg.app_name = options_.app_name;
  msg.class_name = class_name;
  msg.modifier = modifier;
  msg.method_signature = method_signature;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) return Status::IOError("client not running");
    msg.seq = next_seq_++;
    pending_[msg.seq] = Pending{};
    EnqueueControlLocked(msg.Encode());
  }
  wake_.Signal();
  Status st = AwaitReply(msg.seq);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::kDefine;
    entry.define = msg;
    journal_.push_back(std::move(entry));
  }
  return st;
}

Status RemoteGedClient::Subscribe(const std::string& event,
                                  detector::ParamContext context,
                                  PushHandler handler) {
  SubscribeMsg msg;
  msg.event = event;
  msg.context = context;
  PushHandler previous;
  bool had_previous = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) return Status::IOError("client not running");
    msg.seq = next_seq_++;
    pending_[msg.seq] = Pending{};
    // Install the handler before the frame goes out: the server activates
    // the subscription before its ack reaches us, so a push racing the ack
    // must already find a handler or it is silently dropped.
    auto it = handlers_.find(event);
    if (it != handlers_.end()) {
      had_previous = true;
      previous = it->second;
    }
    handlers_[event] = std::move(handler);
    EnqueueControlLocked(msg.Encode());
  }
  wake_.Signal();
  Status st = AwaitReply(msg.seq);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (st.ok()) {
      JournalEntry entry;
      entry.kind = JournalEntry::Kind::kSubscribe;
      entry.subscribe = msg;
      journal_.push_back(std::move(entry));
    } else if (had_previous) {
      handlers_[event] = std::move(previous);
    } else {
      handlers_.erase(event);
    }
  }
  return st;
}

Status RemoteGedClient::Notify(
    const detector::PrimitiveOccurrence& occurrence) {
  // Always-on e2e anchor: stamp the origin here (wall clock), unless the
  // caller already carries one (an occurrence relayed from elsewhere).
  TraceContext tc;
  tc.origin_ns =
      occurrence.origin_ns != 0 ? occurrence.origin_ns : WallNs();
  // Frame-encode span: the client-side root of the wire hop. Its id rides
  // the trailer as the server decode span's remote parent; its own parent
  // resolves locally (scope stack / open-txn anchor), hanging the whole
  // remote chain off the originating transaction.
  obs::SpanScope encode_span;
  obs::SpanTracer* st = tracer_.load(std::memory_order_acquire);
  if (st != nullptr && st->enabled_for(obs::SpanKind::kNetFrameEncode)) {
    tc.trace_id = occurrence.trace_id != 0
                      ? occurrence.trace_id
                      : trace_seed_ * 0x9E3779B97F4A7C15ull +
                            trace_counter_.fetch_add(
                                1, std::memory_order_relaxed) +
                            1;
    if (tc.trace_id == 0) tc.trace_id = 1;
    encode_span.Start(st, obs::SpanKind::kNetFrameEncode, occurrence.txn,
                      "notify " + occurrence.class_name + "::" +
                          occurrence.method_signature);
    encode_span.AnnotateRemote(tc.trace_id, 0);
    tc.parent_span = encode_span.id();
  }
  BytesWriter body;
  EncodeOccurrence(occurrence, &body);
  // The trailer is ALWAYS appended (origin stamps power the server's e2e
  // histograms even with tracing off); trace_id/parent are zero then.
  AppendTraceContext(tc, &body);
  std::string frame =
      EncodeFrame(MessageType::kNotify, body, kFlagTraceContext);
  encode_span.End();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) return Status::IOError("client not running");
    if (notify_out_.size() >= options_.notify_queue_limit) {
      // Bounded send buffer: shed the *oldest* event — at-most-once says
      // drop, and recent events are worth more to composite detection.
      notify_out_.pop_front();
      notifies_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    notify_out_.push_back(std::move(frame));
  }
  wake_.Signal();
  return Status::OK();
}

Status RemoteGedClient::NotifyMethod(
    const std::string& class_name, std::uint64_t oid,
    detector::EventModifier modifier, const std::string& method_signature,
    std::shared_ptr<detector::ParamList> params, storage::TxnId txn) {
  detector::PrimitiveOccurrence occ;
  occ.class_name = class_name;
  occ.oid = oid;
  occ.modifier = modifier;
  occ.method_signature = method_signature;
  occ.params = std::move(params);
  occ.txn = txn;
  occ.at = 0;  // the GED re-stamps on bus arrival
  occ.at_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return Notify(occ);
}

void RemoteGedClient::BindLocalDetector(detector::LocalEventDetector* det) {
  det->AddRawObserver([this](const detector::PrimitiveOccurrence& occ) {
    (void)Notify(occ);
  });
}

// ---------------------------------------------------------------------------
// Worker thread

void RemoteGedClient::WorkerLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    connect_attempts_.fetch_add(1, std::memory_order_relaxed);
    auto fd_result = ConnectTcp(options_.host, options_.port);
    if (!fd_result.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        last_error_ = fd_result.status().ToString();
      }
      if (!BackoffSleep()) return;
      continue;
    }
    const int fd = *fd_result;
    SetNonBlocking(fd);
    SetNoDelay(fd);
    std::string why = StreamLoop(fd);
    CloseQuietly(fd);
    if (connected_.exchange(false, std::memory_order_acq_rel)) {
      disconnects_.fetch_add(1, std::memory_order_relaxed);
    }
    FailAllPending(why);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_error_ = why;
      if (stop_) return;
    }
    SENTINEL_LOG(kInfo) << "remote GED session ended (" << why
                        << "); reconnecting with backoff";
    if (!BackoffSleep()) return;
  }
}

std::string RemoteGedClient::StreamLoop(int fd) {
  FrameAssembler assembler(options_.max_frame_bytes);
  std::string wire;  // bytes staged for the socket
  std::size_t wire_off = 0;
  bool registered = false;
  std::uint32_t hello_seq = 0;
  {
    // The Hello goes out ahead of anything queued; TCP ordering then
    // guarantees the server sees registration before any control frame
    // that was waiting while we were disconnected.
    std::lock_guard<std::mutex> lock(mu_);
    hello_seq = next_seq_++;
    HelloMsg hello;
    hello.seq = hello_seq;
    hello.app_name = options_.app_name;
    wire = hello.Encode();
  }
  const std::uint64_t ping_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.ping_interval)
          .count());
  std::uint64_t last_ping_ns = NowNs();
  for (;;) {
    // Compact the flushed prefix *before* staging: under sustained traffic
    // the queues are never empty, so waiting for a full drain would let the
    // prefix — every byte ever sent — accumulate without bound.
    if (wire_off == wire.size()) {
      wire.clear();
      wire_off = 0;
    } else if (wire_off >= 64 * 1024) {
      wire.erase(0, wire_off);
      wire_off = 0;
    }
    // Client-side heartbeat: unlike the server's quiet-wire liveness probe,
    // these pings exist for their pongs — each one is an RTT + clock-offset
    // sample feeding this process's trace export.
    if (registered && ping_ns > 0 && NowNs() - last_ping_ns >= ping_ns) {
      last_ping_ns = NowNs();
      wire += EncodePing(last_ping_ns);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return "client stopping";
      // Stage outbound bytes: control first; notifies only once the
      // session is registered and not paused by a shed notice.
      const std::uint64_t now = NowNs();
      while (wire.size() - wire_off < 64 * 1024) {
        if (!control_out_.empty()) {
          wire += control_out_.front();
          control_out_.pop_front();
        } else if (registered && now >= pause_until_ns_ &&
                   !notify_out_.empty()) {
          wire += notify_out_.front();
          notify_out_.pop_front();
          notifies_sent_.fetch_add(1, std::memory_order_relaxed);
        } else {
          break;
        }
      }
    }
    pollfd pfds[2];
    pfds[0] = pollfd{wake_.read_fd(), POLLIN, 0};
    short events = POLLIN;
    if (wire.size() > wire_off) events |= POLLOUT;
    pfds[1] = pollfd{fd, events, 0};
    // 100ms cap so a shed pause expiring (or Stop) is noticed promptly.
    int rc = ::poll(pfds, 2, 100);
    if (rc < 0 && errno != EINTR) return "poll failed";
    if ((pfds[0].revents & POLLIN) != 0) wake_.Drain();
    if ((pfds[1].revents & POLLOUT) != 0 && wire.size() > wire_off) {
      IoResult r = SendSome(fd, wire.data() + wire_off,
                            wire.size() - wire_off, "net.client.write");
      if (r.kind == IoResult::Kind::kClosed) return "server closed connection";
      if (r.kind == IoResult::Kind::kError) {
        return "write failed: " + r.error;
      }
      if (r.kind == IoResult::Kind::kOk) wire_off += r.bytes;
    }
    if ((pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char buf[16 * 1024];
    for (;;) {
      IoResult r = RecvSome(fd, buf, sizeof(buf), "net.client.read");
      if (r.kind == IoResult::Kind::kWouldBlock) break;
      if (r.kind == IoResult::Kind::kClosed) return "server closed connection";
      if (r.kind == IoResult::Kind::kError) {
        return "read failed: " + r.error;
      }
      assembler.Feed(buf, r.bytes);
      for (;;) {
        FrameAssembler::Frame frame;
        auto more = assembler.Next(&frame);
        if (!more.ok()) {
          return "protocol error: " + more.status().ToString();
        }
        if (!*more) break;
        BytesReader reader(frame.body);
        switch (frame.type) {
          case MessageType::kStatusReply: {
            auto msg = StatusReplyMsg::Decode(&reader);
            if (!msg.ok()) {
              return "bad STATUS_REPLY: " + msg.status().ToString();
            }
            if (msg->seq == 0) {
              // Unsolicited shed notice: pause the notify stream for the
              // advertised backoff instead of hammering the server.
              sheds_received_.fetch_add(1, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(mu_);
              pause_until_ns_ =
                  NowNs() + static_cast<std::uint64_t>(msg->retry_after_ms) *
                                1'000'000ull;
            } else if (msg->seq == hello_seq) {
              if (msg->code != WireCode::kOk) {
                return "registration refused: " + msg->message;
              }
              registered = true;
              sessions_established_.fetch_add(1, std::memory_order_relaxed);
              {
                // connected_ flips under mu_: WaitConnected checks its
                // predicate with mu_ held, so a store outside the lock could
                // land between the check and the wait and the notify would
                // be missed for the full timeout.
                std::lock_guard<std::mutex> lock(mu_);
                backoff_attempt_ = 0;
                ReplayJournalLocked();
                connected_.store(true, std::memory_order_release);
              }
              cv_.notify_all();  // WaitConnected waiters
            } else {
              Status result = Status::OK();
              if (msg->code == WireCode::kRetryLater) {
                result = Status::RetryLater(msg->message.empty()
                                                ? "server asked to retry"
                                                : msg->message);
              } else if (msg->code != WireCode::kOk) {
                result = Status::Internal(msg->message.empty()
                                              ? "server refused request"
                                              : msg->message);
              }
              CompletePending(msg->seq, result);
            }
            break;
          }
          case MessageType::kEventPush: {
            auto msg = EventPushMsg::Decode(&reader, frame.flags);
            if (!msg.ok()) {
              return "bad EVENT_PUSH: " + msg.status().ToString();
            }
            pushes_received_.fetch_add(1, std::memory_order_relaxed);
            PushHandler handler;
            {
              std::lock_guard<std::mutex> lock(mu_);
              auto it = handlers_.find(msg->event);
              if (it != handlers_.end()) handler = it->second;
            }
            // The push-decode span adopts the server's trace context (its
            // push-encode span is the remote parent) and stays open across
            // the handler, so handler-raised condition/action/subtxn spans
            // parent into the originating cross-process tree.
            obs::SpanScope push_span;
            if (obs::SpanTracer* st =
                    tracer_.load(std::memory_order_acquire);
                st != nullptr &&
                st->enabled_for(obs::SpanKind::kNetFrameDecode)) {
              push_span.Start(st, obs::SpanKind::kNetFrameDecode,
                              msg->occurrence.txn, "push " + msg->event);
              if (msg->trace.trace_id != 0) {
                push_span.AnnotateRemote(msg->trace.trace_id,
                                         msg->trace.parent_span);
              }
            }
            if (handler) handler(msg->event, msg->occurrence);
            push_span.End();
            if (msg->trace.has_origin()) {
              const std::uint64_t now_wall = WallNs();
              if (now_wall > msg->trace.origin_ns) {
                e2e_action_ns_.Record(now_wall - msg->trace.origin_ns);
              }
            }
            break;
          }
          case MessageType::kPing: {
            // Echo the server's send time plus our steady clock so it can
            // sample RTT/offset for this session.
            const std::string pong =
                EncodePong(ReadPingT0(&reader), NowNs());
            std::lock_guard<std::mutex> lock(mu_);
            control_out_.push_back(pong);
            break;
          }
          case MessageType::kPong: {
            std::uint64_t t0 = 0;
            std::uint64_t t1 = 0;
            if (!ReadPongTimes(&reader, &t0, &t1)) break;  // old server
            const std::uint64_t t2 = NowNs();
            if (t2 <= t0) break;
            const std::uint64_t rtt_ns = t2 - t0;
            rtt_us_.Record(rtt_ns / 1000);
            rtt_samples_.fetch_add(1, std::memory_order_relaxed);
            // NTP-style sample of the server's steady clock minus ours,
            // EWMA-smoothed (alpha 1/8); exported with this process's
            // trace so merge_traces.py can shift it onto one timeline.
            const std::int64_t sample =
                static_cast<std::int64_t>(t1) -
                static_cast<std::int64_t>(t0 + rtt_ns / 2);
            if (!offset_primed_) {
              offset_primed_ = true;
              offset_ewma_ns_ = sample;
            } else {
              offset_ewma_ns_ += (sample - offset_ewma_ns_) / 8;
            }
            clock_offset_ns_.store(offset_ewma_ns_,
                                   std::memory_order_relaxed);
            break;
          }
          case MessageType::kBye: {
            auto msg = ByeMsg::Decode(&reader);
            return "server closed session: " +
                   (msg.ok() ? msg->reason : std::string("<garbled>"));
          }
          default:
            return std::string("unexpected server frame: ") +
                   MessageTypeToString(frame.type);
        }
      }
      if (r.bytes < sizeof(buf)) break;  // short read: socket drained
    }
  }
}

void RemoteGedClient::CompletePending(std::uint32_t seq, Status result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // caller timed out and gave up
    if (it->second.internal) {
      if (!result.ok()) {
        SENTINEL_LOG(kWarn) << "journal replay entry refused: "
                            << result.ToString();
      }
      pending_.erase(it);
      return;
    }
    it->second.done = true;
    it->second.result = std::move(result);
  }
  cv_.notify_all();
}

void RemoteGedClient::FailAllPending(const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.internal) {
        it = pending_.erase(it);
        continue;
      }
      it->second.done = true;
      it->second.result = Status::IOError("connection lost: " + why);
      ++it;
    }
  }
  cv_.notify_all();
}

Status RemoteGedClient::AwaitReply(std::uint32_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, options_.request_timeout, [this, seq] {
    auto it = pending_.find(seq);
    return it == pending_.end() || it->second.done;
  });
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return Status::IOError("request slot vanished");
  }
  if (!it->second.done) {
    pending_.erase(it);
    return Status::IOError("request timed out");
  }
  Status st = std::move(it->second.result);
  pending_.erase(it);
  return st;
}

void RemoteGedClient::EnqueueControlLocked(std::string frame) {
  control_out_.push_back(std::move(frame));
}

void RemoteGedClient::ReplayJournalLocked() {
  for (const auto& entry : journal_) {
    const std::uint32_t seq = next_seq_++;
    if (entry.kind == JournalEntry::Kind::kDefine) {
      DefinePrimitiveMsg msg = entry.define;
      msg.seq = seq;
      control_out_.push_back(msg.Encode());
    } else {
      SubscribeMsg msg = entry.subscribe;
      msg.seq = seq;
      control_out_.push_back(msg.Encode());
    }
    Pending p;
    p.internal = true;
    pending_[seq] = p;
    journal_replays_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RemoteGedClient::BackoffSleep() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) return false;
  const std::uint64_t shift = std::min<std::uint64_t>(backoff_attempt_, 16);
  const std::uint64_t base =
      static_cast<std::uint64_t>(options_.backoff_base.count()) << shift;
  const std::uint64_t cap =
      static_cast<std::uint64_t>(options_.backoff_max.count());
  const std::uint64_t full = std::min(std::max<std::uint64_t>(base, 1), cap);
  // Deterministic jitter in [full/2, full): spreads reconnect storms while
  // keeping tests reproducible via Options::jitter_seed.
  jitter_state_ =
      jitter_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint64_t frac = (jitter_state_ >> 33) % 1000;
  const std::uint64_t sleep_ms = full / 2 + (full / 2 * frac) / 1000;
  ++backoff_attempt_;
  worker_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                      [this] { return stop_; });
  return !stop_;
}

// ---------------------------------------------------------------------------
// Introspection

RemoteGedClient::Stats RemoteGedClient::stats() const {
  Stats s;
  s.connect_attempts = connect_attempts_.load(std::memory_order_relaxed);
  s.sessions_established =
      sessions_established_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.notifies_sent = notifies_sent_.load(std::memory_order_relaxed);
  s.notifies_dropped = notifies_dropped_.load(std::memory_order_relaxed);
  s.pushes_received = pushes_received_.load(std::memory_order_relaxed);
  s.sheds_received = sheds_received_.load(std::memory_order_relaxed);
  s.journal_replays = journal_replays_.load(std::memory_order_relaxed);
  s.connected = connected_.load(std::memory_order_acquire);
  s.rtt_samples = rtt_samples_.load(std::memory_order_relaxed);
  s.clock_offset_us = clock_offset_ns_.load(std::memory_order_relaxed) / 1000;
  s.rtt_us = rtt_us_.TakeSnapshot();
  s.e2e_action_ns = e2e_action_ns_.TakeSnapshot();
  return s;
}

void RemoteGedClient::WritePrometheus(obs::PromWriter& p) const {
  const Stats c = stats();
  p.Gauge("sentinel_net_client_connected",
          "1 while the remote GED session is established.", {},
          c.connected ? 1 : 0);
  p.Counter("sentinel_net_client_connect_attempts_total",
            "Dial attempts (including reconnects).", {}, c.connect_attempts);
  p.Counter("sentinel_net_client_sessions_total",
            "Sessions successfully established.", {}, c.sessions_established);
  p.Counter("sentinel_net_client_disconnects_total",
            "Established sessions that ended.", {}, c.disconnects);
  p.Counter("sentinel_net_client_notifies_sent_total",
            "NOTIFY frames written to the wire.", {}, c.notifies_sent);
  p.Counter("sentinel_net_client_notifies_dropped_total",
            "Events dropped by the bounded send buffer.", {},
            c.notifies_dropped);
  p.Counter("sentinel_net_client_pushes_received_total",
            "EVENT_PUSH frames received.", {}, c.pushes_received);
  p.Counter("sentinel_net_client_sheds_received_total",
            "RETRY_LATER shed notices received.", {}, c.sheds_received);
  p.Counter("sentinel_net_client_journal_replays_total",
            "Journal entries replayed after reconnects.", {},
            c.journal_replays);
  p.Counter("sentinel_net_client_rtt_samples_total",
            "Heartbeat round-trip samples collected by the client.", {},
            c.rtt_samples);
  p.Histogram("sentinel_net_client_rtt_us",
              "Client-observed heartbeat round-trip time (us).", {}, c.rtt_us);
  p.GaugeF("sentinel_net_client_clock_offset_us",
           "EWMA steady-clock offset of the server vs this client (us; may "
           "be negative).",
           {}, static_cast<double>(c.clock_offset_us));
  p.Histogram("sentinel_net_client_e2e_action_ns",
              "Origin-stamped occurrence to push-handler completion (ns).", {},
              c.e2e_action_ns);
}

}  // namespace sentinel::net
