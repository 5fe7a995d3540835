#ifndef SENTINEL_NET_REMOTE_CLIENT_H_
#define SENTINEL_NET_REMOTE_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "detector/event_types.h"
#include "detector/local_detector.h"
#include "net/protocol.h"
#include "net/socket_util.h"
#include "obs/metrics.h"

namespace sentinel::obs {
class PromWriter;
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::net {

/// Client side of the GED event bus: connects an application process to a
/// remote net::EventBusServer, registers its name, declares global
/// primitives, streams Notify frames, and receives server-pushed global
/// detections.
///
/// Robustness contract (DESIGN.md §12):
///   - the send buffer is bounded: Notify never blocks the caller; when the
///     buffer is full the *oldest* queued event is dropped (and counted), so
///     a dead or slow server costs bounded memory, not a wedged app thread;
///   - a lost connection is re-dialed with exponential backoff plus
///     deterministic jitter, and the session is rebuilt idempotently: the
///     client replays its journal of acknowledged Hello/Define/Subscribe
///     requests, which the server accepts as no-ops if state survived;
///   - delivery is **at-most-once**, end to end. An event is sent exactly
///     once or dropped (queue overflow, connection loss with frames in
///     flight, server-side shed). Nothing is retransmitted, so a detection
///     can be missed but never double-fired — the right default for ECA
///     rules with irreversible actions; and
///   - a server RETRY_LATER shed notice pauses the notify stream for the
///     advertised backoff instead of hammering an overloaded daemon.
///
/// One worker thread owns the socket. Control calls (Define/Subscribe)
/// block the caller until the server's ack or `request_timeout`; Notify is
/// fire-and-forget. Push handlers run on the worker thread and must not
/// call back into blocking client methods.
class RemoteGedClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    /// Application name registered with the GED (must be unique per server).
    std::string app_name;
    /// Bounded send buffer, in frames; overflowing drops the oldest.
    std::size_t notify_queue_limit = 1024;
    std::chrono::milliseconds request_timeout{2000};
    std::chrono::milliseconds backoff_base{50};
    std::chrono::milliseconds backoff_max{2000};
    /// Seed for the deterministic backoff jitter (tests pin it).
    std::uint64_t jitter_seed = 0x5eed;
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Client-side heartbeat cadence: each ping's pong yields an RTT and a
    /// clock-offset sample for this process's trace export. 0 disables.
    std::chrono::milliseconds ping_interval{1000};
  };

  struct Stats {
    std::uint64_t connect_attempts = 0;
    std::uint64_t sessions_established = 0;  // Hello acked (1 + reconnects)
    std::uint64_t disconnects = 0;
    std::uint64_t notifies_sent = 0;
    std::uint64_t notifies_dropped = 0;  // bounded-buffer overflow
    std::uint64_t pushes_received = 0;
    std::uint64_t sheds_received = 0;    // server RETRY_LATER notices
    std::uint64_t journal_replays = 0;   // entries re-sent after reconnect
    bool connected = false;              // Hello acked on the live socket
    std::uint64_t rtt_samples = 0;
    /// EWMA steady-clock offset of the SERVER relative to this client
    /// (positive = server's steady clock is ahead); feeds the trace
    /// export's clock_offset_ns so merge_traces.py can align timelines.
    std::int64_t clock_offset_us = 0;
    obs::LatencyHistogram::Snapshot rtt_us;
    /// Always-on e2e: origin-stamp → push-handler completion (ns). For a
    /// single client this closes the loop notify → global detect → action.
    obs::LatencyHistogram::Snapshot e2e_action_ns;
  };

  using PushHandler = std::function<void(const std::string& event,
                                         const detector::Occurrence&)>;

  explicit RemoteGedClient(Options options);
  ~RemoteGedClient();

  RemoteGedClient(const RemoteGedClient&) = delete;
  RemoteGedClient& operator=(const RemoteGedClient&) = delete;

  /// Spawns the worker and starts dialing. Returns immediately; use
  /// WaitConnected to block until the session is established.
  Status Start();
  void Stop();

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  /// Blocks until the session is registered or the timeout expires.
  bool WaitConnected(std::chrono::milliseconds timeout);
  /// Last connection-level error, for diagnostics ("" if none).
  std::string last_error() const;

  /// Declares a global primitive mirroring this application's local
  /// primitive. Blocks for the server ack; journaled for replay on
  /// reconnect once acknowledged.
  Status DefineGlobalPrimitive(const std::string& name,
                               const std::string& class_name,
                               detector::EventModifier modifier,
                               const std::string& method_signature);

  /// Subscribes to a global event; detections arrive on the worker thread
  /// via `handler`. One handler per event (a second Subscribe for the same
  /// event replaces it locally and is a server-side no-op).
  Status Subscribe(const std::string& event, detector::ParamContext context,
                   PushHandler handler);

  /// Queues one occurrence for the server (fire-and-forget, at-most-once).
  /// Fails only when the client is stopped; backpressure shows up as
  /// `notifies_dropped`, never as blocking.
  Status Notify(const detector::PrimitiveOccurrence& occurrence);

  /// Convenience: builds and queues a method-interface occurrence.
  Status NotifyMethod(const std::string& class_name, std::uint64_t oid,
                      detector::EventModifier modifier,
                      const std::string& method_signature,
                      std::shared_ptr<detector::ParamList> params,
                      storage::TxnId txn);

  /// Forwards every raw primitive occurrence of `det` to the server — the
  /// remote analogue of GlobalEventDetector::RegisterApplication. The
  /// observer hook has no removal path, so `det` must not signal events
  /// after this client is destroyed.
  void BindLocalDetector(detector::LocalEventDetector* det);

  Stats stats() const;
  /// Appends the sentinel_net_client_* families to a /metrics exposition.
  void WritePrometheus(obs::PromWriter& p) const;

  /// Attaches the causal span tracer: Notify opens a frame-encode span
  /// whose id crosses the wire as the server's remote parent, and pushes
  /// open a frame-decode span that adopts the server's trace context so
  /// handler-side condition/action spans join the originating tree.
  void set_span_tracer(obs::SpanTracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// Smoothed steady-clock offset of the server relative to this process
  /// (ns); pass it as ExportMeta::clock_offset_ns when exporting this
  /// process's trace with the server as the reference timeline.
  std::int64_t clock_offset_ns() const {
    return clock_offset_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    bool done = false;
    Status result = Status::OK();
    bool internal = false;  // journal replay; nobody is waiting
  };
  struct JournalEntry {
    enum class Kind { kDefine, kSubscribe } kind;
    DefinePrimitiveMsg define;  // kDefine
    SubscribeMsg subscribe;     // kSubscribe
  };

  void WorkerLoop();
  /// One connected session: pumps frames until error/stop. Returns the
  /// reason the session ended.
  std::string StreamLoop(int fd);
  void CompletePending(std::uint32_t seq, Status result);
  void FailAllPending(const std::string& why);
  /// Blocks the calling application thread until `seq` completes.
  Status AwaitReply(std::uint32_t seq);
  void EnqueueControlLocked(std::string frame);
  void ReplayJournalLocked();
  /// Interruptible exponential-backoff sleep; returns false when stopping.
  bool BackoffSleep();

  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;         // app threads: pending completions
  std::condition_variable worker_cv_;  // worker: backoff sleep interrupt
  bool stop_ = false;
  bool started_ = false;
  std::deque<std::string> control_out_;  // encoded frames, send-first
  std::deque<std::string> notify_out_;   // encoded frames, bounded
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_seq_ = 1;
  std::vector<JournalEntry> journal_;
  std::map<std::string, PushHandler> handlers_;
  std::uint64_t backoff_attempt_ = 0;
  std::uint64_t jitter_state_ = 0;
  std::uint64_t pause_until_ns_ = 0;  // RETRY_LATER notify-stream pause
  std::string last_error_;

  std::atomic<bool> connected_{false};
  WakePipe wake_;
  std::thread worker_;

  std::atomic<std::uint64_t> connect_attempts_{0};
  std::atomic<std::uint64_t> sessions_established_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> notifies_sent_{0};
  std::atomic<std::uint64_t> notifies_dropped_{0};
  std::atomic<std::uint64_t> pushes_received_{0};
  std::atomic<std::uint64_t> sheds_received_{0};
  std::atomic<std::uint64_t> journal_replays_{0};

  // Tracing + heartbeat timing (DESIGN.md §14). EWMA state is worker-only;
  // the histograms/atomics are scraped from app threads.
  std::atomic<obs::SpanTracer*> tracer_{nullptr};
  obs::LatencyHistogram rtt_us_;
  obs::LatencyHistogram e2e_action_ns_;
  std::atomic<std::uint64_t> rtt_samples_{0};
  std::atomic<std::int64_t> clock_offset_ns_{0};
  std::int64_t offset_ewma_ns_ = 0;  // worker thread only
  bool offset_primed_ = false;       // worker thread only
  std::atomic<std::uint64_t> trace_counter_{0};
  std::uint64_t trace_seed_ = 0;  // set once in Start()
};

}  // namespace sentinel::net

#endif  // SENTINEL_NET_REMOTE_CLIENT_H_
