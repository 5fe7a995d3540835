#ifndef SENTINEL_NET_EVENT_BUS_SERVER_H_
#define SENTINEL_NET_EVENT_BUS_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "detector/event_types.h"
#include "ged/global_detector.h"
#include "net/protocol.h"
#include "net/socket_util.h"
#include "obs/metrics.h"

namespace sentinel::obs {
class PromWriter;
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::net {

/// Per-session heartbeat timing (DESIGN.md §14): RTT histogram in
/// MICROseconds plus the EWMA-smoothed steady-clock offset of the peer
/// relative to this server (positive = peer's steady clock is ahead).
struct SessionClockStats {
  std::uint64_t session_id = 0;
  std::string app;
  std::int64_t clock_offset_us = 0;
  obs::LatencyHistogram::Snapshot rtt_us;
};

/// Counter/gauge snapshot of the event-bus server (the sentinel_net_*
/// Prometheus families). Counters are cumulative since Start.
struct EventBusServerStats {
  std::uint64_t accepted = 0;            // connections accepted
  std::uint64_t rejected_sessions = 0;   // refused at the session limit
  std::uint64_t superseded_sessions = 0; // kicked by a reconnect of same app
  std::uint64_t open_sessions = 0;       // gauge
  std::uint64_t notifies_received = 0;   // NOTIFY frames decoded
  std::uint64_t dispatched = 0;          // occurrences injected into the GED
  std::uint64_t sheds = 0;               // notifies dropped by admission ctl
  std::uint64_t frame_errors = 0;        // framing/CRC violations observed
  std::uint64_t slow_consumer_disconnects = 0;
  std::uint64_t idle_disconnects = 0;
  std::uint64_t pushes_sent = 0;         // EVENT_PUSH frames queued
  std::uint64_t pings_sent = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t admission_depth = 0;     // gauge: admitted, not yet injected
  std::uint64_t admission_peak = 0;
  std::uint64_t outbound_queued_bytes = 0;  // gauge, summed over sessions
  bool overloaded = false;               // admission batch past high water
  std::uint64_t rtt_samples = 0;         // timed pongs folded into rtt_us
  /// Heartbeat round trips, aggregated over all sessions (µs buckets; the
  /// per-session split lives in SessionClocks()).
  obs::LatencyHistogram::Snapshot rtt_us;
  /// End-to-end latency (ns), measured against the ORIGINATING client's
  /// wall-clock Notify timestamp: at GED dispatch, and at global detection
  /// (the moment a push is cut). Always on — origin stamps ride the wire
  /// even with tracing off.
  obs::LatencyHistogram::Snapshot e2e_delivery_ns;
  obs::LatencyHistogram::Snapshot e2e_detect_ns;
};

/// TCP front end that turns a GlobalEventDetector into a multi-client
/// daemon: remote applications register, declare global primitives, stream
/// Notify frames in, and subscribe to server-pushed global detections —
/// the paper's Fig. 2 arrows carried over the socket transport it left as
/// future work.
///
/// Robustness contract (DESIGN.md §12):
///   - every queue is bounded: admission sheds NOTIFY traffic with a typed
///     RETRY_LATER verdict instead of growing, and a session whose kernel
///     buffer refused bytes while its outbound queue exceeds the byte budget
///     is disconnected as a slow consumer rather than wedging the push path;
///   - sessions are limited (connection admission) and heartbeated: a peer
///     that stops responding is reaped by the idle timeout;
///   - a framing violation (bad magic, CRC mismatch, oversized length)
///     drops that connection only — the daemon itself never trusts a byte
///     it has not validated;
///   - overload is observable: `overloaded()` flips when the admission
///     batch passes its high-water mark (3/4, clearing at 1/4) and feeds
///     the health watchdog, so /healthz reports degraded while the server
///     sheds instead of the process dying.
///
/// Threads: one poll-based I/O thread owns every socket and runs each poll
/// iteration to completion: it decodes every ready session's frames into
/// the admission batch, injects the batch into the GED itself
/// (GlobalEventDetector::InjectRemote), so push sinks run on this thread,
/// and gives each session with queued output one send of up to 64 KiB (one
/// the poll found unwritable waits for POLLOUT). Injections past a 10 ms
/// budget wait for the next iteration, whose reads shed against them.
/// Loopback detections run their sinks on the GED bus thread, which wakes
/// the I/O thread.
class EventBusServer {
 public:
  struct Options {
    /// 127.0.0.1 port; 0 picks an ephemeral port (tests).
    int port = 0;
    std::size_t max_sessions = 64;
    /// Bound on the occurrences decoded but not yet injected. Past 3/4 the
    /// server is `overloaded()`; at capacity NOTIFY traffic sheds with
    /// RETRY_LATER.
    std::size_t admission_capacity = 1024;
    /// Per-session outbound byte budget; a session still past it after the
    /// kernel refused its bytes is dropped as a slow consumer.
    std::size_t outbound_max_bytes = 256 * 1024;
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    std::chrono::milliseconds heartbeat_interval{2000};
    std::chrono::milliseconds idle_timeout{10000};
    /// Advisory backoff carried in RETRY_LATER shed notices.
    std::uint32_t retry_after_ms = 50;
  };

  /// `ged` must outlive the server and stay un-shut-down while it runs.
  explicit EventBusServer(ged::GlobalEventDetector* ged);
  ~EventBusServer();

  EventBusServer(const EventBusServer&) = delete;
  EventBusServer& operator=(const EventBusServer&) = delete;

  Status Start(const Options& options);
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port after a successful Start (resolves ephemeral requests).
  int port() const { return port_.load(std::memory_order_acquire); }
  /// True while the admission batch sits past its high-water mark — the
  /// watchdog turns this into a degraded /healthz verdict.
  bool overloaded() const {
    return overloaded_.load(std::memory_order_acquire);
  }
  std::size_t session_count() const;

  EventBusServerStats stats() const;
  /// Appends the sentinel_net_* families (including the per-session RTT and
  /// clock-offset series) to a /metrics exposition.
  void WritePrometheus(obs::PromWriter& p) const;

  /// Heartbeat timing per live session (the /metrics per-session RTT/offset
  /// series).
  std::vector<SessionClockStats> SessionClocks() const;

  /// Attaches the causal span tracer: the I/O thread records kNet* spans
  /// (frame decode, admission wait, outbound wait, socket write) and
  /// push-encode spans adopt the remote trace context. May be set at any
  /// time; nullptr detaches.
  void set_span_tracer(obs::SpanTracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

 private:
  struct Session;
  class PushSink;

  /// One admitted NOTIFY waiting in the admission batch. Carries
  /// the decode span id so the admission-wait span (recorded at injection)
  /// parents into the decode span, and the admission timestamp that wait is
  /// measured from.
  struct AdmissionItem {
    std::string app;
    detector::PrimitiveOccurrence occ;
    std::uint64_t enqueued_ns = 0;
    std::uint64_t decode_span = 0;
  };

  /// One encoded frame in a session's outbound queue. The trace linkage
  /// lets the outbound-wait span (recorded when the frame finishes
  /// flushing) hang off the push-encode span that produced it.
  struct OutFrame {
    std::string bytes;
    std::uint64_t enqueued_ns = 0;
    std::uint64_t trace = 0;
    std::uint64_t parent_span = 0;
    bool is_push = false;
  };

  void IoLoop();
  /// Injects admitted occurrences into the GED, oldest first, until none is
  /// left or the iteration's dispatch budget is spent.
  void DispatchAdmitted();

  void AcceptPending();
  void ReadSession(const std::shared_ptr<Session>& session);
  /// One send of the session's queued frames, concatenated up to 64 KiB,
  /// when the socket is `writable`. A session whose kernel buffer refused
  /// bytes (a short send, or an unwritable socket) and whose queue still
  /// exceeds its byte budget is dropped as a slow consumer.
  void FlushSession(const std::shared_ptr<Session>& session, bool writable);
  void HandleFrame(const std::shared_ptr<Session>& session,
                   FrameAssembler::Frame& frame);
  void HandleHello(const std::shared_ptr<Session>& session,
                   const HelloMsg& msg);
  void HandleNotify(const std::shared_ptr<Session>& session,
                    BytesReader* body, std::uint16_t flags);
  void HandlePong(const std::shared_ptr<Session>& session, BytesReader* body);
  /// Appends a frame to the session's outbound queue (its byte budget is
  /// judged at the next flush). Safe from any thread; off the I/O thread it
  /// wakes the poll so the frame is flushed. `trace`/`parent_span` annotate
  /// the outbound-wait span.
  void EnqueueFrame(const std::shared_ptr<Session>& session,
                    std::string frame, bool is_push,
                    std::uint64_t trace = 0, std::uint64_t parent_span = 0);
  void Reply(const std::shared_ptr<Session>& session, std::uint32_t seq,
             WireCode code, std::uint32_t retry_after_ms,
             const std::string& message);
  void Doom(const std::shared_ptr<Session>& session, const std::string& why);
  bool IsDoomed(const std::shared_ptr<Session>& session) const;
  /// Publishes the admission depth. Hysteresis: overloaded_ sets at 3/4 of
  /// admission capacity, clears at 1/4 — so the health verdict doesn't flap
  /// at the boundary.
  void UpdateOverload(std::size_t depth);
  void CheckTimers(std::uint64_t now_ns);
  void ReapDoomed();
  /// Tears down GED-side state (subscriptions, app registration) of a
  /// session being closed. Must be called WITHOUT sessions_mu_ held.
  void DetachFromGed(Session& session);

  ged::GlobalEventDetector* const ged_;
  Options options_;

  int listen_fd_ = -1;
  WakePipe wake_;
  std::mutex lifecycle_mu_;  // serializes Start/Stop (and the joins)
  std::thread io_thread_;
  std::atomic<std::thread::id> io_thread_id_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{0};

  // Sessions. sessions_mu_ guards the map and each session's outbound
  // queue + doom flag (the only fields other threads touch); everything
  // else in a Session belongs to the I/O thread.
  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;

  // I/O-thread-owned: occurrences decoded but not yet injected (bounded by
  // Options::admission_capacity) and the scratch buffer FlushSession
  // concatenates frames into.
  std::deque<AdmissionItem> admitted_;
  std::string write_buf_;

  std::atomic<std::size_t> admission_depth_{0};
  std::atomic<bool> overloaded_{false};

  std::atomic<obs::SpanTracer*> tracer_{nullptr};

  // Always-on latency layer (see EventBusServerStats).
  obs::LatencyHistogram rtt_us_;  // aggregate; per-session copies in Session
  std::atomic<std::uint64_t> rtt_samples_{0};
  obs::LatencyHistogram e2e_delivery_ns_;
  obs::LatencyHistogram e2e_detect_ns_;

  // Counters (relaxed; snapshotted by stats()).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_sessions_{0};
  std::atomic<std::uint64_t> superseded_sessions_{0};
  std::atomic<std::uint64_t> notifies_received_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> slow_consumer_disconnects_{0};
  std::atomic<std::uint64_t> idle_disconnects_{0};
  std::atomic<std::uint64_t> pushes_sent_{0};
  std::atomic<std::uint64_t> pings_sent_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> admission_peak_{0};
};

}  // namespace sentinel::net

#endif  // SENTINEL_NET_EVENT_BUS_SERVER_H_
