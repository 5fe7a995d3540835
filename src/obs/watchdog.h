#ifndef SENTINEL_OBS_WATCHDOG_H_
#define SENTINEL_OBS_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace sentinel::obs {

/// One instantaneous reading of the pipeline, taken by the watchdog's
/// sampler thread. Counters are cumulative (delta-since-baseline semantics:
/// the watchdog never resets a source counter — it subtracts ring entries);
/// gauges are point-in-time depths. The two latency histograms ship full
/// bucket snapshots so the watchdog can compute *windowed* quantiles by
/// bucket subtraction instead of being blinded by a single historical spike
/// in the cumulative distribution.
struct MonitorSample {
  std::uint64_t at_ns = 0;  // steady-clock timestamp of the reading

  // Cumulative counters.
  std::uint64_t notifications = 0;  // raw event notifications accepted
  std::uint64_t detections = 0;     // occurrences emitted by graph nodes
  std::uint64_t executed = 0;       // rule firings that ran to completion
  std::uint64_t failed = 0;         // contained rule failures
  std::uint64_t abort_top = 0;      // ABORT_TOP contingencies
  std::uint64_t deadlocks = 0;

  // Gauges.
  std::uint64_t sched_pending = 0;    // scheduler pending-queue depth
  std::uint64_t sched_detached = 0;   // detached-queue depth
  std::uint64_t open_txns = 0;        // open top-level transactions
  std::uint64_t active_subtxns = 0;   // rule subtransactions in flight
  std::uint64_t nested_waiters = 0;   // threads blocked in nested Acquire
  std::uint64_t lock_waiters = 0;     // txns blocked in the storage lock table
  std::uint64_t pool_resident = 0;    // buffer-pool resident pages
  std::uint64_t pool_dirty = 0;       // buffer-pool dirty pages
  std::uint64_t detector_buffered = 0;  // occurrences buffered in the graph

  bool wal_wedged = false;
  // WAL durability watermarks (group commit): appended - durable is the
  // async-commit backlog awaiting an fsync barrier.
  std::uint64_t wal_appended_lsn = 0;
  std::uint64_t wal_durable_lsn = 0;

  // Network plane (event-bus server; all zero when none is attached).
  std::uint64_t net_sessions = 0;         // open remote sessions (gauge)
  std::uint64_t net_admission_depth = 0;  // admission queue depth (gauge)
  std::uint64_t net_sheds = 0;            // cumulative shed notifies
  std::uint64_t net_frame_errors = 0;     // cumulative framing violations
  bool net_overloaded = false;            // admission past high-water mark

  // Cumulative latency distributions (windowed quantiles via subtraction).
  LatencyHistogram::Snapshot lock_wait;
  LatencyHistogram::Snapshot wal_fsync;
  /// End-to-end event latency at the server (origin-stamp → GED dispatch,
  /// ns; empty when no event-bus server is attached). Windowed p99 feeds
  /// the net_e2e stall predicate.
  LatencyHistogram::Snapshot net_e2e;
};

enum class HealthState : int { kHealthy = 0, kDegraded = 1, kUnhealthy = 2 };

const char* HealthStateToString(HealthState state);

/// Health watchdog: a sampler thread snapshots the pipeline counters every
/// `interval` into a fixed ring of readings, derives per-series rates
/// (events/s, firings/s, aborts/s) over the ring window, and evaluates
/// stall predicates:
///
///   - scheduler stall: the pending (or detached) queue holds work and has
///     not shrunk across `stall_samples` consecutive readings while the
///     executed counter did not move — the scheduler is wedged, not busy;
///   - lock pileup: more than `max_lock_waiters` transactions blocked in
///     the storage lock table, or the *windowed* lock-wait p99 above its
///     threshold;
///   - WAL latency: windowed fsync p99 above threshold (degraded), or the
///     log wedged by a torn append (unhealthy);
///   - detector buffer growth: buffered occurrences grew by more than
///     `buffer_growth_min` over the window with zero detections — contexts
///     are accumulating state no operator consumes.
///
/// Tripped predicates lift the health state to degraded/unhealthy; on each
/// upward transition the watchdog fires one rate-limited postmortem hook
/// (at most one per `postmortem_min_interval`), so the flight-recorder dump
/// captures the system while it is still wedged.
class Watchdog {
 public:
  struct Options {
    std::chrono::milliseconds interval{250};
    /// Ring capacity; rates and windowed quantiles span at most this many
    /// readings.
    std::size_t window = 16;
    /// Consecutive non-draining readings before a queue counts as stalled.
    std::size_t stall_samples = 4;
    std::uint64_t max_lock_waiters = 16;
    std::uint64_t lock_wait_p99_degraded_ns = 250ull * 1000 * 1000;
    std::uint64_t lock_wait_p99_unhealthy_ns = 1500ull * 1000 * 1000;
    std::uint64_t wal_fsync_p99_degraded_ns = 250ull * 1000 * 1000;
    /// Async-commit backlog (appended_lsn - durable_lsn) above which the
    /// group-commit thread is considered to be falling behind (degraded).
    std::uint64_t max_wal_durability_lag = 65536;
    /// Windowed end-to-end event-delivery p99 (client origin → GED
    /// dispatch) above which the network plane is degraded — the e2e SLO.
    std::uint64_t net_e2e_p99_degraded_ns = 1000ull * 1000 * 1000;
    std::uint64_t buffer_growth_min = 4096;
    std::chrono::milliseconds postmortem_min_interval{5000};
  };

  using Sampler = std::function<MonitorSample()>;
  /// Invoked with a short reason string on upward health transitions.
  using PostmortemHook = std::function<void(const std::string& reason)>;

  Watchdog(Sampler sampler, Options options);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  void set_postmortem_hook(PostmortemHook hook);

  /// Optional cost-attribution provider consulted by HealthJson whenever the
  /// state is not healthy: returns a short label (the top-cost rule, from
  /// the rule histograms) reported as "top_cost_rule" in the /healthz
  /// detail. An empty return omits the field.
  using DetailProvider = std::function<std::string()>;
  void set_detail_provider(DetailProvider provider);

  HealthState health() const {
    return static_cast<HealthState>(health_.load(std::memory_order_acquire));
  }
  std::vector<std::string> reasons() const;

  /// Per-series rates over the ring window (0 until two readings exist).
  struct Rates {
    double events_per_sec = 0;
    double detections_per_sec = 0;
    double firings_per_sec = 0;
    double failures_per_sec = 0;
    double aborts_per_sec = 0;
    double window_sec = 0;
  };
  Rates rates() const;

  /// Most recent reading (all-zero until the first tick).
  MonitorSample last_sample() const;

  /// Health + reasons + rates + gauges as one JSON object (the /healthz
  /// body).
  std::string HealthJson() const;

  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  /// Upward health transitions observed.
  std::uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  /// Postmortem hooks actually fired (rate-limited subset of transitions).
  std::uint64_t postmortems_triggered() const {
    return postmortems_.load(std::memory_order_relaxed);
  }

  /// Test hook: feeds one synthetic reading through the same evaluation
  /// path the sampler thread uses. `sample.at_ns` orders the ring.
  void TickForTest(const MonitorSample& sample) { Evaluate(sample); }

  /// Windowed histogram delta: newest minus oldest, bucket-wise. Exposed
  /// for tests; max_ns keeps the cumulative maximum (a true windowed max
  /// would need per-window tracking at Record time).
  static LatencyHistogram::Snapshot DeltaSnapshot(
      const LatencyHistogram::Snapshot& newest,
      const LatencyHistogram::Snapshot& oldest);

 private:
  void Loop();
  void Evaluate(const MonitorSample& sample);

  const Sampler sampler_;
  const Options options_;

  mutable std::mutex mu_;
  std::deque<MonitorSample> ring_;          // oldest first, <= options_.window
  std::vector<std::string> reasons_;        // last evaluation's trip reasons
  PostmortemHook postmortem_hook_;
  DetailProvider detail_provider_;  // guarded by mu_
  std::uint64_t last_postmortem_ns_ = 0;

  std::atomic<int> health_{static_cast<int>(HealthState::kHealthy)};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> postmortems_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_WATCHDOG_H_
