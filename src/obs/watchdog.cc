#include "obs/watchdog.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/span.h"

namespace sentinel::obs {

namespace {

constexpr auto NowNs = &SpanTracer::NowNs;

}  // namespace

const char* HealthStateToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "?";
}

Watchdog::Watchdog(Sampler sampler, Options options)
    : sampler_(std::move(sampler)), options_(options) {}

Watchdog::~Watchdog() { Stop(); }

Status Watchdog::Start() {
  if (running()) return Status::InvalidArgument("watchdog already running");
  if (!sampler_) return Status::InvalidArgument("watchdog has no sampler");
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Watchdog::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::set_postmortem_hook(PostmortemHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  postmortem_hook_ = std::move(hook);
}

void Watchdog::set_detail_provider(DetailProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  detail_provider_ = std::move(provider);
}

void Watchdog::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, options_.interval,
                            [this] { return stop_; })) {
        return;
      }
    }
    MonitorSample sample = sampler_();
    if (sample.at_ns == 0) sample.at_ns = NowNs();
    Evaluate(sample);
  }
}

LatencyHistogram::Snapshot Watchdog::DeltaSnapshot(
    const LatencyHistogram::Snapshot& newest,
    const LatencyHistogram::Snapshot& oldest) {
  LatencyHistogram::Snapshot delta;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t n = newest.buckets[i];
    const std::uint64_t o = oldest.buckets[i];
    delta.buckets[i] = n > o ? n - o : 0;
    delta.count += delta.buckets[i];
  }
  delta.sum_ns =
      newest.sum_ns > oldest.sum_ns ? newest.sum_ns - oldest.sum_ns : 0;
  delta.max_ns = newest.max_ns;
  return delta;
}

void Watchdog::Evaluate(const MonitorSample& sample) {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  PostmortemHook fire_hook;
  std::string fire_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(sample);
    while (ring_.size() > options_.window) ring_.pop_front();
    const MonitorSample& oldest = ring_.front();

    std::vector<std::string> reasons;
    HealthState state = HealthState::kHealthy;
    auto trip = [&reasons, &state](HealthState severity, std::string why) {
      reasons.push_back(std::move(why));
      if (static_cast<int>(severity) > static_cast<int>(state)) {
        state = severity;
      }
    };

    // Scheduler stall: queue holds work, has not shrunk for stall_samples
    // consecutive readings, and no firing completed over that stretch. A
    // busy-but-draining scheduler moves `executed`; a wedged one does not.
    if (ring_.size() > options_.stall_samples) {
      const std::size_t first = ring_.size() - 1 - options_.stall_samples;
      auto stalled = [&](auto depth_of, const char* queue) {
        const std::uint64_t depth_now = depth_of(ring_.back());
        if (depth_now == 0) return;
        for (std::size_t i = first; i + 1 < ring_.size(); ++i) {
          if (depth_of(ring_[i + 1]) < depth_of(ring_[i])) return;  // draining
        }
        if (ring_.back().executed != ring_[first].executed) return;
        trip(HealthState::kUnhealthy,
             std::string("scheduler_stall: ") + queue + " queue depth " +
                 std::to_string(depth_now) + " not draining over " +
                 std::to_string(options_.stall_samples) + " samples");
      };
      stalled([](const MonitorSample& s) { return s.sched_pending; },
              "pending");
      stalled([](const MonitorSample& s) { return s.sched_detached; },
              "detached");
    }

    // Lock pileup: waiter depth, then windowed wait p99.
    if (sample.lock_waiters + sample.nested_waiters >
        options_.max_lock_waiters) {
      trip(HealthState::kDegraded,
           "lock_pileup: " +
               std::to_string(sample.lock_waiters + sample.nested_waiters) +
               " waiters (max " + std::to_string(options_.max_lock_waiters) +
               ")");
    }
    const LatencyHistogram::Snapshot lock_delta =
        DeltaSnapshot(sample.lock_wait, oldest.lock_wait);
    if (lock_delta.count > 0) {
      const std::uint64_t p99 = lock_delta.QuantileNs(0.99);
      if (p99 > options_.lock_wait_p99_unhealthy_ns) {
        trip(HealthState::kUnhealthy,
             "lock_wait_p99: " + std::to_string(p99) + "ns over window");
      } else if (p99 > options_.lock_wait_p99_degraded_ns) {
        trip(HealthState::kDegraded,
             "lock_wait_p99: " + std::to_string(p99) + "ns over window");
      }
    }

    // WAL: a wedged log refuses all appends — that is an outage, not a
    // slowdown. Slow fsyncs degrade.
    if (sample.wal_wedged) {
      trip(HealthState::kUnhealthy, "wal_wedged: appends refused until reopen");
    }
    const LatencyHistogram::Snapshot fsync_delta =
        DeltaSnapshot(sample.wal_fsync, oldest.wal_fsync);
    if (fsync_delta.count > 0) {
      const std::uint64_t p99 = fsync_delta.QuantileNs(0.99);
      if (p99 > options_.wal_fsync_p99_degraded_ns) {
        trip(HealthState::kDegraded,
             "wal_fsync_p99: " + std::to_string(p99) + "ns over window");
      }
    }
    // Durability lag: async commits acknowledged far ahead of the fsync
    // watermark mean the group-commit thread is not keeping up — every
    // un-synced ack is exposure to a crash.
    if (sample.wal_appended_lsn > sample.wal_durable_lsn &&
        sample.wal_appended_lsn - sample.wal_durable_lsn >
            options_.max_wal_durability_lag) {
      trip(HealthState::kDegraded,
           "wal_durability_lag: durable watermark " +
               std::to_string(sample.wal_durable_lsn) + " trails appends at " +
               std::to_string(sample.wal_appended_lsn) + " by more than " +
               std::to_string(options_.max_wal_durability_lag));
    }

    // End-to-end event SLO: windowed p99 of origin-stamp → GED dispatch.
    // The breach usually means the wire/admission path is stalling while
    // per-stage gauges still look healthy, so it gets its own predicate.
    const LatencyHistogram::Snapshot e2e_delta =
        DeltaSnapshot(sample.net_e2e, oldest.net_e2e);
    if (e2e_delta.count > 0) {
      const std::uint64_t p99 = e2e_delta.QuantileNs(0.99);
      if (p99 > options_.net_e2e_p99_degraded_ns) {
        trip(HealthState::kDegraded,
             "net_e2e_p99: " + std::to_string(p99) + "ns over window");
      }
    }

    // Network overload: the event-bus admission queue sits past its
    // high-water mark and is shedding NOTIFY traffic with RETRY_LATER.
    // Degraded, not unhealthy — bounded queues and typed sheds mean the
    // daemon is coping by design, but clients are seeing drops.
    if (sample.net_overloaded) {
      trip(HealthState::kDegraded,
           "net_overload: admission queue depth " +
               std::to_string(sample.net_admission_depth) +
               ", shedding NOTIFY traffic with RETRY_LATER");
    }

    // Detector buffer growth without detections: operator contexts are
    // accumulating occurrences nothing consumes (e.g. a SEQ whose right
    // side never fires inside a long transaction).
    if (ring_.size() >= 2 &&
        sample.detector_buffered >
            oldest.detector_buffered + options_.buffer_growth_min &&
        sample.detections == oldest.detections) {
      trip(HealthState::kDegraded,
           "detector_buffer_growth: buffered " +
               std::to_string(sample.detector_buffered) + " (+" +
               std::to_string(sample.detector_buffered -
                              oldest.detector_buffered) +
               " over window, 0 detections)");
    }

    const auto previous =
        static_cast<HealthState>(health_.load(std::memory_order_relaxed));
    health_.store(static_cast<int>(state), std::memory_order_release);
    reasons_ = reasons;

    if (static_cast<int>(state) > static_cast<int>(previous)) {
      transitions_.fetch_add(1, std::memory_order_relaxed);
      SENTINEL_LOG(kWarn) << "watchdog: health " << HealthStateToString(previous)
                          << " -> " << HealthStateToString(state) << " ("
                          << (reasons.empty() ? "?" : reasons.front()) << ")";
      // One automatic postmortem per upward transition, rate-limited so a
      // flapping predicate cannot flood the postmortem directory.
      const std::uint64_t min_gap_ns =
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  options_.postmortem_min_interval)
                  .count());
      if (postmortem_hook_ != nullptr &&
          (last_postmortem_ns_ == 0 ||
           sample.at_ns >= last_postmortem_ns_ + min_gap_ns)) {
        last_postmortem_ns_ = sample.at_ns;
        fire_hook = postmortem_hook_;
        fire_reason = "watchdog: " + (reasons.empty() ? std::string("health ") +
                                                            HealthStateToString(
                                                                state)
                                                      : reasons.front());
      }
    }
  }
  // The hook dumps a postmortem through ActiveDatabase, which re-enters
  // component locks — never call it holding mu_.
  if (fire_hook) {
    postmortems_.fetch_add(1, std::memory_order_relaxed);
    fire_hook(fire_reason);
  }
}

Watchdog::Rates Watchdog::rates() const {
  std::lock_guard<std::mutex> lock(mu_);
  Rates rates;
  if (ring_.size() < 2) return rates;
  const MonitorSample& oldest = ring_.front();
  const MonitorSample& newest = ring_.back();
  if (newest.at_ns <= oldest.at_ns) return rates;
  const double sec =
      static_cast<double>(newest.at_ns - oldest.at_ns) / 1e9;
  auto rate = [sec](std::uint64_t now, std::uint64_t then) {
    return now > then ? static_cast<double>(now - then) / sec : 0.0;
  };
  rates.window_sec = sec;
  rates.events_per_sec = rate(newest.notifications, oldest.notifications);
  rates.detections_per_sec = rate(newest.detections, oldest.detections);
  rates.firings_per_sec = rate(newest.executed, oldest.executed);
  rates.failures_per_sec = rate(newest.failed, oldest.failed);
  rates.aborts_per_sec = rate(newest.abort_top, oldest.abort_top);
  return rates;
}

MonitorSample Watchdog::last_sample() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.empty() ? MonitorSample{} : ring_.back();
}

std::vector<std::string> Watchdog::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

std::string Watchdog::HealthJson() const {
  const HealthState state = health();
  const Rates r = rates();
  const MonitorSample last = last_sample();
  JsonWriter w;
  w.BeginObject();
  w.Field("status", HealthStateToString(state));
  w.Field("healthy", state == HealthState::kHealthy);
  w.Key("reasons").BeginArray();
  for (const std::string& reason : reasons()) w.Value(reason);
  w.EndArray();
  if (state != HealthState::kHealthy) {
    DetailProvider provider;
    {
      std::lock_guard<std::mutex> lock(mu_);
      provider = detail_provider_;
    }
    if (provider) {
      const std::string detail = provider();
      if (!detail.empty()) w.Field("top_cost_rule", detail);
    }
  }
  w.Key("rates").BeginObject();
  // JsonWriter has no double overload; rates are scaled to milli-units so
  // integers carry the precision a health probe needs.
  w.Field("events_per_sec_milli",
          static_cast<std::uint64_t>(r.events_per_sec * 1000));
  w.Field("detections_per_sec_milli",
          static_cast<std::uint64_t>(r.detections_per_sec * 1000));
  w.Field("firings_per_sec_milli",
          static_cast<std::uint64_t>(r.firings_per_sec * 1000));
  w.Field("failures_per_sec_milli",
          static_cast<std::uint64_t>(r.failures_per_sec * 1000));
  w.Field("aborts_per_sec_milli",
          static_cast<std::uint64_t>(r.aborts_per_sec * 1000));
  w.Field("window_ms", static_cast<std::uint64_t>(r.window_sec * 1000));
  w.EndObject();
  w.Key("gauges").BeginObject();
  w.Field("sched_pending", last.sched_pending);
  w.Field("sched_detached", last.sched_detached);
  w.Field("open_txns", last.open_txns);
  w.Field("active_subtxns", last.active_subtxns);
  w.Field("nested_waiters", last.nested_waiters);
  w.Field("lock_waiters", last.lock_waiters);
  w.Field("pool_resident", last.pool_resident);
  w.Field("pool_dirty", last.pool_dirty);
  w.Field("detector_buffered", last.detector_buffered);
  w.Field("wal_wedged", last.wal_wedged);
  w.Field("wal_appended_lsn", last.wal_appended_lsn);
  w.Field("wal_durable_lsn", last.wal_durable_lsn);
  w.Field("net_sessions", last.net_sessions);
  w.Field("net_admission_depth", last.net_admission_depth);
  w.Field("net_overloaded", last.net_overloaded);
  w.EndObject();
  w.Field("ticks", ticks());
  w.Field("transitions", transitions());
  w.Field("postmortems", postmortems_triggered());
  w.EndObject();
  return w.Take();
}

}  // namespace sentinel::obs
