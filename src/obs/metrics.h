#ifndef SENTINEL_OBS_METRICS_H_
#define SENTINEL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "detector/event_types.h"

namespace sentinel::obs {

/// Monotonic counter sharded across cache-line-padded slots so concurrent
/// writers (scheduler workers, signalling threads) never contend on one
/// line. Each thread is assigned a shard round-robin on first use;
/// aggregation happens only on read (stats/trace surfacing), which is rare.
class ShardedCounter {
 public:
  void Add(std::uint64_t n = 1) {
    shards_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard. NOT safe against concurrent Add: a writer racing
  /// the per-shard stores can have its increment land in an already-cleared
  /// shard (kept) or a not-yet-cleared one (lost), so counts taken after a
  /// racing Reset under-report. Call only while writers are quiesced
  /// (tests); measurement code should instead capture a baseline value()
  /// and report deltas (see tools/run_benches.sh metric snapshots).
  void Reset() {
    for (Shard& shard : shards_) shard.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t ThreadShard() {
    static std::atomic<std::size_t> next{0};
    thread_local std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
  }

  std::array<Shard, kShards> shards_;
};

/// Lock-free latency histogram with power-of-two buckets (bucket i covers
/// [2^(i-1), 2^i) nanoseconds; bucket 0 is 0–1ns). Recording is a handful of
/// relaxed atomic adds; quantiles are estimated from bucket upper bounds on
/// read, which is plenty for the latency reports the evaluation needs.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 48;

  void Record(std::uint64_t ns) {
    counts_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    std::uint64_t count = 0;   // always the bucket sum (quantile-consistent)
    std::uint64_t sum_ns = 0;
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Clamped to max_ns: under a torn read sum_ns can lag or lead the
    /// bucket counts slightly, and without the clamp the quotient could
    /// exceed every recorded sample.
    std::uint64_t mean_ns() const {
      if (count == 0) return 0;
      const std::uint64_t mean = sum_ns / count;
      return max_ns != 0 && mean > max_ns ? max_ns : mean;
    }
    /// Upper bound of the bucket containing quantile `q` in [0, 1].
    std::uint64_t QuantileNs(double q) const;
  };

  /// Relaxed-snapshot contract: Record is three independent relaxed atomic
  /// adds, so a snapshot taken under concurrent recording is *consistent
  /// per series* but not across them — `count` is derived from the bucket
  /// array it ships with (never from the separate count_ cell, so quantile
  /// ranks always match the buckets), while `sum_ns` may include a racing
  /// record the buckets miss or vice versa. sum_ns is loaded before the
  /// buckets, biasing the skew toward sum lagging count; mean_ns() clamps
  /// the residual error to max_ns. Exact agreement requires quiescence.
  Snapshot TakeSnapshot() const {
    Snapshot snap;
    snap.sum_ns = sum_.load(std::memory_order_relaxed);
    for (int i = 0; i < kBuckets; ++i) {
      snap.buckets[i] = counts_[i].load(std::memory_order_relaxed);
      snap.count += snap.buckets[i];
    }
    snap.max_ns = max_.load(std::memory_order_relaxed);
    return snap;
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }

  static int BucketOf(std::uint64_t ns) {
    const int b = std::bit_width(ns);  // 0 for ns==0
    return b < kBuckets ? b : kBuckets - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Per-event-graph-node, per-parameter-context counters. Plain relaxed
/// atomics (not sharded): increments ride paths that are already serialized
/// per node by the striped buffer locks, so a shard array per node-context
/// would buy nothing and cost kilobytes per node.
class NodeMetrics {
 public:
  struct ContextSnapshot {
    std::uint64_t received = 0;  // occurrences delivered into this node
    std::uint64_t detected = 0;  // occurrences this node emitted
    std::uint64_t flushed = 0;   // buffered occurrences dropped by flushes
  };

  void OnReceived(detector::ParamContext context) {
    slot(context).received.fetch_add(1, std::memory_order_relaxed);
  }
  void OnDetected(detector::ParamContext context) {
    slot(context).detected.fetch_add(1, std::memory_order_relaxed);
  }
  void OnFlushed(std::uint64_t dropped) {
    // Flush paths do not know which context each dropped occurrence sat in;
    // attribute to the node total (context-resolved gauges come from
    // BufferedCount at snapshot time).
    flushed_.fetch_add(dropped, std::memory_order_relaxed);
  }

  ContextSnapshot ForContext(detector::ParamContext context) const {
    const Slot& s = slot(context);
    ContextSnapshot snap;
    snap.received = s.received.load(std::memory_order_relaxed);
    snap.detected = s.detected.load(std::memory_order_relaxed);
    return snap;
  }
  std::uint64_t flushed() const {
    return flushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t received_total() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots_) n += s.received.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t detected_total() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots_) n += s.detected.load(std::memory_order_relaxed);
    return n;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> detected{0};
  };

  Slot& slot(detector::ParamContext context) {
    return slots_[static_cast<int>(context)];
  }
  const Slot& slot(detector::ParamContext context) const {
    return slots_[static_cast<int>(context)];
  }

  std::array<Slot, detector::kNumContexts> slots_;
  std::atomic<std::uint64_t> flushed_{0};
};

/// Per-rule latency histograms covering the full firing pipeline: condition
/// evaluation, action execution, subtransaction commit/abort, and the time
/// the rule's subtransaction spent blocked on nested locks.
struct RuleMetrics {
  LatencyHistogram condition_ns;
  LatencyHistogram action_ns;
  LatencyHistogram commit_ns;
  LatencyHistogram abort_ns;
  LatencyHistogram lock_wait_ns;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_METRICS_H_
