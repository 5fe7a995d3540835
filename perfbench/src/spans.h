#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t NowNs();

/// One timed call into a layer, recorded by the benchmark around the call.
/// `layer` is a module name of src/ ("core", "rules", ...) or "op" for the
/// root span of one operation; `parent` is the index of the enclosing span
/// (-1 for an op root).
struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span store for the traced run. Spans stay in memory until the
/// run ends; recording takes a mutex because rule conditions and actions
/// record from scheduler threads.
class SpanLog {
 public:
  /// Holds up to `capacity` spans; full() turns true there. The store keeps
  /// headroom beyond it so the op in flight completes without reallocating.
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity == 0 ? 0 : capacity + kHeadroom);
  }

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  /// True once the store holds its capacity; callers stop tracing then.
  bool full() const;

  /// Opens a span starting now; returns its id (-1 when disabled).
  std::int64_t Begin(const char* layer, const char* name, std::int64_t parent,
                     std::uint64_t op);
  /// Closes span `id` now (or at `at_ns` when non-zero).
  void End(std::int64_t id, std::uint64_t at_ns = 0);
  /// Renames span `id` once the call shows which layer did the work (a
  /// notify that fired rules belongs to `rules`, one that fired none to
  /// `detector`).
  void Relabel(std::int64_t id, const char* layer, const char* name);
  /// Records a span whose interval is already known.
  std::int64_t Add(const char* layer, const char* name, std::uint64_t start,
                   std::uint64_t end, std::int64_t parent, std::uint64_t op);

  /// Parent for spans recorded on other threads while the load thread
  /// blocks inside a call (rule conditions and actions).
  void set_ambient(std::int64_t parent, std::uint64_t op) {
    ambient_op_.store(op, std::memory_order_relaxed);
    ambient_parent_.store(parent, std::memory_order_release);
  }
  std::int64_t ambient_parent() const {
    return ambient_parent_.load(std::memory_order_acquire);
  }
  std::uint64_t ambient_op() const {
    return ambient_op_.load(std::memory_order_relaxed);
  }

  /// Copy of every recorded span (call after the traced phase).
  std::vector<Span> Snapshot() const;

 private:
  static constexpr std::size_t kHeadroom = 4096;
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> ambient_parent_{-1};
  std::atomic<std::uint64_t> ambient_op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time per layer over a set of ops. A span's self time is its
/// duration minus the part of it that its children cover (children clipped
/// to the parent, overlapping children counted once).
struct LayerBreakdown {
  std::uint64_t ops = 0;
  double op_ns = 0;                      // summed op root durations
  std::map<std::string, double> self_ns;  // per layer, op roots excluded
  /// 1 - (summed layer self time) / (summed op time). Time on the op that
  /// no layer span covers: the benchmark's own work between calls.
  double residual_share = 0;
};

LayerBreakdown ComputeBreakdown(const std::vector<Span>& spans);

/// Durations (ns) of every closed span named `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

/// For every span named `parent_name` that has children: the gap from its
/// start to its first child's start and from its last child's end to its
/// own end. Used for the rule hand-off legs around condition and action.
struct EdgeGaps {
  std::vector<double> head_ns;
  std::vector<double> tail_ns;
};
EdgeGaps ChildEdgeGaps(const std::vector<Span>& spans,
                       const std::string& parent_name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
