#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace sentinel::core {
class ActiveDatabase;
}  // namespace sentinel::core

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for on-disk state (the oo7_store database).
  std::string work_dir = ".";
  /// Source revision of the build (git sha, or "unknown" outside git).
  std::string revision = "unknown";
  /// CPU the run is pinned to (-1: not pinned).
  int cpu = -1;
};

/// Deterministic generator (splitmix64): the same seed gives the same
/// inputs on every platform, unlike the standard distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n);
  /// Skewed toward low indices in [0, n): index = n * u^3, so the first
  /// tenth of the range draws about 46% of the picks.
  std::uint64_t Skewed(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// What one benchmark run prints as its last line.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect; `why` goes to stderr.
  void Problem(const std::string& why);

  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }
  double Value(const std::string& name) const;  // NaN when absent
  bool Has(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// The measured closed loop, cut into fixed-length time slices. Each
/// end-to-end figure is the median over slices of that slice's figure, so a
/// burst of interference on a shared machine moves a few slices rather than
/// the reported value.
class SlicedLoop {
 public:
  static constexpr double kSliceSeconds = 1.0;

  void Start(std::uint64_t now_ns);
  /// Records one op that took `ns` and completed at `now_ns`. `main` and
  /// `write` say which op classes it belongs to (README.md defines them per
  /// workload); an op may belong to both.
  void Add(std::uint64_t now_ns, std::uint64_t ns, bool main, bool write);
  /// Closes the last slice if it ran at least half a slice.
  void Finish(std::uint64_t now_ns);

  /// The end-to-end metrics: setup_s, ops_per_s, op_p50_us, op_p90_us,
  /// write_p50_us, write_p90_us, peak_rss_mb.
  void AddEndToEnd(Result* result) const;

  std::vector<double> setup_s;  // one per episode

 private:
  struct Slice {
    double ops_per_s = 0;
    std::optional<double> op_p50, op_p90, write_p50, write_p90;
  };
  void CloseSlice(std::uint64_t end_ns);

  std::uint64_t slice_start_ = 0;
  std::uint64_t slice_ops_ = 0;
  LatencySamples main_, write_;
  std::vector<Slice> slices_;
};

/// An end-to-end run splits its measured time over kEpisodes episodes. Each
/// episode sets the workload up afresh (the set-ups give setup_s), warms it
/// up, and measures its share of the time. Spreading set-ups and
/// measurements over the run averages over the shared machine's slow and
/// fast periods, which last seconds. A traced run is one episode.
constexpr int kEpisodes = 5;
constexpr double kWarmupSeconds = 0.3;

inline int Episodes(const Options& options) {
  return options.trace ? 1 : kEpisodes;
}

/// One completed op: its latency and the op classes it belongs to.
struct OpSample {
  std::uint64_t ns = 0;
  bool main = true;
  bool write = true;
};

/// Runs `op` in a closed loop for `seconds`; records into `loop` when it is
/// non-null (warm-up passes null).
void RunClosedLoop(double seconds, const std::function<OpSample()>& op,
                   SlicedLoop* loop);

/// Benchmark-side costs printed next to the op latency: harness.op_ns (the
/// closed loop around an empty op) and harness.clock_ns (one clock read).
void AddHarnessOverhead(Result* result);

/// Self time per layer and residual_share from a traced phase, as
/// <layer>.self_us_per_op for each module in `layers`.
void AddBreakdown(const std::vector<Span>& spans,
                  const std::vector<std::string>& layers, Result* result);

/// Adds the median of `values` as `name`, or 0 when there are none (the
/// layer did no such work on this workload).
void AddMedian(const std::string& name, const std::vector<double>& values,
               double scale, const std::string& unit, Result* result);

/// Alternating slices with `off` and `on` applied before each slice; returns
/// the median over slice pairs of (mean op ns with on) - (mean op ns with
/// off). `op` runs one operation and returns its latency in ns.
double PairedSliceDeltaNs(double seconds, int slice_ops,
                          const std::function<void()>& off,
                          const std::function<void()>& on,
                          const std::function<std::uint64_t()>& op,
                          LatencySamples* on_samples);

/// Called from a rule condition: counts it in `off_thread` when it runs off
/// `load_thread`, and records its span under the call the load thread is
/// blocked in. Does nothing while `log` is disabled.
void RecordCondition(SpanLog* log, std::thread::id load_thread,
                     std::atomic<std::uint64_t>* off_thread);

/// The traced run of a workload on an ActiveDatabase. For the first 30% of
/// the time, slices of `slice_ops` ops alternate between the library's span
/// tracer off and its default mode. For the rest, `log` records the
/// benchmark's spans. Adds the per-layer metrics the ActiveDatabase
/// workloads share, with self time for `layers`. Returns the traced phase's
/// spans; `*ops` gets the number of ops run.
std::vector<Span> TraceActiveDatabase(
    sentinel::core::ActiveDatabase* db, const Options& options, int slice_ops,
    const std::function<std::uint64_t()>& op, SpanLog* log,
    const std::atomic<std::uint64_t>& off_thread,
    const std::vector<std::string>& layers, Result* result,
    std::uint64_t* ops);

double PeakRssMb();

/// Name of the first environment variable that would change what the
/// library measures (profiler, monitor server, failpoints, trace export),
/// or "" when none is set.
std::string ForbiddenEnvironment();

/// One-line JSON of the run's environment: nproc, build type, compiler,
/// source revision, and the filesystem type under `work_dir`.
std::string MetadataJson(const Options& options);

/// Filesystem type name under `path` ("ext4", "tmpfs", ... or "0x<magic>").
std::string FilesystemType(const std::string& path);

Result RunOo7Rules(const Options& options);
Result RunOo7Store(const Options& options);
Result RunBusRemote(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
