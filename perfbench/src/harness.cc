#include "harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/active_database.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::uint64_t Rng::Below(std::uint64_t n) {
  return static_cast<std::uint64_t>(Uniform() * static_cast<double>(n));
}

std::uint64_t Rng::Skewed(std::uint64_t n) {
  const double u = Uniform();
  return static_cast<std::uint64_t>(u * u * u * static_cast<double>(n));
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Problem("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::Problem(const std::string& why) { problems_.push_back(why); }

double Result::Value(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

bool Result::Has(const std::string& name) const {
  return !std::isnan(Value(name));
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void SlicedLoop::Start(std::uint64_t now_ns) {
  slice_start_ = now_ns;
  slice_ops_ = 0;
  main_ = LatencySamples();
  write_ = LatencySamples();
}

void SlicedLoop::Add(std::uint64_t now_ns, std::uint64_t ns, bool main,
                     bool write) {
  ++slice_ops_;
  if (main) main_.Add(ns);
  if (write) write_.Add(ns);
  if (now_ns - slice_start_ >= static_cast<std::uint64_t>(kSliceSeconds * 1e9)) {
    CloseSlice(now_ns);
  }
}

void SlicedLoop::Finish(std::uint64_t now_ns) {
  if (now_ns - slice_start_ >=
      static_cast<std::uint64_t>(kSliceSeconds * 0.5e9)) {
    CloseSlice(now_ns);
  }
}

void SlicedLoop::CloseSlice(std::uint64_t end_ns) {
  Slice s;
  s.ops_per_s = static_cast<double>(slice_ops_) /
                (static_cast<double>(end_ns - slice_start_) / 1e9);
  s.op_p50 = main_.PercentileUs(0.50);
  s.op_p90 = main_.PercentileUs(0.90);
  s.write_p50 = write_.PercentileUs(0.50);
  s.write_p90 = write_.PercentileUs(0.90);
  slices_.push_back(s);
  Start(end_ns);
}

void SlicedLoop::AddEndToEnd(Result* result) const {
  constexpr std::size_t kMinSlices = 3;
  auto add = [&](const char* name, const char* unit,
                 std::optional<double> Slice::*field) {
    std::vector<double> values;
    for (const Slice& s : slices_) {
      if (s.*field) values.push_back(*(s.*field));
    }
    if (values.size() < kMinSlices) {
      result->Problem(std::string("too few slices with enough samples for ") +
                      name);
      return;
    }
    result->Add(name, Median(values), unit);
  };
  result->Add("setup_s", Median(setup_s), "s");
  std::vector<double> rates;
  for (const Slice& s : slices_) rates.push_back(s.ops_per_s);
  if (rates.size() < kMinSlices) {
    result->Problem("too few slices for ops_per_s");
  } else {
    result->Add("ops_per_s", Median(rates), "1/s");
  }
  add("op_p50_us", "us", &Slice::op_p50);
  add("op_p90_us", "us", &Slice::op_p90);
  add("write_p50_us", "us", &Slice::write_p50);
  add("write_p90_us", "us", &Slice::write_p90);
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void RunClosedLoop(double seconds, const std::function<OpSample()>& op,
                   SlicedLoop* loop) {
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  if (loop != nullptr) loop->Start(start);
  std::uint64_t now = start;
  while (now < deadline) {
    const OpSample sample = op();
    now = NowNs();
    if (loop != nullptr) loop->Add(now, sample.ns, sample.main, sample.write);
  }
  if (loop != nullptr) loop->Finish(now);
}

void AddHarnessOverhead(Result* result) {
  constexpr int kReps = 200000;
  // Clock read: back-to-back steady-clock reads.
  std::uint64_t sink = 0;
  const std::uint64_t c0 = NowNs();
  for (int i = 0; i < kReps; ++i) sink += NowNs();
  const std::uint64_t c1 = NowNs();
  // Empty op: what the closed loop does around every op (draw, two clock
  // reads, record the sample), with nothing in between.
  Rng rng(sink);
  LatencySamples samples;
  samples.Reserve(kReps);
  std::uint64_t drawn = 0;
  const std::uint64_t t0 = NowNs();
  for (int i = 0; i < kReps; ++i) {
    drawn += rng.Skewed(10000);
    const std::uint64_t a = NowNs();
    const std::uint64_t b = NowNs();
    samples.Add(b - a);
  }
  const std::uint64_t t1 = NowNs();
  result->Add("harness.clock_ns", static_cast<double>(c1 - c0) / kReps, "ns");
  result->Add("harness.op_ns", static_cast<double>(t1 - t0) / kReps, "ns");
  // Keeps the draws and samples observable so the loop is not elided.
  if (drawn == 0 && samples.size() == 0) std::fprintf(stderr, "\n");
}

void AddBreakdown(const std::vector<Span>& spans,
                  const std::vector<std::string>& layers, Result* result) {
  const LayerBreakdown b = ComputeBreakdown(spans);
  for (const std::string& layer : layers) {
    auto it = b.self_ns.find(layer);
    const double ns = it == b.self_ns.end() ? 0 : it->second;
    result->Add(layer + ".self_us_per_op",
                b.ops > 0 ? ns / static_cast<double>(b.ops) / 1000.0 : 0,
                "us");
  }
  result->Add("residual_share", b.residual_share, "ratio");
}

void AddMedian(const std::string& name, const std::vector<double>& values,
               double scale, const std::string& unit, Result* result) {
  result->Add(name, values.empty() ? 0 : Median(values) * scale, unit);
}

double PairedSliceDeltaNs(double seconds, int slice_ops,
                          const std::function<void()>& off,
                          const std::function<void()>& on,
                          const std::function<std::uint64_t()>& op,
                          LatencySamples* on_samples) {
  std::vector<double> deltas;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  bool on_first = false;
  while (NowNs() < deadline) {
    double mean[2] = {0, 0};  // [off, on]
    for (int half = 0; half < 2; ++half) {
      const bool is_on = (half == 0) == on_first;
      (is_on ? on : off)();
      double sum = 0;
      for (int i = 0; i < slice_ops; ++i) {
        const std::uint64_t ns = op();
        sum += static_cast<double>(ns);
        if (is_on && on_samples != nullptr) on_samples->Add(ns);
      }
      mean[is_on ? 1 : 0] = sum / slice_ops;
    }
    deltas.push_back(mean[1] - mean[0]);
    on_first = !on_first;  // alternate which side runs first
  }
  on();
  return Median(deltas);
}

void RecordCondition(SpanLog* log, std::thread::id load_thread,
                     std::atomic<std::uint64_t>* off_thread) {
  if (!log->enabled()) return;
  if (std::this_thread::get_id() != load_thread) {
    off_thread->fetch_add(1, std::memory_order_relaxed);
  }
  log->End(log->Begin("rules", "rules.condition", log->ambient_parent(),
                      log->ambient_op()));
}

std::vector<Span> TraceActiveDatabase(
    sentinel::core::ActiveDatabase* db, const Options& options, int slice_ops,
    const std::function<std::uint64_t()>& op, SpanLog* log,
    const std::atomic<std::uint64_t>& off_thread,
    const std::vector<std::string>& layers, Result* result,
    std::uint64_t* ops) {
  *ops = 0;
  auto counted = [&] {
    ++*ops;
    return op();
  };
  const auto totals0 = db->detector()->TotalsSnapshot();
  const std::uint64_t executed0 = db->scheduler()->executed_count();
  // Phase 1: the library's span tracer off against its default mode, in
  // paired slices; the default-mode slices give the untraced op latency.
  auto* tracer = db->span_tracer();
  const auto default_mode = tracer->mode();
  LatencySamples untraced;
  const double flight_ns = PairedSliceDeltaNs(
      options.seconds * 0.3, slice_ops,
      [&] { tracer->set_mode(sentinel::obs::TraceMode::kOff); },
      [&] { tracer->set_mode(default_mode); }, counted, &untraced);
  // Phase 2: benchmark spans around every layer call.
  LatencySamples traced;
  log->set_enabled(true);
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(options.seconds * 0.7 * 1e9);
  while (NowNs() < deadline && !log->full()) traced.Add(counted());
  log->set_enabled(false);
  std::vector<Span> spans = log->Snapshot();
  const auto totals1 = db->detector()->TotalsSnapshot();
  const auto per_op = [&](std::uint64_t n) {
    return *ops == 0 ? 0 : static_cast<double>(n) / static_cast<double>(*ops);
  };

  AddMedian("core.begin_ns", Durations(spans, "core.begin"), 1, "ns", result);
  AddMedian("core.commit_ns", Durations(spans, "core.commit"), 1, "ns",
            result);
  result->Add("core.op_p99_us", untraced.PercentileUs(0.99).value_or(0),
              "us");
  AddMedian("detector.notify_ns", Durations(spans, "detector.notify"), 1,
            "ns", result);
  const std::uint64_t notifications =
      totals1.notifications - totals0.notifications;
  result->Add("detector.detections_per_notify",
              notifications == 0
                  ? 0
                  : static_cast<double>(totals1.detections -
                                        totals0.detections) /
                        static_cast<double>(notifications),
              "ratio");
  result->Add("detector.flushed_per_op",
              per_op(totals1.flushed - totals0.flushed), "count");
  const EdgeGaps gaps = ChildEdgeGaps(spans, "rules.notify");
  AddMedian("rules.trigger_to_condition_ns", gaps.head_ns, 1, "ns", result);
  AddMedian("rules.action_to_return_ns", gaps.tail_ns, 1, "ns", result);
  AddMedian("rules.precommit_ns", Durations(spans, "rules.precommit"), 1,
            "ns", result);
  const std::size_t conditions = Durations(spans, "rules.condition").size();
  result->Add("rules.offthread_share",
              conditions == 0 ? 0
                              : static_cast<double>(off_thread.load()) /
                                    static_cast<double>(conditions),
              "ratio");
  result->Add("rules.firings_per_op",
              per_op(db->scheduler()->executed_count() - executed0), "count");
  result->Add("obs.flight_ns_per_op", flight_ns, "ns");
  const auto traced_p50 = traced.PercentileUs(0.5);
  const auto untraced_p50 = untraced.PercentileUs(0.5);
  result->Add("obs.trace_overhead_ratio",
              traced_p50 && untraced_p50 ? *traced_p50 / *untraced_p50 : 0,
              "ratio");
  AddBreakdown(spans, layers, result);
  AddHarnessOverhead(result);
  if (traced.size() == 0) result->Problem("no traced ops");
  return spans;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string ForbiddenEnvironment() {
  for (const char* name : {"SENTINEL_PROFILE", "SENTINEL_MONITOR_PORT",
                           "SENTINEL_FAILPOINTS", "SENTINEL_TRACE_EXPORT"}) {
    const char* v = std::getenv(name);
    if (v != nullptr && v[0] != '\0') return name;
  }
  return "";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return hex;
}

std::string MetadataJson(const Options& options) {
  std::ostringstream out;
  out << "{\"meta\": {\"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pinned_cpu\": " << options.cpu
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"revision\": \"" << options.revision
      << "\", \"work_dir_fs\": \"" << FilesystemType(options.work_dir)
      << "\", \"trace\": " << (options.trace ? 1 : 0) << "}}";
  return out.str();
}

}  // namespace perfbench
