#ifndef SENTINEL_BENCH_BENCH_UTIL_H_
#define SENTINEL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "common/pool.h"
#include "core/active_database.h"

namespace sentinel::bench {

/// Shorthands used across the benchmark binaries.
using detector::EventModifier;
using detector::ParamContext;
using detector::ParamList;

inline std::shared_ptr<const ParamList> OneIntParam(int v) {
  auto params = common::MakePooled<ParamList>();
  params->Insert("v", oodb::Value::Int(v));
  return params;
}

/// Notifies `db` of one end-of-method invocation on (class_name, method).
inline void FireMethod(core::ActiveDatabase* db, const std::string& class_name,
                       const std::string& method, int v, storage::TxnId txn) {
  db->NotifyMethod(class_name, /*oid=*/1, EventModifier::kEnd, method,
                   OneIntParam(v), txn);
}

/// Writes `db`'s Prometheus exposition (PrometheusText, what /metrics
/// serves) to $SENTINEL_BENCH_METRICS_DIR/<name>.prom when that env var is
/// set; no-op otherwise. Lets a bench run leave per-benchmark observability
/// artifacts (tools/run_benches.sh wires the directory up).
inline void DumpMetricsSnapshot(core::ActiveDatabase* db,
                                const std::string& name) {
  const char* dir = std::getenv("SENTINEL_BENCH_METRICS_DIR");
  if (dir == nullptr || *dir == '\0' || db == nullptr) return;
  std::ofstream out(std::string(dir) + "/" + name + ".prom");
  if (out) out << db->PrometheusText();
}

/// Delta-since-baseline counter capture. Benchmarks must never Reset() the
/// shared pipeline counters mid-run (ShardedCounter::Reset races concurrent
/// writers and loses increments — see obs/metrics.h); instead capture a
/// baseline before the measured loop and report the delta after it:
///
///   CounterBaseline base(db);
///   for (auto _ : state) { ... }
///   base.Report(&db, &state);   // counters["executed"], ["notifications"]
struct CounterBaseline {
  std::uint64_t notifications = 0;
  std::uint64_t detections = 0;
  std::uint64_t executed = 0;

  explicit CounterBaseline(core::ActiveDatabase& db) {
    const auto totals = db.detector()->TotalsSnapshot();
    notifications = totals.notifications;
    detections = totals.detections;
    executed = db.scheduler()->executed_count();
  }

  void Report(core::ActiveDatabase* db, benchmark::State* state) const {
    const auto totals = db->detector()->TotalsSnapshot();
    (*state).counters["notifications"] =
        static_cast<double>(totals.notifications - notifications);
    (*state).counters["detections"] =
        static_cast<double>(totals.detections - detections);
    (*state).counters["rule_execs"] =
        static_cast<double>(db->scheduler()->executed_count() - executed);
  }
};

/// Sink that counts detections (used where rules would add noise).
class CountingSink : public detector::EventSink {
 public:
  void OnEvent(const detector::Occurrence&, ParamContext) override { ++count; }
  std::size_t count = 0;
};

/// Thread-safe counting sink for multi-threaded Notify benchmarks.
class AtomicCountingSink : public detector::EventSink {
 public:
  void OnEvent(const detector::Occurrence&, ParamContext) override {
    count.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> count{0};
};

}  // namespace sentinel::bench

#endif  // SENTINEL_BENCH_BENCH_UTIL_H_
