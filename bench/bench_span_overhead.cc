// Span tracer overhead (DESIGN.md §10): the causal span tracer must cost a
// single relaxed load when off, stay out of the Notify hot path in the
// default flight-recorder mode, and bound the full-trace cost. Measures the
// two instrumented paths that matter:
//   - Notify dispatch of a declared event with no rule (the PR 2 hot path;
//     compare against BM_NotifyEventDeclaredNoRule in bench_primitive_events),
//   - rule firing through a subtransaction (subtxn + condition + action
//     spans, the heaviest span cluster per event).
// Off-mode numbers are pinned in tools/bench_baseline.json; the >10%
// regression gate in tools/run_benches.sh --strict covers them.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/protocol.h"
#include "obs/span.h"

namespace sentinel::bench {
namespace {

using obs::TraceMode;

/// Every benchmark here reports the same counters: the CSV reporter fixes
/// its columns at the first run and aborts on a name it has not seen.
void ReportCounters(benchmark::State& state, std::uint64_t spans,
                    std::uint64_t rule_execs) {
  state.counters["spans"] = static_cast<double>(spans);
  state.counters["rule_execs"] = static_cast<double>(rule_execs);
}

/// Notify path: declared primitive, no observers beyond a counting sink —
/// exercises the slow path's span gate without rule-execution noise.
void NotifyWithMode(benchmark::State& state, TraceMode mode) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  db.span_tracer()->set_mode(mode);
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  CountingSink sink;
  (void)db.detector()->Subscribe("e", &sink, ParamContext::kRecent);
  auto txn = db.Begin();
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations());
  ReportCounters(state, db.span_tracer()->recorded(), 0);
  state.SetLabel(obs::TraceModeToString(mode));
}

void BM_SpanNotifyTracerOff(benchmark::State& state) {
  NotifyWithMode(state, TraceMode::kOff);
}
void BM_SpanNotifyFlightOnly(benchmark::State& state) {
  NotifyWithMode(state, TraceMode::kFlightOnly);
}
void BM_SpanNotifyFull(benchmark::State& state) {
  NotifyWithMode(state, TraceMode::kFull);
}
BENCHMARK(BM_SpanNotifyTracerOff);
BENCHMARK(BM_SpanNotifyFlightOnly);
BENCHMARK(BM_SpanNotifyFull);

/// Rule-firing path: one immediate rule with a condition, so each event pays
/// the subtxn + condition + action span cluster (plus notify when kFull).
void SubTxnWithMode(benchmark::State& state, TraceMode mode) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  db.span_tracer()->set_mode(mode);
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  std::atomic<std::uint64_t> executed{0};
  (void)db.rule_manager()->DefineRule(
      "r", "e", [](const rules::RuleContext&) { return true; },
      [&executed](const rules::RuleContext&) {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
  auto txn = db.Begin();
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations());
  ReportCounters(state, db.span_tracer()->recorded(), executed.load());
  state.SetLabel(obs::TraceModeToString(mode));
}

void BM_SpanSubTxnTracerOff(benchmark::State& state) {
  SubTxnWithMode(state, TraceMode::kOff);
}
void BM_SpanSubTxnFlightOnly(benchmark::State& state) {
  SubTxnWithMode(state, TraceMode::kFlightOnly);
}
void BM_SpanSubTxnFull(benchmark::State& state) {
  SubTxnWithMode(state, TraceMode::kFull);
}
BENCHMARK(BM_SpanSubTxnTracerOff);
BENCHMARK(BM_SpanSubTxnFlightOnly);
BENCHMARK(BM_SpanSubTxnFull);

/// Wire cost of the distributed-trace trailer (DESIGN.md §14): one Notify
/// occurrence encoded in the pre-trailer format vs with the 24-byte
/// trace-context trailer + flags bit. run_benches.sh compares the pair —
/// the trailer must stay within 2% of the baseline encode (10% strict).
detector::PrimitiveOccurrence TrailerBenchOccurrence() {
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.oid = 1;
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = "void f(int v)";
  occ.txn = 1;
  auto params = std::make_shared<ParamList>();
  params->Insert("v", oodb::Value::Int(7));
  occ.params = params;
  return occ;
}

void BM_SpanNetEncodeBaseline(benchmark::State& state) {
  const detector::PrimitiveOccurrence occ = TrailerBenchOccurrence();
  for (auto _ : state) {
    BytesWriter body;
    net::EncodeOccurrence(occ, &body);
    const std::string wire =
        net::EncodeFrame(net::MessageType::kNotify, body);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
  ReportCounters(state, 0, 0);
}
BENCHMARK(BM_SpanNetEncodeBaseline);

void BM_SpanNetEncodeTrailer(benchmark::State& state) {
  const detector::PrimitiveOccurrence occ = TrailerBenchOccurrence();
  net::TraceContext tc;
  tc.trace_id = 0x1234abcd;
  tc.parent_span = 42;
  tc.origin_ns = 1;
  for (auto _ : state) {
    BytesWriter body;
    net::EncodeOccurrence(occ, &body);
    net::AppendTraceContext(tc, &body);
    const std::string wire = net::EncodeFrame(
        net::MessageType::kNotify, body, net::kFlagTraceContext);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
  ReportCounters(state, 0, 0);
}
BENCHMARK(BM_SpanNetEncodeTrailer);

}  // namespace
}  // namespace sentinel::bench
