// E8 (DESIGN.md): online vs. batch (event-log replay) detection — same
// graph, same contexts, same detections; batch adds serialization but
// amortizes scheduling.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "detector/event_log.h"
#include "detector/local_detector.h"
#include "net/protocol.h"

namespace sentinel::bench {
namespace {

using detector::EventLog;
using detector::LocalEventDetector;

void BuildGraph(LocalEventDetector* det) {
  auto a = det->DefinePrimitive("a", "C", EventModifier::kEnd, "void fa()");
  auto b = det->DefinePrimitive("b", "C", EventModifier::kEnd, "void fb()");
  (void)det->DefineSeq("a_then_b", *a, *b);
}

void BM_OnlineDetection(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    LocalEventDetector det;
    BuildGraph(&det);
    CountingSink sink;
    (void)det.Subscribe("a_then_b", &sink, ParamContext::kChronicle);
    state.ResumeTiming();
    for (int i = 0; i < events; ++i) {
      det.Notify("C", 1, EventModifier::kEnd,
                 (i % 2 == 0) ? "void fa()" : "void fb()", OneIntParam(i), 1);
    }
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_OnlineDetection)->Arg(256)->Arg(2048);

void BM_OnlineDetectionWithLogging(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    LocalEventDetector det;
    BuildGraph(&det);
    EventLog log;
    log.AttachTo(&det);
    CountingSink sink;
    (void)det.Subscribe("a_then_b", &sink, ParamContext::kChronicle);
    state.ResumeTiming();
    for (int i = 0; i < events; ++i) {
      det.Notify("C", 1, EventModifier::kEnd,
                 (i % 2 == 0) ? "void fa()" : "void fb()", OneIntParam(i), 1);
    }
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_OnlineDetectionWithLogging)->Arg(256)->Arg(2048);

void BM_BatchReplay(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  // Record once.
  LocalEventDetector recorder;
  BuildGraph(&recorder);
  CountingSink keep;
  (void)recorder.Subscribe("a_then_b", &keep, ParamContext::kChronicle);
  EventLog log;
  log.AttachTo(&recorder);
  for (int i = 0; i < events; ++i) {
    recorder.Notify("C", 1, EventModifier::kEnd,
                    (i % 2 == 0) ? "void fa()" : "void fb()", OneIntParam(i),
                    1);
  }
  for (auto _ : state) {
    state.PauseTiming();
    LocalEventDetector det;
    BuildGraph(&det);
    CountingSink sink;
    (void)det.Subscribe("a_then_b", &sink, ParamContext::kChronicle);
    state.ResumeTiming();
    benchmark::DoNotOptimize(log.Replay(&det).ok());
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_BatchReplay)->Arg(256)->Arg(2048);

void BM_LogSerializationRoundTrip(benchmark::State& state) {
  detector::PrimitiveOccurrence occ;
  occ.event_name = "e";
  occ.class_name = "C";
  occ.method_signature = "void f(int v)";
  occ.at = 42;
  occ.params = OneIntParam(7);
  for (auto _ : state) {
    BytesWriter writer;
    net::EncodeOccurrence(occ, &writer);
    BytesReader reader(writer.data());
    auto back = net::DecodeOccurrence(&reader);
    benchmark::DoNotOptimize(back.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogSerializationRoundTrip);

}  // namespace
}  // namespace sentinel::bench
