// Profiling-plane overhead (DESIGN.md §15): every profiler feed is gated on
// one relaxed load of the mode, so the Notify hot path must cost the same
// whether the profiler object exists or not while profiling is off — and
// stay cheap (sharded-counter adds plus four clock reads per firing) while
// it is on. Two loop shapes, each off/on:
//   - DeclaredNoRule: the BM_NotifyEventDeclaredNoRule shape (primitive
//     dispatch into a counting sink, no rule),
//   - ImmediateRule:  the BM_NotifyWithImmediateRule shape (condition +
//     action + commit seams all recorded per firing).
// tools/run_benches.sh folds the four into BENCH_profile.json and compares
// each On variant against its Off twin within the run: >2% drift on the
// off-path warns, >10% fails strict mode.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/profiler.h"
#include "rules/rule_manager.h"

namespace sentinel::bench {
namespace {

void NotifyDeclaredNoRule(benchmark::State& state, bool profiling) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  CountingSink sink;
  (void)db.detector()->Subscribe("e", &sink, ParamContext::kRecent);
  if (profiling) db.profiler()->Start();

  auto txn = db.Begin();
  CounterBaseline base(db);
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations());
  base.Report(&db, &state);
}

void NotifyWithImmediateRule(benchmark::State& state, bool profiling) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  (void)db.rule_manager()->DefineRule("r_bench", "e", nullptr,
                                      [](const rules::RuleContext&) {});
  if (profiling) db.profiler()->Start();

  auto txn = db.Begin();
  CounterBaseline base(db);
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations());
  base.Report(&db, &state);
}

void BM_ProfileNotifyDeclaredNoRuleOff(benchmark::State& state) {
  NotifyDeclaredNoRule(state, false);
}
void BM_ProfileNotifyDeclaredNoRuleOn(benchmark::State& state) {
  NotifyDeclaredNoRule(state, true);
}
void BM_ProfileNotifyImmediateRuleOff(benchmark::State& state) {
  NotifyWithImmediateRule(state, false);
}
void BM_ProfileNotifyImmediateRuleOn(benchmark::State& state) {
  NotifyWithImmediateRule(state, true);
}
BENCHMARK(BM_ProfileNotifyDeclaredNoRuleOff);
BENCHMARK(BM_ProfileNotifyDeclaredNoRuleOn);
BENCHMARK(BM_ProfileNotifyImmediateRuleOff);
BENCHMARK(BM_ProfileNotifyImmediateRuleOn);

}  // namespace
}  // namespace sentinel::bench
