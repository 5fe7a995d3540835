// B1–B5 (DESIGN.md): BEAST-style active-DBMS benchmark (Gatziu et al.,
// "007 Meets the BEAST") adapted to Sentinel. BEAST measures an active
// system along three axes over an OO7-like schema (modules, composite
// parts, atomic parts, documents):
//
//   ED — event detection   (primitive, conjunction, sequence, negation,
//                           repeated occurrences, per context)
//   RM — rule management   (firing one rule out of a large rule base)
//   RE — rule execution    (single rule, multiple prioritized rules,
//                           cascades of nested triggers)

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace sentinel::bench {
namespace {

using rules::RuleContext;
using rules::RuleManager;

/// OO7-like workload: a module of composite parts, each owning atomic parts
/// whose `change()` method is the event source (BEAST drives OO7 update
/// operations as its event generators).
class Beast {
 public:
  explicit Beast(int atomic_parts) : atomic_parts_(atomic_parts) {
    (void)db_.OpenInMemory();
    (void)db_.DeclareEvent("ap_change", "AtomicPart", EventModifier::kEnd,
                           "void change(int delta)");
    (void)db_.DeclareEvent("ap_connect", "AtomicPart", EventModifier::kEnd,
                           "void connect(int to)");
    (void)db_.DeclareEvent("cp_rotate", "CompositePart", EventModifier::kEnd,
                           "void rotate()");
    (void)db_.DeclareEvent("doc_update", "Document", EventModifier::kEnd,
                           "void update_text()");
  }

  void ChangeAtomicPart(int part, storage::TxnId txn) {
    db_.NotifyMethod("AtomicPart", static_cast<oodb::Oid>(part % atomic_parts_ + 1),
                     EventModifier::kEnd, "void change(int delta)",
                     OneIntParam(part), txn);
  }
  void ConnectAtomicPart(int part, storage::TxnId txn) {
    db_.NotifyMethod("AtomicPart", static_cast<oodb::Oid>(part % atomic_parts_ + 1),
                     EventModifier::kEnd, "void connect(int to)",
                     OneIntParam(part), txn);
  }
  void RotateComposite(storage::TxnId txn) {
    db_.NotifyMethod("CompositePart", 1, EventModifier::kEnd, "void rotate()",
                     OneIntParam(0), txn);
  }

  core::ActiveDatabase* db() { return &db_; }

 private:
  core::ActiveDatabase db_;
  int atomic_parts_;
};

// ---- ED: event detection ---------------------------------------------------------

// ED-P1: primitive (method) event on atomic-part update.
void BM_BEAST_ED_P1_Primitive(benchmark::State& state) {
  Beast beast(100);
  CountingSink sink;
  (void)beast.db()->detector()->Subscribe("ap_change", &sink,
                                          ParamContext::kRecent);
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) beast.ChangeAtomicPart(++i, *txn);
  state.SetItemsProcessed(state.iterations());
  state.counters["detections"] = static_cast<double>(sink.count);
}
BENCHMARK(BM_BEAST_ED_P1_Primitive);

// ED-C1: conjunction (change ^ rotate), per context.
void BM_BEAST_ED_C1_Conjunction(benchmark::State& state) {
  const auto context = static_cast<ParamContext>(state.range(0));
  Beast beast(100);
  auto det = beast.db()->detector();
  (void)det->DefineAnd("c1", *det->Find("ap_change"), *det->Find("cp_rotate"));
  CountingSink sink;
  (void)det->Subscribe("c1", &sink, context);
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) {
    beast.ChangeAtomicPart(++i, *txn);
    beast.RotateComposite(*txn);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["detections"] = static_cast<double>(sink.count);
  state.SetLabel(detector::ParamContextToString(context));
}
BENCHMARK(BM_BEAST_ED_C1_Conjunction)->DenseRange(0, 3);

// ED-C2: sequence (connect then change).
void BM_BEAST_ED_C2_Sequence(benchmark::State& state) {
  Beast beast(100);
  auto det = beast.db()->detector();
  (void)det->DefineSeq("c2", *det->Find("ap_connect"), *det->Find("ap_change"));
  CountingSink sink;
  (void)det->Subscribe("c2", &sink, ParamContext::kChronicle);
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) {
    beast.ConnectAtomicPart(++i, *txn);
    beast.ChangeAtomicPart(++i, *txn);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["detections"] = static_cast<double>(sink.count);
}
BENCHMARK(BM_BEAST_ED_C2_Sequence);

// ED-C3: negation — rotate with no connect between two changes.
void BM_BEAST_ED_C3_Negation(benchmark::State& state) {
  Beast beast(100);
  auto det = beast.db()->detector();
  (void)det->DefineNot("c3", *det->Find("ap_change"), *det->Find("ap_connect"),
                       *det->Find("cp_rotate"));
  CountingSink sink;
  (void)det->Subscribe("c3", &sink, ParamContext::kRecent);
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) {
    beast.ChangeAtomicPart(++i, *txn);
    beast.RotateComposite(*txn);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["detections"] = static_cast<double>(sink.count);
}
BENCHMARK(BM_BEAST_ED_C3_Negation);

// ED-C4: repeated occurrences — A*(rotate, change, rotate) accumulation.
void BM_BEAST_ED_C4_History(benchmark::State& state) {
  const int occurrences = static_cast<int>(state.range(0));
  Beast beast(100);
  auto det = beast.db()->detector();
  (void)det->DefineAperiodicStar("c4", *det->Find("cp_rotate"),
                                 *det->Find("ap_change"),
                                 *det->Find("cp_rotate"));
  CountingSink sink;
  (void)det->Subscribe("c4", &sink, ParamContext::kCumulative);
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) {
    beast.RotateComposite(*txn);
    for (int k = 0; k < occurrences; ++k) beast.ChangeAtomicPart(++i, *txn);
    beast.RotateComposite(*txn);
  }
  state.SetItemsProcessed(state.iterations() * (occurrences + 2));
  state.counters["detections"] = static_cast<double>(sink.count);
}
BENCHMARK(BM_BEAST_ED_C4_History)->Arg(3)->Arg(25);

// ---- RM: rule management ------------------------------------------------------------

// RM-1: fire ONE rule while the rule base holds N others (retrieval scaling).
void BM_BEAST_RM_1_RuleBaseScaling(benchmark::State& state) {
  const int rule_base = static_cast<int>(state.range(0));
  Beast beast(100);
  std::atomic<std::uint64_t> fired{0};
  // N inactive rules on other events.
  for (int i = 0; i < rule_base; ++i) {
    (void)beast.db()->rule_manager()->DefineRule(
        "idle" + std::to_string(i), "doc_update", nullptr,
        [](const RuleContext&) {});
  }
  (void)beast.db()->rule_manager()->DefineRule(
      "hot", "ap_change", nullptr,
      [&fired](const RuleContext&) { ++fired; });
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) beast.ChangeAtomicPart(++i, *txn);
  state.SetItemsProcessed(state.iterations());
  state.counters["rule_base"] = rule_base;
  state.counters["fired"] = static_cast<double>(fired.load());
}
BENCHMARK(BM_BEAST_RM_1_RuleBaseScaling)->Arg(10)->Arg(100)->Arg(1000);

// RM-2: destroy a database whose rule base holds N rules on one event. The
// rule manager unsubscribes them in bulk, so teardown should be linear in
// N. Only the destruction is timed.
void BM_BEAST_RM_2_RuleBaseTeardown(benchmark::State& state) {
  const int rule_base = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto beast = std::make_unique<Beast>(100);
    for (int i = 0; i < rule_base; ++i) {
      (void)beast->db()->rule_manager()->DefineRule(
          "idle" + std::to_string(i), "doc_update", nullptr,
          [](const RuleContext&) {});
    }
    state.ResumeTiming();
    beast.reset();
  }
  state.counters["rule_base"] = rule_base;
}
BENCHMARK(BM_BEAST_RM_2_RuleBaseTeardown)
    ->Arg(1000)
    ->Arg(20000)
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

// ---- RE: rule execution -----------------------------------------------------------

// RE-1/RE-2: k prioritized rules per event.
void BM_BEAST_RE_2_MultipleRules(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Beast beast(100);
  std::atomic<std::uint64_t> fired{0};
  for (int i = 0; i < k; ++i) {
    RuleManager::RuleOptions options;
    options.priority = i;
    (void)beast.db()->rule_manager()->DefineRule(
        "r" + std::to_string(i), "ap_change", nullptr,
        [&fired](const RuleContext&) { ++fired; }, options);
  }
  auto txn = beast.db()->Begin();
  int i = 0;
  for (auto _ : state) beast.ChangeAtomicPart(++i, *txn);
  state.SetItemsProcessed(state.iterations() * k);
  state.counters["fired"] = static_cast<double>(fired.load());
}
BENCHMARK(BM_BEAST_RE_2_MultipleRules)->Arg(1)->Arg(4)->Arg(16);

// RE-3: cascade — a rule whose action updates another part, triggering the
// next rule, to the given depth.
void BM_BEAST_RE_3_Cascade(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Beast beast(100);
  auto det = beast.db()->detector();
  for (int i = 0; i < depth; ++i) {
    (void)det->DefineExplicit("cascade" + std::to_string(i));
  }
  std::atomic<std::uint64_t> leaf{0};
  for (int i = 0; i < depth; ++i) {
    rules::ActionFn action;
    if (i + 1 < depth) {
      const std::string next = "cascade" + std::to_string(i + 1);
      action = [det, next](const RuleContext& ctx) {
        (void)det->RaiseExplicit(next, nullptr, ctx.txn);
      };
    } else {
      action = [&leaf](const RuleContext&) { ++leaf; };
    }
    (void)beast.db()->rule_manager()->DefineRule(
        "c" + std::to_string(i), "cascade" + std::to_string(i), nullptr,
        action);
  }
  auto txn = beast.db()->Begin();
  for (auto _ : state) {
    (void)beast.db()->RaiseEvent("cascade0", nullptr, *txn);
  }
  state.SetItemsProcessed(state.iterations() * depth);
  state.counters["leaf"] = static_cast<double>(leaf.load());
  state.counters["max_depth"] =
      static_cast<double>(beast.db()->scheduler()->max_depth_seen());
}
BENCHMARK(BM_BEAST_RE_3_Cascade)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace sentinel::bench
