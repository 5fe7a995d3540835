// E5 (DESIGN.md): thread-based prioritized rule execution (paper §2.3,
// Fig. 3) — firing cost vs. number of triggered rules, scheduling policy,
// and nesting depth.

#include <benchmark/benchmark.h>

#include <atomic>

#include "bench_util.h"

namespace sentinel::bench {
namespace {

using rules::RuleManager;
using rules::SchedulingPolicy;

void BM_RulesPerEvent(benchmark::State& state) {
  const int num_rules = static_cast<int>(state.range(0));
  const auto policy = static_cast<SchedulingPolicy>(state.range(1));
  core::ActiveDatabase db;
  core::ActiveDatabase::Options options;
  options.scheduler.policy = policy;
  (void)db.OpenInMemory(options);
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  std::atomic<std::uint64_t> executed{0};
  for (int i = 0; i < num_rules; ++i) {
    RuleManager::RuleOptions rule_options;
    rule_options.priority = i % 4;
    (void)db.rule_manager()->DefineRule(
        "r" + std::to_string(i), "e", nullptr,
        [&executed](const rules::RuleContext&) { ++executed; }, rule_options);
  }
  auto txn = db.Begin();
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations() * num_rules);
  state.counters["rule_execs"] = static_cast<double>(executed.load());
  state.SetLabel(policy == SchedulingPolicy::kSerial ? "serial"
                                                     : "priority_classes");
}
BENCHMARK(BM_RulesPerEvent)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 2}});

// Nested triggering: rule i raises the event of rule i+1 (depth-first chain).
void BM_NestedRuleDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  for (int i = 0; i < depth; ++i) {
    (void)db.DeclareEvent("e" + std::to_string(i), "C", EventModifier::kEnd,
                          "void f" + std::to_string(i) + "()");
  }
  std::atomic<std::uint64_t> leaf{0};
  for (int i = 0; i < depth; ++i) {
    rules::ActionFn action;
    if (i + 1 < depth) {
      const std::string next_method = "void f" + std::to_string(i + 1) + "()";
      action = [&db, next_method](const rules::RuleContext& ctx) {
        db.detector()->Notify("C", 1, EventModifier::kEnd, next_method,
                              nullptr, ctx.txn);
      };
    } else {
      action = [&leaf](const rules::RuleContext&) { ++leaf; };
    }
    (void)db.rule_manager()->DefineRule("r" + std::to_string(i),
                                        "e" + std::to_string(i), nullptr,
                                        action);
  }
  auto txn = db.Begin();
  for (auto _ : state) {
    FireMethod(&db, "C", "void f0()", 0, *txn);
  }
  state.SetItemsProcessed(state.iterations() * depth);
  state.counters["max_depth"] =
      static_cast<double>(db.scheduler()->max_depth_seen());
  state.counters["leaf_execs"] = static_cast<double>(leaf.load());
}
BENCHMARK(BM_NestedRuleDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Condition rejection cost: the rule machinery runs but the action doesn't.
void BM_ConditionRejects(benchmark::State& state) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  (void)db.rule_manager()->DefineRule(
      "r", "e", [](const rules::RuleContext&) { return false; },
      [](const rules::RuleContext&) {});
  auto txn = db.Begin();
  int v = 0;
  for (auto _ : state) {
    FireMethod(&db, "C", "void f(int v)", ++v, *txn);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rejections"] =
      static_cast<double>(db.scheduler()->condition_rejections());
}
BENCHMARK(BM_ConditionRejects);

// Rule management operations (BEAST RM-style): enable/disable cycling.
void BM_EnableDisableRule(benchmark::State& state) {
  core::ActiveDatabase db;
  (void)db.OpenInMemory();
  (void)db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)");
  (void)db.rule_manager()->DefineRule("r", "e", nullptr,
                                      [](const rules::RuleContext&) {});
  for (auto _ : state) {
    (void)db.rule_manager()->DisableRule("r");
    (void)db.rule_manager()->EnableRule("r");
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EnableDisableRule);

}  // namespace
}  // namespace sentinel::bench
