// Portfolio monitor: parameter contexts, coupling modes and rule priorities
// on a trading workload — the application domain the paper's STOCK class
// sketches.
//
// Demonstrates:
//   - one shared event graph detecting in several parameter contexts,
//   - an IMMEDIATE alerting rule vs. a DEFERRED end-of-transaction summary
//     (the A*(begin, E, pre_commit) rewrite),
//   - priority classes ordering rule execution,
//   - the rule debugger's trace output.

#include <cstdio>
#include <memory>

#include "core/active_database.h"
#include "core/reactive.h"
#include "debug/rule_debugger.h"

using sentinel::core::ActiveDatabase;
using sentinel::core::Reactive;
using sentinel::detector::EventModifier;
using sentinel::detector::ParamContext;
using sentinel::oodb::Value;
using sentinel::rules::CouplingMode;
using sentinel::rules::RuleContext;
using sentinel::rules::RuleManager;

namespace {

class Position : public Reactive {
 public:
  Position(ActiveDatabase* db, sentinel::oodb::Oid oid, const char* symbol)
      : Reactive(db, "Position", oid), symbol_(symbol) {}

  void trade(int qty, double price) {
    MethodScope scope(this, "void trade(int qty, float price)");
    scope.Param("symbol", Value::String(symbol_));
    scope.Param("qty", Value::Int(qty));
    scope.Param("price", Value::Double(price));
    scope.EnterBody();
  }

 private:
  std::string symbol_;
};

}  // namespace

int main() {
  ActiveDatabase db;
  if (auto st = db.OpenInMemory(); !st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }
  sentinel::debug::RuleDebugger debugger;
  debugger.Attach(&db);

  (void)db.DeclareEvent("trade_ev", "Position", EventModifier::kEnd,
                        "void trade(int qty, float price)");

  RuleManager* rules = db.rule_manager();
  (void)rules->DefinePriorityClass("critical", 100);
  (void)rules->DefinePriorityClass("routine", 10);

  // IMMEDIATE, high priority: alert on any large trade, as it happens.
  RuleManager::RuleOptions alert_options;
  alert_options.context = ParamContext::kRecent;
  auto alert = rules->DefineRuleWithPriorityClass(
      "large_trade_alert", "trade_ev",
      [](const RuleContext& ctx) { return ctx.Param("qty")->AsInt() >= 1000; },
      [](const RuleContext& ctx) {
        std::printf("  [ALERT] large trade: %s qty=%lld\n",
                    ctx.Param("symbol")->AsString().c_str(),
                    static_cast<long long>(ctx.Param("qty")->AsInt()));
      },
      alert_options, "critical");
  if (!alert.ok()) return 1;

  // IMMEDIATE, low priority: audit every trade (runs after the alert).
  RuleManager::RuleOptions audit_options;
  (void)rules->DefineRuleWithPriorityClass(
      "trade_audit", "trade_ev", nullptr,
      [](const RuleContext& ctx) {
        std::printf("  [audit] %s qty=%lld @ %.2f\n",
                    ctx.Param("symbol")->AsString().c_str(),
                    static_cast<long long>(ctx.Param("qty")->AsInt()),
                    ctx.Param("price")->AsDouble());
      },
      audit_options, "routine");

  // DEFERRED + CUMULATIVE: end-of-transaction summary over the net effect —
  // the paper's A*(begin_transaction, trade_ev, pre_commit) rewrite fires it
  // exactly once with every trade of the transaction.
  RuleManager::RuleOptions summary_options;
  summary_options.coupling = CouplingMode::kDeferred;
  summary_options.context = ParamContext::kCumulative;
  (void)rules->DefineRule(
      "txn_summary", "trade_ev", nullptr,
      [](const RuleContext& ctx) {
        const auto trades = ctx.occurrence->Of("trade_ev");
        long long volume = 0;
        for (const auto& t : trades) {
          volume += t->params->Get("qty")->AsInt();
        }
        std::printf("  [summary @ pre-commit] %zu trades, total volume %lld\n",
                    trades.size(), volume);
      },
      summary_options);

  std::printf("-- trading session (one transaction)\n");
  auto txn = db.Begin();
  Position ibm(&db, 1, "IBM");
  Position dec(&db, 2, "DEC");
  ibm.set_current_txn(*txn);
  dec.set_current_txn(*txn);
  ibm.trade(200, 101.25);
  dec.trade(1500, 44.10);   // triggers the alert
  ibm.trade(50, 101.50);
  std::printf("-- committing (deferred summary fires now)\n");
  (void)db.Commit(*txn);

  std::printf("\n-- debugger trace --\n%s", debugger.RenderTrace().c_str());
  std::printf("-- event graph (DOT) --\n%s",
              db.detector()->DumpGraph().c_str());
  (void)db.Close();
  return 0;
}
