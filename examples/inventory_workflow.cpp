// Inventory workflow: inter-application (global) events and detached rules
// (paper Fig. 2 and §2.1 "Inter-application (global) events ... especially
// useful for cooperative transactions and workflow applications").
//
// Two applications share a warehouse workflow:
//   - `orders`   submits purchase orders,
//   - `shipping` dispatches shipments.
// The global event detector watches SEQ(order_submitted ; shipment_sent)
// across the two applications and, when an order ships, delivers the global
// event back into the `orders` application where a DETACHED rule records the
// fulfilment in its own top-level transaction.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/active_database.h"
#include "core/reactive.h"
#include "ged/global_detector.h"

using sentinel::core::ActiveDatabase;
using sentinel::core::Reactive;
using sentinel::detector::EventModifier;
using sentinel::detector::ParamContext;
using sentinel::oodb::Value;
using sentinel::rules::CouplingMode;
using sentinel::rules::RuleContext;
using sentinel::rules::RuleManager;

namespace {

class Order : public Reactive {
 public:
  Order(ActiveDatabase* db, sentinel::oodb::Oid oid)
      : Reactive(db, "Order", oid) {}
  void submit(int order_id, int qty) {
    MethodScope scope(this, "void submit(int order_id, int qty)");
    scope.Param("order_id", Value::Int(order_id));
    scope.Param("qty", Value::Int(qty));
    scope.EnterBody();
    std::printf("  [orders]   order %d submitted (qty %d)\n", order_id, qty);
  }
  void confirm(int order_id) {
    MethodScope scope(this, "void confirm(int order_id)");
    scope.Param("order_id", Value::Int(order_id));
    scope.EnterBody();
    std::printf("  [orders]   order %d confirmed\n", order_id);
  }
};

class Shipment : public Reactive {
 public:
  Shipment(ActiveDatabase* db, sentinel::oodb::Oid oid)
      : Reactive(db, "Shipment", oid) {}
  void dispatch(int order_id) {
    MethodScope scope(this, "void dispatch(int order_id)");
    scope.Param("order_id", Value::Int(order_id));
    scope.EnterBody();
    std::printf("  [shipping] order %d dispatched\n", order_id);
  }
};

}  // namespace

int main() {
  ActiveDatabase orders, shipping;
  if (!orders.OpenInMemory().ok()) return 1;
  // SENTINEL_MONITOR_PORT starts monitoring at open; only `orders` may bind
  // the port, so `shipping` opens without it (its bind would fail).
  ::unsetenv("SENTINEL_MONITOR_PORT");
  if (!shipping.OpenInMemory().ok()) return 1;

  // SENTINEL_TRACE_EXPORT=<path>: record full causal spans and export them
  // as Chrome trace JSON at the end (load the file in ui.perfetto.dev).
  const char* trace_path = std::getenv("SENTINEL_TRACE_EXPORT");
  if (trace_path != nullptr) {
    orders.span_tracer()->set_mode(sentinel::obs::TraceMode::kFull);
    shipping.span_tracer()->set_mode(sentinel::obs::TraceMode::kFull);
  }

  sentinel::ged::GlobalEventDetector ged;
  (void)ged.RegisterApplication("orders", &orders);
  (void)ged.RegisterApplication("shipping", &shipping);

  // Global primitives mirroring each application's events.
  auto submitted = ged.DefineGlobalPrimitive(
      "order_submitted", "orders", "Order", EventModifier::kEnd,
      "void submit(int order_id, int qty)");
  auto dispatched = ged.DefineGlobalPrimitive(
      "shipment_sent", "shipping", "Shipment", EventModifier::kEnd,
      "void dispatch(int order_id)");
  if (!submitted.ok() || !dispatched.ok()) return 1;

  // Global composite: an order was submitted and later shipped.
  (void)ged.graph()->DefineSeq("order_fulfilled", *submitted, *dispatched);

  // The orders application handles fulfilment with a DETACHED rule: it runs
  // in its own top-level transaction, independent of whoever triggered it.
  (void)orders.detector()->DefineExplicit("fulfilment");
  RuleManager::RuleOptions detached;
  detached.coupling = CouplingMode::kDetached;
  (void)orders.rule_manager()->DefineRule(
      "record_fulfilment", "fulfilment", nullptr,
      [](const RuleContext& ctx) {
        std::printf("  [orders, detached txn %llu] order %lld fulfilled\n",
                    static_cast<unsigned long long>(ctx.txn),
                    static_cast<long long>(ctx.Param("order_id")->AsInt()));
      },
      detached);
  (void)ged.DeliverTo("order_fulfilled", "orders", "fulfilment");

  // Local composite inside the orders application: an order submitted and
  // then confirmed in the same transaction finalizes it — an IMMEDIATE rule
  // runs as a subtransaction of the submitting transaction. (This is the
  // txn → notify → composite_detect → subtxn chain a full span trace shows
  // as one tree.)
  auto submitted_l = orders.DeclareEvent(
      "order_submitted_l", "Order", EventModifier::kEnd,
      "void submit(int order_id, int qty)");
  auto confirmed_l = orders.DeclareEvent(
      "order_confirmed_l", "Order", EventModifier::kEnd,
      "void confirm(int order_id)");
  if (!submitted_l.ok() || !confirmed_l.ok()) return 1;
  (void)orders.detector()->DefineSeq("order_finalized", *submitted_l,
                                     *confirmed_l);
  (void)orders.rule_manager()->DefineRule(
      "log_finalized", "order_finalized", nullptr,
      [](const RuleContext& ctx) {
        std::printf("  [orders, subtxn %llu] order %lld finalized\n",
                    static_cast<unsigned long long>(ctx.subtxn),
                    static_cast<long long>(ctx.Param("order_id")->AsInt()));
      },
      RuleManager::RuleOptions{});

  std::printf("-- workflow run\n");
  auto otxn = orders.Begin();
  Order order(&orders, 1);
  order.set_current_txn(*otxn);
  order.submit(4711, 12);
  order.confirm(4711);
  (void)orders.Commit(*otxn);

  auto stxn = shipping.Begin();
  Shipment shipment(&shipping, 1);
  shipment.set_current_txn(*stxn);
  shipment.dispatch(4711);
  (void)shipping.Commit(*stxn);

  // Wait for the asynchronous global detection + detached execution.
  ged.WaitQuiescent();
  orders.scheduler()->WaitDetached();

  std::printf("done: GED forwarded %llu events\n",
              static_cast<unsigned long long>(ged.forwarded_count()));

  if (trace_path != nullptr) {
    sentinel::Status st = orders.ExportTrace(trace_path);
    if (st.ok()) {
      std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                  trace_path);
    } else {
      std::printf("trace export failed: %s\n", st.ToString().c_str());
    }
  }
  // SENTINEL_MONITOR_HOLD_MS=<ms>: keep the process (and therefore the
  // monitor endpoint started via SENTINEL_MONITOR_PORT) alive so an external
  // scraper can curl /metrics and /healthz — the CI monitoring smoke test.
  if (const char* hold = std::getenv("SENTINEL_MONITOR_HOLD_MS")) {
    const long ms = std::strtol(hold, nullptr, 10);
    if (ms > 0) {
      if (auto* server = orders.monitor_server()) {
        std::printf("monitor listening on 127.0.0.1:%d for %ld ms\n",
                    server->port(), ms);
      }
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
  (void)orders.Close();
  (void)shipping.Close();
  return 0;
}
