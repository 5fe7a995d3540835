#ifndef SENTINEL_DETECTOR_LOCAL_DETECTOR_H_
#define SENTINEL_DETECTOR_LOCAL_DETECTOR_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/symbol.h"
#include "detector/event_node.h"
#include "detector/operator_nodes.h"
#include "oodb/schema.h"

namespace sentinel::detector {

/// The local composite event detector (paper §2.3, §3.2.2): one instance per
/// application. Owns the event graph, routes raw method notifications to the
/// primitive event nodes of the signalling class (and its ancestors — class
/// level events apply to subclasses), advances temporal events, manages
/// subscriber lists and context reference counts, and flushes buffered
/// occurrences at transaction boundaries.
///
/// Detection is demand-driven: notifications propagate only to nodes whose
/// class/method matches, and operator nodes only process contexts with a
/// positive reference count.
///
/// Concurrency (see DESIGN.md "Concurrent dispatch fast path"):
///  - graph_mu_ (shared_mutex) guards graph *structure*: definitions and
///    (un)subscriptions take it exclusive; Notify/Inject/RaiseExplicit/
///    AdvanceTime/flushes take it shared, so signalling threads run
///    concurrently.
///  - Operator-node occurrence buffers are guarded by per-node striped
///    mutexes (EventNode::buffer_mu) under the shared graph lock.
///  - Routing uses a precompiled dispatch index keyed by
///    (class_sym, modifier, method_sym) → flat vector of matching primitive
///    nodes, published lock-free through one atomic pointer and invalidated
///    by generation counters (event definitions and class registrations).
///    Classes with no reactive events hit a negative-cache entry, making
///    Notify on a quiescent class a few atomic loads and one probe.
class LocalEventDetector {
 public:
  LocalEventDetector();
  ~LocalEventDetector();

  LocalEventDetector(const LocalEventDetector&) = delete;
  LocalEventDetector& operator=(const LocalEventDetector&) = delete;

  // -- Event definition --------------------------------------------------------

  /// Declares a primitive event on (class, method, modifier); bind `instance`
  /// for an instance-level event (paper §3.1).
  Result<EventNode*> DefinePrimitive(const std::string& name,
                                     const std::string& class_name,
                                     EventModifier modifier,
                                     const std::string& method_signature,
                                     oodb::Oid instance = oodb::kInvalidOid);

  /// Declares an explicit (abstract) event raised by name from application
  /// code rather than by a method invocation.
  Result<EventNode*> DefineExplicit(const std::string& name);

  Result<EventNode*> DefineOr(const std::string& name, EventNode* left,
                              EventNode* right);
  Result<EventNode*> DefineAnd(const std::string& name, EventNode* left,
                               EventNode* right);
  Result<EventNode*> DefineSeq(const std::string& name, EventNode* left,
                               EventNode* right);
  Result<EventNode*> DefineNot(const std::string& name, EventNode* opener,
                               EventNode* canceller, EventNode* closer);
  Result<EventNode*> DefineAperiodic(const std::string& name, EventNode* opener,
                                     EventNode* detector, EventNode* closer);
  Result<EventNode*> DefineAperiodicStar(const std::string& name,
                                         EventNode* opener, EventNode* detector,
                                         EventNode* closer);
  /// ANY(m, E1..En): m of the n distinct events occurred, any order.
  Result<EventNode*> DefineAny(const std::string& name, std::size_t threshold,
                               std::vector<EventNode*> children);
  Result<EventNode*> DefinePlus(const std::string& name, EventNode* base,
                                std::uint64_t delta_ms);
  Result<EventNode*> DefinePeriodic(const std::string& name, EventNode* opener,
                                    std::uint64_t period_ms, EventNode* closer);
  Result<EventNode*> DefinePeriodicStar(const std::string& name,
                                        EventNode* opener,
                                        std::uint64_t period_ms,
                                        EventNode* closer);

  Result<EventNode*> Find(const std::string& name) const;
  bool Exists(const std::string& name) const;
  std::vector<std::string> EventNames() const;
  std::size_t node_count() const;

  /// Removes an event node from the graph (graph hygiene: the rewritten A*
  /// node of a deleted DEFERRED rule must not keep buffering occurrences).
  /// Fails if the node still has sinks or is a child of another expression.
  Status RemoveEvent(const std::string& name);

  // -- Signalling ----------------------------------------------------------------

  /// Raw notification from a wrapper method (the paper's Notify call inserted
  /// by the post-processor). Assigns the occurrence timestamp and routes to
  /// matching primitive nodes.
  void Notify(const std::string& class_name, oodb::Oid oid,
              EventModifier modifier, const std::string& method_signature,
              std::shared_ptr<const ParamList> params, TxnId txn);

  /// Raises an explicit event by name.
  Status RaiseExplicit(const std::string& name,
                       std::shared_ptr<const ParamList> params, TxnId txn);

  /// Batch-mode entry: injects a recorded occurrence (event-log replay),
  /// preserving its original timestamps.
  void Inject(const PrimitiveOccurrence& recorded);

  // -- Temporal events -------------------------------------------------------------

  /// Advances the temporal clock and fires due PLUS/P occurrences. The clock
  /// is virtual: tests and batch replay advance it explicitly; an online
  /// application may drive it from wall time.
  void AdvanceTime(std::uint64_t now_ms);
  std::uint64_t now_ms() const {
    return now_ms_.load(std::memory_order_relaxed);
  }

  // -- Subscription ------------------------------------------------------------------

  /// Subscribes `sink` to `event` in `context`: adds the sink to the node's
  /// subscriber list and propagates a context reference through the
  /// expression's subtree (starting detection in that context if it was
  /// inactive — §3.2.2 item 1).
  Status Subscribe(const std::string& event, EventSink* sink,
                   ParamContext context);
  Status Unsubscribe(const std::string& event, EventSink* sink,
                     ParamContext context);

  /// One sink's subscription, as UnsubscribeAll takes it.
  struct Subscription {
    const std::string* event;
    EventSink* sink;
    ParamContext context;
  };
  /// Unsubscribes many sinks under one graph lock, removing each node's
  /// departing sinks in one pass that keeps the rest in order, so tearing
  /// down a rule base is linear in its size. Unknown events are skipped.
  void UnsubscribeAll(std::span<const Subscription> subscriptions);

  // -- Transaction hygiene ----------------------------------------------------------

  /// Flushes buffered occurrences of `txn` from the whole graph (invoked on
  /// commit/abort by the active layer's internal rules).
  void FlushTxn(TxnId txn);
  void FlushAll();
  /// Flushes one event expression's subtree only (selective flush, §3.2.2).
  Status FlushEvent(const std::string& event);

  /// Total buffered occurrences (context storage accounting).
  std::size_t BufferedCount() const;

  // -- Condition guard ---------------------------------------------------------------

  /// While a rule's condition function runs, signalled events must be
  /// ignored (conditions are side-effect free — §3.2.1). The guard is
  /// per-thread since rules execute on scheduler threads.
  class SuppressScope {
   public:
    SuppressScope();
    ~SuppressScope();
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;
  };
  static bool SignalingSuppressed();

  // -- Integration hooks ----------------------------------------------------------------

  /// Class registry for inheritance-aware class-level event matching.
  void set_class_registry(const oodb::ClassRegistry* registry) {
    registry_.store(registry, std::memory_order_release);
  }

  /// Observers invoked for every accepted raw notification (event logging
  /// and global-event forwarding may both be attached).
  void AddRawObserver(std::function<void(const PrimitiveOccurrence&)> observer);

  LogicalClock* clock() { return &clock_; }
  std::uint64_t notify_count() const {
    return notify_count_.load(std::memory_order_relaxed);
  }

  // -- Observability ------------------------------------------------------------

  /// Attaches the span tracer: notify spans on the Notify slow path (the
  /// fast-path returns stay metric-free) and composite_detect records on
  /// operator-node detections. Propagated to every installed node and to
  /// nodes installed later; call before signalling starts.
  void set_span_tracer(obs::SpanTracer* tracer);
  obs::SpanTracer* span_tracer() const {
    return span_tracer_.load(std::memory_order_acquire);
  }

  /// Event graph in Graphviz DOT, nodes annotated with their per-context
  /// reference counts and detection counters.
  std::string DumpGraph() const;

  /// Counter snapshot of one graph node: what the Prometheus exposition's
  /// sentinel_event_* families read.
  struct NodeStat {
    std::string name;
    std::string kind;
    std::size_t sinks = 0;
    std::size_t buffered = 0;
    std::uint64_t flushed = 0;
    struct Context {
      int refs = 0;
      std::uint64_t received = 0;
      std::uint64_t detected = 0;
    };
    std::array<Context, kNumContexts> contexts;
  };
  std::vector<NodeStat> SnapshotNodes() const;

  /// Graph-wide counter totals (the watchdog's per-tick sample; one shared
  /// lock + one pass over the nodes).
  struct Totals {
    std::uint64_t notifications = 0;
    std::uint64_t detections = 0;
    std::uint64_t buffered = 0;
    std::uint64_t flushed = 0;
  };
  Totals TotalsSnapshot() const;

 private:
  /// One dispatch-index slot: the matching primitive nodes for a
  /// (class, modifier, method) notification key, plus the interned symbols
  /// so the hot path never re-interns. An empty node list is the negative
  /// cache for classes/methods with no reactive events.
  struct DispatchEntry;
  /// An immutable published index generation. Retired generations are kept
  /// until the detector dies so lock-free readers never race reclamation.
  struct DispatchIndex;
  /// Per-thread single-entry inline cache of the last resolved key.
  struct DispatchMemo;

  Result<EventNode*> InstallLocked(const std::string& name,
                                   std::unique_ptr<EventNode> node);
  Result<EventNode*> FindLocked(const std::string& name) const;

  std::uint64_t RegistryVersion() const;
  bool IndexCurrent(const DispatchIndex& idx) const;
  static std::uint64_t PackKey(common::SymbolId class_sym,
                               EventModifier modifier,
                               common::SymbolId method_sym);
  static DispatchMemo& Memo();

  /// Lock-free probe of a published index (memo first, then symbol + hash
  /// probes). Returns nullptr when the key has no entry yet.
  const DispatchEntry* Probe(const DispatchIndex& idx,
                             const std::string& class_name,
                             EventModifier modifier,
                             const std::string& method_signature) const;
  /// Resolves (building and publishing a new index generation if needed).
  /// Caller holds graph_mu_ at least shared.
  const DispatchEntry* ResolveLocked(const std::string& class_name,
                                     EventModifier modifier,
                                     const std::string& method_signature);
  /// The dispatch tail shared by Notify, RaiseExplicit and Inject: runs the
  /// raw observers, then signals each of `nodes` that matches `raw`. Caller
  /// holds graph_mu_ at least shared.
  void Dispatch(std::shared_ptr<const PrimitiveOccurrence> raw,
                std::span<PrimitiveEventNode* const> nodes);
  /// Flattens the per-class lists + inheritance walk into the flat node
  /// vector for one key. Caller holds graph_mu_ at least shared.
  std::vector<PrimitiveEventNode*> BuildDispatchList(
      const std::string& class_name, EventModifier modifier,
      common::SymbolId method_sym) const;

  mutable std::shared_mutex graph_mu_;
  std::map<std::string, std::unique_ptr<EventNode>> nodes_;
  // Class name -> primitive nodes declared on that class (paper: primitive
  // events maintained as per-class lists). Flattened into the dispatch
  // index on first use of each notification key.
  std::map<std::string, std::vector<PrimitiveEventNode*>> by_class_;
  std::map<std::string, PrimitiveEventNode*> explicit_events_;
  std::vector<EventNode*> temporal_nodes_;

  std::atomic<const oodb::ClassRegistry*> registry_{nullptr};
  std::vector<std::function<void(const PrimitiveOccurrence&)>> raw_observers_;

  // Lock-free counters consulted by the Notify fast path.
  std::atomic<int> observer_count_{0};
  std::atomic<std::size_t> primitive_count_{0};
  // Bumped on every DefinePrimitive: invalidates published indexes.
  std::atomic<std::uint64_t> def_gen_{1};

  mutable std::mutex index_mu_;  // serializes index builds only
  std::vector<std::unique_ptr<const DispatchIndex>> retired_indexes_;
  std::atomic<const DispatchIndex*> index_{nullptr};

  LogicalClock clock_;
  std::atomic<std::uint64_t> now_ms_{0};
  std::atomic<std::uint64_t> notify_count_{0};
  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
};

}  // namespace sentinel::detector

#endif  // SENTINEL_DETECTOR_LOCAL_DETECTOR_H_
