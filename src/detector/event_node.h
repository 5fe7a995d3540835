#ifndef SENTINEL_DETECTOR_EVENT_NODE_H_
#define SENTINEL_DETECTOR_EVENT_NODE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/symbol.h"
#include "detector/event_types.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sentinel::detector {

/// Node of the event graph (the paper's operator-tree analogue, §3.2.2).
///
/// Each node keeps two subscriber lists — parent event nodes and sinks
/// (rules) — and a per-context reference counter. A node only detects (and
/// buffers occurrences) in contexts whose counter is positive; the counter
/// is incremented when a rule is defined in that context on an expression
/// containing the node, and decremented when the rule is disabled/deleted
/// (§3.2.2 item 1). This is what lets one shared graph serve many rules in
/// different contexts while avoiding the storage cost of unused contexts.
///
/// Locking discipline (two levels — see DESIGN.md "Concurrent dispatch"):
/// graph *structure* (parents_/sinks_/context_refs_) is guarded by the
/// detector's shared_mutex — mutated under the exclusive lock, read under
/// the shared lock that every signalling path holds. Operator-node
/// *occurrence buffers* are guarded by per-node striped mutexes (buffer_mu)
/// so concurrent notifications serialize only when they touch the same
/// node's state, never on one global lock. Buffer locks are leaf locks:
/// never held across Emit (operators collect detections under the lock and
/// emit after releasing it), so stripe sharing cannot deadlock.
class EventNode {
 public:
  explicit EventNode(std::string name);
  virtual ~EventNode() = default;

  EventNode(const EventNode&) = delete;
  EventNode& operator=(const EventNode&) = delete;

  const std::string& name() const { return name_; }

  // -- Wiring ---------------------------------------------------------------

  /// Registers `parent` to receive this node's detections on its child slot
  /// `port` (0 = left/initiator, 1 = middle/detector, 2 = right/terminator).
  void AddParent(EventNode* parent, int port);

  /// Drops every edge to `parent` (graph hygiene when an operator node is
  /// removed — e.g. the generated A* node of a deleted DEFERRED rule).
  void RemoveParent(EventNode* parent);

  /// Rules (and the GED forwarder) subscribe as sinks.
  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);
  /// Removes every sink in `sorted` (ascending by address) in one pass,
  /// keeping the remaining sinks in order.
  void RemoveSinks(std::span<EventSink* const> sorted);

  /// Children of this node in the event graph (empty for primitives).
  virtual std::vector<EventNode*> Children() const { return {}; }

  // -- Context management -----------------------------------------------------

  /// Increments the context counter on this node and its whole subtree.
  void AddContextRef(ParamContext context);
  /// Decrements; a node whose counter reaches 0 stops detecting in that
  /// context and discards its buffered occurrences for it.
  void ReleaseContextRef(ParamContext context);
  bool ActiveIn(ParamContext context) const {
    return context_refs_[static_cast<int>(context)] > 0;
  }
  int ContextRefs(ParamContext context) const {
    return context_refs_[static_cast<int>(context)];
  }
  /// Number of contexts with a positive reference count. Lock-free: the
  /// detector's Notify fast path uses it to skip nodes nobody subscribed to
  /// without taking the graph lock.
  int active_context_count() const {
    return active_contexts_.load(std::memory_order_acquire);
  }

  // -- Detection ---------------------------------------------------------------

  /// Delivery of a child detection into slot `port`, in `context`.
  virtual void Receive(int port, const Occurrence& occurrence,
                       ParamContext context) = 0;

  /// Temporal-clock advance (PLUS/P nodes override; others ignore).
  virtual void OnTimeAdvance(std::uint64_t now_ms) { (void)now_ms; }

  // -- Transaction hygiene -------------------------------------------------------

  /// Drops buffered (partially detected) occurrences belonging to `txn`
  /// (§3.2.2 item 3: events must not leak across transaction boundaries).
  virtual void FlushTxn(TxnId txn) { (void)txn; }
  /// Drops all buffered occurrences.
  virtual void FlushAll() {}

  /// Total buffered occurrences across contexts (storage accounting for the
  /// context benchmarks).
  virtual std::size_t BufferedCount() const { return 0; }

  std::size_t sink_count() const { return sinks_.size(); }

  // -- Observability -------------------------------------------------------------

  /// Per-node, per-context detection counters (src/obs). Written on the
  /// delivery paths with relaxed atomics; read by the stats surfaces.
  obs::NodeMetrics& metrics() const { return metrics_; }

  /// Attaches the span tracer (set by the owning detector under the
  /// exclusive graph lock; may be null). Operator nodes record a
  /// composite_detect record around each Emit.
  void set_span_tracer(obs::SpanTracer* tracer) { span_tracer_ = tracer; }

 protected:
  /// Delivers a detection to all parents and sinks. The sink list is
  /// snapshotted and each delivery re-checks membership, so a sink that
  /// reentrantly calls RemoveSink/Unsubscribe from OnEvent (e.g. a one-shot
  /// rule removing itself) cannot invalidate the iteration.
  void Emit(const Occurrence& occurrence, ParamContext context);

  /// This node's buffer lock (striped across nodes). Leaf lock only.
  std::mutex& buffer_mu() const { return buffer_mu_; }

  /// Acquires the buffer lock; operator buffer mutations lock through this.
  std::unique_lock<std::mutex> LockBuffer() const {
    return std::unique_lock<std::mutex>(buffer_mu_);
  }

  /// Operator-node constructors call this once; Emit then wraps deliveries
  /// in a composite_detect span when a span tracer is attached.
  void MarkComposite() { composite_ = true; }

 private:
  struct ParentEdge {
    EventNode* node;
    int port;
  };

  std::string name_;
  // Kept sorted by descending port (see AddParent) so Emit needs no per-call
  // sort: when one event feeds several ports of a parent (e.g. SEQ(e, e)),
  // terminator/closer ports must observe the operator state *before* the
  // occurrence is buffered as an initiator.
  std::vector<ParentEdge> parents_;
  std::vector<EventSink*> sinks_;
  std::array<int, kNumContexts> context_refs_{};
  std::atomic<int> active_contexts_{0};
  std::mutex& buffer_mu_;
  mutable obs::NodeMetrics metrics_;
  obs::SpanTracer* span_tracer_ = nullptr;
  bool composite_ = false;
};

/// Leaf node: a primitive event declared on (class, method, modifier), with
/// an optional instance filter (paper §3.1: class-level vs. instance-level
/// primitive events distinguished by whether an OID is bound).
class PrimitiveEventNode : public EventNode {
 public:
  PrimitiveEventNode(std::string name, std::string class_name,
                     EventModifier modifier, std::string method_signature,
                     oodb::Oid instance = oodb::kInvalidOid);

  const std::string& class_name() const { return class_name_; }
  EventModifier modifier() const { return modifier_; }
  const std::string& method_signature() const { return method_signature_; }
  common::SymbolId class_sym() const { return class_sym_; }
  common::SymbolId method_sym() const { return method_sym_; }
  oodb::Oid instance() const { return instance_; }
  bool is_instance_level() const { return instance_ != oodb::kInvalidOid; }

  /// True if a raw notification matches this node's declaration. The class
  /// has already been matched by the detector's dispatch index. Compares
  /// interned symbols; occurrences built outside the detector (no symbols
  /// attached) fall back to the string form.
  bool Matches(const PrimitiveOccurrence& raw) const {
    if (raw.modifier != modifier_) return false;
    if (raw.method_sym != common::kInvalidSymbol
            ? raw.method_sym != method_sym_
            : raw.method_signature != method_signature_) {
      return false;
    }
    return instance_ == oodb::kInvalidOid || raw.oid == instance_;
  }

  /// Accepts a raw notification from the detector: wraps it into an
  /// occurrence named after this node and emits it in every active context.
  void Signal(const std::shared_ptr<const PrimitiveOccurrence>& raw);

  void Receive(int port, const Occurrence& occurrence,
               ParamContext context) override;

 private:
  std::string class_name_;
  EventModifier modifier_;
  std::string method_signature_;
  common::SymbolId class_sym_;
  common::SymbolId method_sym_;
  oodb::Oid instance_;
};

}  // namespace sentinel::detector

#endif  // SENTINEL_DETECTOR_EVENT_NODE_H_
