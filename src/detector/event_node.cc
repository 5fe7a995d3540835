#include "detector/event_node.h"

#include <algorithm>

#include "common/logging.h"
#include "common/pool.h"
#include "obs/span.h"

namespace sentinel::detector {

namespace {

/// Striped buffer mutexes shared by all event nodes in the process. Nodes
/// are assigned stripes round-robin at construction so sibling nodes (built
/// together when an expression is defined) land on distinct stripes. A
/// stripe collision between unrelated nodes costs contention only, never
/// deadlock: buffer locks are leaf locks (collect-then-emit).
constexpr std::size_t kBufferStripes = 64;

std::mutex& AssignBufferStripe() {
  static std::array<std::mutex, kBufferStripes> stripes;
  static std::atomic<std::size_t> next{0};
  return stripes[next.fetch_add(1, std::memory_order_relaxed) %
                 kBufferStripes];
}

}  // namespace

EventNode::EventNode(std::string name)
    : name_(std::move(name)), buffer_mu_(AssignBufferStripe()) {}

void EventNode::AddParent(EventNode* parent, int port) {
  // Insert keeping descending port order (stable for equal ports).
  auto it = std::find_if(
      parents_.begin(), parents_.end(),
      [port](const ParentEdge& edge) { return edge.port < port; });
  parents_.insert(it, ParentEdge{parent, port});
}

void EventNode::RemoveParent(EventNode* parent) {
  parents_.erase(std::remove_if(parents_.begin(), parents_.end(),
                                [parent](const ParentEdge& edge) {
                                  return edge.node == parent;
                                }),
                 parents_.end());
}

void EventNode::AddSink(EventSink* sink) { sinks_.push_back(sink); }

void EventNode::RemoveSink(EventSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void EventNode::RemoveSinks(std::span<EventSink* const> sorted) {
  sinks_.erase(std::remove_if(sinks_.begin(), sinks_.end(),
                              [sorted](EventSink* sink) {
                                return std::binary_search(
                                    sorted.begin(), sorted.end(), sink);
                              }),
               sinks_.end());
}

void EventNode::AddContextRef(ParamContext context) {
  int& refs = context_refs_[static_cast<int>(context)];
  if (++refs == 1) active_contexts_.fetch_add(1, std::memory_order_release);
  for (EventNode* child : Children()) {
    if (child != nullptr) child->AddContextRef(context);
  }
}

void EventNode::ReleaseContextRef(ParamContext context) {
  int& refs = context_refs_[static_cast<int>(context)];
  if (refs == 0) {
    SENTINEL_LOG(kWarn) << "context underflow on node " << name_;
    return;
  }
  if (--refs == 0) active_contexts_.fetch_sub(1, std::memory_order_release);
  for (EventNode* child : Children()) {
    if (child != nullptr) child->ReleaseContextRef(context);
  }
}

void EventNode::Emit(const OccurrenceRef& occurrence, ParamContext context) {
  metrics_.OnDetected(context);
  // Operator detections open a composite_detect record covering the whole
  // cascade, on every exit path: parent deliveries and sink firings below
  // happen inside it, so rule subtransactions parent into the detection
  // that triggered them.
  obs::SpanScope detect_span;
  if (composite_ && span_tracer_ != nullptr &&
      span_tracer_->enabled_for(obs::SpanKind::kCompositeDetect) &&
      detect_span.Open(span_tracer_, obs::SpanKind::kCompositeDetect,
                       occurrence->txn)) {
    detect_span.set_label(name_);
  }
  // parents_ is kept sorted by descending port (AddParent), so higher ports
  // are delivered first without sorting per emission.
  for (const ParentEdge& edge : parents_) {
    if (edge.node->ActiveIn(context)) {
      edge.node->metrics().OnReceived(context);
      edge.node->Receive(edge.port, occurrence, context);
    }
  }
  if (sinks_.empty()) return;
  // Snapshot the sink list: a sink's OnEvent may reentrantly call
  // RemoveSink/Unsubscribe. Each delivery re-checks membership so sinks
  // removed mid-emission (including by an earlier sink) are skipped.
  EventSink* inline_snapshot[8];
  std::vector<EventSink*> heap_snapshot;
  EventSink** snapshot;
  const std::size_t n = sinks_.size();
  if (n <= std::size(inline_snapshot)) {
    std::copy(sinks_.begin(), sinks_.end(), inline_snapshot);
    snapshot = inline_snapshot;
  } else {
    heap_snapshot.assign(sinks_.begin(), sinks_.end());
    snapshot = heap_snapshot.data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    EventSink* sink = snapshot[i];
    if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) {
      continue;  // removed reentrantly
    }
    sink->OnDetection(occurrence, context);
  }
}

PrimitiveEventNode::PrimitiveEventNode(std::string name,
                                       std::string class_name,
                                       EventModifier modifier,
                                       std::string method_signature,
                                       oodb::Oid instance)
    : EventNode(std::move(name)),
      class_name_(std::move(class_name)),
      modifier_(modifier),
      method_signature_(std::move(method_signature)),
      class_sym_(common::SymbolTable::Global().Intern(class_name_)),
      method_sym_(common::SymbolTable::Global().Intern(method_signature_)),
      instance_(instance) {}

void PrimitiveEventNode::Signal(const std::shared_ptr<PrimitiveOccurrence>& raw,
                                bool exclusive) {
  // One raw notification can match several primitive event nodes; each
  // detection is labelled with the matching node's event name.
  std::shared_ptr<const PrimitiveOccurrence> labelled = raw;
  if (raw->event_name != name()) {
    if (exclusive) {
      raw->event_name = name();
    } else {
      auto copy = common::MakePooled<PrimitiveOccurrence>(*raw);
      copy->event_name = name();
      labelled = std::move(copy);
    }
  }
  // The one detection every context, parent and firing shares.
  auto occ = common::MakePooled<Occurrence>();
  occ->event_name = name();
  occ->t_start = labelled->at;
  occ->t_end = labelled->at;
  occ->at_ms = labelled->at_ms;
  occ->txn = labelled->txn;
  occ->constituents.push_back(std::move(labelled));
  const OccurrenceRef detection = std::move(occ);
  for (int c = 0; c < kNumContexts; ++c) {
    const auto context = static_cast<ParamContext>(c);
    if (!ActiveIn(context)) continue;
    metrics().OnReceived(context);
    Emit(detection, context);
  }
}

void PrimitiveEventNode::Receive(int port, const OccurrenceRef& occurrence,
                                 ParamContext context) {
  // Primitive nodes have no children; nothing should route here.
  (void)port;
  (void)occurrence;
  (void)context;
  SENTINEL_LOG(kWarn) << "primitive node " << name() << " received an event";
}

}  // namespace sentinel::detector
