#ifndef SENTINEL_DETECTOR_EVENT_TYPES_H_
#define SENTINEL_DETECTOR_EVENT_TYPES_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/inline_vector.h"
#include "common/symbol.h"
#include "oodb/value.h"
#include "storage/log_record.h"

namespace sentinel::detector {

using TxnId = storage::TxnId;

/// Which edge of a method invocation raises the event (paper §3.1:
/// begin(event) / end(event); end is the default).
enum class EventModifier : std::uint8_t { kBegin = 0, kEnd = 1 };

const char* EventModifierToString(EventModifier m);

/// Snoop parameter contexts (paper §3.1; semantics from the VLDB'94
/// companion paper). RECENT is the default for its low storage needs.
enum class ParamContext : std::uint8_t {
  kRecent = 0,
  kChronicle = 1,
  kContinuous = 2,
  kCumulative = 3,
};
constexpr int kNumContexts = 4;

const char* ParamContextToString(ParamContext c);

/// The paper's PARA_LIST: ordered (name, value) pairs collected by the
/// wrapper method at invocation time. Immutable once attached to a
/// PrimitiveOccurrence: every detection that contains that occurrence, and
/// every firing of those detections (detached ones included), reads this one
/// list through the occurrence's shared pointer. Nothing copies it (§3.2.2
/// item 2).
///
/// Storage keeps four entries in place (method wrappers collect a handful of
/// actual parameters) and spills to the heap past that, so building the
/// list on the Notify hot path does not allocate.
class ParamList {
 public:
  using Entry = std::pair<std::string, oodb::Value>;
  using const_iterator = const Entry*;

  ParamList() = default;

  ParamList& Insert(std::string name, oodb::Value value) {
    entries_.push_back(Entry(std::move(name), std::move(value)));
    return *this;
  }

  /// First value with the given name, or NotFound.
  Result<oodb::Value> Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.first == name) return e.second;
    }
    return Status::NotFound("no parameter named " + name);
  }

  std::size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::string ToString() const;

 private:
  common::InlineVector<Entry, 4> entries_;
};

/// One primitive event occurrence: the unit collected into composite-event
/// parameter lists. Carries the signalling object's OID plus atomic
/// parameters (§2.1: "identification of the object (i.e., oid) as one of the
/// event parameters and other parameters which have atomic values").
struct PrimitiveOccurrence {
  std::string event_name;        // primitive event node that matched
  std::string class_name;        // class of the signalling object
  oodb::Oid oid = oodb::kInvalidOid;
  EventModifier modifier = EventModifier::kEnd;
  std::string method_signature;
  // Interned forms of class_name/method_signature (common::SymbolTable::
  // Global()); kInvalidSymbol when the occurrence was built outside the
  // detector (matching then falls back to the string forms). Not persisted —
  // the detector re-interns on Inject.
  common::SymbolId class_sym = common::kInvalidSymbol;
  common::SymbolId method_sym = common::kInvalidSymbol;
  // Distributed-trace linkage (DESIGN.md §14), process-local like the
  // interned symbols above: trace_id groups one cross-process causal chain,
  // trace_parent is the LATEST span id along it (rewritten at each hop —
  // decode, admission wait, forward), origin_ns is the originating client's
  // wall-clock ns at Notify() (the e2e latency anchor, which IS carried on
  // the wire via the trace-context trailer, never via this struct's codec).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
  std::uint64_t origin_ns = 0;
  Timestamp at = kInvalidTimestamp;  // logical occurrence time
  std::uint64_t at_ms = 0;           // temporal-clock time (for PLUS/P)
  TxnId txn = storage::kInvalidTxnId;
  std::shared_ptr<const ParamList> params;

  std::string ToString() const;
};

struct Occurrence;

/// Shared handle to one immutable detection. The node that detects an event
/// builds its Occurrence once (PrimitiveEventNode::Signal, or an operator's
/// Compose) and every later holder shares it by this handle: the parents it
/// is delivered to, the operator buffers that keep it as an initiator, and
/// the firing of each rule subscribed to the node.
using OccurrenceRef = std::shared_ptr<const Occurrence>;

/// An event occurrence: one detection by one node of the event graph.
/// Composite occurrences span an interval [t_start, t_end] and link (not
/// copy) their constituent primitive occurrences, whose parameter lists they
/// thereby share — the paper's linked-list-of-parameters representation.
/// Detections flow as OccurrenceRef and are never modified once built; the
/// struct stays a plain value so the net codec can decode into one.
struct Occurrence {
  /// Links to the constituent primitive occurrences, in chronological order
  /// of their roles. Up to two live in place, which covers primitive
  /// detections and binary operators without an allocation.
  using Constituents =
      common::InlineVector<std::shared_ptr<const PrimitiveOccurrence>, 2>;

  std::string event_name;  // node that produced this occurrence
  Timestamp t_start = kInvalidTimestamp;
  Timestamp t_end = kInvalidTimestamp;
  std::uint64_t at_ms = 0;
  TxnId txn = storage::kInvalidTxnId;
  Constituents constituents;

  /// Looks a parameter up across constituents, newest first.
  Result<oodb::Value> Param(const std::string& name) const;
  /// All constituents raised by the named primitive event.
  std::vector<std::shared_ptr<const PrimitiveOccurrence>> Of(
      const std::string& primitive_event_name) const;

  std::string ToString() const;
};

/// Receiver of detected events: rules subscribe to event nodes through this
/// interface; the global event detector forwards through it as well.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Occurrence& occurrence, ParamContext context) = 0;
  /// How the event graph delivers: with the detection's shared handle. A
  /// sink that keeps the occurrence past the call (a rule queueing its
  /// firing) overrides this to retain the handle instead of copying.
  virtual void OnDetection(const OccurrenceRef& occurrence,
                           ParamContext context) {
    OnEvent(*occurrence, context);
  }
};

}  // namespace sentinel::detector

#endif  // SENTINEL_DETECTOR_EVENT_TYPES_H_
