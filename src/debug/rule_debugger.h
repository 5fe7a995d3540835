#ifndef SENTINEL_DEBUG_RULE_DEBUGGER_H_
#define SENTINEL_DEBUG_RULE_DEBUGGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/active_database.h"

namespace sentinel::debug {

/// The Sentinel rule debugger ([12], paper §2.3): records the interactions
/// among events and rules and renders them for inspection —
///   - a chronological trace of signalled events and executed rules
///     (indented by nesting depth),
///   - a DOT rendering of the rule-interaction graph derived from the trace
///     (rule A's action raised an event that triggered rule B).
/// The event graph's DOT rendering (nodes, child edges, subscriber counts)
/// is LocalEventDetector::DumpGraph, which /graph and shell `dot` serve.
class RuleDebugger {
 public:
  struct TraceEntry {
    enum class Kind { kEvent, kRule };
    Kind kind = Kind::kEvent;
    std::uint64_t seq = 0;
    // kEvent:
    std::string event_name;
    std::string class_name;
    std::string method;
    oodb::Oid oid = oodb::kInvalidOid;
    // kRule:
    std::string rule_name;
    bool condition_held = true;
    int depth = 0;
    std::string triggering_event;
    storage::TxnId txn = storage::kInvalidTxnId;
  };

  /// Attaches observers to `db`'s detector and scheduler. Attach once.
  void Attach(core::ActiveDatabase* db);

  std::vector<TraceEntry> Trace() const;
  void Clear();

  /// Human-readable chronological trace.
  std::string RenderTrace() const;

  /// Rule-interaction graph (from the recorded trace) in DOT.
  std::string RuleInteractionDot() const;

  std::size_t event_count() const;
  std::size_t rule_execution_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEntry> trace_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sentinel::debug

#endif  // SENTINEL_DEBUG_RULE_DEBUGGER_H_
