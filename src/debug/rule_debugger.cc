#include "debug/rule_debugger.h"

#include <map>
#include <set>
#include <sstream>

namespace sentinel::debug {

void RuleDebugger::Attach(core::ActiveDatabase* db) {
  db->detector()->AddRawObserver(
      [this](const detector::PrimitiveOccurrence& occ) {
        std::lock_guard<std::mutex> lock(mu_);
        TraceEntry entry;
        entry.kind = TraceEntry::Kind::kEvent;
        entry.seq = next_seq_++;
        entry.event_name = occ.event_name;
        entry.class_name = occ.class_name;
        entry.method = occ.method_signature;
        entry.oid = occ.oid;
        entry.txn = occ.txn;
        trace_.push_back(std::move(entry));
      });
  db->scheduler()->SetExecutionObserver(
      [this](const rules::Firing& firing, bool condition_held, Status status) {
        (void)status;
        std::lock_guard<std::mutex> lock(mu_);
        TraceEntry entry;
        entry.kind = TraceEntry::Kind::kRule;
        entry.seq = next_seq_++;
        entry.rule_name = firing.rule != nullptr ? firing.rule->name() : "?";
        entry.condition_held = condition_held;
        entry.depth = firing.depth;
        if (firing.occurrence != nullptr) {
          entry.triggering_event = firing.occurrence->event_name;
        }
        entry.txn = firing.txn;
        trace_.push_back(std::move(entry));
      });
}

std::vector<RuleDebugger::TraceEntry> RuleDebugger::Trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

void RuleDebugger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  trace_.clear();
  next_seq_ = 1;
}

std::string RuleDebugger::RenderTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const TraceEntry& entry : trace_) {
    out << entry.seq << "  ";
    if (entry.kind == TraceEntry::Kind::kEvent) {
      out << "event " << entry.class_name << "." << entry.method << " (oid "
          << entry.oid << ", txn " << entry.txn << ")\n";
    } else {
      for (int i = 0; i < entry.depth; ++i) out << "  ";
      out << "rule " << entry.rule_name << " on " << entry.triggering_event
          << (entry.condition_held ? " [fired]" : " [condition false]")
          << " depth=" << entry.depth << "\n";
    }
  }
  return out.str();
}

std::string RuleDebugger::RuleInteractionDot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "digraph rule_interaction {\n";
  // Edge rule -> rule when a deeper rule execution immediately follows a
  // shallower one (nested triggering recorded depth-first).
  std::map<int, std::string> last_at_depth;
  std::set<std::pair<std::string, std::string>> edges;
  std::set<std::string> rules;
  for (const TraceEntry& entry : trace_) {
    if (entry.kind != TraceEntry::Kind::kRule) continue;
    rules.insert(entry.rule_name);
    if (entry.depth > 1) {
      auto parent = last_at_depth.find(entry.depth - 1);
      if (parent != last_at_depth.end()) {
        edges.emplace(parent->second, entry.rule_name);
      }
    }
    last_at_depth[entry.depth] = entry.rule_name;
  }
  for (const std::string& rule : rules) {
    out << "  \"" << rule << "\" [shape=box];\n";
  }
  for (const auto& [from, to] : edges) {
    out << "  \"" << from << "\" -> \"" << to << "\" [label=triggers];\n";
  }
  out << "}\n";
  return out.str();
}

std::size_t RuleDebugger::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& entry : trace_) {
    if (entry.kind == TraceEntry::Kind::kEvent) ++n;
  }
  return n;
}

std::size_t RuleDebugger::rule_execution_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& entry : trace_) {
    if (entry.kind == TraceEntry::Kind::kRule) ++n;
  }
  return n;
}

}  // namespace sentinel::debug
