#ifndef SENTINEL_RULES_RULE_H_
#define SENTINEL_RULES_RULE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/symbol.h"
#include "detector/event_types.h"
#include "obs/metrics.h"
#include "oodb/database.h"
#include "txn/nested_txn.h"

namespace sentinel::rules {

/// When the condition-action pair executes relative to the triggering
/// transaction (HiPAC coupling modes, paper §2.2). DEFERRED is implemented
/// by the pre-processor rewrite to A*(begin_txn, E, pre_commit) (§2.3);
/// DETACHED runs in a separate top-level transaction.
enum class CouplingMode : std::uint8_t {
  kImmediate = 0,
  kDeferred = 1,
  kDetached = 2,
};

const char* CouplingModeToString(CouplingMode mode);

/// Whether event occurrences that temporally precede the rule definition may
/// trigger it (paper §3.1: NOW is the default).
enum class TriggerMode : std::uint8_t { kNow = 0, kPrevious = 1 };

/// Rule visibility (paper §4 lists "public, private, and protected rules"
/// as planned rule-management support). Scopes govern who may manage
/// (enable/disable/delete/reprioritize) a rule:
///   kPublic    — any principal;
///   kProtected — the owner and principals in the owner's group;
///   kPrivate   — the owner only.
enum class RuleVisibility : std::uint8_t {
  kPublic = 0,
  kProtected = 1,
  kPrivate = 2,
};

const char* RuleVisibilityToString(RuleVisibility visibility);

/// Everything a condition/action function may touch. Conditions must be
/// side-effect free (event signalling is suppressed while they run); actions
/// may invoke reactive methods, raising nested rule triggers.
struct RuleContext {
  const detector::Occurrence* occurrence = nullptr;
  detector::ParamContext context = detector::ParamContext::kRecent;
  storage::TxnId txn = storage::kInvalidTxnId;
  txn::SubTxnId subtxn = txn::kInvalidSubTxn;
  oodb::Database* db = nullptr;

  /// Convenience passthrough to the triggering occurrence's parameters.
  Result<oodb::Value> Param(const std::string& name) const {
    if (occurrence == nullptr) return Status::NotFound("no occurrence");
    return occurrence->Param(name);
  }
};

using ConditionFn = std::function<bool(const RuleContext&)>;
using ActionFn = std::function<void(const RuleContext&)>;

class RuleManager;

/// One ECA rule. Subscribes to its event expression as an EventSink; when
/// the event is detected in the rule's parameter context, the rule manager
/// packages the condition and action into a prioritized subtransaction
/// (paper Fig. 3).
class Rule : public detector::EventSink {
 public:
  Rule(std::string name, std::string event_name, ConditionFn condition,
       ActionFn action);
  ~Rule() override;

  const std::string& name() const { return name_; }
  /// The name's id in common::SymbolTable::Global(): rule spans record it
  /// instead of the string, and it outlives the rule in the tracer's rings.
  common::SymbolId name_symbol() const { return name_symbol_; }
  /// The event the rule is subscribed to after any coupling-mode rewrite
  /// (for a DEFERRED rule this is the generated A* event).
  const std::string& event_name() const { return event_name_; }
  /// The event the user specified at definition time.
  const std::string& declared_event() const { return declared_event_; }

  const ConditionFn& condition() const { return condition_; }
  const ActionFn& action() const { return action_; }

  detector::ParamContext context() const { return context_; }
  CouplingMode coupling() const { return coupling_; }
  int priority() const { return priority_; }
  TriggerMode trigger_mode() const { return trigger_mode_; }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_context(detector::ParamContext context) { context_ = context; }
  void set_coupling_mode(CouplingMode mode) { coupling_ = mode; }
  void set_priority(int priority) { priority_ = priority; }
  void set_trigger_mode(TriggerMode mode) { trigger_mode_ = mode; }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  void set_event_name(std::string event_name) {
    event_name_ = std::move(event_name);
  }
  void set_declared_event(std::string event) {
    declared_event_ = std::move(event);
  }
  void set_defined_at(Timestamp at) { defined_at_ = at; }
  Timestamp defined_at() const { return defined_at_; }

  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }
  RuleVisibility visibility() const { return visibility_; }
  void set_visibility(RuleVisibility visibility) { visibility_ = visibility; }

  std::uint64_t fired_count() const {
    return fired_.load(std::memory_order_relaxed);
  }
  void CountFiring() { fired_.fetch_add(1, std::memory_order_relaxed); }

  /// Condition+action wall time of the most recent execution in ns; 0 while
  /// the rule has never executed. The scheduler hands a priority-class
  /// member to the pool only when this is 0 or above the pool's hand-off.
  std::uint64_t last_exec_ns() const {
    return last_exec_ns_.load(std::memory_order_relaxed);
  }
  void RecordExecution(std::uint64_t ns) {
    last_exec_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Latency histograms for this rule's firing pipeline (condition, action,
  /// subtransaction commit/abort, lock wait). A rule that never fired reads
  /// as all-zero without allocating: the histograms are allocated on the
  /// first firing (RecordingMetrics), so idle rules cost no histogram memory.
  const obs::RuleMetrics& metrics() const;
  /// The histograms the scheduler records into, allocated on first use and
  /// published with one atomic pointer.
  obs::RuleMetrics& RecordingMetrics();

  /// EventSink: filters by context, enabled flag and trigger mode, then
  /// hands the firing to the rule manager.
  void OnEvent(const detector::Occurrence& occurrence,
               detector::ParamContext context) override;

  void set_manager(RuleManager* manager) { manager_ = manager; }

 private:
  std::string name_;
  common::SymbolId name_symbol_;
  std::string event_name_;
  std::string declared_event_;
  ConditionFn condition_;
  ActionFn action_;
  detector::ParamContext context_ = detector::ParamContext::kRecent;
  CouplingMode coupling_ = CouplingMode::kImmediate;
  int priority_ = 0;
  TriggerMode trigger_mode_ = TriggerMode::kNow;
  Timestamp defined_at_ = 0;
  std::string owner_;  // empty == unowned (management unrestricted)
  RuleVisibility visibility_ = RuleVisibility::kPublic;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> last_exec_ns_{0};
  std::atomic<obs::RuleMetrics*> metrics_{nullptr};  // owned; null until fired
  RuleManager* manager_ = nullptr;
};

}  // namespace sentinel::rules

#endif  // SENTINEL_RULES_RULE_H_
