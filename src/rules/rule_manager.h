#ifndef SENTINEL_RULES_RULE_MANAGER_H_
#define SENTINEL_RULES_RULE_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "detector/local_detector.h"
#include "rules/rule.h"
#include "rules/scheduler.h"

namespace sentinel::rules {

/// Rule definition/management (paper §3.1): defines rules on named event
/// expressions with a parameter context, coupling mode, priority and trigger
/// mode; supports run-time enable/disable/delete; performs the DEFERRED →
/// A*(begin_txn, E, pre_commit) rewrite; and routes triggered rules to the
/// scheduler.
class RuleManager {
 public:
  struct Config {
    /// Names of the system transaction events the active layer signals; used
    /// by the DEFERRED rewrite. Must exist in the detector before the first
    /// deferred rule is defined.
    std::string begin_txn_event = "sys_begin_transaction";
    std::string pre_commit_event = "sys_pre_commit_transaction";
  };

  struct RuleOptions {
    detector::ParamContext context = detector::ParamContext::kRecent;
    CouplingMode coupling = CouplingMode::kImmediate;
    int priority = 0;
    TriggerMode trigger_mode = TriggerMode::kNow;
    bool enabled = true;
    /// Principal owning the rule; empty leaves management unrestricted.
    std::string owner;
    RuleVisibility visibility = RuleVisibility::kPublic;
  };

  /// A principal attempting rule management: a name plus group memberships
  /// (groups gate PROTECTED rules).
  struct Principal {
    std::string name;
    std::vector<std::string> groups;
  };

  RuleManager(detector::LocalEventDetector* detector, RuleScheduler* scheduler,
              Config config);
  RuleManager(detector::LocalEventDetector* detector, RuleScheduler* scheduler);
  ~RuleManager();

  RuleManager(const RuleManager&) = delete;
  RuleManager& operator=(const RuleManager&) = delete;

  /// Defines rule `name` on the (already defined) event `event_name`.
  Result<Rule*> DefineRule(const std::string& name,
                           const std::string& event_name, ConditionFn condition,
                           ActionFn action, const RuleOptions& options);
  Result<Rule*> DefineRule(const std::string& name,
                           const std::string& event_name, ConditionFn condition,
                           ActionFn action);

  Result<Rule*> Find(const std::string& name) const;
  Status EnableRule(const std::string& name);
  Status DisableRule(const std::string& name);
  Status DeleteRule(const std::string& name);
  Status SetRulePriority(const std::string& name, int priority);

  /// Visibility-checked management (paper §4: public/private/protected
  /// rules). A PRIVATE rule is manageable only by its owner; a PROTECTED
  /// rule also by principals sharing one of the owner's registered groups;
  /// PUBLIC (or unowned) rules by anyone.
  Status EnableRuleAs(const Principal& who, const std::string& name);
  Status DisableRuleAs(const Principal& who, const std::string& name);
  Status DeleteRuleAs(const Principal& who, const std::string& name);

  /// Declares that `member` belongs to `group` (for PROTECTED checks).
  void JoinGroup(const std::string& member, const std::string& group);

  /// True if `who` may manage `rule` under its visibility scope.
  bool MayManage(const Principal& who, const Rule& rule) const;

  std::vector<std::string> RuleNames() const;
  std::size_t rule_count() const;

  /// The rule with the largest summed condition + action + commit wall time
  /// (the `sum_ns` of its always-on histograms); "" when no rule has run.
  /// The sums are cumulative since each rule was defined: nothing resets
  /// them, so this is not a recent window.
  /// The watchdog names it in the /healthz detail on degrade.
  std::string TopCostRule() const;

  /// Named, totally ordered priority classes (paper §3.1): rules may be
  /// assigned by class name instead of raw number.
  Status DefinePriorityClass(const std::string& class_name, int rank);
  Result<int> PriorityClassRank(const std::string& class_name) const;
  Result<Rule*> DefineRuleWithPriorityClass(const std::string& name,
                                            const std::string& event_name,
                                            ConditionFn condition,
                                            ActionFn action,
                                            RuleOptions options,
                                            const std::string& priority_class);

  /// Called by Rule::OnEvent when a rule triggers; builds the Firing (with
  /// nesting-aware priority path) and dispatches per coupling mode.
  void Trigger(Rule* rule, const detector::Occurrence& occurrence,
               detector::ParamContext context);

  RuleScheduler* scheduler() { return scheduler_; }
  detector::LocalEventDetector* detector() { return detector_; }

 private:
  Status SubscribeRuleLocked(Rule* rule);
  Status UnsubscribeRuleLocked(Rule* rule);

  detector::LocalEventDetector* detector_;
  RuleScheduler* scheduler_;
  Config config_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Rule>> rules_;
  std::map<std::string, int> priority_classes_;
  std::map<std::string, std::vector<std::string>> group_members_;
  int deferred_counter_ = 0;
};

}  // namespace sentinel::rules

#endif  // SENTINEL_RULES_RULE_MANAGER_H_
