#include "rules/rule_manager.h"

#include "common/logging.h"
#include "common/pool.h"
#include "obs/span.h"

namespace sentinel::rules {

const char* RuleVisibilityToString(RuleVisibility visibility) {
  switch (visibility) {
    case RuleVisibility::kPublic:
      return "PUBLIC";
    case RuleVisibility::kProtected:
      return "PROTECTED";
    case RuleVisibility::kPrivate:
      return "PRIVATE";
  }
  return "?";
}

const char* CouplingModeToString(CouplingMode mode) {
  switch (mode) {
    case CouplingMode::kImmediate:
      return "IMMEDIATE";
    case CouplingMode::kDeferred:
      return "DEFERRED";
    case CouplingMode::kDetached:
      return "DETACHED";
  }
  return "?";
}

Rule::Rule(std::string name, std::string event_name, ConditionFn condition,
           ActionFn action)
    : name_(std::move(name)),
      name_symbol_(common::SymbolTable::Global().Intern(name_)),
      event_name_(event_name),
      declared_event_(std::move(event_name)),
      condition_(std::move(condition)),
      action_(std::move(action)) {}

Rule::~Rule() { delete metrics_.load(std::memory_order_acquire); }

const obs::RuleMetrics& Rule::metrics() const {
  static const obs::RuleMetrics kNeverFired;
  const obs::RuleMetrics* m = metrics_.load(std::memory_order_acquire);
  return m != nullptr ? *m : kNeverFired;
}

obs::RuleMetrics& Rule::RecordingMetrics() {
  obs::RuleMetrics* m = metrics_.load(std::memory_order_acquire);
  if (m != nullptr) return *m;
  // Two first firings may race (pool members); the loser frees its copy.
  auto fresh = std::make_unique<obs::RuleMetrics>();
  if (metrics_.compare_exchange_strong(m, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *m;
}

void Rule::OnEvent(const detector::Occurrence& occurrence,
                   detector::ParamContext context) {
  OnDetection(common::MakePooled<detector::Occurrence>(occurrence), context);
}

void Rule::OnDetection(const detector::OccurrenceRef& occurrence,
                       detector::ParamContext context) {
  if (context != context_) return;  // detections in other rules' contexts
  if (!enabled()) return;
  if (trigger_mode_ == TriggerMode::kNow &&
      occurrence->t_start <= defined_at_) {
    // NOW: only constituent events from the definition instant onward are
    // acceptable (paper §3.1) — an occurrence whose interval starts earlier
    // contains pre-definition constituents.
    return;
  }
  if (manager_ != nullptr) manager_->Trigger(this, occurrence, context);
}

RuleManager::RuleManager(detector::LocalEventDetector* detector,
                         RuleScheduler* scheduler, Config config)
    : detector_(detector), scheduler_(scheduler), config_(std::move(config)) {}

RuleManager::RuleManager(detector::LocalEventDetector* detector,
                         RuleScheduler* scheduler)
    : RuleManager(detector, scheduler, Config()) {}

Result<Rule*> RuleManager::DefineRule(const std::string& name,
                                      const std::string& event_name,
                                      ConditionFn condition, ActionFn action) {
  return DefineRule(name, event_name, std::move(condition), std::move(action),
                    RuleOptions());
}

RuleManager::~RuleManager() {
  // Unsubscribe all rules so the detector never notifies dangling sinks, in
  // bulk: one pass per node rather than one linear erase per rule.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<detector::LocalEventDetector::Subscription> subscriptions;
  subscriptions.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) {
    (void)name;
    if (rule->enabled()) {
      subscriptions.push_back(
          {&rule->event_name(), rule.get(), rule->context()});
    }
  }
  detector_->UnsubscribeAll(subscriptions);
}

Status RuleManager::SubscribeRuleLocked(Rule* rule) {
  return detector_->Subscribe(rule->event_name(), rule, rule->context());
}

Status RuleManager::UnsubscribeRuleLocked(Rule* rule) {
  return detector_->Unsubscribe(rule->event_name(), rule, rule->context());
}

Result<Rule*> RuleManager::DefineRule(const std::string& name,
                                      const std::string& event_name,
                                      ConditionFn condition, ActionFn action,
                                      const RuleOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rules_.count(name) != 0) {
    return Status::AlreadyExists("rule already defined: " + name);
  }
  auto event = detector_->Find(event_name);
  if (!event.ok()) return event.status();

  auto rule = std::make_unique<Rule>(name, event_name, std::move(condition),
                                     std::move(action));
  rule->set_context(options.context);
  rule->set_coupling_mode(options.coupling);
  rule->set_priority(options.priority);
  rule->set_trigger_mode(options.trigger_mode);
  rule->set_owner(options.owner);
  rule->set_visibility(options.visibility);
  rule->set_manager(this);
  rule->set_defined_at(options.trigger_mode == TriggerMode::kNow
                           ? detector_->clock()->Now()
                           : 0);

  if (options.coupling == CouplingMode::kDeferred) {
    // The Sentinel pre-processor rewrite (§2.3, §3.2.3): subscribe the rule
    // to A*(begin_txn, E, pre_commit) so it executes exactly once, at the
    // end of the transaction, with the net accumulation of its event.
    auto begin_event = detector_->Find(config_.begin_txn_event);
    if (!begin_event.ok()) {
      return Status::InvalidArgument(
          "deferred rules require the system event " + config_.begin_txn_event);
    }
    auto pre_commit = detector_->Find(config_.pre_commit_event);
    if (!pre_commit.ok()) {
      return Status::InvalidArgument(
          "deferred rules require the system event " +
          config_.pre_commit_event);
    }
    const std::string rewritten =
        "__deferred_" + std::to_string(deferred_counter_++) + "_" + event_name;
    auto node = detector_->DefineAperiodicStar(rewritten, *begin_event, *event,
                                               *pre_commit);
    if (!node.ok()) return node.status();
    rule->set_event_name(rewritten);
  }

  Rule* raw = rule.get();
  if (options.enabled) {
    SENTINEL_RETURN_NOT_OK(SubscribeRuleLocked(raw));
  } else {
    raw->set_enabled(false);
  }
  rules_[name] = std::move(rule);
  return raw;
}

Result<Rule*> RuleManager::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound("no rule named " + name);
  }
  return it->second.get();
}

Status RuleManager::EnableRule(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(name);
  if (it == rules_.end()) return Status::NotFound("no rule named " + name);
  Rule* rule = it->second.get();
  if (rule->enabled()) return Status::OK();
  SENTINEL_RETURN_NOT_OK(SubscribeRuleLocked(rule));
  // Re-enabling behaves like a fresh NOW definition: occurrences detected
  // while disabled do not trigger.
  if (rule->trigger_mode() == TriggerMode::kNow) {
    rule->set_defined_at(detector_->clock()->Now());
  }
  rule->set_enabled(true);
  return Status::OK();
}

Status RuleManager::DisableRule(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(name);
  if (it == rules_.end()) return Status::NotFound("no rule named " + name);
  Rule* rule = it->second.get();
  if (!rule->enabled()) return Status::OK();
  SENTINEL_RETURN_NOT_OK(UnsubscribeRuleLocked(rule));
  rule->set_enabled(false);
  return Status::OK();
}

Status RuleManager::DeleteRule(const std::string& name) {
  std::string rewritten_event;
  const Rule* rule = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rules_.find(name);
    if (it == rules_.end()) return Status::NotFound("no rule named " + name);
    rule = it->second.get();
    if (it->second->enabled()) {
      SENTINEL_RETURN_NOT_OK(UnsubscribeRuleLocked(it->second.get()));
      it->second->set_enabled(false);
    }
    if (it->second->event_name() != it->second->declared_event()) {
      // Coupling-mode rewrite (e.g. the DEFERRED A* node): generated per
      // rule, so it dies with the rule.
      rewritten_event = it->second->event_name();
    }
  }
  // Firings already queued still hold a pointer to the rule object; being
  // disabled they would be skipped, so drop them before the object dies
  // (a Drain here would not reach them when DeleteRule runs inside an
  // action). Unsubscribed + disabled means no new firings can appear.
  // Detached firings run on their own worker and hold the same pointer —
  // wait for that queue too.
  scheduler_->Forget(rule);
  scheduler_->WaitDetached();
  std::lock_guard<std::mutex> lock(mu_);
  rules_.erase(name);
  if (!rewritten_event.empty()) {
    // Graph hygiene: without this the generated node keeps buffering
    // occurrences (in whatever contexts other expressions still activate on
    // its children) for the rest of the process lifetime.
    Status removed = detector_->RemoveEvent(rewritten_event);
    if (!removed.ok()) {
      SENTINEL_LOG(kWarn) << "failed to remove rewritten event node "
                          << rewritten_event << ": " << removed.ToString();
    }
  }
  return Status::OK();
}

Status RuleManager::SetRulePriority(const std::string& name, int priority) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(name);
  if (it == rules_.end()) return Status::NotFound("no rule named " + name);
  it->second->set_priority(priority);
  return Status::OK();
}

std::vector<std::string> RuleManager::RuleNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) {
    (void)rule;
    names.push_back(name);
  }
  return names;
}

std::size_t RuleManager::rule_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size();
}

std::string RuleManager::TopCostRule() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string* best = nullptr;
  std::uint64_t best_ns = 0;
  for (const auto& [name, rule] : rules_) {
    const obs::RuleMetrics& m = rule->metrics();
    const std::uint64_t ns =
        m.condition_ns.sum_ns() + m.action_ns.sum_ns() + m.commit_ns.sum_ns();
    if (ns > best_ns) {
      best_ns = ns;
      best = &name;
    }
  }
  return best != nullptr ? *best : std::string();
}

void RuleManager::JoinGroup(const std::string& member,
                            const std::string& group) {
  std::lock_guard<std::mutex> lock(mu_);
  group_members_[group].push_back(member);
}

bool RuleManager::MayManage(const Principal& who, const Rule& rule) const {
  if (rule.owner().empty()) return true;  // unowned: unrestricted
  switch (rule.visibility()) {
    case RuleVisibility::kPublic:
      return true;
    case RuleVisibility::kPrivate:
      return who.name == rule.owner();
    case RuleVisibility::kProtected: {
      if (who.name == rule.owner()) return true;
      std::lock_guard<std::mutex> lock(mu_);
      // Shared group: the owner and the caller both belong to it.
      for (const std::string& group : who.groups) {
        auto it = group_members_.find(group);
        if (it == group_members_.end()) continue;
        for (const std::string& member : it->second) {
          if (member == rule.owner()) return true;
        }
      }
      return false;
    }
  }
  return false;
}

namespace {
Status Forbidden(const RuleManager::Principal& who, const Rule& rule) {
  return Status::InvalidArgument(
      "principal '" + who.name + "' may not manage " +
      RuleVisibilityToString(rule.visibility()) + " rule '" + rule.name() +
      "' owned by '" + rule.owner() + "'");
}
}  // namespace

Status RuleManager::EnableRuleAs(const Principal& who,
                                 const std::string& name) {
  auto rule = Find(name);
  if (!rule.ok()) return rule.status();
  if (!MayManage(who, **rule)) return Forbidden(who, **rule);
  return EnableRule(name);
}

Status RuleManager::DisableRuleAs(const Principal& who,
                                  const std::string& name) {
  auto rule = Find(name);
  if (!rule.ok()) return rule.status();
  if (!MayManage(who, **rule)) return Forbidden(who, **rule);
  return DisableRule(name);
}

Status RuleManager::DeleteRuleAs(const Principal& who,
                                 const std::string& name) {
  auto rule = Find(name);
  if (!rule.ok()) return rule.status();
  if (!MayManage(who, **rule)) return Forbidden(who, **rule);
  return DeleteRule(name);
}

Status RuleManager::DefinePriorityClass(const std::string& class_name,
                                        int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = priority_classes_.emplace(class_name, rank);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("priority class exists: " + class_name);
  }
  return Status::OK();
}

Result<int> RuleManager::PriorityClassRank(const std::string& class_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = priority_classes_.find(class_name);
  if (it == priority_classes_.end()) {
    return Status::NotFound("no priority class " + class_name);
  }
  return it->second;
}

Result<Rule*> RuleManager::DefineRuleWithPriorityClass(
    const std::string& name, const std::string& event_name,
    ConditionFn condition, ActionFn action, RuleOptions options,
    const std::string& priority_class) {
  auto rank = PriorityClassRank(priority_class);
  if (!rank.ok()) return rank.status();
  options.priority = *rank;
  return DefineRule(name, event_name, std::move(condition), std::move(action),
                    options);
}

void RuleManager::Trigger(Rule* rule,
                          const detector::OccurrenceRef& occurrence,
                          detector::ParamContext context) {
  Firing firing;
  firing.rule = rule;
  firing.occurrence = occurrence;
  firing.context = context;
  firing.txn = occurrence->txn;

  // Nested triggering: when the signalling happened inside a rule's action,
  // inherit its subtransaction, depth, and priority path (depth-first
  // execution, §3.2.3).
  const RuleScheduler::Frame* frame = RuleScheduler::CurrentFrame();
  if (frame != nullptr) {
    firing.parent_subtxn = frame->subtxn;
    firing.priority_path = frame->priority_path;
    firing.depth = frame->depth + 1;
    if (firing.txn == storage::kInvalidTxnId) firing.txn = frame->txn;
  }
  firing.priority_path.push_back(rule->priority());

  // Capture the span live on this (signalling) thread — the composite_detect
  // or notify span we are inside of — so the firing's subtxn span can parent
  // under it even though it executes on a scheduler thread.
  firing.trigger_span =
      obs::SpanTracer::CurrentSpanIdFor(detector_->span_tracer());

  if (rule->coupling() == CouplingMode::kDetached) {
    scheduler_->EnqueueDetached(std::move(firing));
  } else {
    scheduler_->Enqueue(std::move(firing));
  }
}

}  // namespace sentinel::rules
