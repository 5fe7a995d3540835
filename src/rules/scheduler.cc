#include "rules/scheduler.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "common/failpoint.h"
#include "common/logging.h"
#include "detector/local_detector.h"
#include "obs/span.h"

namespace sentinel::rules {

namespace {

thread_local RuleScheduler::Frame* t_frame = nullptr;
thread_local RuleScheduler::BatchScope* t_batch_scope = nullptr;

/// Lexicographic priority order: larger element wins; a path extending a
/// prefix wins over the prefix (depth-first).
bool PathLess(const std::vector<int>& a, const std::vector<int>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() < b.size();
}

}  // namespace

const char* ContingencyPolicyToString(ContingencyPolicy policy) {
  switch (policy) {
    case ContingencyPolicy::kSkipRule:
      return "SKIP_RULE";
    case ContingencyPolicy::kAbortTop:
      return "ABORT_TOP";
  }
  return "?";
}

const RuleScheduler::Frame* RuleScheduler::CurrentFrame() { return t_frame; }

RuleScheduler::RuleScheduler(txn::NestedTransactionManager* nested,
                             oodb::Database* db, const Options& options)
    : policy_(options.policy),
      contingency_(options.contingency),
      nested_(nested),
      db_(db),
      pool_(std::make_unique<ThreadPool>(options.workers)) {
  detached_worker_ = std::thread([this] { DetachedLoop(); });
}

RuleScheduler::~RuleScheduler() {
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    stop_detached_ = true;
  }
  detached_cv_.notify_all();
  detached_worker_.join();
  pool_.reset();
}

RuleScheduler::BatchScope::BatchScope(RuleScheduler* scheduler)
    : scheduler_(scheduler), prev_(t_batch_scope) {
  t_batch_scope = this;
}

RuleScheduler::BatchScope::~BatchScope() {
  t_batch_scope = prev_;
  if (!buffered_.empty()) scheduler_->EnqueueBatch(std::move(buffered_));
}

void RuleScheduler::Enqueue(Firing firing) {
  if (t_batch_scope != nullptr && t_batch_scope->scheduler_ == this) {
    t_batch_scope->buffered_.push_back(std::move(firing));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(firing));
  pending_count_.store(pending_.size(), std::memory_order_release);
}

void RuleScheduler::EnqueueBatch(std::vector<Firing> firings) {
  if (firings.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Firing& firing : firings) pending_.push_back(std::move(firing));
  pending_count_.store(pending_.size(), std::memory_order_release);
}

void RuleScheduler::EnqueueDetached(Firing firing) {
  // A detached firing outlives the Notify call that raised it, but its
  // constituent occurrences may reference caller-owned parameter lists that
  // are only guaranteed to live for the duration of that call. Pin them by
  // deep-copying every constituent (and its ParamList) onto fresh
  // heap-owned storage before the firing crosses onto the detached queue.
  for (auto& constituent : firing.occurrence.constituents) {
    if (constituent == nullptr) continue;
    auto copy = std::make_shared<detector::PrimitiveOccurrence>(*constituent);
    if (copy->params != nullptr) {
      copy->params = std::make_shared<detector::ParamList>(*copy->params);
    }
    constituent = std::move(copy);
  }
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    detached_pending_.push_back(std::move(firing));
    detached_count_.store(detached_pending_.size() + detached_busy_,
                          std::memory_order_release);
  }
  detached_cv_.notify_one();
}

void RuleScheduler::PopBatch(std::vector<Firing>* batch) {
  batch->clear();
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return;

  // Index of the highest-priority pending firing (the first of its path).
  std::size_t best = 0;
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    if (PathLess(pending_[best].priority_path, pending_[i].priority_path)) {
      best = i;
    }
  }
  // Inside a rule's action, Drain runs only what outranks that rule: the
  // firings the action triggered (depth-first, §3.2.3). The rest of the
  // rule's class and lower classes wait for the Drain running the class.
  if (t_frame != nullptr &&
      !PathLess(t_frame->priority_path, pending_[best].priority_path)) {
    return;
  }
  const SchedulingPolicy policy = this->policy();
  // kSerial takes that firing; kPriorityClasses takes every firing sharing
  // its path, in queue order. The rest close up in place.
  batch->push_back(std::move(pending_[best]));
  std::size_t kept = best;
  for (std::size_t i = best + 1; i < pending_.size(); ++i) {
    if (policy == SchedulingPolicy::kPriorityClasses &&
        pending_[i].priority_path == batch->front().priority_path) {
      batch->push_back(std::move(pending_[i]));
    } else {
      pending_[kept++] = std::move(pending_[i]);
    }
  }
  pending_.erase(pending_.begin() + static_cast<long>(kept), pending_.end());
  pending_count_.store(pending_.size(), std::memory_order_release);
}

namespace {

// The members of one priority class handed to the pool. Their tasks point
// at it, so the drainer waits for all of them before it goes out of scope.
struct PoolMembers {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;
};

// Counts a pool member finished on every exit path of its task: a throw
// that the worker loop contains must not leave the drainer waiting.
struct MemberDone {
  PoolMembers* members;
  ~MemberDone() {
    std::lock_guard<std::mutex> lock(members->mu);
    if (--members->remaining == 0) members->cv.notify_all();
  }
};

}  // namespace

void RuleScheduler::Drain() {
  // Drain is called after every notification; when no rule fired there is
  // nothing queued — return without touching the queue lock.
  if (pending_count_.load(std::memory_order_acquire) == 0) return;
  // Batch vectors are reused across calls, one per nesting level of Drain
  // on this thread, so a steady-state drain allocates nothing.
  thread_local std::vector<std::vector<Firing>> t_spare_batches;
  std::vector<Firing> batch;
  if (!t_spare_batches.empty()) {
    batch = std::move(t_spare_batches.back());
    t_spare_batches.pop_back();
  }
  while (pending_count_.load(std::memory_order_acquire) != 0) {
    PopBatch(&batch);
    if (batch.empty()) break;
    RunClass(&batch);
  }
  batch.clear();
  t_spare_batches.push_back(std::move(batch));
}

void RuleScheduler::RunClass(std::vector<Firing>* batch) {
  // kAbortTop: a member whose failure dooms its transaction drops that
  // transaction's members not yet started, as AbortTop drops its queue.
  std::atomic<storage::TxnId> doomed{storage::kInvalidTxnId};
  auto run = [this, &doomed](Firing& member) {
    const storage::TxnId txn = member.txn;
    if (txn != storage::kInvalidTxnId &&
        txn == doomed.load(std::memory_order_relaxed)) {
      return;
    }
    if (Execute(std::move(member))) {
      doomed.store(txn, std::memory_order_relaxed);
    }
  };
  // Overlap pays only for a member whose rule is unknown or slower than a
  // pool worker takes to start; a cheap one is done here before a worker
  // could have begun it. The first such member stays here too, so the
  // class touches the pool only when two or more of them would overlap.
  const std::uint64_t handoff_ns = pool_->handoff_ns();
  std::optional<PoolMembers> pooled;
  bool kept_one = false;
  for (Firing& f : *batch) {
    if (f.rule == nullptr) continue;
    const std::uint64_t ns = f.rule->last_exec_ns();
    if (ns != 0 && ns <= handoff_ns) continue;
    if (!kept_one) {
      kept_one = true;
      continue;
    }
    if (!pooled) pooled.emplace();
    {
      std::lock_guard<std::mutex> lock(pooled->mu);
      ++pooled->remaining;
    }
    pool_->Submit(
        [&run, members = &*pooled, member = std::move(f)]() mutable {
          MemberDone done{members};
          run(member);
        });
    f.rule = nullptr;  // handed over: the loop below skips it
  }
  // An exception from a member run here (e.g. from an execution observer)
  // surfaces after the whole class has run: the pool tasks point at this
  // frame, and the members after it still belong to the class.
  std::exception_ptr thrown;
  for (Firing& f : *batch) {
    if (f.rule == nullptr) continue;
    try {
      run(f);
    } catch (...) {
      if (!thrown) thrown = std::current_exception();
    }
  }
  if (pooled) {
    std::unique_lock<std::mutex> lock(pooled->mu);
    pooled->cv.wait(lock, [&pooled] { return pooled->remaining == 0; });
  }
  if (thrown) std::rethrow_exception(thrown);
}

bool RuleScheduler::Execute(Firing firing) {
  Rule* rule = firing.rule;
  if (rule == nullptr || !rule->enabled()) return false;

  obs::SpanTracer* span_tracer = span_tracer_.load(std::memory_order_acquire);
  obs::RuleMetrics& metrics = rule->RecordingMetrics();

  RuleContext ctx;
  ctx.occurrence = &firing.occurrence;
  ctx.context = firing.context;
  ctx.txn = firing.txn;
  ctx.db = db_;

  // Package condition+action as a subtransaction (paper Fig. 3). A nested
  // rule whose triggering rule's subtransaction has already committed (its
  // locks inherited upward) attaches directly under the top-level
  // transaction and shares the retained locks.
  txn::SubTxnId sub = txn::kInvalidSubTxn;
  if (nested_ != nullptr && firing.txn != storage::kInvalidTxnId) {
    sub = nested_->BeginUnder(firing.txn, firing.parent_subtxn);
  }
  ctx.subtxn = sub;
  Status sub_status;

  // One clock reading per boundary: start, condition→action, action→commit
  // and end. Each record opens and closes at the readings on either side of
  // it, so the subtxn span starts with the condition span, the condition
  // span ends where the action span starts, and the rule's condition,
  // action and commit histograms add up to the subtxn span.
  std::uint64_t now_ns = obs::SpanTracer::NowNs();
  const std::uint64_t start_ns = now_ns;

  // Subtxn record: parented under the triggering detection's span (captured
  // into the firing when it was enqueued — the execution usually happens on
  // a different thread, so the per-thread scope stack cannot supply it).
  // The record stays open across commit/abort below so the span covers the
  // whole subtransaction; condition/action records nest inside it via this
  // thread's scope stack.
  obs::SpanScope subtxn_span;
  subtxn_span.Start(span_tracer, obs::SpanKind::kSubTxn, firing.txn,
                    rule->name_symbol(), sub, now_ns, firing.trigger_span);

  // Publish this firing as the current frame so nested triggers (raised from
  // the action) inherit txn/priority/depth.
  Frame frame{firing.txn, sub, firing.priority_path, firing.depth};
  Frame* prev_frame = t_frame;
  t_frame = &frame;

  int seen = max_depth_.load(std::memory_order_relaxed);
  while (firing.depth > seen &&
         !max_depth_.compare_exchange_weak(seen, firing.depth)) {
  }

  // Run condition + action inside a containment boundary (paper §2.3: rule
  // failures are isolated in their subtransaction). A thrown exception or
  // an injected fault aborts only this rule's subtransaction — it must
  // never escape into the worker thread and kill the process.
  bool condition_held = true;
  Status failure;
  if (FailPointRegistry::AnyActive()) {
    FailPointAction action =
        FailPointRegistry::Instance().Evaluate("scheduler.execute");
    if (action.fired()) failure = action.ToStatus("scheduler.execute");
  }
  if (failure.ok()) {
    try {
      if (rule->condition()) {
        // Conditions are side-effect free: suppress event signalling while
        // the condition function runs (§3.2.1).
        detector::LocalEventDetector::SuppressScope guard;
        obs::SpanScope cond_span;
        cond_span.Start(span_tracer, obs::SpanKind::kCondition, firing.txn,
                        rule->name_symbol(), sub, now_ns, 0,
                        &metrics.condition_ns);
        condition_held = rule->condition()(ctx);
        now_ns = obs::SpanTracer::NowNs();
        cond_span.End(now_ns);
      }
      if (condition_held && rule->action()) {
        obs::SpanScope action_span;
        action_span.Start(span_tracer, obs::SpanKind::kAction, firing.txn,
                          rule->name_symbol(), sub, now_ns, 0,
                          &metrics.action_ns);
        rule->action()(ctx);
        now_ns = obs::SpanTracer::NowNs();
        action_span.End(now_ns);
      }
    } catch (const std::exception& e) {
      failure = Status::Internal("rule " + rule->name() +
                                 " threw: " + e.what());
    } catch (...) {
      failure =
          Status::Internal("rule " + rule->name() + " threw a non-standard "
                           "exception");
    }
    // A record the throw unwound closed at its own reading.
    if (!failure.ok()) now_ns = obs::SpanTracer::NowNs();
  }

  t_frame = prev_frame;
  // Condition + action wall; nonzero marks the rule known even when it has
  // neither function.
  rule->RecordExecution(std::max<std::uint64_t>(now_ns - start_ns, 1));

  if (sub != txn::kInvalidSubTxn) {
    // The time this subtransaction spent blocked acquiring nested locks is
    // reported by the commit or abort that ends it.
    const std::uint64_t finish_ns = now_ns;
    std::uint64_t lock_wait_ns = 0;
    if (failure.ok()) {
      Status commit = nested_->Commit(sub, &lock_wait_ns);
      now_ns = obs::SpanTracer::NowNs();
      metrics.commit_ns.Record(now_ns - finish_ns);
      subtxn_span.set_outcome(commit.ok() ? obs::SpanOutcome::kCommit
                                          : obs::SpanOutcome::kCommitFailed);
      if (!commit.ok()) {
        SENTINEL_LOG(kWarn) << "subtransaction commit failed for rule "
                            << rule->name() << ": " << commit.ToString();
        sub_status = commit;
      }
    } else {
      Status aborted = nested_->Abort(sub, &lock_wait_ns);
      now_ns = obs::SpanTracer::NowNs();
      metrics.abort_ns.Record(now_ns - finish_ns);
      subtxn_span.set_outcome(obs::SpanOutcome::kAbort);
      if (!aborted.ok()) {
        SENTINEL_LOG(kWarn) << "subtransaction abort failed for rule "
                            << rule->name() << ": " << aborted.ToString();
      }
    }
    metrics.lock_wait_ns.Record(lock_wait_ns);
  }
  // The subtxn record closes with the commit/abort, at the end reading, so
  // a postmortem dumped by the contingency below sees the span.
  subtxn_span.End(now_ns);

  bool doomed = false;
  if (failure.ok()) {
    if (condition_held) {
      rule->CountFiring();
      executed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    sub_status = failure;
    const ContingencyPolicy contingency = this->contingency();
    SENTINEL_LOG(kWarn) << "rule " << rule->name() << " failed (contained, "
                        << ContingencyPolicyToString(contingency)
                        << "): " << failure.ToString();
    doomed = contingency == ContingencyPolicy::kAbortTop &&
             firing.txn != storage::kInvalidTxnId;
    if (doomed) AbortTop(firing.txn);
  }
  for (const ExecutionObserver& observer : observers_) {
    observer(firing, condition_held, sub_status);
  }
  return doomed;
}

void RuleScheduler::Forget(const Rule* rule) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [rule](const Firing& f) {
                                  return f.rule == rule;
                                }),
                 pending_.end());
  pending_count_.store(pending_.size(), std::memory_order_release);
}

void RuleScheduler::AbortTop(storage::TxnId txn) {
  abort_top_.fetch_add(1, std::memory_order_relaxed);
  PostmortemHook hook;
  {
    // Drop this transaction's queued firings: its effects are being rolled
    // back, so running more of its rules would be wasted (and unsafe) work.
    std::lock_guard<std::mutex> lock(mu_);
    hook = postmortem_hook_;
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [txn](const Firing& f) {
                                    return f.txn == txn;
                                  }),
                   pending_.end());
    pending_count_.store(pending_.size(), std::memory_order_release);
  }
  // Dump the postmortem before the abort tears down the transaction state
  // it describes (open spans, in-flight subtransactions, held locks).
  if (hook) hook(txn);
  if (db_ != nullptr) {
    Status st = db_->Abort(txn);
    if (!st.ok()) {
      SENTINEL_LOG(kWarn) << "contingency abort of txn " << txn
                          << " failed: " << st.ToString();
    }
  }
}

void RuleScheduler::DetachedLoop() {
  for (;;) {
    Firing firing;
    {
      std::unique_lock<std::mutex> lock(detached_mu_);
      detached_cv_.wait(lock, [this] {
        return stop_detached_ || !detached_pending_.empty();
      });
      if (stop_detached_ && detached_pending_.empty()) return;
      firing = std::move(detached_pending_.front());
      detached_pending_.pop_front();
      ++detached_busy_;
      detached_count_.store(detached_pending_.size() + detached_busy_,
                            std::memory_order_release);
    }
    // Detached rules run in their own top-level transaction, causally
    // independent of the triggering one (paper §2.2, §4).
    storage::TxnId detached_txn = storage::kInvalidTxnId;
    if (db_ != nullptr) {
      auto begun = db_->Begin();
      if (begun.ok()) detached_txn = *begun;
    }
    firing.txn = detached_txn;
    firing.parent_subtxn = txn::kInvalidSubTxn;
    Execute(std::move(firing));
    if (detached_txn != storage::kInvalidTxnId) {
      Status st = db_->Commit(detached_txn);
      if (!st.ok()) {
        SENTINEL_LOG(kWarn) << "detached txn commit failed: " << st.ToString();
      }
    }
    // Nested triggers raised by a detached action execute inline here.
    Drain();
    {
      std::lock_guard<std::mutex> lock(detached_mu_);
      --detached_busy_;
      detached_count_.store(detached_pending_.size() + detached_busy_,
                            std::memory_order_release);
      if (detached_pending_.empty() && detached_busy_ == 0) {
        detached_cv_.notify_all();
      }
    }
  }
}

void RuleScheduler::WaitDetached() {
  // A detached rule's action may itself delete rules (which waits on this
  // queue); waiting for the queue to drain from the worker that is draining
  // it would self-deadlock.
  if (std::this_thread::get_id() == detached_worker_.get_id()) return;
  std::unique_lock<std::mutex> lock(detached_mu_);
  detached_cv_.wait(lock, [this] {
    return detached_pending_.empty() && detached_busy_ == 0;
  });
}

}  // namespace sentinel::rules
