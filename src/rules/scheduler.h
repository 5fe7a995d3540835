#ifndef SENTINEL_RULES_SCHEDULER_H_
#define SENTINEL_RULES_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inline_vector.h"
#include "common/status.h"
#include "rules/rule.h"
#include "rules/thread_pool.h"

namespace sentinel::obs {
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::rules {

/// How triggered rules are ordered (paper §2.2 "Rule scheduling"):
///   kSerial           — strict prioritized serial execution.
///   kPriorityClasses  — global order among priority classes; members of
///                       a class may run concurrently (the paper's
///                       combination; Drain says when they do).
enum class SchedulingPolicy : std::uint8_t {
  kSerial = 0,
  kPriorityClasses = 2,
};

/// What happens to the *triggering* transaction when a rule fails (its
/// condition/action throws, or its subtransaction cannot commit). The
/// failing rule's own subtransaction is always aborted; the policy decides
/// how far the failure propagates (HiPAC-style contingency handling):
///   kSkipRule — contain the failure to the rule: its subtransaction is
///               aborted, the top-level transaction and sibling rules
///               proceed (default).
///   kAbortTop — the failure dooms the triggering top-level transaction:
///               its remaining queued firings are dropped and the
///               transaction is aborted.
enum class ContingencyPolicy : std::uint8_t {
  kSkipRule = 0,
  kAbortTop = 1,
};

const char* ContingencyPolicyToString(ContingencyPolicy policy);

/// A firing's effective priority: the triggering rule's path extended with
/// this rule's priority class. Paths as deep as nesting usually goes are
/// kept in place.
using PriorityPath = common::InlineVector<int, 6>;

/// A triggered rule waiting to execute.
struct Firing {
  Rule* rule = nullptr;
  /// The triggering detection, shared with every other rule it triggered;
  /// it owns everything the firing reads, so a detached firing needs no
  /// copy of it. Null only for firings built outside the rule manager.
  detector::OccurrenceRef occurrence;
  detector::ParamContext context = detector::ParamContext::kRecent;
  storage::TxnId txn = storage::kInvalidTxnId;
  txn::SubTxnId parent_subtxn = txn::kInvalidSubTxn;
  /// Lexicographically larger = runs earlier; a longer path extending a
  /// prefix runs earlier (depth-first nested execution, §3.2.3).
  PriorityPath priority_path;
  int depth = 1;
  /// Span id of the composite_detect (or notify) span live when the rule
  /// triggered; the firing's subtxn span parents under it so the causal
  /// chain survives the hop onto a scheduler thread.
  std::uint64_t trigger_span = 0;
};

/// Executes rule firings as prioritized subtransactions on a thread pool
/// (paper Fig. 3): condition and action are packaged as the thread body; the
/// triggering application thread suspends in Drain() until all immediate
/// rules (including nested ones) have completed, then resumes.
class RuleScheduler {
 public:
  struct Options {
    SchedulingPolicy policy = SchedulingPolicy::kPriorityClasses;
    std::size_t workers = 4;
    ContingencyPolicy contingency = ContingencyPolicy::kSkipRule;
  };

  RuleScheduler(txn::NestedTransactionManager* nested, oodb::Database* db,
                const Options& options);
  ~RuleScheduler();

  RuleScheduler(const RuleScheduler&) = delete;
  RuleScheduler& operator=(const RuleScheduler&) = delete;

  /// Queues an immediate/deferred firing. Inside an active BatchScope on
  /// this thread the firing is buffered locally and handed over in bulk at
  /// scope exit.
  void Enqueue(Firing firing);

  /// Queues many firings with a single lock acquisition and one
  /// pending-count store (vs one of each per Enqueue call).
  void EnqueueBatch(std::vector<Firing> firings);

  /// RAII batching window: while alive on the current thread, Enqueue()
  /// calls against this scheduler collect into a thread-local buffer that
  /// is flushed as one EnqueueBatch when the scope ends. The pre-commit
  /// hand-off of deferred firings wraps its event raise in one of these so
  /// N deferred rules reach the queue under one lock acquisition. Scopes
  /// nest (inner flushes first).
  class BatchScope {
   public:
    explicit BatchScope(RuleScheduler* scheduler);
    ~BatchScope();

    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    friend class RuleScheduler;
    RuleScheduler* scheduler_;
    BatchScope* prev_;
    std::vector<Firing> buffered_;
  };

  /// Queues a detached firing: executed asynchronously in its own top-level
  /// transaction by the detached worker.
  void EnqueueDetached(Firing firing);

  /// Runs queued firings to completion (nested firings included). Called by
  /// the application thread after signalling; it blocks — the paper's
  /// "main application is suspended and the rule scheduler is invoked".
  /// The calling thread runs a priority class itself, in order. A member
  /// goes to the pool only when its rule is unknown (never executed) or slow
  /// (its last condition+action took longer than the pool's measured
  /// hand-off): when at most one member is, the class runs entirely here;
  /// otherwise all of them but one overlap on the pool. Called inside a
  /// rule's action, it runs only the firings that outrank that rule.
  void Drain();

  /// Drops the queued firings of `rule`, which is about to be deleted.
  void Forget(const Rule* rule);

  /// Blocks until the detached queue is empty (tests and shutdown).
  void WaitDetached();

  /// Per-thread frame describing the firing currently executing on this
  /// thread; used to derive nested firings' parent/priority/depth.
  struct Frame {
    storage::TxnId txn = storage::kInvalidTxnId;
    txn::SubTxnId subtxn = txn::kInvalidSubTxn;
    /// Borrowed from the executing firing, which outlives the frame.
    const PriorityPath& priority_path;
    int depth = 0;
  };
  static const Frame* CurrentFrame();

  std::uint64_t executed_count() const { return executed_; }
  /// Pending-queue depth (the lock-free mirror the Drain early-out reads);
  /// a live gauge for the monitoring plane.
  std::size_t pending_count() const {
    return pending_count_.load(std::memory_order_acquire);
  }
  /// Detached-queue depth: queued detached firings plus the one currently
  /// executing on the detached worker.
  std::size_t detached_pending_count() const {
    return detached_count_.load(std::memory_order_acquire);
  }
  std::uint64_t condition_rejections() const { return rejected_; }
  /// Firings whose condition/action threw or whose subtransaction failed.
  /// Failures are contained: the rule's subtransaction is aborted and the
  /// process keeps serving (never std::terminate).
  std::uint64_t failed_count() const { return failed_; }
  /// Times the kAbortTop contingency aborted a triggering transaction.
  std::uint64_t abort_top_count() const { return abort_top_; }
  int max_depth_seen() const { return max_depth_; }
  // Policy knobs are atomics: the shell (or any admin surface) may flip them
  // while worker threads are popping batches and executing firings.
  SchedulingPolicy policy() const {
    return policy_.load(std::memory_order_relaxed);
  }
  void set_policy(SchedulingPolicy policy) {
    policy_.store(policy, std::memory_order_relaxed);
  }
  ContingencyPolicy contingency() const {
    return contingency_.load(std::memory_order_relaxed);
  }
  void set_contingency(ContingencyPolicy policy) {
    contingency_.store(policy, std::memory_order_relaxed);
  }

  /// Attaches the span tracer, the seam every firing is measured through:
  /// a subtxn record (with condition/action child records) parented under
  /// its trigger_span. Without a tracer the rule histograms are still
  /// recorded.
  void set_span_tracer(obs::SpanTracer* tracer) {
    span_tracer_.store(tracer, std::memory_order_release);
  }

  /// Invoked (with the doomed transaction id) when the kAbortTop contingency
  /// fires, before the transaction is aborted — the active layer hooks the
  /// crash-postmortem dump here.
  using PostmortemHook = std::function<void(storage::TxnId)>;
  void set_postmortem_hook(PostmortemHook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    postmortem_hook_ = std::move(hook);
  }

  /// Record of one executed firing, for the rule debugger and for the
  /// reactive-RULE-class events. Multiple observers may be attached.
  using ExecutionObserver = std::function<void(
      const Firing&, bool condition_held, Status execution_status)>;
  void SetExecutionObserver(ExecutionObserver observer) {
    observers_.push_back(std::move(observer));
  }

 private:
  // Pops the next batch to run according to the policy into `batch`.
  // Empty == idle.
  void PopBatch(std::vector<Firing>* batch);
  void RunClass(std::vector<Firing>* batch);
  // True when the firing's failure doomed its transaction (kAbortTop).
  bool Execute(Firing firing);
  void DetachedLoop();
  // kAbortTop contingency: drop queued firings of `txn` and abort it.
  void AbortTop(storage::TxnId txn);

  std::atomic<SchedulingPolicy> policy_;
  std::atomic<ContingencyPolicy> contingency_;
  txn::NestedTransactionManager* nested_;
  oodb::Database* db_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<obs::SpanTracer*> span_tracer_{nullptr};
  PostmortemHook postmortem_hook_;  // guarded by mu_

  std::mutex mu_;
  // A vector, not a deque: PopBatch closes the queue up in place, so its
  // storage is reused from one notification to the next.
  std::vector<Firing> pending_;
  // Mirrors pending_.size(); lets Drain() return without locking when no
  // rule fired (the common case on the Notify hot path, which calls Drain
  // after every notification).
  std::atomic<std::size_t> pending_count_{0};

  std::mutex detached_mu_;
  std::condition_variable detached_cv_;
  std::deque<Firing> detached_pending_;
  // Mirrors detached_pending_.size() + detached_busy_ for lock-free gauge
  // reads by the watchdog sampler.
  std::atomic<std::size_t> detached_count_{0};
  std::size_t detached_busy_ = 0;
  bool stop_detached_ = false;
  std::thread detached_worker_;

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> abort_top_{0};
  std::atomic<int> max_depth_{0};
  std::vector<ExecutionObserver> observers_;
};

}  // namespace sentinel::rules

#endif  // SENTINEL_RULES_SCHEDULER_H_
