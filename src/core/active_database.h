#ifndef SENTINEL_CORE_ACTIVE_DATABASE_H_
#define SENTINEL_CORE_ACTIVE_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "detector/local_detector.h"
#include "obs/flight_recorder.h"
#include "obs/monitor_server.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "oodb/database.h"
#include "oodb/object_cache.h"
#include "rules/rule_manager.h"
#include "rules/scheduler.h"
#include "txn/nested_txn.h"

namespace sentinel::net {
class EventBusServer;
class RemoteGedClient;
}  // namespace sentinel::net

namespace sentinel::core {

/// Sentinel: the integrated active OODBMS (paper Fig. 1). Wraps the passive
/// Database with
///   - a local composite event detector,
///   - a nested transaction manager for rule execution,
///   - a prioritized rule scheduler (threads), and
///   - a rule manager with coupling-mode support.
///
/// Transaction calls raise the system events the paper obtains by making the
/// Open OODB system class REACTIVE (§3.2): `sys_begin_transaction`,
/// `sys_pre_commit_transaction`, `sys_commit_transaction`,
/// `sys_abort_transaction`. Deferred rules piggyback on begin/pre-commit via
/// the A* rewrite; two internal rules flush the event graph on commit and
/// abort (§3.2.2 item 3) and may be disabled to let events span transactions.
class ActiveDatabase {
 public:
  struct Options {
    oodb::Database::Options database;
    rules::RuleScheduler::Options scheduler;
    txn::NestedTransactionManager::Options nested;
  };

  ActiveDatabase() = default;
  ~ActiveDatabase();

  ActiveDatabase(const ActiveDatabase&) = delete;
  ActiveDatabase& operator=(const ActiveDatabase&) = delete;

  Status Open(const std::string& path_prefix, const Options& options);
  Status Open(const std::string& path_prefix);
  /// Detector-only mode: event detection and rules without persistence
  /// (used by benchmarks and the GED's pure-event applications).
  Status OpenInMemory(const Options& options);
  Status OpenInMemory();
  Status Close();
  bool is_open() const { return open_; }

  // -- Transactions (raise system events) ---------------------------------------
  Result<storage::TxnId> Begin();
  Status Commit(storage::TxnId txn);
  Status Abort(storage::TxnId txn);

  // -- Commit durability --------------------------------------------------------

  /// Default durability for Commit: kSync blocks until the WAL group-commit
  /// barrier covers the commit record; kAsync acks on the WAL-buffer write
  /// and lets the group-commit thread converge the durable watermark behind
  /// the ack. No-op in in-memory mode.
  void set_commit_durability(storage::CommitDurability durability);
  storage::CommitDurability commit_durability() const;
  /// Blocks until every async-acknowledged commit is on stable storage
  /// (kSync/in-memory: returns immediately).
  Status WaitWalDurable();

  // -- Event interface ------------------------------------------------------------

  /// Declares a class-level primitive event (paper §3.1 `event end(e1) ...`).
  Result<detector::EventNode*> DeclareEvent(
      const std::string& event_name, const std::string& class_name,
      detector::EventModifier modifier, const std::string& method_signature,
      oodb::Oid instance = oodb::kInvalidOid);

  /// Signals a method invocation (wrapper entry; paper §3.2.1). The caller
  /// then waits for immediate rules — Drain is invoked internally.
  void NotifyMethod(const std::string& class_name, oodb::Oid oid,
                    detector::EventModifier modifier,
                    const std::string& method_signature,
                    std::shared_ptr<const detector::ParamList> params,
                    storage::TxnId txn);

  /// Raises an explicit event and waits for immediate rules.
  Status RaiseEvent(const std::string& event_name,
                    std::shared_ptr<const detector::ParamList> params,
                    storage::TxnId txn);

  /// Advances the temporal clock, firing due PLUS/P events and their rules.
  void AdvanceTime(std::uint64_t now_ms);

  // -- Reactive RULE class (meta-rules) ----------------------------------------

  /// When enabled, every rule execution raises an end-of-method event on the
  /// built-in reactive class "RULE" (method `void fired()`, parameters
  /// `rule`, `condition_held`, `depth`) — the paper's "the rule class can be
  /// both reactive and notifiable, [so] methods of the rule class can
  /// themselves be event generators" (§3.2). Meta-rules subscribe to events
  /// declared on class kRuleClass. Executions triggered by RULE events do
  /// not re-raise (no meta-meta recursion).
  void set_rule_events_enabled(bool enabled) { rule_events_ = enabled; }
  bool rule_events_enabled() const { return rule_events_; }

  // -- Object helpers ---------------------------------------------------------------

  /// Creates a persistent object of `class_name`; binds `name` when given.
  Result<oodb::Oid> CreateObject(storage::TxnId txn,
                                 const std::string& class_name,
                                 const std::string& name = "");

  // -- Components ---------------------------------------------------------------------
  oodb::Database* database() { return db_.get(); }
  /// Object cache over the persistence manager (null in in-memory mode).
  oodb::ObjectCache* object_cache() { return cache_.get(); }
  detector::LocalEventDetector* detector() { return detector_.get(); }
  rules::RuleManager* rule_manager() { return rule_manager_.get(); }
  rules::RuleScheduler* scheduler() { return scheduler_.get(); }
  txn::NestedTransactionManager* nested_txns() { return nested_.get(); }

  // -- Observability ------------------------------------------------------------

  /// Causal span tracer (flight-recorder mode by default). Wired into the
  /// detector, scheduler, nested-txn manager, and — in persistent mode —
  /// the storage engine's lock manager, WAL, and buffer pool on Open, so one
  /// top-level transaction renders as a single tree: txn → notify →
  /// composite_detect → subtxn → condition/action, with lock_wait /
  /// wal_fsync / page_read leaves. The tree is the database's provenance
  /// record: `TxnTreeText` renders one transaction's chain of events, rules
  /// and subtransaction outcomes.
  obs::SpanTracer* span_tracer() { return &span_tracer_; }

  /// The postmortem's log ring and file writer.
  obs::FlightRecorder* flight_recorder() { return &flight_recorder_; }

  /// Writes the buffered spans as Chrome trace-event JSON (loadable in
  /// ui.perfetto.dev / chrome://tracing): the per-thread rings, which in
  /// the default flight mode hold each thread's last 256 non-hot spans.
  Status ExportTrace(const std::string& path);

  /// Crash/abort postmortem: active transactions and their open spans,
  /// in-flight subtransactions with held nested locks, storage lock table
  /// with waits-for edges, failpoint hit counts, the last log lines, and
  /// the 256 most recently closed spans across the rings, as one JSON
  /// object.
  std::string PostmortemJson(const std::string& reason,
                             storage::TxnId txn = storage::kInvalidTxnId);

  /// Renders PostmortemJson and writes it via the flight recorder (explicit
  /// `path`, else $SENTINEL_POSTMORTEM_DIR). Returns the path written, or ""
  /// when no destination is configured. Invoked automatically when the
  /// kAbortTop contingency dooms a transaction and when the storage lock
  /// manager selects a deadlock victim.
  Result<std::string> DumpPostmortem(const std::string& reason,
                                     storage::TxnId txn = storage::kInvalidTxnId,
                                     const std::string& path = "");

  // -- Live monitoring plane ----------------------------------------------------

  /// Starts the health watchdog and, when `port >= 0`, the embedded HTTP
  /// monitor server on 127.0.0.1:`port` (0 = ephemeral; `port < 0` runs the
  /// watchdog alone). Endpoints: /metrics (Prometheus text exposition),
  /// /healthz (200/503 + JSON detail), /graph (DOT), /trace
  /// (Perfetto JSON), /postmortem. Returns the bound port (-1 when no
  /// server was requested). Also started automatically by Open when
  /// $SENTINEL_MONITOR_PORT is set ($SENTINEL_WATCHDOG_MS overrides the
  /// sampling interval).
  Result<int> StartMonitoring(int port,
                              obs::Watchdog::Options watchdog_options = {});
  void StopMonitoring();

  /// The one export of the pipeline's counters, gauges and histograms, in
  /// Prometheus text exposition format: sentinel_* families with
  /// rule/event/context labels (see DESIGN.md §11 for the naming scheme).
  /// /metrics serves it, and the shell's `metrics` prints it.
  std::string PrometheusText();

  /// Health verdict as JSON; sets `*http_status` (when non-null) to 200 for
  /// healthy, 503 for degraded/unhealthy — the /healthz contract. Without a
  /// running watchdog only cheap invariants (WAL wedged) are checked.
  std::string HealthJson(int* http_status = nullptr);

  /// One watchdog reading of the whole pipeline (also useful to tests and
  /// benches that want the gauges without JSON parsing).
  obs::MonitorSample CollectMonitorSample();

  /// Null until StartMonitoring ran with `port >= 0`.
  obs::MonitorServer* monitor_server() { return monitor_.get(); }
  /// Null until StartMonitoring ran.
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  /// Wires a (non-owned) event-bus server into the monitoring plane: its
  /// session/admission gauges join CollectMonitorSample (so the watchdog's
  /// net_overload and net_e2e_p99 predicates can flip /healthz degraded),
  /// its counters join /metrics as sentinel_net_* families, and this
  /// database's span tracer is attached so the server records kNet* spans.
  /// Pass nullptr to detach. Detaching, attaching another server, Close()
  /// and the destructor call set_span_tracer(nullptr) on the attached one,
  /// so it must stay alive until then; Close() drops the attachment, so
  /// attach again after reopening. A detach returns only after an
  /// in-flight watchdog sample or /metrics scrape has finished with the
  /// server, so the caller may destroy it then. Detaching stops new spans
  /// but does not wait for one already begun: the server must be idle or
  /// stopped when the database is destroyed.
  void AttachEventBusServer(net::EventBusServer* server);
  /// Same for a client: its counters join /metrics as sentinel_net_client_*
  /// and its Notify/push paths record + adopt distributed-trace spans.
  void AttachRemoteGedClient(net::RemoteGedClient* client);

  /// Names of the built-in system events and internal flush rules.
  static constexpr char kBeginTxnEvent[] = "sys_begin_transaction";
  static constexpr char kPreCommitEvent[] = "sys_pre_commit_transaction";
  static constexpr char kCommitEvent[] = "sys_commit_transaction";
  static constexpr char kAbortEvent[] = "sys_abort_transaction";
  static constexpr char kFlushOnCommitRule[] = "__sys_flush_on_commit";
  static constexpr char kFlushOnAbortRule[] = "__sys_flush_on_abort";
  static constexpr char kRuleClass[] = "RULE";
  static constexpr char kRuleFiredMethod[] = "void fired()";

 private:
  Status OpenCommon(const Options& options);

  bool open_ = false;
  bool rule_events_ = false;
  // Span tracer + flight recorder are declared before the components so they
  // outlive every component holding a pointer to them during teardown.
  obs::SpanTracer span_tracer_;
  obs::FlightRecorder flight_recorder_;
  std::unique_ptr<oodb::Database> db_;
  std::unique_ptr<oodb::ObjectCache> cache_;
  std::unique_ptr<detector::LocalEventDetector> detector_;
  std::unique_ptr<txn::NestedTransactionManager> nested_;
  std::unique_ptr<rules::RuleScheduler> scheduler_;
  std::unique_ptr<rules::RuleManager> rule_manager_;
  // Monitoring plane. Declared last / torn down first (StopMonitoring runs
  // before component teardown in Close): the watchdog sampler and the
  // server handlers read every component above.
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::MonitorServer> monitor_;
  // Network plane attachments (non-owning; see AttachEventBusServer). The
  // watchdog thread and monitor handlers use them, so every read and write
  // holds net_mu_ for as long as the pointer is used.
  std::mutex net_mu_;
  net::EventBusServer* event_bus_ = nullptr;
  net::RemoteGedClient* remote_client_ = nullptr;
  // Open top-level transactions in detector-only mode, where no storage
  // engine tracks them. Advisory gauge: clamped at zero on read so an
  // unmatched Commit/Abort cannot wrap it.
  std::atomic<std::int64_t> open_txn_gauge_{0};
};

}  // namespace sentinel::core

#endif  // SENTINEL_CORE_ACTIVE_DATABASE_H_
