#include "core/active_database.h"

#include <algorithm>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/pool.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"
#include "obs/json.h"
#include "obs/prometheus.h"

namespace sentinel::core {

constexpr char ActiveDatabase::kBeginTxnEvent[];
constexpr char ActiveDatabase::kPreCommitEvent[];
constexpr char ActiveDatabase::kCommitEvent[];
constexpr char ActiveDatabase::kAbortEvent[];
constexpr char ActiveDatabase::kFlushOnCommitRule[];
constexpr char ActiveDatabase::kFlushOnAbortRule[];
constexpr char ActiveDatabase::kRuleClass[];
constexpr char ActiveDatabase::kRuleFiredMethod[];

ActiveDatabase::~ActiveDatabase() { (void)Close(); }

Status ActiveDatabase::Open(const std::string& path_prefix) {
  return Open(path_prefix, Options());
}

Status ActiveDatabase::OpenInMemory() { return OpenInMemory(Options()); }

Status ActiveDatabase::Open(const std::string& path_prefix,
                            const Options& options) {
  if (open_) return Status::InvalidArgument("already open");
  db_ = std::make_unique<oodb::Database>();
  SENTINEL_RETURN_NOT_OK(db_->Open(path_prefix, options.database));
  return OpenCommon(options);
}

Status ActiveDatabase::OpenInMemory(const Options& options) {
  if (open_) return Status::InvalidArgument("already open");
  db_ = nullptr;
  return OpenCommon(options);
}

Status ActiveDatabase::OpenCommon(const Options& options) {
  // The tracer is every component's one instrumentation seam.
  detector_ = std::make_unique<detector::LocalEventDetector>();
  detector_->set_span_tracer(&span_tracer_);
  if (db_ != nullptr) {
    detector_->set_class_registry(db_->classes());
    cache_ = std::make_unique<oodb::ObjectCache>(db_->engine(), db_->objects(),
                                                 /*capacity=*/1024);
    // Storage-layer spans + postmortem-on-deadlock. The deadlock hook runs
    // after the lock manager released its latch, so the dump may snapshot
    // the lock table safely.
    storage::StorageEngine* engine = db_->engine();
    engine->lock_manager()->set_span_tracer(&span_tracer_);
    engine->lock_manager()->set_deadlock_hook(
        [this](storage::TxnId victim, const storage::LockKey& key) {
          (void)key;
          (void)DumpPostmortem("deadlock", victim);
        });
    engine->buffer_pool()->set_span_tracer(&span_tracer_);
    engine->log_manager()->set_span_tracer(&span_tracer_);
  }
  nested_ = std::make_unique<txn::NestedTransactionManager>(options.nested);
  nested_->set_span_tracer(&span_tracer_);
  scheduler_ = std::make_unique<rules::RuleScheduler>(nested_.get(), db_.get(),
                                                      options.scheduler);
  scheduler_->set_span_tracer(&span_tracer_);
  scheduler_->set_postmortem_hook([this](storage::TxnId doomed) {
    (void)DumpPostmortem("abort_top", doomed);
  });
  rules::RuleManager::Config config;
  config.begin_txn_event = kBeginTxnEvent;
  config.pre_commit_event = kPreCommitEvent;
  rule_manager_ =
      std::make_unique<rules::RuleManager>(detector_.get(), scheduler_.get(),
                                           config);

  // System transaction events (the REACTIVE system class, §3.2).
  SENTINEL_RETURN_NOT_OK(detector_->DefineExplicit(kBeginTxnEvent).status());
  SENTINEL_RETURN_NOT_OK(detector_->DefineExplicit(kPreCommitEvent).status());
  SENTINEL_RETURN_NOT_OK(detector_->DefineExplicit(kCommitEvent).status());
  SENTINEL_RETURN_NOT_OK(detector_->DefineExplicit(kAbortEvent).status());

  // Internal flush rules (§3.2.2 item 3). Users may disable them via the
  // rule manager to allow events to span transaction boundaries.
  detector::LocalEventDetector* det = detector_.get();
  rules::RuleManager::RuleOptions flush_options;
  flush_options.priority = -1000000;  // run after every user rule
  auto flush_action = [det](const rules::RuleContext& ctx) {
    if (ctx.occurrence != nullptr &&
        ctx.occurrence->txn != storage::kInvalidTxnId) {
      det->FlushTxn(ctx.occurrence->txn);
    }
  };
  SENTINEL_RETURN_NOT_OK(rule_manager_
                             ->DefineRule(kFlushOnCommitRule, kCommitEvent,
                                          nullptr, flush_action, flush_options)
                             .status());
  SENTINEL_RETURN_NOT_OK(rule_manager_
                             ->DefineRule(kFlushOnAbortRule, kAbortEvent,
                                          nullptr, flush_action, flush_options)
                             .status());

  // Reactive RULE class (§3.2): rule executions are method events when
  // enabled. Skipped for executions that were themselves triggered by RULE
  // events, so meta-rules cannot recurse onto their own firings.
  scheduler_->SetExecutionObserver([this](const rules::Firing& firing,
                                          bool condition_held, Status) {
    if (!rule_events_ || firing.rule == nullptr) return;
    if (firing.occurrence != nullptr) {
      for (const auto& constituent : firing.occurrence->constituents) {
        if (constituent->class_name == kRuleClass) return;
      }
    }
    auto params = common::MakePooled<detector::ParamList>();
    params->Insert("rule", oodb::Value::String(firing.rule->name()));
    params->Insert("condition_held", oodb::Value::Bool(condition_held));
    params->Insert("depth", oodb::Value::Int(firing.depth));
    detector_->Notify(kRuleClass, oodb::kInvalidOid,
                      detector::EventModifier::kEnd, kRuleFiredMethod, params,
                      firing.txn);
  });
  // Route warn/error log lines into the flight recorder's log ring so a
  // postmortem shows the last warnings alongside the last spans. Keyed by
  // `this`; cleared in Close before the recorder could go away.
  Logger::SetSink(this, [this](LogLevel level, const std::string& message) {
    flight_recorder_.RecordLog(level, message);
  });
  open_ = true;

  // Operator opt-in monitoring: SENTINEL_MONITOR_PORT starts the watchdog
  // plus the HTTP endpoint (0 = ephemeral port, logged below); a bind
  // failure degrades to a warning — monitoring must never take the
  // database down with it.
  if (const char* port_env = std::getenv("SENTINEL_MONITOR_PORT")) {
    obs::Watchdog::Options wd;
    if (const char* ms_env = std::getenv("SENTINEL_WATCHDOG_MS")) {
      const long ms = std::strtol(ms_env, nullptr, 10);
      if (ms > 0) wd.interval = std::chrono::milliseconds(ms);
    }
    auto started = StartMonitoring(
        static_cast<int>(std::strtol(port_env, nullptr, 10)), wd);
    if (started.ok()) {
      SENTINEL_LOG(kInfo) << "monitor server listening on 127.0.0.1:"
                          << *started;
    } else {
      SENTINEL_LOG(kWarn) << "SENTINEL_MONITOR_PORT set but monitoring "
                             "failed to start: "
                          << started.status().ToString();
    }
  }
  return Status::OK();
}

Status ActiveDatabase::Close() {
  // Drop the network attachments even when not open: the destructor comes
  // here, and an attached server or client may outlive this tracer.
  if (!open_) {
    AttachEventBusServer(nullptr);
    AttachRemoteGedClient(nullptr);
    return Status::OK();
  }
  // Detach the log sink first: teardown below may itself log warnings, and
  // the sink writes into this database's flight recorder.
  Logger::ClearSink(this);
  // Tear down the monitoring plane next: its sampler thread and request
  // handlers read every component released below, the attachments too.
  StopMonitoring();
  AttachEventBusServer(nullptr);
  AttachRemoteGedClient(nullptr);
  if (scheduler_ != nullptr) {
    scheduler_->Drain();
    scheduler_->WaitDetached();
  }
  // Tear down in dependency order: rules reference the detector.
  rule_manager_.reset();
  scheduler_.reset();
  nested_.reset();
  detector_.reset();
  cache_.reset();
  Status st;
  if (db_ != nullptr) {
    st = db_->Close();
    db_.reset();
  }
  open_ = false;
  return st;
}

Result<storage::TxnId> ActiveDatabase::Begin() {
  storage::TxnId txn = storage::kInvalidTxnId;
  if (db_ != nullptr) {
    auto begun = db_->Begin();
    if (!begun.ok()) return begun.status();
    txn = *begun;
  } else {
    static std::atomic<storage::TxnId> fake_txn{1};
    txn = fake_txn.fetch_add(1);
  }
  // Root of this transaction's span tree; closes at Commit/Abort. The
  // anchor parents the begin-event spans raised below into it.
  if (span_tracer_.enabled_for(obs::SpanKind::kTxn)) {
    span_tracer_.BeginTxnSpan(txn);
  }
  obs::TxnAnchorScope anchor;
  anchor.Start(&span_tracer_, txn);
  // The begin_transaction event is always signalled at the beginning of a
  // transaction (§2.3).
  auto params = common::MakePooled<detector::ParamList>();
  params->Insert("txn", oodb::Value::Int(static_cast<std::int64_t>(txn)));
  SENTINEL_RETURN_NOT_OK(detector_->RaiseExplicit(kBeginTxnEvent, params, txn));
  scheduler_->Drain();
  open_txn_gauge_.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

Status ActiveDatabase::Commit(storage::TxnId txn) {
  // Parent everything the commit does (pre-commit rules, WAL fsyncs, the
  // commit event) into the transaction's span; the txn span itself closes
  // once the commit pipeline has run.
  obs::TxnAnchorScope anchor;
  anchor.Start(&span_tracer_, txn);
  auto params = common::MakePooled<detector::ParamList>();
  params->Insert("txn", oodb::Value::Int(static_cast<std::int64_t>(txn)));
  // pre_commit is signalled before the commit (§2.3): deferred rules (A*
  // terminator) execute here, inside the transaction. The batch scope hands
  // every deferred firing the raise produces to the scheduler in one bulk
  // enqueue (one lock acquisition) before Drain runs them.
  {
    rules::RuleScheduler::BatchScope batch(scheduler_.get());
    SENTINEL_RETURN_NOT_OK(
        detector_->RaiseExplicit(kPreCommitEvent, params, txn));
  }
  scheduler_->Drain();

  if (db_ != nullptr) SENTINEL_RETURN_NOT_OK(db_->Commit(txn));
  if (cache_ != nullptr) cache_->OnCommit(txn);
  nested_->EndTop(txn);
  open_txn_gauge_.fetch_sub(1, std::memory_order_relaxed);

  SENTINEL_RETURN_NOT_OK(detector_->RaiseExplicit(kCommitEvent, params, txn));
  scheduler_->Drain();
  anchor.End();
  span_tracer_.EndTxnSpan(txn);
  return Status::OK();
}

Status ActiveDatabase::Abort(storage::TxnId txn) {
  obs::TxnAnchorScope anchor;
  anchor.Start(&span_tracer_, txn);
  auto params = common::MakePooled<detector::ParamList>();
  params->Insert("txn", oodb::Value::Int(static_cast<std::int64_t>(txn)));
  Status st;
  if (db_ != nullptr) st = db_->Abort(txn);
  if (cache_ != nullptr) cache_->OnAbort(txn);
  nested_->EndTop(txn);
  open_txn_gauge_.fetch_sub(1, std::memory_order_relaxed);
  SENTINEL_RETURN_NOT_OK(detector_->RaiseExplicit(kAbortEvent, params, txn));
  scheduler_->Drain();
  anchor.End();
  span_tracer_.EndTxnSpan(txn);
  return st;
}

void ActiveDatabase::set_commit_durability(
    storage::CommitDurability durability) {
  if (db_ != nullptr) db_->engine()->set_commit_durability(durability);
}

storage::CommitDurability ActiveDatabase::commit_durability() const {
  if (db_ != nullptr) return db_->engine()->commit_durability();
  return storage::CommitDurability::kSync;
}

Status ActiveDatabase::WaitWalDurable() {
  if (db_ == nullptr) return Status::OK();
  return db_->engine()->WaitWalDurable();
}

Result<detector::EventNode*> ActiveDatabase::DeclareEvent(
    const std::string& event_name, const std::string& class_name,
    detector::EventModifier modifier, const std::string& method_signature,
    oodb::Oid instance) {
  return detector_->DefinePrimitive(event_name, class_name, modifier,
                                    method_signature, instance);
}

void ActiveDatabase::NotifyMethod(
    const std::string& class_name, oodb::Oid oid,
    detector::EventModifier modifier, const std::string& method_signature,
    std::shared_ptr<const detector::ParamList> params, storage::TxnId txn) {
  detector_->Notify(class_name, oid, modifier, method_signature,
                    std::move(params), txn);
  // The application waits for its immediate rules (§2.3).
  scheduler_->Drain();
}

Status ActiveDatabase::RaiseEvent(
    const std::string& event_name,
    std::shared_ptr<const detector::ParamList> params, storage::TxnId txn) {
  SENTINEL_RETURN_NOT_OK(
      detector_->RaiseExplicit(event_name, std::move(params), txn));
  scheduler_->Drain();
  return Status::OK();
}

void ActiveDatabase::AdvanceTime(std::uint64_t now_ms) {
  detector_->AdvanceTime(now_ms);
  scheduler_->Drain();
}

Status ActiveDatabase::ExportTrace(const std::string& path) {
  return span_tracer_.ExportChromeTrace(path);
}

std::string ActiveDatabase::PostmortemJson(const std::string& reason,
                                           storage::TxnId txn) {
  const std::uint64_t now_ns = obs::SpanTracer::NowNs();
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("reason", reason);
  if (txn != storage::kInvalidTxnId) w.Field("victim_txn", txn);
  w.Field("trace_mode", obs::TraceModeToString(span_tracer_.mode()));

  // Top-level transactions still open, via their anchor spans.
  w.Key("active_txns").BeginArray();
  for (const obs::Span& span : span_tracer_.OpenTxnSpans()) {
    w.BeginObject();
    w.Field("txn", span.txn);
    w.Field("span", span.id);
    w.Field("open_ns", now_ns > span.start_ns ? now_ns - span.start_ns : 0);
    w.EndObject();
  }
  w.EndArray();

  // In-flight rule subtransactions and the nested locks they hold.
  if (nested_ != nullptr) {
    w.Key("subtxns").BeginArray();
    for (const auto& info : nested_->ActiveSubTxns()) {
      w.BeginObject();
      w.Field("id", info.id);
      w.Field("top", info.top);
      w.Field("parent", info.parent);
      w.Field("depth", info.depth);
      w.Field("lock_wait_ns", info.lock_wait_ns);
      w.Key("held_keys").BeginArray();
      for (const std::string& key : info.held_keys) w.Value(key);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }

  // Storage lock table: held locks plus waits-for edges (who is blocked on
  // what — the deadlock evidence).
  if (db_ != nullptr) {
    storage::LockManager* locks = db_->engine()->lock_manager();
    w.Key("locks").BeginArray();
    for (const auto& info : locks->SnapshotLocks()) {
      w.BeginObject();
      w.Field("key", info.key);
      w.Key("holders").BeginArray();
      for (const auto& holder : info.holders) {
        w.BeginObject();
        w.Field("txn", holder.txn);
        w.Field("mode",
                holder.mode == storage::LockMode::kExclusive ? "X" : "S");
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("waits_for").BeginArray();
    for (const auto& edge : locks->SnapshotWaits()) {
      w.BeginObject();
      w.Field("txn", edge.txn);
      w.Field("key", edge.key);
      w.EndObject();
    }
    w.EndArray();
  }

  // Failpoint hit counts: which injected faults were armed and firing.
  w.Key("failpoints").BeginArray();
  for (const auto& info : FailPointRegistry::Instance().List()) {
    w.BeginObject();
    w.Field("name", info.name);
    w.Field("spec", info.spec.ToString());
    w.Field("hits", info.hits);
    w.Field("fires", info.fires);
    w.EndObject();
  }
  w.EndArray();

  // The last warn/error log lines before the failure, oldest first (the
  // Logger sink feeds the flight recorder's log ring while the database is
  // open).
  w.Key("last_logs").BeginArray();
  for (const auto& entry : flight_recorder_.SnapshotLogs()) {
    w.BeginObject();
    w.Field("at_ns", entry.at_ns);
    w.Field("level", Logger::LevelName(entry.level));
    w.Field("message", entry.message);
    w.EndObject();
  }
  w.EndArray();

  // The last spans the system closed before the failure, oldest first: the
  // newest kFlightRingCapacity across the merged per-thread rings.
  std::vector<obs::Span> spans = span_tracer_.Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const obs::Span& a, const obs::Span& b) {
              return a.end_ns != b.end_ns ? a.end_ns < b.end_ns : a.id < b.id;
            });
  const std::size_t keep =
      std::min(spans.size(), obs::SpanTracer::kFlightRingCapacity);
  w.Key("last_spans").BeginArray();
  for (auto it = spans.end() - static_cast<std::ptrdiff_t>(keep);
       it != spans.end(); ++it) {
    const obs::Span& span = *it;
    w.BeginObject();
    w.Field("id", span.id);
    w.Field("parent", span.parent);
    w.Field("kind", obs::SpanKindToString(span.kind));
    if (span.txn != storage::kInvalidTxnId) w.Field("txn", span.txn);
    if (span.subtxn != 0) w.Field("subtxn", span.subtxn);
    w.Field("dur_ns", span.end_ns > span.start_ns
                          ? span.end_ns - span.start_ns
                          : 0);
    w.Field("tid", span.tid);
    w.Field("label", span.label);
    w.EndObject();
  }
  w.EndArray();

  if (scheduler_ != nullptr) {
    w.Key("scheduler").BeginObject();
    w.Field("executed", scheduler_->executed_count());
    w.Field("failed", scheduler_->failed_count());
    w.Field("abort_top", scheduler_->abort_top_count());
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

Result<std::string> ActiveDatabase::DumpPostmortem(const std::string& reason,
                                                   storage::TxnId txn,
                                                   const std::string& path) {
  return flight_recorder_.WritePostmortem(PostmortemJson(reason, txn), path);
}

Result<int> ActiveDatabase::StartMonitoring(
    int port, obs::Watchdog::Options watchdog_options) {
  if (!open_) return Status::InvalidArgument("database not open");
  if (watchdog_ != nullptr || monitor_ != nullptr) {
    return Status::InvalidArgument("monitoring already started");
  }
  watchdog_ = std::make_unique<obs::Watchdog>(
      [this] { return CollectMonitorSample(); }, watchdog_options);
  watchdog_->set_postmortem_hook([this](const std::string& reason) {
    (void)DumpPostmortem("watchdog: " + reason);
  });
  // On degrade, /healthz names the rule with the largest measured cost —
  // the first suspect when the pipeline wedges under rule load.
  watchdog_->set_detail_provider(
      [this] { return rule_manager_->TopCostRule(); });
  Status st = watchdog_->Start();
  if (!st.ok()) {
    watchdog_.reset();
    return st;
  }
  if (port < 0) return -1;  // watchdog-only mode

  monitor_ = std::make_unique<obs::MonitorServer>();
  monitor_->Route("/metrics", [this] {
    obs::MonitorServer::Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = PrometheusText();
    return r;
  });
  monitor_->Route("/graph", [this] {
    obs::MonitorServer::Response r;
    r.content_type = "text/vnd.graphviz";
    r.body = detector_->DumpGraph();
    return r;
  });
  monitor_->Route("/trace", [this] {
    obs::MonitorServer::Response r;
    r.content_type = "application/json";
    r.body = span_tracer_.ChromeTraceJson();
    return r;
  });
  monitor_->Route("/postmortem", [this] {
    obs::MonitorServer::Response r;
    r.content_type = "application/json";
    r.body = PostmortemJson("manual");
    return r;
  });
  monitor_->Route("/healthz", [this] {
    obs::MonitorServer::Response r;
    r.content_type = "application/json";
    r.body = HealthJson(&r.status);
    return r;
  });
  obs::MonitorServer::Options server_options;
  server_options.port = port;
  st = monitor_->Start(server_options);
  if (!st.ok()) {
    monitor_.reset();
    watchdog_->Stop();
    watchdog_.reset();
    return st;
  }
  return monitor_->port();
}

void ActiveDatabase::StopMonitoring() {
  // Server first: once it is down no handler can race component access
  // while the watchdog (and later Close) tears the rest down.
  if (monitor_ != nullptr) {
    monitor_->Stop();
    monitor_.reset();
  }
  if (watchdog_ != nullptr) {
    watchdog_->Stop();
    watchdog_.reset();
  }
}

obs::MonitorSample ActiveDatabase::CollectMonitorSample() {
  obs::MonitorSample s;
  s.at_ns = obs::SpanTracer::NowNs();
  if (detector_ != nullptr) {
    const auto totals = detector_->TotalsSnapshot();
    s.notifications = totals.notifications;
    s.detections = totals.detections;
    s.detector_buffered = totals.buffered;
  }
  if (scheduler_ != nullptr) {
    s.executed = scheduler_->executed_count();
    s.failed = scheduler_->failed_count();
    s.abort_top = scheduler_->abort_top_count();
    s.sched_pending = scheduler_->pending_count();
    s.sched_detached = scheduler_->detached_pending_count();
  }
  if (nested_ != nullptr) {
    s.active_subtxns = nested_->active_count();
    s.nested_waiters = nested_->waiting_count();
  }
  if (db_ != nullptr) {
    storage::StorageEngine* engine = db_->engine();
    s.open_txns = engine->active_txn_count();
    s.lock_waiters = engine->lock_manager()->waiting_count();
    s.deadlocks = engine->lock_manager()->deadlock_count();
    s.lock_wait = engine->lock_manager()->wait_histogram().TakeSnapshot();
    s.pool_resident = engine->buffer_pool()->resident_count();
    s.pool_dirty = engine->buffer_pool()->dirty_count();
    s.wal_wedged = engine->log_manager()->wedged();
    s.wal_appended_lsn = engine->log_manager()->appended_lsn();
    s.wal_durable_lsn = engine->log_manager()->durable_lsn();
    s.wal_fsync = engine->log_manager()->fsync_histogram().TakeSnapshot();
  } else {
    const std::int64_t open = open_txn_gauge_.load(std::memory_order_relaxed);
    s.open_txns = open > 0 ? static_cast<std::uint64_t>(open) : 0;
  }
  std::lock_guard<std::mutex> lock(net_mu_);
  if (event_bus_ != nullptr) {
    const net::EventBusServerStats net = event_bus_->stats();
    s.net_sessions = net.open_sessions;
    s.net_admission_depth = net.admission_depth;
    s.net_sheds = net.sheds;
    s.net_frame_errors = net.frame_errors;
    s.net_overloaded = net.overloaded;
    s.net_e2e = net.e2e_delivery_ns;
  }
  return s;
}

void ActiveDatabase::AttachEventBusServer(net::EventBusServer* server) {
  std::lock_guard<std::mutex> lock(net_mu_);
  if (event_bus_ != nullptr) event_bus_->set_span_tracer(nullptr);
  event_bus_ = server;
  if (server != nullptr) server->set_span_tracer(&span_tracer_);
}

void ActiveDatabase::AttachRemoteGedClient(net::RemoteGedClient* client) {
  std::lock_guard<std::mutex> lock(net_mu_);
  if (remote_client_ != nullptr) remote_client_->set_span_tracer(nullptr);
  remote_client_ = client;
  if (client != nullptr) client->set_span_tracer(&span_tracer_);
}

std::string ActiveDatabase::HealthJson(int* http_status) {
  if (watchdog_ != nullptr) {
    const obs::HealthState state = watchdog_->health();
    if (http_status != nullptr) {
      *http_status = state == obs::HealthState::kHealthy ? 200 : 503;
    }
    return watchdog_->HealthJson();
  }
  // No watchdog: report the cheap invariants only.
  bool wedged = false;
  if (db_ != nullptr) wedged = db_->engine()->log_manager()->wedged();
  if (http_status != nullptr) *http_status = wedged ? 503 : 200;
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("status", wedged ? "unhealthy" : "healthy");
  w.Field("healthy", !wedged);
  w.Field("watchdog_running", false);
  if (wedged) {
    w.Key("reasons").BeginArray();
    w.Value("wal_wedged");
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

std::string ActiveDatabase::PrometheusText() {
  obs::PromWriter p;
  using Labels = obs::PromWriter::Labels;

  // Pipeline totals + per-node event-graph series.
  if (detector_ != nullptr) {
    const auto totals = detector_->TotalsSnapshot();
    p.Counter("sentinel_detector_notifications_total",
              "Raw event notifications accepted by the detector.", {},
              totals.notifications);
    p.Counter("sentinel_detector_detections_total",
              "Occurrences emitted by event-graph nodes.", {},
              totals.detections);
    p.Counter("sentinel_detector_flushed_total",
              "Buffered occurrences dropped by transaction flushes.", {},
              totals.flushed);
    p.Gauge("sentinel_detector_buffered",
            "Occurrences currently buffered in the event graph.", {},
            totals.buffered);

    p.Family("sentinel_event_received_total",
             "Occurrences delivered into an event node, by context.",
             "counter");
    p.Family("sentinel_event_detected_total",
             "Occurrences emitted by an event node, by context.", "counter");
    p.Family("sentinel_event_buffered",
             "Occurrences buffered at an event node.", "gauge");
    p.Family("sentinel_event_context_refs",
             "Subscriber reference count per parameter context.", "gauge");
    p.Family("sentinel_event_sinks",
             "Sinks (rules, GED forwarders) subscribed to an event node.",
             "gauge");
    p.Family("sentinel_event_flushed_total",
             "Buffered occurrences an event node dropped on transaction "
             "flushes.",
             "counter");
    for (const auto& node : detector_->SnapshotNodes()) {
      const Labels node_labels = {{"event", node.name}, {"kind", node.kind}};
      p.Sample("sentinel_event_buffered", node_labels, node.buffered);
      p.Sample("sentinel_event_sinks", node_labels, node.sinks);
      p.Sample("sentinel_event_flushed_total", node_labels, node.flushed);
      for (int c = 0; c < detector::kNumContexts; ++c) {
        const auto& ctx = node.contexts[c];
        if (ctx.refs == 0 && ctx.received == 0 && ctx.detected == 0) continue;
        Labels ctx_labels = node_labels;
        ctx_labels.emplace_back(
            "context",
            detector::ParamContextToString(
                static_cast<detector::ParamContext>(c)));
        p.Sample("sentinel_event_received_total", ctx_labels, ctx.received);
        p.Sample("sentinel_event_detected_total", ctx_labels, ctx.detected);
        p.Sample("sentinel_event_context_refs", ctx_labels,
                 static_cast<std::uint64_t>(ctx.refs > 0 ? ctx.refs : 0));
      }
    }
  }

  // Scheduler counters + queue-depth gauges.
  if (scheduler_ != nullptr) {
    p.Counter("sentinel_rules_executed_total",
              "Rule firings that ran to completion.", {},
              scheduler_->executed_count());
    p.Counter("sentinel_rules_condition_rejections_total",
              "Firings whose condition did not hold.", {},
              scheduler_->condition_rejections());
    p.Counter("sentinel_rules_failed_total",
              "Contained rule failures (subtransaction rolled back).", {},
              scheduler_->failed_count());
    p.Counter("sentinel_rules_abort_top_total",
              "ABORT_TOP contingencies: rule failures that doomed the "
              "top-level transaction.",
              {}, scheduler_->abort_top_count());
    p.Gauge("sentinel_scheduler_pending",
            "Prioritized firings awaiting execution.", {},
            scheduler_->pending_count());
    p.Gauge("sentinel_scheduler_detached_pending",
            "Detached firings queued or executing.", {},
            scheduler_->detached_pending_count());
    p.Gauge("sentinel_scheduler_max_depth",
            "Deepest cascaded-rule nesting observed.", {},
            scheduler_->max_depth_seen());
    p.Gauge("sentinel_scheduler_info",
            "Scheduler configuration: rule-priority policy and the "
            "contingency applied to failed rules.",
            {{"policy", std::to_string(static_cast<int>(scheduler_->policy()))},
             {"contingency",
              rules::ContingencyPolicyToString(scheduler_->contingency())}},
            1);
  }

  // Per-rule firing counters and latency histograms.
  if (rule_manager_ != nullptr) {
    p.Family("sentinel_rule_fired_total", "Firings per rule.", "counter");
    p.Family("sentinel_rule_info",
             "Rule definition: triggering event and coupling mode.", "gauge");
    for (const std::string& name : rule_manager_->RuleNames()) {
      auto rule = rule_manager_->Find(name);
      if (!rule.ok()) continue;
      const Labels labels = {{"rule", name},
                             {"event", (*rule)->declared_event()}};
      p.Sample("sentinel_rule_fired_total", labels, (*rule)->fired_count());
      p.Sample("sentinel_rule_info",
               {{"rule", name},
                {"event", (*rule)->declared_event()},
                {"coupling", rules::CouplingModeToString((*rule)->coupling())}},
               1);
      const obs::RuleMetrics& m = (*rule)->metrics();
      const Labels rl = {{"rule", name}};
      p.Histogram("sentinel_rule_condition_ns",
                  "Condition evaluation latency (ns).", rl,
                  m.condition_ns.TakeSnapshot());
      p.Histogram("sentinel_rule_action_ns", "Action execution latency (ns).",
                  rl, m.action_ns.TakeSnapshot());
      p.Histogram("sentinel_rule_commit_ns",
                  "Rule subtransaction commit latency (ns).", rl,
                  m.commit_ns.TakeSnapshot());
      p.Histogram("sentinel_rule_abort_ns",
                  "Rule subtransaction abort latency (ns).", rl,
                  m.abort_ns.TakeSnapshot());
      p.Histogram("sentinel_rule_lock_wait_ns",
                  "Time the rule's subtransaction blocked on nested locks "
                  "(ns).",
                  rl, m.lock_wait_ns.TakeSnapshot());
    }
  }

  // Transactions + nested-transaction gauges.
  if (db_ != nullptr) {
    p.Gauge("sentinel_open_txns", "Open top-level transactions.", {},
            db_->engine()->active_txn_count());
  } else {
    const std::int64_t open = open_txn_gauge_.load(std::memory_order_relaxed);
    p.Gauge("sentinel_open_txns", "Open top-level transactions.", {},
            open > 0 ? static_cast<std::uint64_t>(open) : 0);
  }
  if (nested_ != nullptr) {
    p.Gauge("sentinel_subtxns_active", "Rule subtransactions in flight.", {},
            nested_->active_count());
    p.Gauge("sentinel_nested_locked_keys",
            "Keys held in the nested lock table.", {},
            nested_->locked_key_count());
    p.Gauge("sentinel_nested_waiters",
            "Threads blocked acquiring nested locks.", {},
            nested_->waiting_count());
  }

  // Storage layer (persistent mode only).
  if (db_ != nullptr) {
    storage::StorageEngine* engine = db_->engine();
    storage::BufferPool* pool = engine->buffer_pool();
    p.Counter("sentinel_buffer_pool_hits_total", "Buffer-pool page hits.", {},
              pool->hit_count());
    p.Counter("sentinel_buffer_pool_misses_total", "Buffer-pool page misses.",
              {}, pool->miss_count());
    p.Counter("sentinel_buffer_pool_evictions_total",
              "Pages evicted from the buffer pool.", {},
              pool->eviction_count());
    p.Gauge("sentinel_buffer_pool_resident", "Resident buffer-pool pages.",
            {}, pool->resident_count());
    p.Gauge("sentinel_buffer_pool_dirty", "Dirty buffer-pool pages.", {},
            pool->dirty_count());
    p.Gauge("sentinel_buffer_pool_capacity", "Buffer-pool frame capacity.",
            {}, pool->capacity());
    if (cache_ != nullptr) {
      p.Counter("sentinel_object_cache_hits_total", "Object-cache hits.", {},
                cache_->hit_count());
      p.Counter("sentinel_object_cache_misses_total", "Object-cache misses.",
                {}, cache_->miss_count());
      p.Gauge("sentinel_object_cache_resident", "Cached objects.", {},
              cache_->size());
    }
    storage::LogManager* wal = engine->log_manager();
    p.Counter("sentinel_wal_syncs_total", "WAL fsync batches.", {},
              wal->sync_count());
    p.Counter("sentinel_wal_truncated_bytes_total",
              "Bytes of torn tail discarded during WAL recovery.", {},
              wal->truncated_bytes());
    p.Gauge("sentinel_wal_wedged",
            "1 when the WAL refused further appends after a torn write or "
            "failed fsync barrier.",
            {}, wal->wedged() ? 1 : 0);
    p.Gauge("sentinel_wal_durable_lsn",
            "Highest LSN covered by a completed fsync barrier.", {},
            wal->durable_lsn());
    p.Gauge("sentinel_wal_appended_lsn",
            "Highest LSN fully written to the WAL buffer.", {},
            wal->appended_lsn());
    p.Counter("sentinel_wal_group_commit_waits_total",
              "Commits that waited on (or piggybacked on) a group-commit "
              "barrier.",
              {}, wal->group_commit_waits());
    p.Counter("sentinel_wal_async_commits_total",
              "Commits acknowledged on WAL-buffer write (async durability).",
              {}, wal->async_commits());
    p.Histogram("sentinel_wal_fsync_ns", "WAL fsync latency (ns).", {},
                wal->fsync_histogram().TakeSnapshot());
    storage::DiskManager* disk = engine->disk_manager();
    p.Counter("sentinel_disk_syncs_total", "Data-file fsyncs.", {},
              disk->sync_count());
    p.Counter("sentinel_disk_io_retries_total",
              "Short read/write retries against the data file.", {},
              disk->io_retries());
    p.Gauge("sentinel_disk_pages", "Pages in the data file.", {},
            disk->page_count());
    p.Histogram("sentinel_disk_fsync_ns", "Data-file fsync latency (ns).", {},
                disk->fsync_histogram().TakeSnapshot());
    storage::LockManager* locks = engine->lock_manager();
    p.Counter("sentinel_lock_waits_total",
              "Lock requests that had to block.", {}, locks->wait_count());
    p.Counter("sentinel_lock_deadlocks_total",
              "Deadlocks broken by victim selection.", {},
              locks->deadlock_count());
    p.Counter("sentinel_lock_timeouts_total", "Lock waits that timed out.",
              {}, locks->timeout_count());
    p.Gauge("sentinel_lock_waiters",
            "Transactions currently blocked in the lock table.", {},
            locks->waiting_count());
    p.Histogram("sentinel_lock_wait_ns", "Storage lock wait latency (ns).",
                {}, locks->wait_histogram().TakeSnapshot());
  }

  // Tracing plane.
  p.Counter("sentinel_spans_recorded_total", "Spans recorded.", {},
            span_tracer_.recorded());
  p.Counter("sentinel_spans_dropped_total",
            "Spans dropped by full trace rings.", {}, span_tracer_.dropped());
  p.Gauge("sentinel_span_trace_info", "Span tracer mode.",
          {{"mode", obs::TraceModeToString(span_tracer_.mode())}}, 1);
  p.Counter("sentinel_postmortems_total", "Postmortem dumps written.", {},
            flight_recorder_.dumps());

  // Watchdog verdict + rates.
  if (watchdog_ != nullptr) {
    p.Gauge("sentinel_health_state",
            "0 = healthy, 1 = degraded, 2 = unhealthy.", {},
            static_cast<std::uint64_t>(watchdog_->health()));
    p.Counter("sentinel_watchdog_ticks_total", "Watchdog sampler ticks.", {},
              watchdog_->ticks());
    p.Counter("sentinel_watchdog_transitions_total",
              "Upward health transitions.", {}, watchdog_->transitions());
    p.Counter("sentinel_watchdog_postmortems_total",
              "Automatic postmortems the watchdog triggered.", {},
              watchdog_->postmortems_triggered());
    const obs::Watchdog::Rates rates = watchdog_->rates();
    p.GaugeF("sentinel_rate_events_per_sec",
             "Notification rate over the watchdog window.", {},
             rates.events_per_sec);
    p.GaugeF("sentinel_rate_firings_per_sec",
             "Rule firing rate over the watchdog window.", {},
             rates.firings_per_sec);
    p.GaugeF("sentinel_rate_aborts_per_sec",
             "ABORT_TOP rate over the watchdog window.", {},
             rates.aborts_per_sec);
  }
  if (monitor_ != nullptr) {
    p.Counter("sentinel_monitor_requests_total",
              "HTTP requests served by the monitor endpoint.", {},
              monitor_->requests());
  }

  // Network plane: event-bus server (daemon side) and remote client.
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    if (event_bus_ != nullptr) event_bus_->WritePrometheus(p);
    if (remote_client_ != nullptr) remote_client_->WritePrometheus(p);
  }
  return p.Take();
}

Result<oodb::Oid> ActiveDatabase::CreateObject(storage::TxnId txn,
                                               const std::string& class_name,
                                               const std::string& name) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("no persistent store in in-memory mode");
  }
  if (!db_->classes()->Exists(class_name)) {
    return Status::NotFound("class not registered: " + class_name);
  }
  oodb::PersistentObject obj(oodb::kInvalidOid, class_name);
  auto oid = db_->objects()->Put(txn, std::move(obj));
  if (!oid.ok()) return oid;
  if (!name.empty()) {
    SENTINEL_RETURN_NOT_OK(db_->names()->Bind(txn, name, *oid));
  }
  return oid;
}

}  // namespace sentinel::core
