#include "ged/global_detector.h"

#include "common/logging.h"
#include "obs/span.h"

namespace sentinel::ged {

namespace {
std::string Namespaced(const std::string& app, const std::string& class_name) {
  return app + "::" + class_name;
}
}  // namespace

std::string GlobalEventDetector::NamespacedClass(
    const std::string& app_name, const std::string& class_name) {
  return Namespaced(app_name, class_name);
}

/// Sink that re-raises a global detection inside a target application as an
/// explicit event (the "to execute detached rule" arrow in Fig. 2).
class GlobalEventDetector::Forwarder : public detector::EventSink {
 public:
  Forwarder(core::ActiveDatabase* app, std::string as_event,
            detector::ParamContext context)
      : app_(app), as_event_(std::move(as_event)), context_(context) {}

  void OnEvent(const detector::Occurrence& occurrence,
               detector::ParamContext context) override {
    if (context != context_) return;
    // Re-package the global occurrence's parameters flat into one list.
    auto params = std::make_shared<detector::ParamList>();
    params->Insert("global_event",
                   oodb::Value::String(occurrence.event_name));
    for (const auto& constituent : occurrence.constituents) {
      if (constituent->params == nullptr) continue;
      for (const auto& [name, value] : *constituent->params) {
        params->Insert(name, value);
      }
    }
    Status st = app_->RaiseEvent(as_event_, params, storage::kInvalidTxnId);
    if (!st.ok()) {
      SENTINEL_LOG(kWarn) << "global delivery of " << occurrence.event_name
                          << " failed: " << st.ToString();
    }
  }

 private:
  core::ActiveDatabase* app_;
  std::string as_event_;
  detector::ParamContext context_;
};

GlobalEventDetector::GlobalEventDetector() {
  worker_ = std::thread([this] { BusLoop(); });
}

GlobalEventDetector::~GlobalEventDetector() { Shutdown(); }

void GlobalEventDetector::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Serialize the join so a racing Shutdown and the destructor cannot both
  // (or neither) wait for the worker; joinable() makes repeats no-ops.
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  if (worker_.joinable()) worker_.join();
  // InjectRemote holds inject_mu_ from its stop_ check through its
  // injection, so no injection can follow this.
  std::lock_guard<std::mutex> inject(inject_mu_);
}

bool GlobalEventDetector::shut_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

Status GlobalEventDetector::RegisterApplication(const std::string& app_name,
                                                core::ActiveDatabase* app) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::RetryLater("GED shut down");
    if (apps_.count(app_name) != 0 || remote_apps_.count(app_name) != 0) {
      return Status::AlreadyExists("application already registered: " +
                                   app_name);
    }
    apps_[app_name] = app;
  }
  app->detector()->AddRawObserver(
      [this, app_name](const detector::PrimitiveOccurrence& occ) {
        Pump(app_name, occ);
      });
  return Status::OK();
}

Status GlobalEventDetector::RegisterRemoteApplication(
    const std::string& app_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::RetryLater("GED shut down");
  if (apps_.count(app_name) != 0 || remote_apps_.count(app_name) != 0) {
    return Status::AlreadyExists("application already registered: " +
                                 app_name);
  }
  remote_apps_.insert(app_name);
  return Status::OK();
}

Status GlobalEventDetector::UnregisterApplication(const std::string& app_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (remote_apps_.erase(app_name) == 0) {
    return Status::NotFound("no remote application named " + app_name);
  }
  return Status::OK();
}

Status GlobalEventDetector::InjectRemote(
    const std::string& app_name, detector::PrimitiveOccurrence occurrence) {
  std::lock_guard<std::mutex> inject(inject_mu_);  // see Shutdown
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      ++dropped_;
      return Status::RetryLater("GED shut down");
    }
    if (remote_apps_.count(app_name) == 0 && apps_.count(app_name) == 0) {
      // Session torn down with frames in flight: at-most-once means drop.
      ++dropped_;
      return Status::NotFound("application not registered: " + app_name);
    }
    ++forwarded_;
  }
  Forward(app_name, std::move(occurrence));
  return Status::OK();
}

Result<detector::EventNode*> GlobalEventDetector::DefineGlobalPrimitive(
    const std::string& name, const std::string& app_name,
    const std::string& class_name, detector::EventModifier modifier,
    const std::string& method_signature) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (apps_.count(app_name) == 0 && remote_apps_.count(app_name) == 0) {
      return Status::NotFound("application not registered: " + app_name);
    }
  }
  return graph_.DefinePrimitive(name, Namespaced(app_name, class_name),
                                modifier, method_signature);
}

Status GlobalEventDetector::Subscribe(const std::string& event,
                                      detector::EventSink* sink,
                                      detector::ParamContext context) {
  return graph_.Subscribe(event, sink, context);
}

Status GlobalEventDetector::DeliverTo(const std::string& event,
                                      const std::string& app_name,
                                      const std::string& as_event) {
  core::ActiveDatabase* app = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = apps_.find(app_name);
    if (it == apps_.end()) {
      return Status::NotFound("application not registered: " + app_name);
    }
    app = it->second;
  }
  if (!app->detector()->Exists(as_event)) {
    return Status::NotFound("target application has no event " + as_event);
  }
  auto forwarder = std::make_unique<Forwarder>(
      app, as_event, detector::ParamContext::kRecent);
  SENTINEL_RETURN_NOT_OK(
      graph_.Subscribe(event, forwarder.get(), detector::ParamContext::kRecent));
  std::lock_guard<std::mutex> lock(mu_);
  delivery_sinks_.push_back(std::move(forwarder));
  return Status::OK();
}

void GlobalEventDetector::Pump(const std::string& app_name,
                               const detector::PrimitiveOccurrence& occ) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // A still-live application signalled after Shutdown — refuse quietly;
      // the observer hook outlives the bus on purpose (see Shutdown()).
      ++dropped_;
      return;
    }
    bus_.emplace_back(app_name, occ);
    ++forwarded_;
  }
  // notify_all: a WaitQuiescent caller waits on the same condition variable
  // and must not swallow the worker's wake-up.
  cv_.notify_all();
}

void GlobalEventDetector::BusLoop() {
  for (;;) {
    std::pair<std::string, detector::PrimitiveOccurrence> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !bus_.empty(); });
      if (stop_ && bus_.empty()) return;
      item = std::move(bus_.front());
      bus_.pop_front();
      busy_ = true;
    }
    {
      std::lock_guard<std::mutex> inject(inject_mu_);
      Forward(item.first, std::move(item.second));
    }
    std::lock_guard<std::mutex> lock(mu_);
    busy_ = false;
    if (bus_.empty()) cv_.notify_all();  // WaitQuiescent
  }
}

void GlobalEventDetector::Forward(const std::string& app_name,
                                  detector::PrimitiveOccurrence occ) {
  // Rewrite the class to the application-scoped namespace and inject into
  // the global graph. Inter-application events intentionally span
  // transactions, so the GED performs no per-transaction flush. Each
  // application has its own logical clock, so occurrences are re-stamped
  // in injection order (inject_mu_ held) to give the global graph one total
  // order (the paper defers distributed timestamping to future work).
  occ.class_name = Namespaced(app_name, occ.class_name);
  occ.at = graph_.clock()->Tick();
  // One ged_forward record covers the injection.
  obs::SpanScope forward_span;
  if (obs::SpanTracer* st = graph_.span_tracer();
      st != nullptr && st->enabled_for(obs::SpanKind::kGedForward) &&
      forward_span.Open(st, obs::SpanKind::kGedForward, occ.txn, nullptr,
                        /*parent_override=*/occ.trace_parent)) {
    // A remote occurrence carries its causal chain: trace_parent is the
    // latest upstream span (the server's admission-wait span — same
    // process, so it pins the local parent directly), trace_id marks the
    // cross-process trace. Downstream composite_detect spans parent here
    // via the scope stack.
    forward_span.set_label(occ.class_name + "::" + occ.method_signature);
    if (occ.trace_id != 0) forward_span.AnnotateRemote(occ.trace_id, 0);
    occ.trace_parent = forward_span.id();
  }
  graph_.Inject(occ);
}

void GlobalEventDetector::WaitQuiescent() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return bus_.empty() && !busy_; });
}

std::uint64_t GlobalEventDetector::forwarded_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return forwarded_;
}

std::uint64_t GlobalEventDetector::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t GlobalEventDetector::application_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return apps_.size() + remote_apps_.size();
}

bool GlobalEventDetector::IsRegistered(const std::string& app_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return apps_.count(app_name) != 0 || remote_apps_.count(app_name) != 0;
}

void GlobalEventDetector::set_span_tracer(obs::SpanTracer* tracer) {
  graph_.set_span_tracer(tracer);
}

}  // namespace sentinel::ged
