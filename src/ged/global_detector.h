#ifndef SENTINEL_GED_GLOBAL_DETECTOR_H_
#define SENTINEL_GED_GLOBAL_DETECTOR_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/active_database.h"
#include "detector/local_detector.h"

namespace sentinel::obs {
class SpanTracer;
}  // namespace sentinel::obs

namespace sentinel::ged {

/// Global event detector (paper Fig. 2 and §4 future work): detects
/// composite events whose constituents come from *different applications*
/// (cooperative transactions, workflows).
///
/// Occurrences are injected into an internal event graph whose primitive
/// nodes are namespaced by application ("app::class"). Global detections
/// are delivered either to subscribed sinks or back into a target
/// application's detector as an explicit event — where a (typically
/// detached) rule executes it, matching the paper's "Application_i to
/// execute detached rule" arrows.
///
/// Transports. Two paths feed the graph:
///   - the in-process loopback path: applications in the same process
///     register with RegisterApplication; a raw-event observer queues their
///     notifications on the GED's bus, and a dedicated bus thread injects
///     them — no serialization, and the application thread never runs
///     global detection; and
///   - the socket transport (src/net/): a net::EventBusServer owns remote
///     sessions and injects their framed Notify streams synchronously
///     through RegisterRemoteApplication / InjectRemote, realizing the
///     socket/Corba transport the paper left as future work (DESIGN.md §12).
///     Sinks of detections a remote occurrence completes run on the
///     caller's (the server's I/O) thread.
/// Both paths namespace, re-stamp and inject under one injection mutex, so
/// remote and loopback occurrences share one total order.
class GlobalEventDetector {
 public:
  GlobalEventDetector();
  ~GlobalEventDetector();

  GlobalEventDetector(const GlobalEventDetector&) = delete;
  GlobalEventDetector& operator=(const GlobalEventDetector&) = delete;

  /// Connects an in-process application: its raw events are forwarded to
  /// the bus (the loopback fast path).
  Status RegisterApplication(const std::string& app_name,
                             core::ActiveDatabase* app);

  /// Reserves `app_name` for an application living in another process and
  /// feeding events through InjectRemote (the net::EventBusServer calls
  /// this once per authenticated session). Rejects names already held by a
  /// local or remote application.
  Status RegisterRemoteApplication(const std::string& app_name);

  /// Releases a remote application's name (session disconnect). Graph nodes
  /// already defined against the name stay — definitions are shared state,
  /// registration is liveness — so a reconnecting client finds its
  /// primitives intact. Local registrations cannot be unregistered (their
  /// raw-observer hook has no removal path).
  Status UnregisterApplication(const std::string& app_name);

  /// Injects one remote occurrence under `app_name`'s namespace and runs
  /// global detection on the calling thread before returning. RetryLater
  /// after Shutdown; NotFound when the app is not registered (e.g. its
  /// session was torn down while frames were in flight — the occurrence is
  /// dropped, upholding at-most-once delivery).
  Status InjectRemote(const std::string& app_name,
                      detector::PrimitiveOccurrence occurrence);

  /// The "app::class" namespacing applied to every global primitive's class
  /// name. Exposed so transports can compare an existing node's stored spec
  /// (which embeds the owning app) against a re-declaration.
  static std::string NamespacedClass(const std::string& app_name,
                                     const std::string& class_name);

  /// Declares a global primitive event mirroring `app_name`'s primitive
  /// (class, modifier, method) specification.
  Result<detector::EventNode*> DefineGlobalPrimitive(
      const std::string& name, const std::string& app_name,
      const std::string& class_name, detector::EventModifier modifier,
      const std::string& method_signature);

  /// The GED's internal graph: compose global events with the usual
  /// operators through this detector (definitions only; do not signal it
  /// directly).
  detector::LocalEventDetector* graph() { return &graph_; }

  /// Subscribes a sink to a global event.
  Status Subscribe(const std::string& event, detector::EventSink* sink,
                   detector::ParamContext context);

  /// Routes detections of `event` into `app_name`'s detector as the explicit
  /// event `as_event` (define it and its — typically DETACHED — rules in the
  /// application first).
  Status DeliverTo(const std::string& event, const std::string& app_name,
                   const std::string& as_event);

  /// Blocks until every loopback event queued so far has been processed
  /// (InjectRemote is synchronous and needs no wait).
  void WaitQuiescent();

  /// Stops the bus worker after draining queued events and waits out an
  /// in-flight InjectRemote. Idempotent and safe against concurrent
  /// RegisterApplication / InjectRemote calls: anything arriving after
  /// shutdown is refused (RetryLater).
  /// The destructor calls it; the network server calls it explicitly so
  /// sessions observe a stopped GED instead of a destroyed one.
  void Shutdown();
  bool shut_down() const;

  std::uint64_t forwarded_count() const;
  /// Occurrences refused because they arrived after Shutdown or from an
  /// unregistered remote application.
  std::uint64_t dropped_count() const;
  /// Currently registered application count (local + remote).
  std::size_t application_count() const;
  bool IsRegistered(const std::string& app_name) const;

  /// Attaches the span tracer: a ged_forward record around each injection
  /// into the global graph (and the graph's own nodes record
  /// composite_detect records).
  void set_span_tracer(obs::SpanTracer* tracer);

 private:
  class Forwarder;

  void BusLoop();
  void Pump(const std::string& app_name,
            const detector::PrimitiveOccurrence& occurrence);
  /// Namespaces, re-stamps and injects one occurrence. Caller holds
  /// inject_mu_.
  void Forward(const std::string& app_name, detector::PrimitiveOccurrence occ);

  detector::LocalEventDetector graph_;
  std::map<std::string, core::ActiveDatabase*> apps_;
  std::set<std::string> remote_apps_;

  // Serializes injection into graph_, which makes the re-stamped order
  // total. Taken before mu_, never under it.
  std::mutex inject_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, detector::PrimitiveOccurrence>> bus_;
  bool busy_ = false;
  bool stop_ = false;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  std::mutex shutdown_mu_;  // serializes the worker join (see Shutdown)
  std::thread worker_;

  // Sinks created by DeliverTo (owned).
  std::vector<std::unique_ptr<detector::EventSink>> delivery_sinks_;
};

}  // namespace sentinel::ged

#endif  // SENTINEL_GED_GLOBAL_DETECTOR_H_
