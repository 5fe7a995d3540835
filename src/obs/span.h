#ifndef SENTINEL_OBS_SPAN_H_
#define SENTINEL_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol.h"
#include "obs/metrics.h"
#include "storage/log_record.h"

namespace sentinel::obs {

/// What a span measures. One kind per instrumented layer so a trace reads as
/// the paper's pipeline: txn → notify → composite_detect → (condition,
/// action, subtxn) with storage-layer leaves (lock_wait, wal_fsync,
/// page_read) and cross-application hops (ged_forward) hanging off it.
/// The kNet* kinds cover the SNET wire path (DESIGN.md §14): frame
/// encode/decode on either end, the server's admission-queue and
/// per-session outbound-queue waits, and raw socket writes. They are
/// per-event hot kinds: enabled_for() keeps them out of flight-only mode,
/// and they must stay LAST in the enum so that gate is one compare.
enum class SpanKind : std::uint8_t {
  kTxn = 0,
  kNotify,
  kCompositeDetect,
  kCondition,
  kAction,
  kSubTxn,
  kLockWait,
  kWalFsync,
  kPageRead,
  kGedForward,
  kNetFrameEncode,
  kNetFrameDecode,
  kNetAdmissionWait,
  kNetOutboundWait,
  kNetWrite,
};

const char* SpanKindToString(SpanKind kind);

/// Kind sets for the gate, one bit per kind.
constexpr std::uint32_t KindBit(SpanKind kind) {
  return 1u << static_cast<unsigned>(kind);
}
/// Flight mode skips the per-event hot kinds: notify, composite_detect
/// and every net wire kind (they fire once per frame).
constexpr std::uint32_t kFlightKinds =
    KindBit(SpanKind::kTxn) | KindBit(SpanKind::kCondition) |
    KindBit(SpanKind::kAction) | KindBit(SpanKind::kSubTxn) |
    KindBit(SpanKind::kLockWait) | KindBit(SpanKind::kWalFsync) |
    KindBit(SpanKind::kPageRead) | KindBit(SpanKind::kGedForward);

/// Recording level. Both recording modes write the same per-thread rings.
/// kFlightOnly (the default) skips the per-event hot kinds (notify,
/// composite_detect, net wire) so the always-on cost stays out of the event
/// dispatch path, and keeps the last kFlightRingCapacity spans per thread
/// for postmortems; kFull records every kind and keeps ring_capacity.
enum class TraceMode : std::uint8_t {
  kOff = 0,
  kFlightOnly = 1,
  kFull = 2,
};

const char* TraceModeToString(TraceMode mode);

/// How a subtxn span's subtransaction ended. kNone for every other kind, and
/// for a firing that ran without a subtransaction.
enum class SpanOutcome : std::uint8_t {
  kNone = 0,
  kCommit,
  kCommitFailed,
  kAbort,
};

const char* SpanOutcomeToString(SpanOutcome outcome);

/// One closed (or, for transactions still open, in-flight) span. Timestamps
/// are steady-clock nanoseconds; `parent` is the id of the enclosing span
/// (0 = root), which is how a whole top transaction renders as one tree.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  SpanKind kind = SpanKind::kTxn;
  SpanOutcome outcome = SpanOutcome::kNone;  // fills padding after `kind`
  storage::TxnId txn = storage::kInvalidTxnId;
  std::uint64_t subtxn = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  /// Rule spans (subtxn, condition, action) record the rule's name as its
  /// id in common::SymbolTable::Global() instead of a label, so the firing
  /// path neither copies strings nor takes a refcount; RenderLabel() builds
  /// the label when a snapshot is taken. Interned names are never freed, so
  /// the label outlives a deleted rule. kInvalidSymbol for other spans.
  common::SymbolId name = common::kInvalidSymbol;
  std::string label;
  // Distributed-trace linkage (DESIGN.md §14). `trace` groups the spans of
  // one cross-process causal chain; `remote_parent` is the causal parent's
  // span id, which may live in ANOTHER process's export — span ids are
  // per-tracer, so tools/merge_traces.py resolves it by (trace, id) across
  // files. Both zero for purely local spans.
  std::uint64_t trace = 0;
  std::uint64_t remote_parent = 0;
};

// Ten 8-byte words (kind shares one with outcome and padding, tid one with
// the rule name) plus the label: the outcome byte and the name cost no
// space.
static_assert(sizeof(Span) == 10 * sizeof(std::uint64_t) + sizeof(std::string),
              "Span::outcome and Span::name must sit in padding");

/// Fills an empty `label` from `name`: the rule name for a subtxn span,
/// "<rule>.<kind>" for its condition and action spans. Snapshots call it, so
/// every consumer sees the same label strings.
void RenderLabel(Span* span);

/// Causal span tracer, and the one instrumentation seam (DESIGN.md §9–10):
/// every instrumented site opens one record (SpanScope). A single relaxed
/// load decides "off", and every site builds its label only once a ring
/// wants the record. Closed spans go to per-thread rings, the one span store
/// every view reads (pooled under the tracer; each ring is written only by
/// its owning thread, so its mutex is uncontended and exists for snapshot
/// safety under TSan). Parent links come from a thread-local scope
/// stack, falling back to the open-transaction anchor table for spans
/// recorded outside any scope (e.g. a scheduler worker picking up a firing
/// for a transaction begun on the app thread).
class SpanTracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;
  /// Spans each thread's ring keeps in flight mode.
  static constexpr std::size_t kFlightRingCapacity = 256;

  explicit SpanTracer(std::size_t ring_capacity = kDefaultRingCapacity);
  ~SpanTracer();

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  TraceMode mode() const { return mode_.load(std::memory_order_relaxed); }
  void set_mode(TraceMode mode) {
    mode_.store(mode, std::memory_order_relaxed);
  }

  /// The instrumentation gate: true when a ring wants `kind`. One relaxed
  /// load.
  bool enabled_for(SpanKind kind) const {
    const TraceMode m = mode_.load(std::memory_order_relaxed);
    return m == TraceMode::kFull ||
           (m == TraceMode::kFlightOnly && (kFlightKinds & KindBit(kind)));
  }

  /// Transaction anchors: a txn span opens at Begin and closes at
  /// Commit/Abort, possibly touching many threads in between, so it lives in
  /// an id-keyed table rather than the scope stack.
  void BeginTxnSpan(storage::TxnId txn);
  void EndTxnSpan(storage::TxnId txn);
  std::vector<Span> OpenTxnSpans() const;

  /// Spans written into the rings so far, summed over the per-thread rings
  /// (each counts its own, so recording touches no shared counter).
  std::uint64_t recorded() const { return SumRings(&ThreadRing::recorded); }
  /// Spans overwritten in full mode (flight rings overwrite by design).
  std::uint64_t dropped() const { return SumRings(&ThreadRing::dropped); }

  /// All closed spans currently held by the rings, sorted by start time.
  std::vector<Span> Snapshot() const;

  /// Transaction `txn`'s span tree as text: one line per span, indented by
  /// depth, giving kind, label and (for subtxn spans) outcome. Spans hang
  /// under their parents whatever their own txn, so storage leaves show too.
  std::string TxnTreeText(storage::TxnId txn) const;

  /// The flame view: the rings' spans as collapsed-stack lines
  /// ("txn;subtxn:r;action:r <ns>\n"), the input of flamegraph.pl. A frame is
  /// the span's kind, with ":<rule>" for rule spans and ":<node>" for
  /// composite_detect spans; other per-instance labels (txn ids, lock keys,
  /// page ids) are dropped so stacks aggregate across transactions. A
  /// span's frame hangs under its nearest in-ring ancestor whose interval
  /// contains it, and a span with no such ancestor roots its own path. A
  /// line's weight is the summed self wall time of the spans on that path:
  /// wall minus that of the spans hung under it, clamped at 0.
  std::string FoldedStacks() const;

  /// Per-process metadata stamped into the export's top-level `otherData`
  /// object so tools/merge_traces.py can place several process exports on
  /// one timeline: `process` labels the export, `clock_offset_ns` is this
  /// process's steady clock minus the reference process's (the tool
  /// subtracts it), and the export always carries `base_ns` — the absolute
  /// steady-clock origin the relative `ts` fields are measured from.
  struct ExportMeta {
    std::string process;
    std::int64_t clock_offset_ns = 0;
  };
  /// Chrome trace-event JSON ("X" complete events, pid = transaction id,
  /// tid = recording thread) — loads directly in ui.perfetto.dev or
  /// chrome://tracing. Open transactions are included with `now` as their
  /// provisional end.
  std::string ChromeTraceJson(const ExportMeta& meta) const;
  std::string ChromeTraceJson() const { return ChromeTraceJson(ExportMeta{}); }
  Status ExportChromeTrace(const std::string& path,
                           const ExportMeta& meta) const;
  Status ExportChromeTrace(const std::string& path) const {
    return ExportChromeTrace(path, ExportMeta{});
  }

  /// Commits an already-timed span (both timestamps supplied by the caller)
  /// and returns its id. Queue-wait spans need this: the wait starts on the
  /// enqueuing thread and ends on the dequeuing one, so no RAII scope can
  /// cover it. Does NOT consult or push the scope stack. Call only after
  /// enabled_for() passed.
  std::uint64_t RecordTimedSpan(SpanKind kind, std::uint64_t start_ns,
                                std::uint64_t end_ns, storage::TxnId txn,
                                std::string label, std::uint64_t parent,
                                std::uint64_t trace = 0,
                                std::uint64_t remote_parent = 0);

  /// Id of the innermost open scope on this thread belonging to `tracer`
  /// (0 when none). Used to stamp a firing with the detection span that
  /// triggered it before the firing migrates to a worker thread.
  static std::uint64_t CurrentSpanIdFor(const SpanTracer* tracer);

  /// Steady-clock nanoseconds: the one clock every span and histogram wall
  /// time is read from.
  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  friend class SpanScope;
  friend class TxnAnchorScope;


  struct ThreadRing {
    std::mutex mu;
    std::uint64_t next = 0;  // spans written since the ring last grew
    std::uint64_t recorded = 0;  // spans ever written
    std::uint64_t dropped = 0;   // full-mode spans overwritten
    std::uint32_t tid = 0;
    std::vector<Span> slots;  // grows to the mode's capacity, never shrinks
  };

  std::uint64_t SumRings(std::uint64_t ThreadRing::*count) const;
  std::uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Closed spans plus the open transaction spans, sorted by start time.
  std::vector<Span> SnapshotWithOpenTxns() const;
  /// Scope-stack parent, else the open txn span for `txn`, else 0.
  std::uint64_t ResolveParent(storage::TxnId txn) const;
  /// Writes a finished span into this thread's ring, first growing the ring
  /// to the mode's capacity.
  void Commit(Span&& span);
  ThreadRing* RingForThisThread();

  const std::size_t ring_capacity_;
  const std::uint64_t uid_;  // validates thread-local ring/stack caches
  std::atomic<TraceMode> mode_{TraceMode::kFlightOnly};
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;

  mutable std::mutex txn_mu_;
  std::unordered_map<storage::TxnId, Span> open_txns_;
};

/// RAII record at one instrumented site; default-constructed scopes are
/// inert. Start() (or Open()) reads the steady clock once, unless the
/// caller supplies the reading; End() (or destruction) reads it once more,
/// again unless supplied, and feeds that wall time to its two sinks: the
/// latency histogram named at Start (even without a tracer) and, when a
/// ring wants the record's kind, this thread's ring. Only a record a
/// ring wants takes a span id and a scope-stack entry, so ring spans never
/// parent under records the rings did not keep. A record nothing wants
/// reads no clock.
class SpanScope {
 public:
  SpanScope() = default;
  ~SpanScope() { End(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// `parent_override` pins the parent explicitly (a firing's triggering
  /// detection span); 0 means resolve from the scope stack / txn anchors.
  void Start(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
             std::string label, std::uint64_t subtxn = 0,
             std::uint64_t parent_override = 0);
  /// Rule record (subtxn, condition, action): holds the rule's interned
  /// `name` (the label is rendered at snapshot time) and opens at
  /// `start_ns`, a clock reading the caller already took. The caller closes
  /// it with End() at its next reading, so a firing's records share one
  /// clock reading per boundary.
  void Start(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
             common::SymbolId name, std::uint64_t subtxn,
             std::uint64_t start_ns, std::uint64_t parent_override = 0,
             LatencyHistogram* histogram = nullptr);
  /// Record whose label costs something to build: returns true when a ring
  /// wants it, and the caller then names it with set_label().
  bool Open(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
            LatencyHistogram* histogram = nullptr,
            std::uint64_t parent_override = 0) {
    return OpenRecord(tracer, kind, txn, 0, parent_override, histogram, 0);
  }
  void set_label(std::string label) { span_.label = std::move(label); }
  void set_subtxn(std::uint64_t subtxn) { span_.subtxn = subtxn; }

  /// Closes the record at `end_ns` when nonzero, else at the current time,
  /// and returns the wall time it fed its sinks (0 when it was inert).
  std::uint64_t End(std::uint64_t end_ns = 0) {
    return open_ ? Close(end_ns) : 0;
  }

  /// Records how the span's subtransaction ended (ignored when inert).
  void set_outcome(SpanOutcome outcome) { span_.outcome = outcome; }

  /// Marks an open span as part of distributed trace `trace`, causally
  /// parented by `remote_parent` (a span id possibly from another process;
  /// 0 = trace membership only). No-op unless a ring wants the record.
  void AnnotateRemote(std::uint64_t trace, std::uint64_t remote_parent) {
    if (tracer_ == nullptr) return;
    span_.trace = trace;
    span_.remote_parent = remote_parent;
  }

  std::uint64_t id() const { return span_.id; }

 private:
  std::uint64_t Close(std::uint64_t end_ns);
  /// Shared part of every Start form; true when a ring wants the record.
  /// Opens at `start_ns` when nonzero, else at the current time.
  bool OpenRecord(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
                  std::uint64_t subtxn, std::uint64_t parent_override,
                  LatencyHistogram* histogram, std::uint64_t start_ns);

  SpanTracer* tracer_ = nullptr;  // set while a ring wants the record
  LatencyHistogram* histogram_ = nullptr;
  bool open_ = false;
  bool pushed_ = false;
  Span span_;
};

/// Pushes an already-open transaction span onto the thread-local scope stack
/// without opening a new span: storage spans recorded while the anchor is
/// live (wal_fsync during commit, page reads during object faulting) parent
/// into the transaction's tree even though those layers don't know the txn.
class TxnAnchorScope {
 public:
  TxnAnchorScope() = default;
  ~TxnAnchorScope() { End(); }

  TxnAnchorScope(const TxnAnchorScope&) = delete;
  TxnAnchorScope& operator=(const TxnAnchorScope&) = delete;

  void Start(SpanTracer* tracer, storage::TxnId txn);
  void End();

 private:
  SpanTracer* tracer_ = nullptr;
  std::uint64_t anchor_ = 0;
  bool pushed_ = false;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_SPAN_H_
