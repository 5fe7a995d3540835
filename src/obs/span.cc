#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/json.h"

namespace sentinel::obs {

namespace {

// Stable small thread ids for the trace "tid" lane, assigned on first use.
std::uint32_t ThisThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Process-unique tracer ids validate the thread-local caches below: a cache
// entry from a destroyed tracer never matches a live one, even if the
// allocator reuses the address.
std::uint64_t NextTracerUid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Thread-local scope stack. Scopes are strictly nested (RAII on one thread),
// so push/pop is LIFO; entries are (tracer uid, span id) pairs so spans from
// two databases interleaved on one thread resolve parents independently.
struct StackEntry {
  std::uint64_t uid = 0;
  std::uint64_t id = 0;
};
constexpr int kMaxScopeDepth = 64;
thread_local StackEntry g_scope_stack[kMaxScopeDepth];
thread_local int g_scope_depth = 0;

bool PushScope(std::uint64_t uid, std::uint64_t id) {
  if (g_scope_depth >= kMaxScopeDepth) return false;
  g_scope_stack[g_scope_depth++] = {uid, id};
  return true;
}

void PopScope(std::uint64_t uid, std::uint64_t id) {
  if (g_scope_depth > 0 && g_scope_stack[g_scope_depth - 1].uid == uid &&
      g_scope_stack[g_scope_depth - 1].id == id) {
    --g_scope_depth;
  }
}

// Per-thread ring lookup cache: one entry per (thread, tracer) pair the
// thread has recorded into. Rings are owned by the tracer; the uid check
// keeps a stale entry from ever dereferencing a dead tracer's ring.
struct RingCacheEntry {
  std::uint64_t uid = 0;
  const void* tracer = nullptr;
  void* ring = nullptr;
};
thread_local std::vector<RingCacheEntry> g_ring_cache;

}  // namespace

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kNotify:
      return "notify";
    case SpanKind::kCompositeDetect:
      return "composite_detect";
    case SpanKind::kCondition:
      return "condition";
    case SpanKind::kAction:
      return "action";
    case SpanKind::kSubTxn:
      return "subtxn";
    case SpanKind::kLockWait:
      return "lock_wait";
    case SpanKind::kWalFsync:
      return "wal_fsync";
    case SpanKind::kPageRead:
      return "page_read";
    case SpanKind::kGedForward:
      return "ged_forward";
    case SpanKind::kNetFrameEncode:
      return "net_frame_encode";
    case SpanKind::kNetFrameDecode:
      return "net_frame_decode";
    case SpanKind::kNetAdmissionWait:
      return "net_admission_wait";
    case SpanKind::kNetOutboundWait:
      return "net_outbound_wait";
    case SpanKind::kNetWrite:
      return "net_write";
  }
  return "?";
}

const char* TraceModeToString(TraceMode mode) {
  switch (mode) {
    case TraceMode::kOff:
      return "off";
    case TraceMode::kFlightOnly:
      return "flight";
    case TraceMode::kFull:
      return "full";
  }
  return "?";
}

const char* SpanOutcomeToString(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kNone:
      return "none";
    case SpanOutcome::kCommit:
      return "commit";
    case SpanOutcome::kCommitFailed:
      return "commit-failed";
    case SpanOutcome::kAbort:
      return "abort";
  }
  return "?";
}

void RenderLabel(Span* span) {
  if (!span->label.empty() || span->name == common::kInvalidSymbol) return;
  span->label = common::SymbolTable::Global().NameOf(span->name);
  if (span->kind != SpanKind::kSubTxn) {
    span->label += '.';
    span->label += SpanKindToString(span->kind);
  }
}

SpanTracer::SpanTracer(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      uid_(NextTracerUid()) {}

SpanTracer::~SpanTracer() = default;

std::uint64_t SpanTracer::CurrentSpanIdFor(const SpanTracer* tracer) {
  if (tracer == nullptr) return 0;
  for (int i = g_scope_depth - 1; i >= 0; --i) {
    if (g_scope_stack[i].uid == tracer->uid_) return g_scope_stack[i].id;
  }
  return 0;
}

std::uint64_t SpanTracer::ResolveParent(storage::TxnId txn) const {
  std::uint64_t parent = CurrentSpanIdFor(this);
  if (parent != 0) return parent;
  if (txn != storage::kInvalidTxnId) {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = open_txns_.find(txn);
    if (it != open_txns_.end()) return it->second.id;
  }
  return 0;
}

SpanTracer::ThreadRing* SpanTracer::RingForThisThread() {
  for (const RingCacheEntry& entry : g_ring_cache) {
    if (entry.uid == uid_ && entry.tracer == this) {
      return static_cast<ThreadRing*>(entry.ring);
    }
  }
  std::uint32_t tid = ThisThreadId();
  ThreadRing* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (auto& candidate : rings_) {
      if (candidate->tid == tid) {
        ring = candidate.get();
        break;
      }
    }
    if (ring == nullptr) {
      auto owned = std::make_unique<ThreadRing>();
      owned->tid = tid;
      ring = owned.get();
      rings_.push_back(std::move(owned));
    }
  }
  g_ring_cache.push_back({uid_, this, ring});
  return ring;
}

void SpanTracer::Commit(Span&& span) {
  const bool full = mode_.load(std::memory_order_relaxed) == TraceMode::kFull;
  const std::size_t capacity = full ? ring_capacity_ : kFlightRingCapacity;
  ThreadRing* ring = RingForThisThread();
  std::lock_guard<std::mutex> lock(ring->mu);
  std::vector<Span>& slots = ring->slots;
  if (slots.size() < capacity) {
    // Grow in place: rotate the oldest kept span into slot 0 so the kept
    // spans stay in order and writing resumes after the newest.
    if (ring->next > slots.size()) {
      std::rotate(slots.begin(), slots.begin() + ring->next % slots.size(),
                  slots.end());
      ring->next = slots.size();
    }
    slots.resize(capacity);
  }
  const std::uint64_t pos = ring->next++;
  ++ring->recorded;
  if (full && pos >= slots.size()) ++ring->dropped;
  slots[pos % slots.size()] = std::move(span);
}

std::uint64_t SpanTracer::SumRings(std::uint64_t ThreadRing::*count) const {
  std::uint64_t n = 0;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    n += (*ring).*count;
  }
  return n;
}

std::uint64_t SpanTracer::RecordTimedSpan(SpanKind kind, std::uint64_t start_ns,
                                          std::uint64_t end_ns,
                                          storage::TxnId txn, std::string label,
                                          std::uint64_t parent,
                                          std::uint64_t trace,
                                          std::uint64_t remote_parent) {
  Span span;
  span.id = NextSpanId();
  span.parent = parent;
  span.kind = kind;
  span.txn = txn;
  span.start_ns = start_ns;
  span.end_ns = end_ns >= start_ns ? end_ns : start_ns;
  span.tid = ThisThreadId();
  span.label = std::move(label);
  span.trace = trace;
  span.remote_parent = remote_parent;
  const std::uint64_t id = span.id;
  Commit(std::move(span));
  return id;
}

void SpanTracer::BeginTxnSpan(storage::TxnId txn) {
  if (txn == storage::kInvalidTxnId) return;
  Span span;
  span.id = NextSpanId();
  span.kind = SpanKind::kTxn;
  span.txn = txn;
  span.start_ns = NowNs();
  span.tid = ThisThreadId();
  span.label = "txn " + std::to_string(txn);
  std::lock_guard<std::mutex> lock(txn_mu_);
  open_txns_[txn] = std::move(span);
}

void SpanTracer::EndTxnSpan(storage::TxnId txn) {
  Span span;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = open_txns_.find(txn);
    if (it == open_txns_.end()) return;
    span = std::move(it->second);
    open_txns_.erase(it);
  }
  span.end_ns = NowNs();
  Commit(std::move(span));
}

std::vector<Span> SpanTracer::OpenTxnSpans() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(txn_mu_);
  out.reserve(open_txns_.size());
  for (const auto& [txn, span] : open_txns_) {
    (void)txn;
    out.push_back(span);
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::vector<Span> SpanTracer::Snapshot() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      const std::size_t size = ring->slots.size();
      const std::uint64_t count = std::min<std::uint64_t>(ring->next, size);
      const std::uint64_t first = ring->next - count;
      for (std::uint64_t i = 0; i < count; ++i) {
        out.push_back(ring->slots[(first + i) % size]);
        RenderLabel(&out.back());
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

namespace {

void AppendTraceEvent(JsonWriter& w, const Span& span, std::uint64_t base_ns,
                      std::uint64_t fallback_end_ns) {
  std::uint64_t end_ns = span.end_ns != 0 ? span.end_ns : fallback_end_ns;
  double ts_us = static_cast<double>(span.start_ns - base_ns) / 1000.0;
  double dur_us =
      end_ns > span.start_ns
          ? static_cast<double>(end_ns - span.start_ns) / 1000.0
          : 0.0;
  std::uint64_t pid = span.txn == storage::kInvalidTxnId ? 0 : span.txn;
  char buf[64];
  w.BeginObject();
  w.Field("name", span.label.empty() ? SpanKindToString(span.kind)
                                     : span.label.c_str());
  w.Field("cat", SpanKindToString(span.kind));
  w.Field("ph", "X");
  std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
  w.Key("ts");
  w.Raw(buf);
  std::snprintf(buf, sizeof(buf), "%.3f", dur_us);
  w.Key("dur");
  w.Raw(buf);
  w.Field("pid", pid);
  w.Field("tid", span.tid);
  w.Key("args");
  w.BeginObject();
  w.Field("span", span.id);
  w.Field("parent", span.parent);
  w.Field("kind", SpanKindToString(span.kind));
  if (span.txn != storage::kInvalidTxnId) w.Field("txn", span.txn);
  if (span.subtxn != 0) w.Field("subtxn", span.subtxn);
  if (span.kind == SpanKind::kSubTxn) {
    w.Field("outcome", SpanOutcomeToString(span.outcome));
  }
  if (span.trace != 0) w.Field("trace", span.trace);
  if (span.remote_parent != 0) w.Field("remote_parent", span.remote_parent);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::vector<Span> SpanTracer::SnapshotWithOpenTxns() const {
  std::vector<Span> spans = Snapshot();
  std::vector<Span> open = OpenTxnSpans();
  spans.insert(spans.end(), open.begin(), open.end());
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return spans;
}

std::string SpanTracer::TxnTreeText(storage::TxnId txn) const {
  const std::vector<Span> spans = SnapshotWithOpenTxns();
  std::unordered_set<std::uint64_t> ids;
  for (const Span& span : spans) ids.insert(span.id);
  // Children in start order (the snapshot is sorted); a span whose parent
  // was dropped from the rings roots its own subtree.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::vector<const Span*> roots;
  for (const Span& span : spans) {
    if (span.parent != 0 && ids.count(span.parent) != 0) {
      children[span.parent].push_back(&span);
    } else if (span.txn == txn) {
      roots.push_back(&span);
    }
  }
  std::string out;
  std::vector<std::pair<const Span*, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [span, depth] = stack.back();
    stack.pop_back();
    out.append(2 * static_cast<std::size_t>(depth), ' ');
    out += SpanKindToString(span->kind);
    out += ' ';
    out += span->label;
    if (span->kind == SpanKind::kSubTxn) {
      out += ' ';
      out += SpanOutcomeToString(span->outcome);
    }
    out += '\n';
    auto kids = children.find(span->id);
    if (kids == children.end()) continue;
    for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out;
}

std::string SpanTracer::FoldedStacks() const {
  const std::vector<Span> spans = Snapshot();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  // A frame hangs under its nearest in-ring ancestor whose interval holds
  // it. A rule's parent link names the notify or composite_detect span that
  // queued it, which has closed by the time the rule runs, so the rule's
  // time belongs to whatever ran it: the txn, or the action whose nested
  // Drain ran it. Parent ids precede their children's, so each walk ends.
  constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> up(spans.size(), kRoot);
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    for (auto it = index.find(span.parent); it != index.end();
         it = index.find(spans[it->second].parent)) {
      const Span& outer = spans[it->second];
      if (outer.start_ns <= span.start_ns && span.end_ns <= outer.end_ns) {
        up[i] = it->second;
        child_ns[it->second] += span.end_ns - span.start_ns;
        break;
      }
    }
  }
  std::map<std::string, std::uint64_t> folded;
  std::vector<std::size_t> path;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    path.clear();
    for (std::size_t j = i; j != kRoot; j = up[j]) path.push_back(j);
    std::string stack;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const Span& frame = spans[*it];
      if (!stack.empty()) stack += ';';
      stack += SpanKindToString(frame.kind);
      if (frame.name != common::kInvalidSymbol) {
        stack += ':';
        stack += common::SymbolTable::Global().NameOf(frame.name);
      } else if (frame.kind == SpanKind::kCompositeDetect) {
        stack += ':';
        stack += frame.label;
      }
    }
    const std::uint64_t wall = spans[i].end_ns - spans[i].start_ns;
    folded[stack] += wall > child_ns[i] ? wall - child_ns[i] : 0;
  }
  std::string out;
  for (const auto& [stack, ns] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

std::string SpanTracer::ChromeTraceJson(const ExportMeta& meta) const {
  std::vector<Span> spans = SnapshotWithOpenTxns();

  std::uint64_t base_ns = spans.empty() ? 0 : spans.front().start_ns;
  std::uint64_t now_ns = NowNs();
  std::set<std::uint64_t> pids;

  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ns");
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& span : spans) {
    AppendTraceEvent(w, span, base_ns, now_ns);
    pids.insert(span.txn == storage::kInvalidTxnId ? 0 : span.txn);
  }
  // Name each pid lane after its transaction so Perfetto's process groups
  // read as "txn N".
  for (std::uint64_t pid : pids) {
    w.BeginObject();
    w.Field("name", "process_name");
    w.Field("ph", "M");
    w.Field("pid", pid);
    w.Key("args");
    w.BeginObject();
    w.Field("name", pid == 0 ? std::string("background")
                             : "txn " + std::to_string(pid));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  // Cross-process merge metadata: base_ns re-absolutizes the relative ts
  // fields; clock_offset_ns shifts this export onto the reference timeline.
  w.Key("otherData");
  w.BeginObject();
  if (!meta.process.empty()) w.Field("process", meta.process);
  w.Field("base_ns", base_ns);
  w.Field("clock_offset_ns",
          static_cast<std::int64_t>(meta.clock_offset_ns));
  w.EndObject();
  w.EndObject();
  return w.Take();
}

Status SpanTracer::ExportChromeTrace(const std::string& path,
                                     const ExportMeta& meta) const {
  std::string json = ChromeTraceJson(meta);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace output: " + path);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
  out.flush();
  if (!out) return Status::IOError("short write exporting trace: " + path);
  return Status::OK();
}

void SpanScope::Start(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
                      std::string label, std::uint64_t subtxn,
                      std::uint64_t parent_override) {
  if (OpenRecord(tracer, kind, txn, subtxn, parent_override, nullptr, 0)) {
    span_.label = std::move(label);
  }
}

void SpanScope::Start(SpanTracer* tracer, SpanKind kind, storage::TxnId txn,
                      common::SymbolId name, std::uint64_t subtxn,
                      std::uint64_t start_ns, std::uint64_t parent_override,
                      LatencyHistogram* histogram) {
  if (OpenRecord(tracer, kind, txn, subtxn, parent_override, histogram,
                 start_ns)) {
    span_.name = name;
  }
}

bool SpanScope::OpenRecord(SpanTracer* tracer, SpanKind kind,
                           storage::TxnId txn, std::uint64_t subtxn,
                           std::uint64_t parent_override,
                           LatencyHistogram* histogram,
                           std::uint64_t start_ns) {
  if (open_) return false;
  const bool ring = tracer != nullptr && tracer->enabled_for(kind);
  if (!ring && histogram == nullptr) return false;
  open_ = true;
  histogram_ = histogram;
  if (ring) {
    tracer_ = tracer;
    span_.id = tracer->NextSpanId();
    span_.parent =
        parent_override != 0 ? parent_override : tracer->ResolveParent(txn);
    span_.kind = kind;
    span_.txn = txn;
    span_.subtxn = subtxn;
    span_.outcome = SpanOutcome::kNone;
    span_.tid = ThisThreadId();
    pushed_ = PushScope(tracer->uid_, span_.id);
  }
  span_.start_ns = start_ns != 0 ? start_ns : SpanTracer::NowNs();
  return ring;
}

std::uint64_t SpanScope::Close(std::uint64_t end_ns) {
  open_ = false;
  const std::uint64_t end = end_ns != 0 ? end_ns : SpanTracer::NowNs();
  const std::uint64_t wall = end - span_.start_ns;
  if (histogram_ != nullptr) histogram_->Record(wall);
  if (tracer_ == nullptr) return wall;
  if (pushed_) PopScope(tracer_->uid_, span_.id);
  span_.end_ns = end;
  tracer_->Commit(std::move(span_));
  tracer_ = nullptr;
  pushed_ = false;
  return wall;
}

void TxnAnchorScope::Start(SpanTracer* tracer, storage::TxnId txn) {
  if (tracer == nullptr || pushed_ || txn == storage::kInvalidTxnId) return;
  std::uint64_t anchor = 0;
  {
    std::lock_guard<std::mutex> lock(tracer->txn_mu_);
    auto it = tracer->open_txns_.find(txn);
    if (it == tracer->open_txns_.end()) return;
    anchor = it->second.id;
  }
  tracer_ = tracer;
  anchor_ = anchor;
  pushed_ = PushScope(tracer->uid_, anchor);
}

void TxnAnchorScope::End() {
  if (tracer_ == nullptr) return;
  if (pushed_) PopScope(tracer_->uid_, anchor_);
  tracer_ = nullptr;
  pushed_ = false;
}

}  // namespace sentinel::obs
