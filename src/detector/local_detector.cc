#include "detector/local_detector.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/pool.h"
#include "obs/span.h"

namespace sentinel::detector {

namespace {
thread_local int t_suppress_depth = 0;
constexpr char kExplicitClass[] = "<explicit>";

/// Monotonic id for published dispatch-index generations, process-wide.
/// Never recycled, so a thread's memo can validate its cached entry by id
/// without any ABA hazard across detector lifetimes.
std::atomic<std::uint64_t> g_next_index_uid{1};
}  // namespace

struct LocalEventDetector::DispatchEntry {
  common::SymbolId class_sym = common::kInvalidSymbol;
  common::SymbolId method_sym = common::kInvalidSymbol;
  std::vector<PrimitiveEventNode*> nodes;
};

struct LocalEventDetector::DispatchIndex {
  std::uint64_t uid = 0;
  std::uint64_t def_gen = 0;
  const oodb::ClassRegistry* registry = nullptr;
  std::uint64_t registry_version = 0;
  std::unordered_map<std::uint64_t, DispatchEntry> entries;
};

struct LocalEventDetector::DispatchMemo {
  std::uint64_t index_uid = 0;
  EventModifier modifier = EventModifier::kEnd;
  std::string class_name;
  std::string method_signature;
  const DispatchEntry* entry = nullptr;
};

LocalEventDetector::LocalEventDetector() = default;
LocalEventDetector::~LocalEventDetector() = default;

LocalEventDetector::SuppressScope::SuppressScope() { ++t_suppress_depth; }
LocalEventDetector::SuppressScope::~SuppressScope() { --t_suppress_depth; }

bool LocalEventDetector::SignalingSuppressed() { return t_suppress_depth > 0; }

Result<EventNode*> LocalEventDetector::InstallLocked(
    const std::string& name, std::unique_ptr<EventNode> node) {
  if (nodes_.count(name) != 0) {
    return Status::AlreadyExists("event already defined: " + name);
  }
  EventNode* raw = node.get();
  raw->set_span_tracer(span_tracer_.load(std::memory_order_acquire));
  nodes_[name] = std::move(node);
  return raw;
}

Result<EventNode*> LocalEventDetector::DefinePrimitive(
    const std::string& name, const std::string& class_name,
    EventModifier modifier, const std::string& method_signature,
    oodb::Oid instance) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = std::make_unique<PrimitiveEventNode>(
      name, class_name, modifier, method_signature, instance);
  PrimitiveEventNode* raw = node.get();
  auto installed = InstallLocked(name, std::move(node));
  if (!installed.ok()) return installed.status();
  by_class_[class_name].push_back(raw);
  primitive_count_.fetch_add(1, std::memory_order_release);
  // Invalidate published dispatch indexes: keys already resolved (including
  // negative-cache entries for subclasses of `class_name`) may now match.
  def_gen_.fetch_add(1, std::memory_order_release);
  return *installed;
}

Result<EventNode*> LocalEventDetector::DefineExplicit(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = std::make_unique<PrimitiveEventNode>(
      name, kExplicitClass, EventModifier::kEnd, name);
  PrimitiveEventNode* raw = node.get();
  auto installed = InstallLocked(name, std::move(node));
  if (!installed.ok()) return installed.status();
  explicit_events_[name] = raw;
  return *installed;
}

Result<EventNode*> LocalEventDetector::DefineOr(const std::string& name,
                                                EventNode* left,
                                                EventNode* right) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(name, std::make_unique<OrNode>(name, left, right));
}

Result<EventNode*> LocalEventDetector::DefineAnd(const std::string& name,
                                                 EventNode* left,
                                                 EventNode* right) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(name, std::make_unique<AndNode>(name, left, right));
}

Result<EventNode*> LocalEventDetector::DefineSeq(const std::string& name,
                                                 EventNode* left,
                                                 EventNode* right) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(name, std::make_unique<SeqNode>(name, left, right));
}

Result<EventNode*> LocalEventDetector::DefineNot(const std::string& name,
                                                 EventNode* opener,
                                                 EventNode* canceller,
                                                 EventNode* closer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(
      name, std::make_unique<NotNode>(name, opener, canceller, closer));
}

Result<EventNode*> LocalEventDetector::DefineAperiodic(const std::string& name,
                                                       EventNode* opener,
                                                       EventNode* detector,
                                                       EventNode* closer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(
      name, std::make_unique<AperiodicNode>(name, opener, detector, closer));
}

Result<EventNode*> LocalEventDetector::DefineAperiodicStar(
    const std::string& name, EventNode* opener, EventNode* detector,
    EventNode* closer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  return InstallLocked(name, std::make_unique<AperiodicStarNode>(
                                 name, opener, detector, closer));
}

Result<EventNode*> LocalEventDetector::DefineAny(
    const std::string& name, std::size_t threshold,
    std::vector<EventNode*> children) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  if (threshold == 0 || threshold > children.size()) {
    return Status::InvalidArgument(
        "ANY threshold must be in [1, #children]: " +
        std::to_string(threshold) + " of " + std::to_string(children.size()));
  }
  return InstallLocked(
      name, std::make_unique<AnyNode>(name, threshold, std::move(children)));
}

Result<EventNode*> LocalEventDetector::DefinePlus(const std::string& name,
                                                  EventNode* base,
                                                  std::uint64_t delta_ms) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = std::make_unique<PlusNode>(name, base, delta_ms, &clock_);
  EventNode* raw = node.get();
  auto installed = InstallLocked(name, std::move(node));
  if (!installed.ok()) return installed.status();
  temporal_nodes_.push_back(raw);
  return *installed;
}

Result<EventNode*> LocalEventDetector::DefinePeriodic(const std::string& name,
                                                      EventNode* opener,
                                                      std::uint64_t period_ms,
                                                      EventNode* closer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node =
      std::make_unique<PeriodicNode>(name, opener, period_ms, closer, &clock_);
  EventNode* raw = node.get();
  auto installed = InstallLocked(name, std::move(node));
  if (!installed.ok()) return installed.status();
  temporal_nodes_.push_back(raw);
  return *installed;
}

Result<EventNode*> LocalEventDetector::DefinePeriodicStar(
    const std::string& name, EventNode* opener, std::uint64_t period_ms,
    EventNode* closer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = std::make_unique<PeriodicStarNode>(name, opener, period_ms,
                                                 closer, &clock_);
  EventNode* raw = node.get();
  auto installed = InstallLocked(name, std::move(node));
  if (!installed.ok()) return installed.status();
  temporal_nodes_.push_back(raw);
  return *installed;
}

Result<EventNode*> LocalEventDetector::FindLocked(
    const std::string& name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::NotFound("no event named " + name);
  }
  return it->second.get();
}

Result<EventNode*> LocalEventDetector::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return FindLocked(name);
}

bool LocalEventDetector::Exists(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return nodes_.count(name) != 0;
}

std::vector<std::string> LocalEventDetector::EventNames() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) {
    (void)node;
    names.push_back(name);
  }
  return names;
}

std::size_t LocalEventDetector::node_count() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return nodes_.size();
}

// ---- Dispatch index ---------------------------------------------------------

std::uint64_t LocalEventDetector::RegistryVersion() const {
  const oodb::ClassRegistry* registry =
      registry_.load(std::memory_order_acquire);
  return registry != nullptr ? registry->version() : 0;
}

bool LocalEventDetector::IndexCurrent(const DispatchIndex& idx) const {
  return idx.def_gen == def_gen_.load(std::memory_order_acquire) &&
         idx.registry == registry_.load(std::memory_order_acquire) &&
         idx.registry_version == RegistryVersion();
}

std::uint64_t LocalEventDetector::PackKey(common::SymbolId class_sym,
                                          EventModifier modifier,
                                          common::SymbolId method_sym) {
  return (static_cast<std::uint64_t>(class_sym) << 33) |
         (static_cast<std::uint64_t>(modifier) << 32) |
         static_cast<std::uint64_t>(method_sym);
}

LocalEventDetector::DispatchMemo& LocalEventDetector::Memo() {
  thread_local DispatchMemo memo;
  return memo;
}

const LocalEventDetector::DispatchEntry* LocalEventDetector::Probe(
    const DispatchIndex& idx, const std::string& class_name,
    EventModifier modifier, const std::string& method_signature) const {
  DispatchMemo& memo = Memo();
  if (memo.index_uid == idx.uid && memo.modifier == modifier &&
      memo.class_name == class_name &&
      memo.method_signature == method_signature) {
    return memo.entry;
  }
  auto& symbols = common::SymbolTable::Global();
  const common::SymbolId class_sym = symbols.TryLookup(class_name);
  if (class_sym == common::kInvalidSymbol) return nullptr;
  const common::SymbolId method_sym = symbols.TryLookup(method_signature);
  if (method_sym == common::kInvalidSymbol) return nullptr;
  auto it = idx.entries.find(PackKey(class_sym, modifier, method_sym));
  if (it == idx.entries.end()) return nullptr;
  memo.index_uid = idx.uid;
  memo.modifier = modifier;
  memo.class_name = class_name;
  memo.method_signature = method_signature;
  memo.entry = &it->second;
  return &it->second;
}

std::vector<PrimitiveEventNode*> LocalEventDetector::BuildDispatchList(
    const std::string& class_name, EventModifier modifier,
    common::SymbolId method_sym) const {
  const oodb::ClassRegistry* registry =
      registry_.load(std::memory_order_acquire);
  std::vector<PrimitiveEventNode*> nodes;
  // The invocation is propagated only to primitive events of the signalling
  // class — and of its ancestors, so class-level events fire for subclass
  // instances too. This walk runs once per distinct notification key, not
  // once per notification.
  for (const auto& [declared_class, declared_nodes] : by_class_) {
    const bool applies =
        declared_class == class_name ||
        (registry != nullptr &&
         registry->IsSubclassOf(class_name, declared_class));
    if (!applies) continue;
    for (PrimitiveEventNode* node : declared_nodes) {
      if (node->modifier() == modifier && node->method_sym() == method_sym) {
        nodes.push_back(node);
      }
    }
  }
  return nodes;
}

const LocalEventDetector::DispatchEntry* LocalEventDetector::ResolveLocked(
    const std::string& class_name, EventModifier modifier,
    const std::string& method_signature) {
  auto& symbols = common::SymbolTable::Global();
  const common::SymbolId class_sym = symbols.Intern(class_name);
  const common::SymbolId method_sym = symbols.Intern(method_signature);
  const std::uint64_t key = PackKey(class_sym, modifier, method_sym);

  // Read the validity tags before building: if a class registration races
  // the build, the published index is stamped stale and rebuilt next time.
  const std::uint64_t def_gen = def_gen_.load(std::memory_order_acquire);
  const oodb::ClassRegistry* registry =
      registry_.load(std::memory_order_acquire);
  const std::uint64_t registry_version = RegistryVersion();

  const DispatchIndex* idx = index_.load(std::memory_order_acquire);
  if (idx != nullptr && idx->def_gen == def_gen && idx->registry == registry &&
      idx->registry_version == registry_version) {
    auto it = idx->entries.find(key);
    if (it != idx->entries.end()) return &it->second;
  }

  std::lock_guard<std::mutex> index_lock(index_mu_);
  idx = index_.load(std::memory_order_relaxed);
  auto next = std::make_unique<DispatchIndex>();
  next->uid = g_next_index_uid.fetch_add(1, std::memory_order_relaxed);
  next->def_gen = def_gen;
  next->registry = registry;
  next->registry_version = registry_version;
  if (idx != nullptr && idx->def_gen == def_gen && idx->registry == registry &&
      idx->registry_version == registry_version) {
    auto it = idx->entries.find(key);
    if (it != idx->entries.end()) return &it->second;  // raced with a builder
    next->entries = idx->entries;  // carry resolved keys forward
  }
  DispatchEntry entry;
  entry.class_sym = class_sym;
  entry.method_sym = method_sym;
  entry.nodes = BuildDispatchList(class_name, modifier, method_sym);
  auto [slot, inserted] = next->entries.emplace(key, std::move(entry));
  (void)inserted;
  const DispatchEntry* resolved = &slot->second;
  const DispatchIndex* published = next.get();
  retired_indexes_.push_back(std::move(next));
  index_.store(published, std::memory_order_release);
  return resolved;
}

// ---- Signalling -------------------------------------------------------------

void LocalEventDetector::Notify(const std::string& class_name, oodb::Oid oid,
                                EventModifier modifier,
                                const std::string& method_signature,
                                std::shared_ptr<const ParamList> params,
                                TxnId txn) {
  if (SignalingSuppressed()) return;
  notify_count_.fetch_add(1, std::memory_order_relaxed);
  const bool has_observers =
      observer_count_.load(std::memory_order_acquire) > 0;
  // Fast path 1: no primitive events declared and nobody observing raw
  // notifications — nothing can react, skip everything.
  if (!has_observers &&
      primitive_count_.load(std::memory_order_acquire) == 0) {
    return;
  }

  // Fast path 2: lock-free probe of the published dispatch index. A
  // negative-cache hit (no matching nodes) or a hit whose nodes all have no
  // active context returns without taking a lock or allocating. The logical
  // clock is not ticked on these paths: timestamps only order *delivered*
  // occurrences.
  const DispatchEntry* entry = nullptr;
  const DispatchIndex* idx = index_.load(std::memory_order_acquire);
  if (idx != nullptr && IndexCurrent(*idx)) {
    entry = Probe(*idx, class_name, modifier, method_signature);
  }
  if (entry != nullptr && !has_observers) {
    bool any_active = false;
    for (PrimitiveEventNode* node : entry->nodes) {
      if (node->active_context_count() > 0) {
        any_active = true;
        break;
      }
    }
    if (!any_active) return;
  }

  // Full path: occurrence assembly, observers, and routing under the shared
  // graph lock (concurrent with other notifications; exclusive only against
  // definitions and subscriptions).
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  if (entry == nullptr) {
    entry = ResolveLocked(class_name, modifier, method_signature);
  }
  if (!has_observers && entry->nodes.empty()) return;

  // Slow path only: the fast-path returns above stay span-free.
  obs::SpanScope notify_span;
  if (obs::SpanTracer* st = span_tracer_.load(std::memory_order_acquire);
      st != nullptr && st->enabled_for(obs::SpanKind::kNotify)) {
    notify_span.Start(st, obs::SpanKind::kNotify, txn,
                      class_name + "::" + method_signature);
  }

  auto pooled = common::MakePooled<PrimitiveOccurrence>();
  pooled->class_name = class_name;
  pooled->oid = oid;
  pooled->modifier = modifier;
  pooled->method_signature = method_signature;
  pooled->class_sym = entry->class_sym;
  pooled->method_sym = entry->method_sym;
  pooled->at = clock_.Tick();
  pooled->at_ms = now_ms_.load(std::memory_order_relaxed);
  pooled->txn = txn;
  pooled->params = std::move(params);
  Dispatch(std::move(pooled), entry->nodes);
}

Status LocalEventDetector::RaiseExplicit(
    const std::string& name, std::shared_ptr<const ParamList> params,
    TxnId txn) {
  if (SignalingSuppressed()) return Status::OK();
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  auto it = explicit_events_.find(name);
  if (it == explicit_events_.end()) {
    return Status::NotFound("no explicit event named " + name);
  }
  notify_count_.fetch_add(1, std::memory_order_relaxed);
  obs::SpanScope notify_span;
  if (obs::SpanTracer* st = span_tracer_.load(std::memory_order_acquire);
      st != nullptr && st->enabled_for(obs::SpanKind::kNotify)) {
    notify_span.Start(st, obs::SpanKind::kNotify, txn, name);
  }
  auto pooled = common::MakePooled<PrimitiveOccurrence>();
  pooled->event_name = name;
  pooled->class_name = kExplicitClass;
  pooled->modifier = EventModifier::kEnd;
  pooled->method_signature = name;
  pooled->class_sym = it->second->class_sym();
  pooled->method_sym = it->second->method_sym();
  pooled->at = clock_.Tick();
  pooled->at_ms = now_ms_.load(std::memory_order_relaxed);
  pooled->txn = txn;
  pooled->params = std::move(params);
  Dispatch(std::move(pooled), {&it->second, 1});
  return Status::OK();
}

void LocalEventDetector::Inject(const PrimitiveOccurrence& recorded) {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  notify_count_.fetch_add(1, std::memory_order_relaxed);
  clock_.Witness(recorded.at);
  std::uint64_t seen = now_ms_.load(std::memory_order_relaxed);
  while (recorded.at_ms > seen &&
         !now_ms_.compare_exchange_weak(seen, recorded.at_ms,
                                        std::memory_order_relaxed)) {
  }
  auto raw = std::make_shared<PrimitiveOccurrence>(recorded);
  if (recorded.class_name == kExplicitClass) {
    auto it = explicit_events_.find(recorded.method_signature);
    if (it != explicit_events_.end()) {
      raw->class_sym = it->second->class_sym();
      raw->method_sym = it->second->method_sym();
      Dispatch(std::move(raw), {&it->second, 1});
    }
    return;
  }
  // Recorded occurrences carry no symbols (and the GED rewrites class names
  // before injecting) — re-intern and route through the dispatch index.
  const DispatchEntry* entry =
      ResolveLocked(recorded.class_name, recorded.modifier,
                    recorded.method_signature);
  raw->class_sym = entry->class_sym;
  raw->method_sym = entry->method_sym;
  Dispatch(std::move(raw), entry->nodes);
}

void LocalEventDetector::Dispatch(std::shared_ptr<PrimitiveOccurrence> raw,
                                  std::span<PrimitiveEventNode* const> nodes) {
  for (const auto& observer : raw_observers_) observer(*raw);
  // The first matching node is handed `raw` while this frame holds its only
  // reference, so it labels it in place.
  bool exclusive = true;
  for (PrimitiveEventNode* node : nodes) {
    if (!node->Matches(*raw)) continue;
    node->Signal(raw, exclusive);
    exclusive = false;
  }
}

void LocalEventDetector::AdvanceTime(std::uint64_t now_ms) {
  std::uint64_t seen = now_ms_.load(std::memory_order_relaxed);
  if (now_ms < seen) return;
  while (!now_ms_.compare_exchange_weak(seen, now_ms,
                                        std::memory_order_relaxed)) {
    if (now_ms < seen) return;
  }
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  for (EventNode* node : temporal_nodes_) node->OnTimeAdvance(now_ms);
}

Status LocalEventDetector::Subscribe(const std::string& event, EventSink* sink,
                                     ParamContext context) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = FindLocked(event);
  if (!node.ok()) return node.status();
  (*node)->AddSink(sink);
  (*node)->AddContextRef(context);
  return Status::OK();
}

Status LocalEventDetector::Unsubscribe(const std::string& event,
                                       EventSink* sink, ParamContext context) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto node = FindLocked(event);
  if (!node.ok()) return node.status();
  (*node)->RemoveSink(sink);
  (*node)->ReleaseContextRef(context);
  return Status::OK();
}

void LocalEventDetector::UnsubscribeAll(
    std::span<const Subscription> subscriptions) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  std::unordered_map<EventNode*, std::vector<EventSink*>> leaving;
  for (const Subscription& sub : subscriptions) {
    auto node = FindLocked(*sub.event);
    if (!node.ok()) continue;
    leaving[*node].push_back(sub.sink);
    (*node)->ReleaseContextRef(sub.context);
  }
  for (auto& [node, sinks] : leaving) {
    std::sort(sinks.begin(), sinks.end());
    node->RemoveSinks(sinks);
  }
}

void LocalEventDetector::AddRawObserver(
    std::function<void(const PrimitiveOccurrence&)> observer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  raw_observers_.push_back(std::move(observer));
  observer_count_.store(static_cast<int>(raw_observers_.size()),
                        std::memory_order_release);
}

namespace {

/// Flushes one node and charges the buffered occurrences it dropped to its
/// flush counter (the flush paths do not know per-occurrence contexts, so
/// accounting is by before/after delta of the buffer gauge).
template <typename Flush>
void FlushCounted(EventNode* node, Flush&& flush) {
  const std::size_t before = node->BufferedCount();
  flush();
  const std::size_t after = node->BufferedCount();
  if (before > after) node->metrics().OnFlushed(before - after);
}

}  // namespace

void LocalEventDetector::FlushTxn(TxnId txn) {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  for (auto& [name, node] : nodes_) {
    (void)name;
    FlushCounted(node.get(), [&] { node->FlushTxn(txn); });
  }
}

void LocalEventDetector::FlushAll() {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  for (auto& [name, node] : nodes_) {
    (void)name;
    FlushCounted(node.get(), [&] { node->FlushAll(); });
  }
}

Status LocalEventDetector::FlushEvent(const std::string& event) {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  auto node = FindLocked(event);
  if (!node.ok()) return node.status();
  // Flush the expression's whole subtree.
  std::vector<EventNode*> stack{*node};
  while (!stack.empty()) {
    EventNode* current = stack.back();
    stack.pop_back();
    FlushCounted(current, [&] { current->FlushAll(); });
    for (EventNode* child : current->Children()) {
      if (child != nullptr) stack.push_back(child);
    }
  }
  return Status::OK();
}

std::size_t LocalEventDetector::BufferedCount() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  std::size_t n = 0;
  for (const auto& [name, node] : nodes_) {
    (void)name;
    n += node->BufferedCount();
  }
  return n;
}

Status LocalEventDetector::RemoveEvent(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::NotFound("no event named " + name);
  }
  EventNode* node = it->second.get();
  if (node->sink_count() > 0) {
    return Status::InvalidArgument("event " + name +
                                   " still has subscribed rules");
  }
  for (const auto& [other_name, other] : nodes_) {
    if (other.get() == node) continue;
    for (EventNode* child : other->Children()) {
      if (child == node) {
        return Status::InvalidArgument("event " + name +
                                       " is a constituent of " + other_name);
      }
    }
  }
  // Defensive: release any context refs that survived unsubscription so
  // children stop detecting (and drop buffers) on the node's behalf.
  for (int c = 0; c < kNumContexts; ++c) {
    const auto context = static_cast<ParamContext>(c);
    while (node->ContextRefs(context) > 0) node->ReleaseContextRef(context);
  }
  // Unhook the node from its children's parent lists so nothing routes into
  // freed memory.
  for (EventNode* child : node->Children()) {
    if (child != nullptr) child->RemoveParent(node);
  }
  if (auto* primitive = dynamic_cast<PrimitiveEventNode*>(node)) {
    auto by_class = by_class_.find(primitive->class_name());
    if (by_class != by_class_.end()) {
      auto& list = by_class->second;
      list.erase(std::remove(list.begin(), list.end(), primitive), list.end());
      if (list.empty()) by_class_.erase(by_class);
      primitive_count_.fetch_sub(1, std::memory_order_release);
      // Invalidate published dispatch indexes so no stale entry can hand the
      // dead node to a signalling thread.
      def_gen_.fetch_add(1, std::memory_order_release);
    }
    explicit_events_.erase(name);
  }
  temporal_nodes_.erase(
      std::remove(temporal_nodes_.begin(), temporal_nodes_.end(), node),
      temporal_nodes_.end());
  nodes_.erase(it);
  return Status::OK();
}

// ---- Observability ----------------------------------------------------------

void LocalEventDetector::set_span_tracer(obs::SpanTracer* tracer) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  span_tracer_.store(tracer, std::memory_order_release);
  for (auto& [name, node] : nodes_) {
    (void)name;
    node->set_span_tracer(tracer);
  }
}

namespace {

const char* NodeKind(const EventNode* node) {
  if (auto* op = dynamic_cast<const OperatorNode*>(node)) {
    return OperatorKindToString(op->kind());
  }
  if (dynamic_cast<const PrimitiveEventNode*>(node) != nullptr) {
    return "PRIMITIVE";
  }
  return "NODE";
}

}  // namespace

std::string LocalEventDetector::DumpGraph() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  std::string out = "digraph events {\n  rankdir=BT;\n";
  for (const auto& [name, node] : nodes_) {
    out += "  \"" + name + "\" [label=\"" + name + "\\n" + NodeKind(node.get());
    std::string refs;
    for (int c = 0; c < kNumContexts; ++c) {
      const auto context = static_cast<ParamContext>(c);
      const int n = node->ContextRefs(context);
      if (n == 0) continue;
      if (!refs.empty()) refs += ' ';
      refs += std::string(ParamContextToString(context)) + "=" +
              std::to_string(n);
    }
    if (!refs.empty()) out += "\\nrefs: " + refs;
    const obs::NodeMetrics& m = node->metrics();
    out += "\\nrecv=" + std::to_string(m.received_total()) +
           " det=" + std::to_string(m.detected_total()) +
           " buf=" + std::to_string(node->BufferedCount()) +
           "\\nsubscribers=" + std::to_string(node->sink_count()) + "\"];\n";
  }
  // Edges point child → parent (detections flow upward).
  for (const auto& [name, node] : nodes_) {
    for (EventNode* child : node->Children()) {
      if (child != nullptr) {
        out += "  \"" + child->name() + "\" -> \"" + name + "\";\n";
      }
    }
  }
  out += "}\n";
  return out;
}

std::vector<LocalEventDetector::NodeStat> LocalEventDetector::SnapshotNodes()
    const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  std::vector<NodeStat> stats;
  stats.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) {
    const obs::NodeMetrics& m = node->metrics();
    NodeStat stat;
    stat.name = name;
    stat.kind = NodeKind(node.get());
    stat.sinks = node->sink_count();
    stat.buffered = node->BufferedCount();
    stat.flushed = m.flushed();
    for (int c = 0; c < kNumContexts; ++c) {
      const auto context = static_cast<ParamContext>(c);
      const auto snap = m.ForContext(context);
      stat.contexts[c].refs = node->ContextRefs(context);
      stat.contexts[c].received = snap.received;
      stat.contexts[c].detected = snap.detected;
    }
    stats.push_back(std::move(stat));
  }
  return stats;
}

LocalEventDetector::Totals LocalEventDetector::TotalsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  Totals totals;
  totals.notifications = notify_count_.load(std::memory_order_relaxed);
  for (const auto& [name, node] : nodes_) {
    (void)name;
    const obs::NodeMetrics& m = node->metrics();
    totals.detections += m.detected_total();
    totals.buffered += node->BufferedCount();
    totals.flushed += m.flushed();
  }
  return totals;
}

}  // namespace sentinel::detector
