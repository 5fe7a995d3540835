#include "obs/profiler.h"

#include <time.h>

#include <algorithm>

#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/span.h"

namespace sentinel::obs {

std::uint64_t Profiler::ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

const char* Profiler::RuleSeamName(RuleSeam seam) {
  static constexpr const char* kNames[kRuleSeams] = {"condition", "action",
                                                     "commit"};
  return kNames[static_cast<int>(seam)];
}

const char* Profiler::GlobalSeamName(GlobalSeam seam) {
  static constexpr const char* kNames[kGlobalSeams] = {"commit_barrier",
                                                       "ged_forward"};
  return kNames[static_cast<int>(seam)];
}

void Profiler::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (mode_.load(std::memory_order_relaxed) == Mode::kOn) return;
  enabled_since_ns_.store(SpanTracer::NowNs(), std::memory_order_relaxed);
  mode_.store(Mode::kOn, std::memory_order_relaxed);
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (mode_.load(std::memory_order_relaxed) == Mode::kOff) return;
  mode_.store(Mode::kOff, std::memory_order_relaxed);
  active_ns_.fetch_add(
      SpanTracer::NowNs() - enabled_since_ns_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

std::uint64_t Profiler::duration_ns() const {
  std::uint64_t total = active_ns_.load(std::memory_order_relaxed);
  if (enabled()) {
    total += SpanTracer::NowNs() - enabled_since_ns_.load(std::memory_order_relaxed);
  }
  return total;
}

void Profiler::Reset() {
  {
    std::unique_lock lock(rules_mu_);
    for (auto& [name, rule] : rules_) {
      for (CostCell& cell : rule->seams) cell.Zero();
    }
  }
  {
    std::unique_lock lock(nodes_mu_);
    for (auto& [name, cell] : nodes_) cell->Zero();
  }
  for (CostCell& cell : global_) cell.Zero();
  {
    std::unique_lock lock(sites_mu_);
    for (auto& [name, site] : sites_) {
      site->acquisitions.Reset();
      site->contended.Reset();
      site->wait_ns.Reset();
    }
  }
  active_ns_.store(0, std::memory_order_relaxed);
  enabled_since_ns_.store(SpanTracer::NowNs(), std::memory_order_relaxed);
}

// -- Feed 1: exact attribution -----------------------------------------------

Profiler::RuleAccount* Profiler::RuleAccountFor(const std::string& rule_name) {
  {
    std::shared_lock lock(rules_mu_);
    auto it = rules_.find(rule_name);
    if (it != rules_.end()) return it->second.get();
  }
  std::unique_lock lock(rules_mu_);
  auto& slot = rules_[rule_name];
  if (slot == nullptr) slot = std::make_unique<RuleAccount>();
  return slot.get();
}

Profiler::CostCell* Profiler::NodeAccount(const std::string& node_name) {
  {
    std::shared_lock lock(nodes_mu_);
    auto it = nodes_.find(node_name);
    if (it != nodes_.end()) return it->second.get();
  }
  std::unique_lock lock(nodes_mu_);
  auto& slot = nodes_[node_name];
  if (slot == nullptr) slot = std::make_unique<CostCell>();
  return slot.get();
}

// -- Feed 2: lock contention -------------------------------------------------

std::unique_lock<std::mutex> Profiler::LockProfiled(ContentionSite* site,
                                                    std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const std::uint64_t t0 = SpanTracer::NowNs();
    lock.lock();
    RecordSiteWait(site, SpanTracer::NowNs() - t0);
  }
  RecordSiteAcquire(site);
  return lock;
}

Profiler::ContentionSite* Profiler::GetContentionSite(const std::string& name) {
  {
    std::shared_lock lock(sites_mu_);
    auto it = sites_.find(name);
    if (it != sites_.end()) return it->second.get();
  }
  std::unique_lock lock(sites_mu_);
  auto& slot = sites_[name];
  if (slot == nullptr) {
    slot = std::make_unique<ContentionSite>();
    slot->name = name;
  }
  return slot.get();
}

std::vector<Profiler::ContentionSnapshot> Profiler::TopContended(
    std::size_t k) const {
  std::vector<ContentionSnapshot> all;
  {
    std::shared_lock lock(sites_mu_);
    all.reserve(sites_.size());
    for (const auto& [name, site] : sites_) {
      ContentionSnapshot snap;
      snap.site = name;
      snap.acquisitions = site->acquisitions.value();
      snap.contended = site->contended.value();
      snap.wait_ns = site->wait_ns.value();
      if (snap.acquisitions == 0) continue;
      all.push_back(std::move(snap));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ContentionSnapshot& a, const ContentionSnapshot& b) {
              if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
              if (a.contended != b.contended) return a.contended > b.contended;
              return a.site < b.site;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

// -- Snapshots & export ------------------------------------------------------

std::vector<Profiler::RuleSnapshot> Profiler::RuleSnapshots() const {
  std::vector<RuleSnapshot> out;
  std::shared_lock lock(rules_mu_);
  out.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) {
    RuleSnapshot snap;
    snap.name = name;
    for (int i = 0; i < kRuleSeams; ++i) snap.seams[i] = rule->seams[i].Snap();
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<Profiler::NodeSnapshot> Profiler::NodeSnapshots() const {
  std::vector<NodeSnapshot> out;
  std::shared_lock lock(nodes_mu_);
  out.reserve(nodes_.size());
  for (const auto& [name, cell] : nodes_) {
    out.push_back(NodeSnapshot{name, cell->Snap()});
  }
  return out;
}

Profiler::CostSnapshot Profiler::GlobalSnapshot(GlobalSeam seam) const {
  return global_[static_cast<int>(seam)].Snap();
}

std::string Profiler::TopCostRule() const {
  std::string best;
  std::uint64_t best_wall = 0;
  for (const RuleSnapshot& rule : RuleSnapshots()) {
    const std::uint64_t wall = rule.total_wall_ns();
    if (wall > best_wall) {
      best_wall = wall;
      best = rule.name;
    }
  }
  return best;
}

namespace {

void WriteCost(JsonWriter& w, const std::string& key,
               const Profiler::CostSnapshot& snap) {
  w.Key(key).BeginObject();
  w.Field("invocations", snap.invocations);
  w.Field("cpu_ns", snap.cpu_ns);
  w.Field("wall_ns", snap.wall_ns);
  w.EndObject();
}

}  // namespace

std::string Profiler::ProfileJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("mode", enabled() ? "on" : "off");
  w.Field("duration_ns", duration_ns());

  w.Key("rules").BeginArray();
  for (const RuleSnapshot& rule : RuleSnapshots()) {
    w.BeginObject();
    w.Field("name", rule.name);
    for (int i = 0; i < kRuleSeams; ++i) {
      WriteCost(w, RuleSeamName(static_cast<RuleSeam>(i)), rule.seams[i]);
    }
    w.Field("total_wall_ns", rule.total_wall_ns());
    w.EndObject();
  }
  w.EndArray();

  w.Key("nodes").BeginArray();
  for (const NodeSnapshot& node : NodeSnapshots()) {
    w.BeginObject();
    w.Field("name", node.name);
    WriteCost(w, "eval", node.eval);
    w.EndObject();
  }
  w.EndArray();

  w.Key("seams").BeginArray();
  for (int i = 0; i < kGlobalSeams; ++i) {
    const CostSnapshot snap = GlobalSnapshot(static_cast<GlobalSeam>(i));
    w.BeginObject();
    w.Field("seam", GlobalSeamName(static_cast<GlobalSeam>(i)));
    w.Field("invocations", snap.invocations);
    w.Field("cpu_ns", snap.cpu_ns);
    w.Field("wall_ns", snap.wall_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("contention").BeginArray();
  for (const ContentionSnapshot& site : TopContended(16)) {
    w.BeginObject();
    w.Field("site", site.site);
    w.Field("acquisitions", site.acquisitions);
    w.Field("contended", site.contended);
    w.Field("wait_ns", site.wait_ns);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

void Profiler::WritePrometheus(PromWriter& w) const {
  w.Gauge("sentinel_profile_mode", "Profiling mode (0=off, 1=on)", {},
          enabled() ? 1 : 0);
  w.Gauge("sentinel_profile_duration_ns",
          "Cumulative nanoseconds profiling has been enabled", {},
          duration_ns());

  const auto rules = RuleSnapshots();
  if (!rules.empty()) {
    w.Family("sentinel_profile_rule_invocations_total",
             "Rule seam invocations attributed by the profiler", "counter");
    w.Family("sentinel_profile_rule_cpu_ns_total",
             "Per-rule seam CPU time (thread clock), nanoseconds", "counter");
    w.Family("sentinel_profile_rule_wall_ns_total",
             "Per-rule seam wall time, nanoseconds", "counter");
    for (const RuleSnapshot& rule : rules) {
      for (int i = 0; i < kRuleSeams; ++i) {
        const PromWriter::Labels labels = {
            {"rule", rule.name},
            {"seam", RuleSeamName(static_cast<RuleSeam>(i))}};
        w.Sample("sentinel_profile_rule_invocations_total", labels,
                 rule.seams[i].invocations);
        w.Sample("sentinel_profile_rule_cpu_ns_total", labels,
                 rule.seams[i].cpu_ns);
        w.Sample("sentinel_profile_rule_wall_ns_total", labels,
                 rule.seams[i].wall_ns);
      }
    }
  }

  const auto nodes = NodeSnapshots();
  if (!nodes.empty()) {
    w.Family("sentinel_profile_node_invocations_total",
             "Operator-node evaluations attributed by the profiler",
             "counter");
    w.Family("sentinel_profile_node_cpu_ns_total",
             "Per-event-node evaluation CPU time, nanoseconds", "counter");
    w.Family("sentinel_profile_node_wall_ns_total",
             "Per-event-node evaluation wall time, nanoseconds", "counter");
    for (const NodeSnapshot& node : nodes) {
      const PromWriter::Labels labels = {{"node", node.name}};
      w.Sample("sentinel_profile_node_invocations_total", labels,
               node.eval.invocations);
      w.Sample("sentinel_profile_node_cpu_ns_total", labels, node.eval.cpu_ns);
      w.Sample("sentinel_profile_node_wall_ns_total", labels,
               node.eval.wall_ns);
    }
  }

  w.Family("sentinel_profile_seam_wall_ns_total",
           "Process-level seam wall time (commit barrier, GED forward),"
           " nanoseconds",
           "counter");
  for (int i = 0; i < kGlobalSeams; ++i) {
    w.Sample("sentinel_profile_seam_wall_ns_total",
             {{"seam", GlobalSeamName(static_cast<GlobalSeam>(i))}},
             GlobalSnapshot(static_cast<GlobalSeam>(i)).wall_ns);
  }

  const auto sites = TopContended(16);
  if (!sites.empty()) {
    w.Family("sentinel_profile_contention_acquisitions_total",
             "Profiled lock acquisitions per contention site", "counter");
    w.Family("sentinel_profile_contention_contended_total",
             "Acquisitions that blocked, per contention site", "counter");
    w.Family("sentinel_profile_contention_wait_ns_total",
             "Summed blocked wait time per contention site, nanoseconds",
             "counter");
    for (const ContentionSnapshot& site : sites) {
      const PromWriter::Labels labels = {{"site", site.site}};
      w.Sample("sentinel_profile_contention_acquisitions_total", labels,
               site.acquisitions);
      w.Sample("sentinel_profile_contention_contended_total", labels,
               site.contended);
      w.Sample("sentinel_profile_contention_wait_ns_total", labels,
               site.wait_ns);
    }
  }
}

}  // namespace sentinel::obs
