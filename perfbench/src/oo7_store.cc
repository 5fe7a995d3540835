// oo7_store: OO7 objects in a persistent ActiveDatabase on the working
// filesystem. 80% of ops read 8 skewed AtomicParts through the object cache
// and raise a lookup event whose rule only evaluates a condition; 20% update
// 2 parts, and an IMMEDIATE rule bumps the parent CompositePart inside its
// subtransaction while a DEFERRED rule checks that invariant at pre-commit.
// Commits run with kAsync durability and no group-commit thread: each
// appends its commit record to the WAL buffer, and closing the database
// makes the log durable. A kSync commit waits for an fsync, and on a shared
// host the disk's fsync latency moved op latency by a quarter between
// identical runs; with kAsync and a group-commit thread, that thread's
// barriers on the load thread's CPU still moved it by up to a seventh. The
// traced run reports the fsync wait as storage.sync_commit_us instead.
// The working set (20k parts, 1k composites) exceeds the 256-page buffer
// pool and the 1024-object cache, so both hit and miss paths run.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/pool.h"
#include "core/active_database.h"
#include "harness.h"

namespace perfbench {
namespace {

using sentinel::core::ActiveDatabase;
using sentinel::detector::EventModifier;
using sentinel::detector::ParamList;
using sentinel::oodb::Oid;
using sentinel::oodb::PersistentObject;
using sentinel::oodb::Value;
using sentinel::rules::RuleContext;
using sentinel::storage::CommitDurability;

constexpr int kParts = 20000;
constexpr int kComposites = 1000;
constexpr int kPopulateBatch = 500;
constexpr int kReadsPerOp = 8;
constexpr int kWritesPerOp = 2;
constexpr double kWriteShare = 0.2;
/// Share of a traced run spent on ops with kSync commits.
constexpr double kSyncCommitShare = 0.1;
constexpr char kChange[] = "void change(int v)";
constexpr char kLookup[] = "void lookup(int v)";

std::string PartValue(std::uint64_t seed, int part, std::int64_t version) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(part) << 20) ^
          static_cast<std::uint64_t>(version));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "v%015llu",
                static_cast<unsigned long long>(rng.Next() % 1000000000000000ULL));
  return buf;
}

/// State the rule functions share with the load thread.
struct StoreProbe {
  std::vector<Oid> part_oid;
  std::vector<int> part_parent;        // composite index of each part
  std::vector<Oid> composite_oid;
  /// Committed change count per composite; written by the load thread only
  /// after a commit, read by the DEFERRED check inside the next one.
  std::vector<std::int64_t> composite_changes;
  std::atomic<std::uint64_t> conditions{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> rule_errors{0};
  std::atomic<std::uint64_t> off_thread{0};
  std::atomic<std::uint64_t> last_deferred_exit{0};
  std::thread::id load_thread;
  SpanLog* log = nullptr;
  std::uint64_t seed = 0;
};

class StoreInstance {
 public:
  StoreInstance() = default;
  StoreInstance(const StoreInstance&) = delete;
  StoreInstance& operator=(const StoreInstance&) = delete;
  ~StoreInstance() { (void)db_.Close(); }

  sentinel::Status Setup(const std::string& prefix, StoreProbe* probe) {
    ActiveDatabase::Options options;
    options.database.storage.wal_options.group_commit = false;
    options.database.storage.commit_durability = CommitDurability::kAsync;
    SENTINEL_RETURN_NOT_OK(db_.Open(prefix, options));
    SENTINEL_RETURN_NOT_OK(db_.DeclareEvent("ap_change", "AtomicPart",
                                            EventModifier::kEnd, kChange)
                               .status());
    SENTINEL_RETURN_NOT_OK(db_.DeclareEvent("ap_lookup", "AtomicPart",
                                            EventModifier::kEnd, kLookup)
                               .status());
    auto* rules = db_.rule_manager();
    auto* cache = db_.object_cache();
    auto* nested = db_.nested_txns();
    // Read path: a rule that only evaluates its condition.
    SENTINEL_RETURN_NOT_OK(
        rules
            ->DefineRule(
                "probe", "ap_lookup",
                [probe](const RuleContext& ctx) {
                  probe->conditions.fetch_add(1, std::memory_order_relaxed);
                  RecordCondition(probe->log, probe->load_thread,
                                  &probe->off_thread);
                  auto v = ctx.Param("v");
                  return v.ok() && v->AsInt() < 0;
                },
                [](const RuleContext&) {})
            .status());
    // Write path: bump the parent composite inside the subtransaction.
    SENTINEL_RETURN_NOT_OK(
        rules
            ->DefineRule(
                "bump_parent", "ap_change",
                [probe](const RuleContext&) {
                  probe->conditions.fetch_add(1, std::memory_order_relaxed);
                  RecordCondition(probe->log, probe->load_thread,
                                  &probe->off_thread);
                  return true;
                },
                [probe, cache, nested](const RuleContext& ctx) {
                  SpanLog* log = probe->log;
                  const std::uint64_t op = log->ambient_op();
                  const std::int64_t act = log->Begin(
                      "rules", "rules.action", log->ambient_parent(), op);
                  auto c = ctx.Param("c");
                  if (!c.ok()) {
                    probe->rule_errors.fetch_add(1);
                    log->End(act);
                    return;
                  }
                  const Oid oid =
                      probe->composite_oid[static_cast<std::size_t>(c->AsInt())];
                  std::int64_t span =
                      log->Begin("txn", "txn.acquire", act, op);
                  const auto locked = nested->Acquire(
                      ctx.subtxn, "oid:" + std::to_string(oid),
                      sentinel::storage::LockMode::kExclusive);
                  log->End(span);
                  span = log->Begin("oodb", "oodb.cache_get", act, op);
                  auto current = cache->Get(ctx.txn, oid);
                  log->End(span);
                  if (!locked.ok() || !current.ok()) {
                    probe->rule_errors.fetch_add(1);
                    log->End(act);
                    return;
                  }
                  PersistentObject updated = **current;
                  auto changes = updated.Get("changes");
                  updated.Set("changes",
                              Value::Int((changes.ok() ? changes->AsInt() : 0) + 1));
                  span = log->Begin("oodb", "oodb.cache_put", act, op);
                  const bool put = cache->Put(ctx.txn, std::move(updated)).ok();
                  log->End(span);
                  if (!put) probe->rule_errors.fetch_add(1);
                  log->End(act);
                })
            .status());
    // Pre-commit: every composite touched holds its committed count plus
    // this transaction's changes.
    sentinel::rules::RuleManager::RuleOptions deferred;
    deferred.coupling = sentinel::rules::CouplingMode::kDeferred;
    deferred.context = sentinel::detector::ParamContext::kCumulative;
    SENTINEL_RETURN_NOT_OK(
        rules
            ->DefineRule(
                "invariant", "ap_change",
                [probe, cache](const RuleContext& ctx) {
                  SpanLog* log = probe->log;
                  const std::int64_t id = log->Begin(
                      "rules", "rules.condition", log->ambient_parent(),
                      log->ambient_op());
                  std::map<std::int64_t, std::int64_t> touched;
                  for (const auto& occ : ctx.occurrence->constituents) {
                    if (occ->method_signature != kChange) continue;
                    auto c = occ->params->Get("c");
                    if (c.ok()) ++touched[c->AsInt()];
                  }
                  bool violated = touched.empty();
                  for (const auto& [composite, n] : touched) {
                    const auto i = static_cast<std::size_t>(composite);
                    auto obj = cache->Get(ctx.txn, probe->composite_oid[i]);
                    auto changes =
                        obj.ok() ? (*obj)->Get("changes") : obj.status();
                    if (!changes.ok() ||
                        changes->AsInt() != probe->composite_changes[i] + n) {
                      violated = true;
                    }
                  }
                  const std::uint64_t now = NowNs();
                  log->End(id, now);
                  probe->last_deferred_exit.store(now,
                                                  std::memory_order_relaxed);
                  return violated;
                },
                [probe](const RuleContext&) { probe->violations.fetch_add(1); },
                deferred)
            .status());
    return Populate(probe);
  }

  ActiveDatabase* db() { return &db_; }
  std::uint64_t populate_ns() const { return populate_ns_; }

 private:
  sentinel::Status Populate(StoreProbe* probe) {
    const std::uint64_t t0 = NowNs();
    auto* cache = db_.object_cache();
    probe->composite_oid.assign(kComposites, 0);
    probe->part_oid.assign(kParts, 0);
    const int total = kComposites + kParts;
    for (int first = 0; first < total; first += kPopulateBatch) {
      auto txn = db_.Begin();
      if (!txn.ok()) return txn.status();
      for (int i = first; i < std::min(total, first + kPopulateBatch); ++i) {
        if (i < kComposites) {
          PersistentObject obj(sentinel::oodb::kInvalidOid, "CompositePart");
          obj.Set("changes", Value::Int(0));
          auto oid = cache->Put(*txn, std::move(obj));
          if (!oid.ok()) return oid.status();
          probe->composite_oid[static_cast<std::size_t>(i)] = *oid;
        } else {
          const int part = i - kComposites;
          PersistentObject obj(sentinel::oodb::kInvalidOid, "AtomicPart");
          obj.Set("val", Value::String(PartValue(probe->seed, part, 0)));
          obj.Set("ver", Value::Int(0));
          obj.Set("parent",
                  Value::Int(probe->part_parent[static_cast<std::size_t>(part)]));
          auto oid = cache->Put(*txn, std::move(obj));
          if (!oid.ok()) return oid.status();
          probe->part_oid[static_cast<std::size_t>(part)] = *oid;
        }
      }
      SENTINEL_RETURN_NOT_OK(db_.Commit(*txn));
    }
    populate_ns_ = NowNs() - t0;
    return sentinel::Status::OK();
  }

  ActiveDatabase db_;
  std::uint64_t populate_ns_ = 0;
};

/// Counters the traced run reports as deltas.
struct StoreCounters {
  std::uint64_t fsyncs, wal_bytes, pool_hits, pool_misses, cache_hits,
      cache_misses, lock_waits;
};

StoreCounters ReadCounters(ActiveDatabase* db, const std::string& wal_path) {
  auto* engine = db->database()->engine();
  std::error_code ec;
  const auto wal = std::filesystem::file_size(wal_path, ec);
  return StoreCounters{engine->log_manager()->sync_count(),
                       ec ? 0 : static_cast<std::uint64_t>(wal),
                       engine->buffer_pool()->hit_count(),
                       engine->buffer_pool()->miss_count(),
                       db->object_cache()->hit_count(),
                       db->object_cache()->miss_count(),
                       engine->lock_manager()->wait_count()};
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// What every acknowledged update of an episode left in its database.
struct StoreExpectation {
  std::string prefix;
  std::vector<Oid> part_oid, composite_oid;
  std::vector<std::int64_t> part_version, composite_changes;
};

/// One episode: a fresh database under `root`, set up, warmed up, measured
/// for `seconds` and closed. `*expect` gets what a reopen must read back.
/// Returns false when set-up failed.
bool StoreEpisode(const Options& options, const std::filesystem::path& root,
                  const std::vector<int>& part_parent, double seconds, Rng* rng,
                  SpanLog* span_log, SlicedLoop* sliced, Result* out,
                  StoreExpectation* expect) {
  namespace fs = std::filesystem;
  Result& result = *out;
  SpanLog& log = *span_log;
  Rng& gen = *rng;
  StoreProbe probe;
  probe.load_thread = std::this_thread::get_id();
  probe.seed = options.seed;
  probe.log = &log;
  probe.part_parent = part_parent;
  probe.composite_changes.assign(kComposites, 0);
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  const std::string prefix = (root / "oo7").string();
  auto inst = std::make_unique<StoreInstance>();
  const std::uint64_t t0 = NowNs();
  const sentinel::Status st = inst->Setup(prefix, &probe);
  const std::uint64_t t1 = NowNs();
  if (!st.ok()) {
    result.Problem("oo7_store set-up failed: " + st.ToString());
    return false;
  }
  sliced->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  ActiveDatabase* db = inst->db();
  auto* cache = db->object_cache();
  const std::string wal_path = prefix + ".wal";

  // Acknowledged state: what a reopen must read back.
  std::vector<std::int64_t> part_version(kParts, 0);
  std::uint64_t op = 0;
  std::uint64_t reads_wrong = 0;
  std::uint64_t locked_keys = 0;
  std::uint64_t write_ops = 0;
  std::vector<double>* commit_ns = nullptr;  // set while timing commits
  auto one_op = [&](bool* is_write) -> std::uint64_t {
    const bool write = gen.Uniform() < kWriteShare;
    *is_write = write;
    ++op;
    ++result.attempted;
    const std::uint64_t t0 = NowNs();
    const std::int64_t root_span = log.Begin("op", "op", -1, op);
    std::int64_t span = log.Begin("core", "core.begin", root_span, op);
    auto txn = db->Begin();
    log.End(span);
    if (!txn.ok()) {
      ++result.failed;
      log.End(root_span);
      return NowNs() - t0;
    }
    bool ok = true;
    int written[kWritesPerOp] = {-1, -1};
    if (!write) {
      int last = 0;
      for (int i = 0; i < kReadsPerOp; ++i) {
        last = static_cast<int>(gen.Skewed(kParts));
        span = log.Begin("oodb", "oodb.cache_get", root_span, op);
        auto obj = cache->Get(*txn, probe.part_oid[static_cast<std::size_t>(last)]);
        log.End(span);
        if (!obj.ok()) {
          ok = false;
          continue;
        }
        auto ver = (*obj)->Get("ver");
        if (!ver.ok() ||
            ver->AsInt() != part_version[static_cast<std::size_t>(last)]) {
          ++reads_wrong;
        }
      }
      auto params = sentinel::common::MakePooled<ParamList>();
      params->Insert("v", Value::Int(last));
      const std::uint64_t before = probe.conditions.load();
      span = log.Begin("detector", "detector.notify", root_span, op);
      log.set_ambient(span, op);
      db->NotifyMethod("AtomicPart", probe.part_oid[static_cast<std::size_t>(last)],
                       EventModifier::kEnd, kLookup, std::move(params), *txn);
      log.End(span);
      if (probe.conditions.load() != before) {
        log.Relabel(span, "rules", "rules.notify");
      }
    } else {
      for (int w = 0; w < kWritesPerOp; ++w) {
        int part = static_cast<int>(gen.Skewed(kParts));
        if (w > 0 && part == written[0]) part = (part + 1) % kParts;
        written[w] = part;
        const auto p = static_cast<std::size_t>(part);
        PersistentObject obj(probe.part_oid[p], "AtomicPart");
        obj.Set("val", Value::String(PartValue(options.seed, part,
                                               part_version[p] + 1)));
        obj.Set("ver", Value::Int(part_version[p] + 1));
        obj.Set("parent", Value::Int(probe.part_parent[p]));
        span = log.Begin("oodb", "oodb.cache_put", root_span, op);
        ok = cache->Put(*txn, std::move(obj)).ok() && ok;
        log.End(span);
        auto params = sentinel::common::MakePooled<ParamList>();
        params->Insert("v", Value::Int(part));
        params->Insert("c", Value::Int(probe.part_parent[p]));
        const std::uint64_t before = probe.conditions.load();
        span = log.Begin("detector", "detector.notify", root_span, op);
        log.set_ambient(span, op);
        db->NotifyMethod("AtomicPart", probe.part_oid[p], EventModifier::kEnd,
                         kChange, std::move(params), *txn);
        log.End(span);
        if (probe.conditions.load() != before) {
          log.Relabel(span, "rules", "rules.notify");
        }
      }
      locked_keys += db->nested_txns()->locked_key_count();
      ++write_ops;
    }
    const std::uint64_t commit_start = NowNs();
    span = log.Begin("core", "core.commit", root_span, op);
    const std::int64_t precommit = log.Begin("rules", "rules.precommit", span, op);
    log.set_ambient(precommit, op);
    probe.last_deferred_exit.store(0, std::memory_order_relaxed);
    if (ok) {
      ok = db->Commit(*txn).ok();
    } else {
      (void)db->Abort(*txn);
    }
    const std::uint64_t commit_end = NowNs();
    log.End(span, commit_end);
    if (commit_ns != nullptr) {
      commit_ns->push_back(static_cast<double>(commit_end - commit_start));
    }
    const std::uint64_t deferred_exit = probe.last_deferred_exit.load();
    if (deferred_exit != 0) log.End(precommit, deferred_exit);
    log.End(root_span);
    const std::uint64_t ns = NowNs() - t0;
    if (!ok) {
      ++result.failed;
    } else if (write) {
      for (int part : written) {
        const auto p = static_cast<std::size_t>(part);
        ++part_version[p];
        ++probe.composite_changes[static_cast<std::size_t>(probe.part_parent[p])];
      }
    }
    return ns;
  };

  const std::uint64_t failed_before = db->scheduler()->failed_count();
  bool is_write = false;
  auto sample = [&] {
    const std::uint64_t ns = one_op(&is_write);
    return OpSample{ns, !is_write, is_write};
  };
  RunClosedLoop(kWarmupSeconds, sample, nullptr);

  const StoreCounters c0 = ReadCounters(db, wal_path);
  const std::uint64_t writes0 = write_ops, locked0 = locked_keys;
  if (!options.trace) {
    RunClosedLoop(seconds, sample, sliced);
  } else {
    std::uint64_t ops = 0;
    Options traced = options;
    traced.seconds = options.seconds * (1 - kSyncCommitShare);
    const std::vector<Span> all = TraceActiveDatabase(
        db, traced, 100, [&] { return one_op(&is_write); }, &log,
        probe.off_thread,
        {"core", "detector", "rules", "txn", "oodb", "storage"}, &result, &ops);
    const StoreCounters c1 = ReadCounters(db, wal_path);
    // The same ops with kSync commits, each waiting for its WAL barrier.
    std::vector<double> sync_commits;
    db->set_commit_durability(CommitDurability::kSync);
    commit_ns = &sync_commits;
    const std::uint64_t sync_deadline =
        NowNs() + static_cast<std::uint64_t>(options.seconds *
                                             kSyncCommitShare * 1e9);
    while (NowNs() < sync_deadline) one_op(&is_write);
    commit_ns = nullptr;
    db->set_commit_durability(CommitDurability::kAsync);
    AddMedian("storage.sync_commit_us", sync_commits, 1e-3, "us", &result);
    result.Add("storage.fsyncs_per_op",
               Ratio(ReadCounters(db, wal_path).fsyncs - c1.fsyncs,
                     sync_commits.size()),
               "count");
    result.Add("txn.locked_keys_per_op",
               Ratio(locked_keys - locked0, write_ops - writes0), "count");
    AddMedian("oodb.cache_get_ns", Durations(all, "oodb.cache_get"), 1, "ns",
              &result);
    AddMedian("oodb.cache_put_ns", Durations(all, "oodb.cache_put"), 1, "ns",
              &result);
    result.Add("oodb.cache_hit_ratio",
               Ratio(c1.cache_hits - c0.cache_hits,
                     c1.cache_hits - c0.cache_hits + c1.cache_misses -
                         c0.cache_misses),
               "ratio");
    result.Add("oodb.populate_ns_per_object",
               static_cast<double>(inst->populate_ns()) /
                   (kParts + kComposites),
               "ns");
    result.Add("storage.wal_bytes_per_op",
               Ratio(c1.wal_bytes - c0.wal_bytes, ops), "B");
    result.Add("storage.pool_hit_ratio",
               Ratio(c1.pool_hits - c0.pool_hits,
                     c1.pool_hits - c0.pool_hits + c1.pool_misses -
                         c0.pool_misses),
               "ratio");
    result.Add("storage.lock_waits",
               static_cast<double>(c1.lock_waits - c0.lock_waits), "count");
  }

  // Correctness, outside the timed region.
  db->scheduler()->Drain();
  const std::uint64_t rule_failures =
      db->scheduler()->failed_count() - failed_before + probe.rule_errors.load();
  if (rule_failures != 0) {
    result.failed += rule_failures;
    result.Problem("oo7_store: " + std::to_string(rule_failures) +
                   " rule executions failed");
  }
  if (probe.violations.load() != 0) {
    result.Problem("oo7_store: pre-commit invariant violated " +
                   std::to_string(probe.violations.load()) + " times");
  }
  if (reads_wrong != 0) {
    result.Problem("oo7_store: " + std::to_string(reads_wrong) +
                   " reads returned a stale version");
  }
  inst.reset();  // closes the database; the log converges first
  *expect = StoreExpectation{prefix, std::move(probe.part_oid),
                             std::move(probe.composite_oid),
                             std::move(part_version),
                             std::move(probe.composite_changes)};
  return true;
}

/// Reopens an episode's database and reads back every acknowledged update.
void CheckReopen(const Options& options, const StoreExpectation& expect,
                 Result* result) {
  ActiveDatabase reopened;
  sentinel::Status st = reopened.Open(expect.prefix);
  auto txn = st.ok() ? reopened.Begin()
                     : sentinel::Result<sentinel::storage::TxnId>(st);
  if (!txn.ok()) {
    result->Problem("oo7_store: reopen failed: " + txn.status().ToString());
    return;
  }
  auto* objects = reopened.database()->objects();
  std::uint64_t lost = 0;
  for (int p = 0; p < kParts; ++p) {
    const auto i = static_cast<std::size_t>(p);
    auto obj = objects->Get(*txn, expect.part_oid[i]);
    auto val = obj.ok() ? obj->Get("val") : obj.status();
    if (!val.ok() ||
        val->AsString() != PartValue(options.seed, p, expect.part_version[i])) {
      ++lost;
    }
  }
  for (int c = 0; c < kComposites; ++c) {
    const auto i = static_cast<std::size_t>(c);
    auto obj = objects->Get(*txn, expect.composite_oid[i]);
    auto changes = obj.ok() ? obj->Get("changes") : obj.status();
    if (!changes.ok() || changes->AsInt() != expect.composite_changes[i]) {
      ++lost;
    }
  }
  (void)reopened.Commit(*txn);
  if (lost != 0) {
    result->failed += lost;
    result->Problem("oo7_store: " + std::to_string(lost) +
                    " acknowledged objects differ after reopen");
  }
  (void)reopened.Close();
}

}  // namespace

Result RunOo7Store(const Options& options) {
  Result result;
  SlicedLoop loop;
  SpanLog log(options.trace ? 1'000'000 : 0);
  Rng gen(options.seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<int> part_parent(kParts);
  for (int& parent : part_parent) {
    parent = static_cast<int>(gen.Below(kComposites));
  }
  const std::filesystem::path root =
      std::filesystem::path(options.work_dir) /
      ("perfbench_oo7_store_" + std::to_string(getpid()));
  std::vector<StoreExpectation> expected;
  for (int episode = 0; episode < Episodes(options); ++episode) {
    StoreExpectation expect;
    if (!StoreEpisode(options, root / ("episode" + std::to_string(episode)),
                      part_parent, options.seconds / Episodes(options), &gen,
                      &log, &loop, &result, &expect)) {
      break;
    }
    expected.push_back(std::move(expect));
  }
  // Recovery reads a whole log into memory, so the reopens come after the
  // end-to-end metrics: peak_rss_mb covers set-up and the measured loops.
  if (!options.trace) loop.AddEndToEnd(&result);
  for (const StoreExpectation& expect : expected) {
    CheckReopen(options, expect, &result);
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return result;
}

}  // namespace perfbench
