// oo7_rules: the BEAST rule-execution workload over the OO7 schema, in
// memory. Each op is one top-level transaction of AtomicPart change/connect
// events and a CompositePart rotate against a rule base of ~20k idle rules
// and a few hot ones, so the cost sits in detector dispatch, operator Emit,
// the scheduler hand-off and subtransaction begin/commit, not in storage.

#include "oo7_rules.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "common/pool.h"
#include "core/active_database.h"
#include "preproc/compiler.h"

namespace perfbench::oo7 {

using sentinel::core::ActiveDatabase;
using sentinel::detector::EventModifier;
using sentinel::detector::ParamList;
using sentinel::rules::RuleContext;

Txn GenerateTxn(Rng* rng) {
  Txn txn;
  for (int i = 0; i < kPartEventsPerTxn; ++i) {
    Event& e = txn.events[static_cast<std::size_t>(i)];
    e.kind = rng->Uniform() < 0.6 ? EventKind::kChange : EventKind::kConnect;
    e.part = static_cast<std::uint32_t>(rng->Skewed(kAtomicParts));
  }
  Event& rotate = txn.events[kPartEventsPerTxn];
  rotate.kind = EventKind::kRotate;
  rotate.part = txn.events[0].part / kPartsPerComposite;
  return txn;
}

void Expect(const Txn& txn, Firings* f) {
  std::uint64_t pending_connects = 0;  // CHRONICLE initiators of the SEQ
  bool any_change = false;
  bool change_since_connect = false;   // NOT: a change no connect followed
  bool history_open = false;           // A*: a connect opened the window
  bool history_accumulated = false;
  for (const Event& e : txn.events) {
    switch (e.kind) {
      case EventKind::kConnect:
        ++pending_connects;
        change_since_connect = false;
        history_open = true;
        break;
      case EventKind::kChange:
        f->hot += kHotRules;
        if (pending_connects > 0) {
          --pending_connects;
          ++f->seq;
        }
        any_change = true;
        change_since_connect = true;
        if (history_open) history_accumulated = true;
        break;
      case EventKind::kRotate:
        if (any_change) ++f->conj;
        if (change_since_connect) ++f->negation;
        if (history_accumulated) ++f->history;
        f->cascade += kCascadeDepth;
        ++f->leaf;
        break;
    }
  }
  if (any_change) ++f->deferred;
}

void CheckFirings(const Firings& expected, const Firings& observed,
                  Result* result) {
  const struct {
    const char* name;
    std::uint64_t want, got;
  } rows[] = {
      {"hot", expected.hot, observed.hot},
      {"seq", expected.seq, observed.seq},
      {"conj", expected.conj, observed.conj},
      {"negation", expected.negation, observed.negation},
      {"history", expected.history, observed.history},
      {"deferred", expected.deferred, observed.deferred},
      {"cascade", expected.cascade, observed.cascade},
      {"leaf", expected.leaf, observed.leaf},
  };
  for (const auto& row : rows) {
    if (row.want != row.got) {
      result->Problem(std::string("oo7_rules: ") + row.name + " firings " +
                      std::to_string(row.got) + ", expected " +
                      std::to_string(row.want));
    }
  }
}

std::string GenerateSpec(std::uint64_t seed) {
  Rng rng(seed ^ 0x5bec5bec5bec5becULL);
  std::ostringstream s;
  s << "event ap_change = end(\"AtomicPart\", \"void change(int v)\");\n"
    << "event ap_connect = end(\"AtomicPart\", \"void connect(int v)\");\n"
    << "event cp_rotate = end(\"CompositePart\", \"void rotate(int v)\");\n"
    << "event doc_update = end(\"Document\", \"void update_text(int v)\");\n"
    << "event seq_cc = ap_connect then ap_change;\n"
    << "event and_cr = ap_change ^ cp_rotate;\n"
    << "event not_cr = NOT(ap_connect)[ap_change, cp_rotate];\n"
    << "event hist = A*(ap_connect, ap_change, cp_rotate);\n";
  // Hot rules at distinct and shared priorities: the top and bottom ones
  // run alone, the middle pair shares a class (concurrent under the default
  // scheduling policy).
  const int base = 10 + static_cast<int>(rng.Below(10));
  const int priorities[kHotRules] = {base + 20, base + 10, base + 10, base};
  for (int i = 0; i < kHotRules; ++i) {
    s << "rule hot" << i << "(ap_change, c_rule, a_hot, RECENT, IMMEDIATE, "
      << priorities[i] << ");\n";
  }
  s << "rule seq_rule(seq_cc, c_rule, a_seq, CHRONICLE, IMMEDIATE, 5);\n"
    << "rule and_rule(and_cr, c_rule, a_conj, RECENT, IMMEDIATE, 5);\n"
    << "rule not_rule(not_cr, c_rule, a_negation, RECENT, IMMEDIATE, 4);\n"
    << "rule hist_rule(hist, c_rule, a_history, CUMULATIVE, IMMEDIATE, 3);\n"
    << "rule audit(ap_change, c_rule, a_deferred, RECENT, DEFERRED, 1);\n";
  // Cascade: rotate -> casc1 -> ... -> casc<depth-1>, one rule per level.
  s << "rule casc0(cp_rotate, c_rule, a_casc0, RECENT, IMMEDIATE, 2);\n";
  for (int level = 1; level < kCascadeDepth; ++level) {
    s << "rule casc" << level << "(casc" << level << ", c_rule, a_casc"
      << level << ", RECENT, IMMEDIATE, 2);\n";
  }
  for (int i = 0; i < kIdleRules; ++i) {
    s << "rule idle" << i << "(doc_update, true, noop, RECENT, IMMEDIATE, "
      << rng.Below(50) << ");\n";
  }
  return s.str();
}

namespace {

/// Firing counters and trace stamps shared by the registered condition and
/// action functions (which run on scheduler threads).
struct RuleProbe {
  std::atomic<std::uint64_t> hot{0}, seq{0}, conj{0}, negation{0},
      history{0}, deferred{0}, cascade{0}, leaf{0};
  /// Condition entries: tells the load thread whether a notify fired rules.
  std::atomic<std::uint64_t> conditions{0};
  std::atomic<std::uint64_t> off_thread{0};
  std::atomic<std::uint64_t> last_deferred_exit{0};
  std::thread::id load_thread;
  SpanLog* log = nullptr;

  Firings Snapshot() const {
    return Firings{hot.load(),     seq.load(),      conj.load(),
                   negation.load(), history.load(), deferred.load(),
                   cascade.load(),  leaf.load()};
  }
};

/// One installed rule base. Each episode builds a fresh one.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { (void)db_.Close(); }

  sentinel::Status Setup(const std::string& spec, RuleProbe* probe) {
    SENTINEL_RETURN_NOT_OK(db_.OpenInMemory());
    auto* det = db_.detector();
    for (int level = 1; level < kCascadeDepth; ++level) {
      SENTINEL_RETURN_NOT_OK(
          det->DefineExplicit("casc" + std::to_string(level)).status());
    }
    registry_.RegisterCondition("c_rule", [probe](const RuleContext&) {
      probe->conditions.fetch_add(1, std::memory_order_relaxed);
      RecordCondition(probe->log, probe->load_thread, &probe->off_thread);
      return true;
    });
    auto counting = [probe](std::atomic<std::uint64_t>* counter) {
      return [probe, counter](const RuleContext&) {
        SpanLog* log = probe->log;
        const std::int64_t id = log->Begin(
            "rules", "rules.action", log->ambient_parent(), log->ambient_op());
        counter->fetch_add(1, std::memory_order_relaxed);
        log->End(id);
      };
    };
    registry_.RegisterAction("a_hot", counting(&probe->hot));
    registry_.RegisterAction("a_seq", counting(&probe->seq));
    registry_.RegisterAction("a_conj", counting(&probe->conj));
    registry_.RegisterAction("a_negation", counting(&probe->negation));
    registry_.RegisterAction("a_history", counting(&probe->history));
    registry_.RegisterAction("a_deferred", [probe](const RuleContext&) {
      SpanLog* log = probe->log;
      const std::int64_t id = log->Begin(
          "rules", "rules.action", log->ambient_parent(), log->ambient_op());
      probe->deferred.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t now = NowNs();
      log->End(id, now);
      probe->last_deferred_exit.store(now, std::memory_order_relaxed);
    });
    for (int level = 0; level < kCascadeDepth; ++level) {
      const bool leaf = level + 1 == kCascadeDepth;
      const std::string next = "casc" + std::to_string(level + 1);
      registry_.RegisterAction(
          "a_casc" + std::to_string(level),
          [probe, det, leaf, next](const RuleContext& ctx) {
            SpanLog* log = probe->log;
            const std::int64_t id =
                log->Begin("rules", "rules.action", log->ambient_parent(),
                           log->ambient_op());
            probe->cascade.fetch_add(1, std::memory_order_relaxed);
            if (leaf) {
              probe->leaf.fetch_add(1, std::memory_order_relaxed);
            } else {
              (void)det->RaiseExplicit(next, nullptr, ctx.txn);
            }
            log->End(id);
          });
    }
    const std::uint64_t t0 = NowNs();
    sentinel::preproc::SpecCompiler compiler(&db_, &registry_);
    SENTINEL_RETURN_NOT_OK(compiler.LoadString(spec));
    load_ns_ = NowNs() - t0;
    return sentinel::Status::OK();
  }

  ActiveDatabase* db() { return &db_; }
  std::uint64_t load_ns() const { return load_ns_; }

 private:
  sentinel::preproc::FunctionRegistry registry_;
  ActiveDatabase db_;
  std::uint64_t load_ns_ = 0;
};

const char* kClass[] = {"AtomicPart", "AtomicPart", "CompositePart"};
const char* kMethod[] = {"void change(int v)", "void connect(int v)",
                         "void rotate(int v)"};

/// Runs one generated transaction; returns its latency in ns. With the
/// span log enabled it records the op's spans.
class TxnRunner {
 public:
  TxnRunner(ActiveDatabase* db, RuleProbe* probe) : db_(db), probe_(probe) {}

  std::uint64_t Run(const Txn& txn, std::uint64_t op, bool* ok) {
    SpanLog* log = probe_->log;
    const std::uint64_t t0 = NowNs();
    const std::int64_t root = log->Begin("op", "op", -1, op);
    std::int64_t span = log->Begin("core", "core.begin", root, op);
    auto id = db_->Begin();
    log->End(span);
    if (!id.ok()) {
      *ok = false;
      log->End(root);
      return NowNs() - t0;
    }
    for (const Event& e : txn.events) {
      auto params = sentinel::common::MakePooled<ParamList>();
      params->Insert("v", sentinel::oodb::Value::Int(e.part));
      const auto k = static_cast<int>(e.kind);
      const std::uint64_t before =
          probe_->conditions.load(std::memory_order_relaxed);
      span = log->Begin("detector", "detector.notify", root, op);
      log->set_ambient(span, op);
      db_->NotifyMethod(kClass[k], e.part + 1, EventModifier::kEnd, kMethod[k],
                        std::move(params), *id);
      log->End(span);
      if (probe_->conditions.load(std::memory_order_relaxed) != before) {
        log->Relabel(span, "rules", "rules.notify");
      }
    }
    span = log->Begin("core", "core.commit", root, op);
    const std::int64_t precommit =
        log->Begin("rules", "rules.precommit", span, op);
    log->set_ambient(precommit, op);
    probe_->last_deferred_exit.store(0, std::memory_order_relaxed);
    *ok = db_->Commit(*id).ok();
    log->End(span);
    const std::uint64_t deferred_exit =
        probe_->last_deferred_exit.load(std::memory_order_relaxed);
    if (deferred_exit != 0) log->End(precommit, deferred_exit);
    log->End(root);
    return NowNs() - t0;
  }

 private:
  ActiveDatabase* db_;
  RuleProbe* probe_;
};

}  // namespace

}  // namespace perfbench::oo7

namespace perfbench {

Result RunOo7Rules(const Options& options) {
  using namespace oo7;
  Result result;
  SlicedLoop loop;
  SpanLog log(options.trace ? 1'000'000 : 0);
  const std::string spec = GenerateSpec(options.seed);
  Rng gen(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t op = 0;
  for (int episode = 0; episode < Episodes(options); ++episode) {
    RuleProbe probe;
    probe.load_thread = std::this_thread::get_id();
    probe.log = &log;
    Instance inst;  // after the probe its rule functions point at
    const std::uint64_t t0 = NowNs();
    const sentinel::Status st = inst.Setup(spec, &probe);
    const std::uint64_t t1 = NowNs();
    if (!st.ok()) {
      result.Problem("oo7_rules set-up failed: " + st.ToString());
      return result;
    }
    loop.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    ActiveDatabase* db = inst.db();
    TxnRunner runner(db, &probe);
    Firings expected;
    auto one_op = [&]() -> std::uint64_t {
      const Txn txn = GenerateTxn(&gen);
      bool ok = false;
      const std::uint64_t ns = runner.Run(txn, ++op, &ok);
      ++result.attempted;
      if (ok) {
        Expect(txn, &expected);
      } else {
        ++result.failed;
      }
      return ns;
    };
    auto sample = [&] { return OpSample{one_op(), true, true}; };

    const std::uint64_t failed_before = db->scheduler()->failed_count();
    RunClosedLoop(kWarmupSeconds, sample, nullptr);
    if (!options.trace) {
      RunClosedLoop(options.seconds / Episodes(options), sample, &loop);
    } else {
      std::uint64_t ops = 0;
      TraceActiveDatabase(db, options, 200, one_op, &log, probe.off_thread,
                          {"core", "detector", "rules"}, &result, &ops);
      result.Add("preproc.load_ns_per_rule",
                 static_cast<double>(inst.load_ns()) /
                     static_cast<double>(db->rule_manager()->rule_count()),
                 "ns");
    }

    // Correctness: every firing the generated stream implies, no failures.
    db->scheduler()->Drain();
    CheckFirings(expected, probe.Snapshot(), &result);
    const std::uint64_t rule_failures =
        db->scheduler()->failed_count() - failed_before;
    if (rule_failures != 0) {
      result.failed += rule_failures;
      result.Problem("oo7_rules: " + std::to_string(rule_failures) +
                     " rule executions failed");
    }
  }
  if (!options.trace) loop.AddEndToEnd(&result);
  return result;
}

}  // namespace perfbench
