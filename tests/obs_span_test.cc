// Causal span tracer tests: mode gating (off / flight-only / full), the one
// per-thread ring set both modes record into, span tree integrity across the
// detector → scheduler → nested-txn pipeline, Chrome trace export shape, and
// postmortem JSON structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/active_database.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace sentinel {
namespace {

using core::ActiveDatabase;
using detector::EventModifier;
using obs::Span;
using obs::SpanKind;
using obs::TraceMode;

/// Structural JSON check: braces/brackets balance outside of strings and the
/// document is one value. Enough to catch truncated or mis-comma'd output
/// without pulling in a JSON library.
bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

/// Declares submit/confirm primitives, SEQ(submit; confirm), and an
/// immediate rule (with a condition so condition spans appear) on `db`.
void InstallPipeline(ActiveDatabase* db) {
  auto submit = db->DeclareEvent("ev_submit", "Order", EventModifier::kEnd,
                                 "void submit()");
  auto confirm = db->DeclareEvent("ev_confirm", "Order", EventModifier::kEnd,
                                  "void confirm()");
  ASSERT_TRUE(submit.ok());
  ASSERT_TRUE(confirm.ok());
  ASSERT_TRUE(db->detector()->DefineSeq("ev_seq", *submit, *confirm).ok());
  ASSERT_TRUE(db->rule_manager()
                  ->DefineRule(
                      "seq_rule", "ev_seq",
                      [](const rules::RuleContext&) { return true; },
                      [](const rules::RuleContext&) {},
                      rules::RuleManager::RuleOptions{})
                  .ok());
}

/// One folded-stack line ("txn;subtxn:A;action:A 12"): its frames, root
/// first, and its weight.
struct FoldedLine {
  std::vector<std::string> frames;
  std::uint64_t ns = 0;
};

FoldedLine ParseFoldedLine(const std::string& line) {
  FoldedLine out;
  const std::size_t space = line.rfind(' ');
  if (space == std::string::npos) return out;
  std::istringstream stack(line.substr(0, space));
  for (std::string frame; std::getline(stack, frame, ';');) {
    out.frames.push_back(frame);
  }
  out.ns = std::stoull(line.substr(space + 1));
  return out;
}

void RunPipelineTxn(ActiveDatabase* db, storage::TxnId* txn_out) {
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  db->NotifyMethod("Order", 1, EventModifier::kEnd, "void submit()", nullptr,
                   *txn);
  db->NotifyMethod("Order", 1, EventModifier::kEnd, "void confirm()", nullptr,
                   *txn);
  ASSERT_TRUE(db->Commit(*txn).ok());
  *txn_out = *txn;
}

TEST(ObsSpanTest, TracerOffRecordsNothing) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kOff);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);
  EXPECT_EQ(db.span_tracer()->recorded(), 0u);
  EXPECT_TRUE(db.span_tracer()->Snapshot().empty());
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, FlightModeSkipsHotKindsButKeepsLastSpans) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  // kFlightOnly is the default mode.
  EXPECT_EQ(db.span_tracer()->mode(), TraceMode::kFlightOnly);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);
  // The rings kept spans (txn, subtxn, condition/action)...
  EXPECT_GT(db.span_tracer()->recorded(), 0u);
  const std::vector<Span> spans = db.span_tracer()->Snapshot();
  EXPECT_FALSE(spans.empty());
  // ...but never the per-event hot kinds, and every parent link names a
  // span the rings (or the open-txn table) kept: a record the rings skip
  // takes no span id, so nothing parents under it.
  ASSERT_LT(spans.size(), obs::SpanTracer::kFlightRingCapacity);
  std::set<std::uint64_t> ids;
  for (const Span& span : spans) ids.insert(span.id);
  for (const Span& span : db.span_tracer()->OpenTxnSpans()) {
    ids.insert(span.id);
  }
  for (const Span& span : spans) {
    EXPECT_NE(span.kind, SpanKind::kNotify);
    EXPECT_NE(span.kind, SpanKind::kCompositeDetect);
    if (span.parent != 0) {
      EXPECT_EQ(ids.count(span.parent), 1u)
          << obs::SpanKindToString(span.kind) << " span " << span.id
          << " has unrecorded parent " << span.parent;
    }
  }
  ASSERT_TRUE(db.Close().ok());
}

// Flight mode records into the same rings every view reads, so the
// transaction tree and the Chrome export show the rule's spans without
// switching to full mode.
TEST(ObsSpanTest, FlightModeFeedsTxnTreeAndChromeTrace) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_EQ(db.span_tracer()->mode(), TraceMode::kFlightOnly);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);

  const std::string tree = db.span_tracer()->TxnTreeText(txn);
  EXPECT_EQ(tree.rfind("txn txn " + std::to_string(txn) + "\n", 0), 0u)
      << tree;
  EXPECT_NE(tree.find("subtxn seq_rule commit\n"), std::string::npos) << tree;
  EXPECT_NE(tree.find("condition seq_rule.condition\n"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("action seq_rule.action\n"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("notify"), std::string::npos) << tree;

  const std::string json = db.span_tracer()->ChromeTraceJson();
  EXPECT_TRUE(JsonBalanced(json));
  for (const char* cat : {"txn", "subtxn", "condition", "action"}) {
    EXPECT_NE(json.find(std::string("\"cat\":\"") + cat + "\""),
              std::string::npos)
        << cat;
  }
  EXPECT_NE(json.find("\"name\":\"seq_rule.action\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"notify\""), std::string::npos);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, SpanTreeIntegrityFullTrace) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);

  std::vector<Span> spans = db.span_tracer()->Snapshot();
  std::map<std::uint64_t, Span> by_id;
  for (const Span& span : spans) by_id[span.id] = span;

  // The acceptance chain: subtxn → composite_detect → notify → txn.
  const Span* seq_subtxn = nullptr;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kSubTxn && span.label == "seq_rule" &&
        span.txn == txn) {
      seq_subtxn = &by_id[span.id];
    }
  }
  ASSERT_NE(seq_subtxn, nullptr) << "no subtxn span for seq_rule";
  ASSERT_TRUE(by_id.count(seq_subtxn->parent)) << "dangling subtxn parent";
  const Span& detect = by_id[seq_subtxn->parent];
  EXPECT_EQ(detect.kind, SpanKind::kCompositeDetect);
  EXPECT_EQ(detect.label, "ev_seq");
  ASSERT_TRUE(by_id.count(detect.parent)) << "dangling detect parent";
  const Span& notify = by_id[detect.parent];
  EXPECT_EQ(notify.kind, SpanKind::kNotify);
  ASSERT_TRUE(by_id.count(notify.parent)) << "dangling notify parent";
  const Span& txn_span = by_id[notify.parent];
  EXPECT_EQ(txn_span.kind, SpanKind::kTxn);
  EXPECT_EQ(txn_span.txn, txn);

  // Condition and action spans hang off the subtxn span.
  bool saw_condition = false, saw_action = false;
  for (const Span& span : spans) {
    if (span.parent != seq_subtxn->id) continue;
    saw_condition |= span.kind == SpanKind::kCondition;
    saw_action |= span.kind == SpanKind::kAction;
  }
  EXPECT_TRUE(saw_condition);
  EXPECT_TRUE(saw_action);

  // Tree invariants: every non-txn span of this transaction has a live
  // parent, and no parent edge crosses a transaction boundary.
  for (const Span& span : spans) {
    if (span.txn != txn || span.kind == SpanKind::kTxn) continue;
    EXPECT_NE(span.parent, 0u) << "rootless " << obs::SpanKindToString(span.kind)
                               << " span '" << span.label << "'";
    auto parent = by_id.find(span.parent);
    if (parent != by_id.end() &&
        parent->second.txn != storage::kInvalidTxnId) {
      EXPECT_EQ(parent->second.txn, span.txn)
          << "span '" << span.label << "' parented across transactions";
    }
  }
  ASSERT_TRUE(db.Close().ok());
}

// Provenance is a view of the span tree: one transaction fires a composite
// AND rule, a rule whose condition is false, and a rule whose action throws.
// The tree links each firing to the detection that caused it, the subtxn
// spans carry how each subtransaction ended, and the `trace txn` rendering
// prints the same tree.
TEST(ObsSpanTest, ProvenanceViewOfThreeRules) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  auto a = db.DeclareEvent("ev_a", "Order", EventModifier::kEnd, "void a()");
  auto b = db.DeclareEvent("ev_b", "Order", EventModifier::kEnd, "void b()");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(db.detector()->DefineAnd("ev_and", *a, *b).ok());
  auto* rules = db.rule_manager();
  ASSERT_TRUE(rules
                  ->DefineRule(
                      "and_rule", "ev_and",
                      [](const rules::RuleContext&) { return true; },
                      [](const rules::RuleContext&) {})
                  .ok());
  ASSERT_TRUE(rules
                  ->DefineRule(
                      "false_rule", "ev_a",
                      [](const rules::RuleContext&) { return false; },
                      [](const rules::RuleContext&) {})
                  .ok());
  ASSERT_TRUE(rules
                  ->DefineRule("throw_rule", "ev_b", nullptr,
                               [](const rules::RuleContext&) {
                                 throw std::runtime_error("action failed");
                               })
                  .ok());

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  db.NotifyMethod("Order", 1, EventModifier::kEnd, "void a()", nullptr, *txn);
  db.NotifyMethod("Order", 1, EventModifier::kEnd, "void b()", nullptr, *txn);
  ASSERT_TRUE(db.Commit(*txn).ok());

  const std::vector<Span> spans = db.span_tracer()->Snapshot();
  std::map<std::uint64_t, Span> by_id;
  for (const Span& span : spans) by_id[span.id] = span;
  std::map<std::string, Span> subtxn;  // by rule name; skips system rules
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kSubTxn && span.txn == *txn &&
        span.label.rfind("__sys", 0) != 0) {
      subtxn[span.label] = span;
    }
  }
  ASSERT_EQ(subtxn.size(), 3u);
  ASSERT_EQ(subtxn.count("and_rule"), 1u);
  ASSERT_EQ(subtxn.count("false_rule"), 1u);
  ASSERT_EQ(subtxn.count("throw_rule"), 1u);

  // notify → composite_detect → subtxn for the composite rule.
  ASSERT_TRUE(by_id.count(subtxn["and_rule"].parent));
  const Span& detect = by_id[subtxn["and_rule"].parent];
  EXPECT_EQ(detect.kind, SpanKind::kCompositeDetect);
  EXPECT_EQ(detect.label, "ev_and");
  ASSERT_TRUE(by_id.count(detect.parent));
  const Span& notify = by_id[detect.parent];
  EXPECT_EQ(notify.kind, SpanKind::kNotify);
  ASSERT_TRUE(by_id.count(notify.parent));
  EXPECT_EQ(by_id[notify.parent].kind, SpanKind::kTxn);
  // The primitive rules hang directly under their notify spans.
  EXPECT_EQ(by_id[subtxn["false_rule"].parent].kind, SpanKind::kNotify);
  EXPECT_EQ(by_id[subtxn["throw_rule"].parent].kind, SpanKind::kNotify);

  // Outcomes: a false condition still commits; a throwing action aborts.
  int commits = 0;
  int aborts = 0;
  for (const auto& [name, span] : subtxn) {
    (void)name;
    commits += span.outcome == obs::SpanOutcome::kCommit;
    aborts += span.outcome == obs::SpanOutcome::kAbort;
  }
  EXPECT_EQ(commits, 2);
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(subtxn["throw_rule"].outcome, obs::SpanOutcome::kAbort);

  // Condition/action children: the false-condition rule never acts.
  auto child_kinds = [&](const Span& parent) {
    std::vector<SpanKind> kinds;
    for (const Span& span : spans) {
      if (span.parent == parent.id) kinds.push_back(span.kind);
    }
    return kinds;
  };
  EXPECT_EQ(child_kinds(subtxn["and_rule"]),
            (std::vector<SpanKind>{SpanKind::kCondition, SpanKind::kAction}));
  EXPECT_EQ(child_kinds(subtxn["false_rule"]),
            std::vector<SpanKind>{SpanKind::kCondition});
  EXPECT_EQ(child_kinds(subtxn["throw_rule"]),
            std::vector<SpanKind>{SpanKind::kAction});

  const std::string json = db.span_tracer()->ChromeTraceJson();
  EXPECT_NE(json.find("\"outcome\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"abort\""), std::string::npos);

  // The `trace txn` rendering: every span of the tree on its own line,
  // indented two spaces per level below the txn span.
  const std::string tree = "\n" + db.span_tracer()->TxnTreeText(*txn);
  for (const Span& span : spans) {
    int depth = 0;
    std::uint64_t up = span.parent;
    bool in_txn = span.kind == SpanKind::kTxn && span.txn == *txn;
    for (; up != 0 && by_id.count(up); up = by_id[up].parent) {
      ++depth;
      if (by_id[up].kind == SpanKind::kTxn && by_id[up].txn == *txn) {
        in_txn = true;
      }
    }
    if (!in_txn) continue;
    std::string line = "\n" + std::string(2 * depth, ' ') +
                       obs::SpanKindToString(span.kind) + " " + span.label;
    if (span.kind == SpanKind::kSubTxn) {
      line += std::string(" ") + obs::SpanOutcomeToString(span.outcome);
    }
    EXPECT_NE(tree.find(line + "\n"), std::string::npos)
        << "missing '" << line.substr(1) << "' in\n" << tree;
  }
  EXPECT_NE(tree.find("\n      subtxn and_rule commit\n"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\n    subtxn throw_rule abort\n"), std::string::npos)
      << tree;
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, SecondTransactionDoesNotInheritFirst) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  InstallPipeline(&db);
  storage::TxnId t1, t2;
  RunPipelineTxn(&db, &t1);
  RunPipelineTxn(&db, &t2);
  ASSERT_NE(t1, t2);

  std::map<std::uint64_t, Span> by_id;
  for (const Span& span : db.span_tracer()->Snapshot()) by_id[span.id] = span;
  for (const auto& [id, span] : by_id) {
    (void)id;
    auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    if (span.txn == storage::kInvalidTxnId ||
        parent->second.txn == storage::kInvalidTxnId) {
      continue;
    }
    EXPECT_EQ(parent->second.txn, span.txn);
  }
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, ExportChromeTraceWellFormed) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sentinel_span_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  ASSERT_TRUE(db.ExportTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::filesystem::remove(path);

  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
  EXPECT_NE(json.find("\"pid\":" + std::to_string(txn)), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"composite_detect\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"subtxn\""), std::string::npos);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, PostmortemJsonStructure) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);

  // With a transaction open, the postmortem lists it as active.
  auto open = db.Begin();
  ASSERT_TRUE(open.ok());
  const std::string json = db.PostmortemJson("test_reason", *open);
  ASSERT_TRUE(db.Abort(*open).ok());

  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"reason\":\"test_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"victim_txn\":" + std::to_string(*open)),
            std::string::npos);
  EXPECT_NE(json.find("\"active_txns\""), std::string::npos);
  EXPECT_NE(json.find("\"txn\":" + std::to_string(*open)), std::string::npos);
  EXPECT_NE(json.find("\"subtxns\""), std::string::npos);
  EXPECT_NE(json.find("\"failpoints\""), std::string::npos);
  EXPECT_NE(json.find("\"last_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, ExpositionCarriesSpanTraceInfo) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);
  const std::string text = db.PrometheusText();
  EXPECT_NE(text.find("\nsentinel_span_trace_info{mode=\"flight\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nsentinel_spans_recorded_total "), std::string::npos);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, ExpositionCarriesStorageFamiliesWhenPersistent) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sentinel_span_stats_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.Open(dir + "/db").ok());
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db.database()->classes()->Register(oodb::ClassDef("Order", ""))
                    .ok());
    ASSERT_TRUE(db.CreateObject(*txn, "Order", "o1").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
    const std::string text = db.PrometheusText();
    EXPECT_NE(text.find("# TYPE sentinel_buffer_pool_hits_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sentinel_wal_syncs_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sentinel_lock_waits_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sentinel_wal_fsync_ns histogram"),
              std::string::npos);
    // The commit's durability barrier was timed.
    EXPECT_EQ(text.find("\nsentinel_wal_fsync_ns_count 0\n"),
              std::string::npos);
    ASSERT_TRUE(db.Close().ok());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Net wire kinds fire once per frame, so flight-recorder mode must skip
// them the same way it skips notify/composite_detect; kFull records them.
TEST(ObsSpanTest, NetSpanKindsGatedByMode) {
  obs::SpanTracer tracer;
  const SpanKind net_kinds[] = {
      SpanKind::kNetFrameEncode, SpanKind::kNetFrameDecode,
      SpanKind::kNetAdmissionWait, SpanKind::kNetOutboundWait,
      SpanKind::kNetWrite};
  tracer.set_mode(TraceMode::kFlightOnly);
  for (SpanKind kind : net_kinds) {
    EXPECT_FALSE(tracer.enabled_for(kind)) << obs::SpanKindToString(kind);
  }
  EXPECT_TRUE(tracer.enabled_for(SpanKind::kSubTxn));
  tracer.set_mode(TraceMode::kFull);
  for (SpanKind kind : net_kinds) {
    EXPECT_TRUE(tracer.enabled_for(kind)) << obs::SpanKindToString(kind);
  }
  tracer.set_mode(TraceMode::kOff);
  for (SpanKind kind : net_kinds) {
    EXPECT_FALSE(tracer.enabled_for(kind)) << obs::SpanKindToString(kind);
  }
}

// The cross-process linkage primitives: a scope annotated with a remote
// parent, a timed span recorded with an explicit parent (the queue-wait
// shape), and a child scope resolving its parent from the enclosing scope.
TEST(ObsSpanTest, RemoteAnnotationAndTimedSpanParents) {
  obs::SpanTracer tracer;
  tracer.set_mode(TraceMode::kFull);

  std::uint64_t decode_id = 0;
  std::uint64_t child_id = 0;
  {
    obs::SpanScope decode;
    decode.Start(&tracer, SpanKind::kNetFrameDecode, storage::kInvalidTxnId,
                 "push g_e");
    decode.AnnotateRemote(/*trace=*/0xFEED, /*remote_parent=*/314);
    decode_id = decode.id();
    // A span opened inside the scope parents to it via the scope stack —
    // the push-handler condition/action path.
    obs::SpanScope child;
    child.Start(&tracer, SpanKind::kAction, storage::kInvalidTxnId, "handler");
    child_id = child.id();
    child.End();
    decode.End();
  }
  const std::uint64_t wait_id = tracer.RecordTimedSpan(
      SpanKind::kNetAdmissionWait, /*start_ns=*/100, /*end_ns=*/250,
      storage::kInvalidTxnId, "admission", /*parent=*/decode_id,
      /*trace=*/0xFEED, /*remote_parent=*/0);

  std::map<std::uint64_t, Span> by_id;
  for (const Span& span : tracer.Snapshot()) by_id[span.id] = span;
  ASSERT_TRUE(by_id.count(decode_id));
  ASSERT_TRUE(by_id.count(child_id));
  ASSERT_TRUE(by_id.count(wait_id));
  EXPECT_EQ(by_id[decode_id].trace, 0xFEEDu);
  EXPECT_EQ(by_id[decode_id].remote_parent, 314u);
  EXPECT_EQ(by_id[child_id].parent, decode_id);
  EXPECT_EQ(by_id[wait_id].parent, decode_id);
  EXPECT_EQ(by_id[wait_id].trace, 0xFEEDu);
  EXPECT_EQ(by_id[wait_id].start_ns, 100u);
  EXPECT_EQ(by_id[wait_id].end_ns, 250u);
}

// The export carries the merge metadata and the distributed-trace args the
// merge tool resolves remote parents by.
TEST(ObsSpanTest, ExportMetaStampsOtherData) {
  obs::SpanTracer tracer;
  tracer.set_mode(TraceMode::kFull);
  {
    obs::SpanScope scope;
    scope.Start(&tracer, SpanKind::kNetFrameEncode, storage::kInvalidTxnId,
                "notify Order::f");
    scope.AnnotateRemote(/*trace=*/0xBEEF, /*remote_parent=*/0);
    scope.End();
  }
  obs::SpanTracer::ExportMeta meta;
  meta.process = "client:inventory";
  meta.clock_offset_ns = -12345;
  const std::string json = tracer.ChromeTraceJson(meta);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"process\":\"client:inventory\""), std::string::npos);
  EXPECT_NE(json.find("\"clock_offset_ns\":-12345"), std::string::npos);
  EXPECT_NE(json.find("\"base_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":48879"), std::string::npos);  // 0xBEEF
  EXPECT_NE(json.find("\"cat\":\"net_frame_encode\""), std::string::npos);

  // The meta-less export still carries otherData (offset 0) so merge input
  // shape is uniform.
  const std::string plain = tracer.ChromeTraceJson();
  EXPECT_NE(plain.find("\"clock_offset_ns\":0"), std::string::npos);
}

TEST(ObsSpanTest, FlightRingKeepsLast256PerThread) {
  obs::SpanTracer tracer;
  ASSERT_EQ(tracer.mode(), TraceMode::kFlightOnly);
  auto record = [&tracer](int i) {
    obs::SpanScope scope;
    scope.Start(&tracer, SpanKind::kAction, storage::kInvalidTxnId,
                "op " + std::to_string(i));
  };
  for (int i = 0; i < 300; ++i) record(i);
  std::vector<Span> last = tracer.Snapshot();
  ASSERT_EQ(last.size(), obs::SpanTracer::kFlightRingCapacity);
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i].label, "op " + std::to_string(44 + i));
  }
  EXPECT_EQ(tracer.recorded(), 300u);
  // Flight rings overwrite by design; only full mode counts drops.
  EXPECT_EQ(tracer.dropped(), 0u);

  // Full mode grows the wrapped ring in place and keeps its spans in order.
  tracer.set_mode(TraceMode::kFull);
  record(300);
  last = tracer.Snapshot();
  ASSERT_EQ(last.size(), obs::SpanTracer::kFlightRingCapacity + 1);
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i].label, "op " + std::to_string(44 + i));
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

/// The `label` fields of the postmortem's last_spans array, in order.
std::vector<std::string> LastSpanLabels(const std::string& postmortem) {
  std::vector<std::string> labels;
  const std::size_t begin = postmortem.find("\"last_spans\":[");
  const std::size_t end = postmortem.find("\"scheduler\":", begin);
  const std::string key = "\"label\":\"";
  for (std::size_t at = postmortem.find(key, begin); at < end;
       at = postmortem.find(key, at)) {
    at += key.size();
    labels.push_back(postmortem.substr(at, postmortem.find('"', at) - at));
  }
  return labels;
}

// Each thread's ring keeps its own last 256, so merging the rings yields the
// 256 most recently closed spans process-wide, as one global ring would.
TEST(ObsSpanTest, PostmortemMergesThreadRingsNewestLast) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  constexpr int kSpans = 600;
  std::mutex mu;
  std::condition_variable turn_cv;
  int turn = 0;  // spans are closed strictly in this order, alternating
  auto worker = [&](int parity) {
    for (int i = parity; i < kSpans; i += 2) {
      std::unique_lock<std::mutex> lock(mu);
      turn_cv.wait(lock, [&] { return turn == i; });
      {
        obs::SpanScope scope;
        scope.Start(db.span_tracer(), SpanKind::kAction,
                    storage::kInvalidTxnId, "op " + std::to_string(i));
      }
      ++turn;
      turn_cv.notify_all();
    }
  };
  std::thread even(worker, 0);
  std::thread odd(worker, 1);
  even.join();
  odd.join();

  const std::vector<std::string> labels = LastSpanLabels(
      db.PostmortemJson("interleaved", storage::kInvalidTxnId));
  ASSERT_EQ(labels.size(), obs::SpanTracer::kFlightRingCapacity);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], "op " + std::to_string(kSpans - 256 + i));
  }
  ASSERT_TRUE(db.Close().ok());
}

// Mode switches grow a thread's ring while it records and another thread
// snapshots: no span below the ring's capacity may be lost.
TEST(ObsSpanTest, ModeSwitchesKeepRecordedSpans) {
  obs::SpanTracer tracer;
  constexpr int kPerPhase = 80;
  const TraceMode phases[] = {TraceMode::kFlightOnly, TraceMode::kFull,
                              TraceMode::kFlightOnly};
  std::atomic<int> written{0};
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    for (int phase = 0; phase < 3; ++phase) {
      while (tracer.mode() != phases[phase]) std::this_thread::yield();
      for (int i = 0; i < kPerPhase; ++i) {
        obs::SpanScope scope;
        scope.Start(&tracer, SpanKind::kAction, storage::kInvalidTxnId,
                    "op " + std::to_string(phase * kPerPhase + i));
        scope.End();
        written.fetch_add(1);
      }
    }
    done = true;
  });
  std::thread snapshotter([&] {
    std::size_t seen = 0;
    while (!done) {
      const std::size_t size = tracer.Snapshot().size();
      EXPECT_GE(size, seen);
      seen = size;
    }
  });
  for (int phase = 1; phase < 3; ++phase) {
    while (written.load() < phase * kPerPhase) std::this_thread::yield();
    tracer.set_mode(phases[phase]);
  }
  recorder.join();
  snapshotter.join();

  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(3 * kPerPhase));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].label, "op " + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(3 * kPerPhase));
  EXPECT_EQ(tracer.dropped(), 0u);
}

// The kAbortTop contingency dooms the triggering transaction — and, with
// $SENTINEL_POSTMORTEM_DIR set, automatically drops a postmortem file that
// names the reason and parses as JSON.
TEST(ObsSpanTest, AbortTopContingencyEmitsPostmortem) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sentinel_abort_postmortem_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(::setenv("SENTINEL_POSTMORTEM_DIR", dir.c_str(), 1), 0);

  {
    ActiveDatabase db;
    ActiveDatabase::Options options;
    options.scheduler.contingency = rules::ContingencyPolicy::kAbortTop;
    ASSERT_TRUE(db.OpenInMemory(options).ok());
    auto boom = db.detector()->DefineExplicit("boom");
    ASSERT_TRUE(boom.ok());
    ASSERT_TRUE(db.rule_manager()
                    ->DefineRule("exploding_rule", "boom", nullptr,
                                 [](const rules::RuleContext&) {
                                   throw std::runtime_error("rule failure");
                                 })
                    .ok());
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    // NotifyMethod drains immediate firings, so the contingency (and the
    // postmortem dump) happens inside this call.
    ASSERT_TRUE(db.RaiseEvent("boom", nullptr, *txn).ok());
    EXPECT_GT(db.scheduler()->abort_top_count(), 0u);
    EXPECT_GT(db.flight_recorder()->dumps(), 0u);
    ASSERT_TRUE(db.Close().ok());
  }
  ASSERT_EQ(::unsetenv("SENTINEL_POSTMORTEM_DIR"), 0);

  std::string postmortem;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str().find("\"reason\":\"abort_top\"") != std::string::npos) {
      postmortem = buf.str();
    }
  }
  ASSERT_FALSE(postmortem.empty()) << "no abort_top postmortem written";
  EXPECT_TRUE(JsonBalanced(postmortem));
  EXPECT_NE(postmortem.find("\"victim_txn\""), std::string::npos);
  EXPECT_NE(postmortem.find("\"last_spans\""), std::string::npos);
  // The failing rule's subtxn span closes before the contingency dumps.
  EXPECT_NE(postmortem.find("\"label\":\"exploding_rule\""),
            std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Rule spans hold the rule's name by reference and render their labels at
// snapshot time; the rings outlive the rule, so the labels must still
// read correctly after DeleteRule (ASan catches a dangling name).
TEST(ObsSpanTest, RuleSpanLabelsOutliveDeletedRule) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  ASSERT_TRUE(db.detector()->DefineExplicit("ev").ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule(
                      "r", "ev", [](const rules::RuleContext&) { return true; },
                      [](const rules::RuleContext&) {})
                  .ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db.RaiseEvent("ev", nullptr, *txn).ok());
  ASSERT_TRUE(db.Commit(*txn).ok());

  auto check = [](const std::vector<Span>& spans) {
    // System rules (e.g. the commit-time flush) fire too; pick r's spans.
    const Span* subtxn = nullptr;
    for (const Span& span : spans) {
      if (span.kind == SpanKind::kSubTxn && span.label == "r") subtxn = &span;
    }
    ASSERT_NE(subtxn, nullptr);
    const Span* condition = nullptr;
    const Span* action = nullptr;
    for (const Span& span : spans) {
      if (span.parent != subtxn->id) continue;
      if (span.kind == SpanKind::kCondition) condition = &span;
      if (span.kind == SpanKind::kAction) action = &span;
    }
    ASSERT_NE(condition, nullptr);
    ASSERT_NE(action, nullptr);
    EXPECT_EQ(condition->label, "r.condition");
    EXPECT_EQ(action->label, "r.action");
    for (const Span* child : {condition, action}) {
      EXPECT_GE(child->start_ns, subtxn->start_ns);
      EXPECT_LE(child->end_ns, subtxn->end_ns);
      EXPECT_LE(child->start_ns, child->end_ns);
    }
    EXPECT_LE(condition->end_ns, action->start_ns);
  };
  auto check_json = [](const std::string& json, const std::string& key) {
    for (const char* label : {"r", "r.condition", "r.action"}) {
      EXPECT_NE(json.find("\"" + key + "\":\"" + label + "\""),
                std::string::npos)
          << label;
    }
  };
  check(db.span_tracer()->Snapshot());
  check_json(db.PostmortemJson("live", storage::kInvalidTxnId), "label");

  ASSERT_TRUE(db.rule_manager()->DeleteRule("r").ok());
  check(db.span_tracer()->Snapshot());
  check_json(db.PostmortemJson("deleted", storage::kInvalidTxnId), "label");
  check_json(db.span_tracer()->ChromeTraceJson(), "name");
  ASSERT_TRUE(db.Close().ok());
}

// A firing reads the clock once per boundary (start, condition→action,
// action→commit, end), and its records share those readings: the subtxn
// span starts with the condition span, the condition span ends where the
// action span starts, and the rule's histograms sum to the span durations
// exactly, so together they cover the subtxn span.
TEST(ObsSpanTest, FiringRecordsShareBoundaryReadings) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_EQ(db.span_tracer()->mode(), TraceMode::kFlightOnly);
  ASSERT_TRUE(db.detector()->DefineExplicit("ev").ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule(
                      "boundary_r", "ev",
                      [](const rules::RuleContext&) { return true; },
                      [](const rules::RuleContext&) {})
                  .ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db.RaiseEvent("ev", nullptr, *txn).ok());
  ASSERT_TRUE(db.Commit(*txn).ok());

  const std::vector<Span> spans = db.span_tracer()->Snapshot();
  const Span* subtxn = nullptr;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kSubTxn && span.label == "boundary_r") {
      ASSERT_EQ(subtxn, nullptr) << "one firing";
      subtxn = &span;
    }
  }
  ASSERT_NE(subtxn, nullptr);
  const Span* condition = nullptr;
  const Span* action = nullptr;
  for (const Span& span : spans) {
    if (span.parent != subtxn->id) continue;
    if (span.kind == SpanKind::kCondition) condition = &span;
    if (span.kind == SpanKind::kAction) action = &span;
  }
  ASSERT_NE(condition, nullptr);
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(subtxn->start_ns, condition->start_ns);
  EXPECT_EQ(condition->end_ns, action->start_ns);
  EXPECT_LE(action->end_ns, subtxn->end_ns);

  auto rule = db.rule_manager()->Find("boundary_r");
  ASSERT_TRUE(rule.ok());
  const auto cond_ns = (*rule)->metrics().condition_ns.TakeSnapshot();
  const auto action_ns = (*rule)->metrics().action_ns.TakeSnapshot();
  const auto commit_ns = (*rule)->metrics().commit_ns.TakeSnapshot();
  ASSERT_EQ(cond_ns.count, 1u);
  ASSERT_EQ(action_ns.count, 1u);
  ASSERT_EQ(commit_ns.count, 1u);
  EXPECT_EQ(cond_ns.sum_ns, condition->end_ns - condition->start_ns);
  EXPECT_EQ(action_ns.sum_ns, action->end_ns - action->start_ns);
  EXPECT_EQ(commit_ns.sum_ns, subtxn->end_ns - action->end_ns);
  EXPECT_EQ(cond_ns.sum_ns + action_ns.sum_ns + commit_ns.sum_ns,
            subtxn->end_ns - subtxn->start_ns);
  ASSERT_TRUE(db.Close().ok());
}

// The flame view is a view of the span rings: rule A's action raises rule
// B's event, both run inline on this thread, and B's stack nests under A's
// action. The weights are self wall-ns, so the lines under the transaction
// add up to exactly its span's wall time.
TEST(ObsSpanTest, FoldedStacksAreSpanSelfTimes) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  ASSERT_TRUE(
      db.DeclareEvent("ev_a", "Order", EventModifier::kEnd, "void a()").ok());
  ASSERT_TRUE(
      db.DeclareEvent("ev_b", "Order", EventModifier::kEnd, "void b()").ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("A", "ev_a", nullptr,
                               [&db](const rules::RuleContext& ctx) {
                                 db.NotifyMethod("Order", 1,
                                                 EventModifier::kEnd,
                                                 "void b()", nullptr, ctx.txn);
                               })
                  .ok());
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("B", "ev_b", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  db.NotifyMethod("Order", 1, EventModifier::kEnd, "void a()", nullptr, *txn);
  ASSERT_TRUE(db.Commit(*txn).ok());

  const Span* txn_span = nullptr;
  std::map<std::string, const Span*> subtxn;
  const std::vector<Span> spans = db.span_tracer()->Snapshot();
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kTxn && span.txn == *txn) txn_span = &span;
    if (span.kind == SpanKind::kSubTxn) subtxn[span.label] = &span;
  }
  ASSERT_NE(txn_span, nullptr);
  ASSERT_EQ(subtxn.count("A"), 1u);
  ASSERT_EQ(subtxn.count("B"), 1u);
  EXPECT_EQ(subtxn["A"]->tid, txn_span->tid);
  EXPECT_EQ(subtxn["B"]->tid, txn_span->tid);

  const std::string folded = db.span_tracer()->FoldedStacks();
  std::istringstream lines(folded);
  std::string line;
  const std::string a_frames[] = {"subtxn:A", "action:A"};
  bool nested = false;
  std::uint64_t under_txn = 0;
  while (std::getline(lines, line)) {
    const FoldedLine parsed = ParseFoldedLine(line);
    const std::vector<std::string>& f = parsed.frames;
    ASSERT_FALSE(f.empty()) << line;
    if (f.front() != "txn") continue;
    under_txn += parsed.ns;
    // txn;...;subtxn:A;action:A;...;subtxn:B;action:B
    const auto a = std::search(f.begin(), f.end(), std::begin(a_frames),
                               std::end(a_frames));
    const bool b_last = f.size() >= 2 && f[f.size() - 2] == "subtxn:B" &&
                        f.back() == "action:B";
    nested = nested || (a != f.end() && a + 4 <= f.end() && b_last);
  }
  EXPECT_TRUE(nested) << folded;
  EXPECT_EQ(under_txn, txn_span->end_ns - txn_span->start_ns) << folded;
  ASSERT_TRUE(db.Close().ok());
}

// Per-node evaluation cost is a flame-view frame: under full tracing a
// composite_detect span names its operator node, the way rule frames name
// their rule.
TEST(ObsSpanTest, FoldedStacksNameCompositeNodes) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  db.span_tracer()->set_mode(TraceMode::kFull);
  InstallPipeline(&db);
  storage::TxnId txn;
  RunPipelineTxn(&db, &txn);

  const std::string folded = db.span_tracer()->FoldedStacks();
  std::istringstream lines(folded);
  std::string line;
  bool named = false;
  while (std::getline(lines, line)) {
    for (const std::string& frame : ParseFoldedLine(line).frames) {
      named = named || frame == "composite_detect:ev_seq";
      EXPECT_NE(frame, "composite_detect") << folded;
    }
  }
  EXPECT_TRUE(named) << folded;
  ASSERT_TRUE(db.Close().ok());
}

TEST(ObsSpanTest, WritePostmortemHonorsExplicitPath) {
  obs::FlightRecorder recorder;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sentinel_postmortem_" + std::to_string(::getpid()) + ".json"))
          .string();
  auto written = recorder.WritePostmortem("{\"reason\":\"unit\"}", path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "{\"reason\":\"unit\"}\n");
  EXPECT_EQ(recorder.dumps(), 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sentinel
