// sentinel_shell — interactive / scriptable driver for a Sentinel database.
//
// Lets you open a database, load event/rule specifications, fire events and
// watch rules execute, without writing C++. Reads commands from stdin (one
// per line), so it doubles as a scripting harness:
//
//   $ ./build/tools/sentinel_shell <<'EOF'
//   memory
//   load examples/specs/stock.spec
//   begin
//   notify STOCK 1 end int sell_stock(int qty) | qty=500
//   commit
//   trace
//   EOF
//
// Built-in rule functions available to specs: condition `true`; actions
// `print` (dump the triggering occurrence) and `none`.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/active_database.h"
#include "debug/rule_debugger.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"
#include "obs/prometheus.h"
#include "preproc/compiler.h"

namespace {

using sentinel::Status;
using sentinel::core::ActiveDatabase;
using sentinel::detector::EventModifier;
using sentinel::detector::ParamList;
using sentinel::oodb::Value;
using sentinel::rules::RuleContext;

struct Shell {
  ActiveDatabase db;
  sentinel::preproc::FunctionRegistry functions;
  sentinel::debug::RuleDebugger debugger;
  sentinel::storage::TxnId txn = sentinel::storage::kInvalidTxnId;
  bool open = false;

  // GED event-bus plane (`ged serve` / `ged connect`). Declaration order
  // matters: the client must die before the server, the server before the
  // detector it feeds.
  std::unique_ptr<sentinel::ged::GlobalEventDetector> ged;
  std::unique_ptr<sentinel::net::EventBusServer> bus;
  std::unique_ptr<sentinel::net::RemoteGedClient> remote;

  Shell() {
    functions.RegisterAction("print", [](const RuleContext& ctx) {
      std::printf("  [rule] triggered by %s:",
                  ctx.occurrence->event_name.c_str());
      for (const auto& constituent : ctx.occurrence->constituents) {
        if (constituent->params == nullptr) continue;
        for (const auto& [name, value] : *constituent->params) {
          std::printf(" %s=%s", name.c_str(), value.ToString().c_str());
        }
      }
      std::printf("\n");
    });
  }
};

std::vector<std::string> Split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

/// Parses trailing "k=v" pairs into a ParamList (ints, doubles, strings).
std::shared_ptr<ParamList> ParseParams(const std::vector<std::string>& words,
                                       std::size_t from) {
  auto params = std::make_shared<ParamList>();
  for (std::size_t i = from; i < words.size(); ++i) {
    auto eq = words[i].find('=');
    if (eq == std::string::npos) continue;
    const std::string key = words[i].substr(0, eq);
    const std::string value = words[i].substr(eq + 1);
    char* end = nullptr;
    const long long as_int = std::strtoll(value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && !value.empty()) {
      params->Insert(key, Value::Int(as_int));
      continue;
    }
    const double as_double = std::strtod(value.c_str(), &end);
    if (end != nullptr && *end == '\0' && !value.empty()) {
      params->Insert(key, Value::Double(as_double));
      continue;
    }
    params->Insert(key, Value::String(value));
  }
  return params;
}

void PrintHelp() {
  std::printf(R"(commands:
  open <path>              open (or create) a persistent database
  memory                   open an in-memory (detector-only) database
  load <file>              load a Sentinel spec file
  spec <inline spec...>    load an inline spec (single line)
  begin | commit | abort   transaction control
  durability [sync|async]  show or set commit durability: sync blocks on the
                           WAL group-commit barrier, async acks on buffer
                           write (watermark converges in the background)
  notify <class> <oid> <begin|end> <signature...> [| k=v ...]
  raise <event> [k=v ...]  raise an explicit event
  advance <ms>             advance the temporal clock
  events | rules           list definitions
  enable <rule> | disable <rule>
  serve [<port>|stop]      start the monitor endpoint (default port 9464;
                           0 = ephemeral) with the health watchdog
  health                   health verdict from the watchdog (JSON)
  metrics                  every pipeline counter, gauge and histogram as
                           Prometheus text (what /metrics serves)
  profile top              the rule with the largest condition + action +
                           commit wall time (from the rule histograms;
                           cumulative since each rule was defined)
  profile export <file>    the span rings' folded stacks to <file>
                           (flamegraph.pl / inferno input; weights are self
                           wall-ns; frames name rules and composite nodes;
                           the window is what the rings hold: 256 spans per
                           thread in flight mode, 8192 under `trace full`)
  trace                    span tracer mode and recorded/dropped counts
  trace <off|flight|full>  set the span tracer mode (flight keeps each
                           thread's last 256 spans, hot kinds skipped; full
                           keeps every kind)
  trace txn <id>           print one transaction's span tree: events, rules
                           and how each rule's subtransaction ended
  trace export <path>      write buffered spans as Chrome trace JSON (Perfetto)
  postmortem [<path>]      crash postmortem: print JSON, or write it to <path>
  rtrace                   print the rule debugger trace
  dot                      print the event graph in DOT (with counters)
  failpoint list                     show armed failpoints
  failpoint set <name> <spec>        arm one, e.g.: failpoint set wal.append error(hit=2)
  failpoint clear [<name>]           disarm one (or all)
  ged serve [<port>]       run a GED event-bus daemon (default 9475; 0 = ephemeral)
  ged connect <port> <app> join a remote GED as application <app>
  ged define <event> <class> <begin|end> <signature...>
                           declare a global primitive mirroring <app>'s events
  ged subscribe <event> [recent|chronicle|continuous|cumulative]
                           stream detections of a global event to this shell
  ged notify <class> <oid> <begin|end> <signature...> [| k=v ...]
                           send one occurrence to the remote GED
  ged stats                daemon/client sentinel_net_* families (Prometheus
                           text; works without a database)
  ged stop                 tear the daemon/client down
  help | quit
)");
}

int Run() {
  Shell shell;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto words = Split(line);
    if (words.empty()) continue;
    const std::string& cmd = words[0];
    Status st;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }
    if (cmd == "open" && words.size() >= 2) {
      st = shell.db.Open(words[1]);
      if (st.ok()) {
        shell.debugger.Attach(&shell.db);
        shell.open = true;
      }
    } else if (cmd == "memory") {
      st = shell.db.OpenInMemory();
      if (st.ok()) {
        shell.debugger.Attach(&shell.db);
        shell.open = true;
      }
    } else if (cmd == "failpoint") {
      // Interactive fault drills: arm/disarm injection points while driving
      // a live database (works with or without one open).
      auto& registry = sentinel::FailPointRegistry::Instance();
      const std::string sub = words.size() >= 2 ? words[1] : "list";
      if (sub == "list") {
        auto infos = registry.List();
        if (infos.empty()) std::printf("  (no failpoints armed)\n");
        for (const auto& info : infos) {
          std::printf("  %s = %s  [hits %llu, fired %llu]\n",
                      info.name.c_str(), info.spec.ToString().c_str(),
                      static_cast<unsigned long long>(info.hits),
                      static_cast<unsigned long long>(info.fires));
        }
      } else if (sub == "set" && words.size() >= 4) {
        st = registry.Enable(words[2], words[3]);
      } else if (sub == "clear") {
        if (words.size() >= 3) {
          if (!registry.Disable(words[2])) {
            std::printf("error: no such failpoint '%s'\n", words[2].c_str());
          }
        } else {
          registry.DisableAll();
        }
      } else {
        std::printf("usage: failpoint list | set <name> <spec> | clear "
                    "[<name>]\n");
      }
    } else if (cmd == "ged") {
      // Networked GED plane: works with or without a database open.
      const std::string sub = words.size() >= 2 ? words[1] : "";
      if (sub == "serve") {
        const int port =
            words.size() >= 3
                ? static_cast<int>(std::strtol(words[2].c_str(), nullptr, 10))
                : 9475;
        if (shell.bus != nullptr) {
          std::printf("error: daemon already running on port %d\n",
                      shell.bus->port());
          continue;
        }
        if (shell.ged == nullptr) {
          shell.ged = std::make_unique<sentinel::ged::GlobalEventDetector>();
        }
        shell.bus =
            std::make_unique<sentinel::net::EventBusServer>(shell.ged.get());
        sentinel::net::EventBusServer::Options options;
        options.port = port;
        st = shell.bus->Start(options);
        if (st.ok()) {
          if (shell.open) shell.db.AttachEventBusServer(shell.bus.get());
          std::printf("GED event bus listening on 127.0.0.1:%d\n",
                      shell.bus->port());
        } else {
          shell.bus.reset();
        }
      } else if (sub == "connect" && words.size() >= 4) {
        sentinel::net::RemoteGedClient::Options options;
        options.port =
            static_cast<int>(std::strtol(words[2].c_str(), nullptr, 10));
        options.app_name = words[3];
        // Detach the client being replaced while it is still alive.
        shell.db.AttachRemoteGedClient(nullptr);
        shell.remote =
            std::make_unique<sentinel::net::RemoteGedClient>(options);
        st = shell.remote->Start();
        if (st.ok() &&
            shell.remote->WaitConnected(std::chrono::milliseconds(3000))) {
          if (shell.open) shell.db.AttachRemoteGedClient(shell.remote.get());
          std::printf("connected to 127.0.0.1:%d as '%s'\n", options.port,
                      options.app_name.c_str());
        } else if (st.ok()) {
          std::printf("dialing 127.0.0.1:%d in the background (%s)\n",
                      options.port, shell.remote->last_error().c_str());
        } else {
          shell.remote.reset();
        }
      } else if (sub == "define" && words.size() >= 6 &&
                 shell.remote != nullptr) {
        // ged define <event> <class> <begin|end> <signature...>
        const EventModifier modifier = words[4] == "begin"
                                           ? EventModifier::kBegin
                                           : EventModifier::kEnd;
        std::string signature;
        for (std::size_t i = 5; i < words.size(); ++i) {
          if (!signature.empty()) signature += " ";
          signature += words[i];
        }
        st = shell.remote->DefineGlobalPrimitive(words[2], words[3], modifier,
                                                 signature);
      } else if (sub == "subscribe" && words.size() >= 3 &&
                 shell.remote != nullptr) {
        sentinel::detector::ParamContext context =
            sentinel::detector::ParamContext::kRecent;
        if (words.size() >= 4) {
          if (words[3] == "chronicle") {
            context = sentinel::detector::ParamContext::kChronicle;
          } else if (words[3] == "continuous") {
            context = sentinel::detector::ParamContext::kContinuous;
          } else if (words[3] == "cumulative") {
            context = sentinel::detector::ParamContext::kCumulative;
          }
        }
        st = shell.remote->Subscribe(
            words[2], context,
            [](const std::string& event,
               const sentinel::detector::Occurrence& occurrence) {
              std::printf("  [ged] %s detected:", event.c_str());
              for (const auto& constituent : occurrence.constituents) {
                if (constituent->params == nullptr) continue;
                for (const auto& [name, value] : *constituent->params) {
                  std::printf(" %s=%s", name.c_str(),
                              value.ToString().c_str());
                }
              }
              std::printf("\n");
            });
      } else if (sub == "notify" && words.size() >= 6 &&
                 shell.remote != nullptr) {
        // ged notify <class> <oid> <begin|end> <signature...> [| k=v ...]
        const auto oid = static_cast<sentinel::oodb::Oid>(
            std::strtoull(words[3].c_str(), nullptr, 10));
        const EventModifier modifier = words[4] == "begin"
                                           ? EventModifier::kBegin
                                           : EventModifier::kEnd;
        std::string signature;
        std::size_t i = 5;
        for (; i < words.size() && words[i] != "|"; ++i) {
          if (!signature.empty()) signature += " ";
          signature += words[i];
        }
        st = shell.remote->NotifyMethod(words[2], oid, modifier, signature,
                                        ParseParams(words, i + 1), shell.txn);
      } else if (sub == "stats") {
        // The sentinel_net_* families of `metrics`, without a database.
        sentinel::obs::PromWriter p;
        if (shell.bus != nullptr) shell.bus->WritePrometheus(p);
        if (shell.remote != nullptr) shell.remote->WritePrometheus(p);
        if (shell.bus == nullptr && shell.remote == nullptr) {
          std::printf("  (no daemon or client running)\n");
        }
        std::printf("%s", p.str().c_str());
      } else if (sub == "stop") {
        if (shell.open) {
          shell.db.AttachRemoteGedClient(nullptr);
          shell.db.AttachEventBusServer(nullptr);
        }
        shell.remote.reset();
        shell.bus.reset();
        if (shell.ged != nullptr) shell.ged->Shutdown();
        shell.ged.reset();
        std::printf("GED plane stopped\n");
      } else if (shell.remote == nullptr &&
                 (sub == "define" || sub == "subscribe" || sub == "notify")) {
        std::printf("error: not connected (use 'ged connect <port> <app>')\n");
      } else {
        std::printf(
            "usage: ged serve [<port>] | connect <port> <app> | define ... | "
            "subscribe ... | notify ... | stats | stop\n");
      }
    } else if (!shell.open) {
      std::printf("error: no database open (use 'open <path>' or 'memory')\n");
      continue;
    } else if (cmd == "load" && words.size() >= 2) {
      sentinel::preproc::SpecCompiler compiler(&shell.db, &shell.functions);
      st = compiler.LoadFile(words[1]);
    } else if (cmd == "spec") {
      const std::string source = line.substr(5);
      sentinel::preproc::SpecCompiler compiler(&shell.db, &shell.functions);
      st = compiler.LoadString(source);
    } else if (cmd == "begin") {
      auto begun = shell.db.Begin();
      st = begun.status();
      if (begun.ok()) {
        shell.txn = *begun;
        std::printf("txn %llu\n", static_cast<unsigned long long>(shell.txn));
      }
    } else if (cmd == "commit") {
      st = shell.db.Commit(shell.txn);
      shell.txn = sentinel::storage::kInvalidTxnId;
    } else if (cmd == "abort") {
      st = shell.db.Abort(shell.txn);
      shell.txn = sentinel::storage::kInvalidTxnId;
    } else if (cmd == "durability") {
      if (words.size() >= 2) {
        if (words[1] == "sync") {
          shell.db.set_commit_durability(
              sentinel::storage::CommitDurability::kSync);
        } else if (words[1] == "async") {
          shell.db.set_commit_durability(
              sentinel::storage::CommitDurability::kAsync);
        } else {
          std::printf("error: durability takes 'sync' or 'async'\n");
          continue;
        }
      }
      std::printf("commit durability: %s\n",
                  shell.db.commit_durability() ==
                          sentinel::storage::CommitDurability::kAsync
                      ? "async"
                      : "sync");
    } else if (cmd == "notify" && words.size() >= 5) {
      // notify <class> <oid> <begin|end> <signature...> [| k=v ...]
      const std::string& class_name = words[1];
      const auto oid =
          static_cast<sentinel::oodb::Oid>(std::strtoull(words[2].c_str(),
                                                         nullptr, 10));
      const EventModifier modifier =
          words[3] == "begin" ? EventModifier::kBegin : EventModifier::kEnd;
      // Signature: everything up to "|"; params after.
      std::string signature;
      std::size_t i = 4;
      for (; i < words.size() && words[i] != "|"; ++i) {
        if (!signature.empty()) signature += " ";
        signature += words[i];
      }
      auto params = ParseParams(words, i + 1);
      shell.db.NotifyMethod(class_name, oid, modifier, signature, params,
                            shell.txn);
    } else if (cmd == "raise" && words.size() >= 2) {
      st = shell.db.RaiseEvent(words[1], ParseParams(words, 2), shell.txn);
    } else if (cmd == "advance" && words.size() >= 2) {
      shell.db.AdvanceTime(std::strtoull(words[1].c_str(), nullptr, 10));
    } else if (cmd == "events") {
      for (const auto& name : shell.db.detector()->EventNames()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "rules") {
      for (const auto& name : shell.db.rule_manager()->RuleNames()) {
        auto rule = shell.db.rule_manager()->Find(name);
        if (!rule.ok()) continue;
        std::printf("  %s on %s [%s, prio %d, %s, fired %llu]\n", name.c_str(),
                    (*rule)->declared_event().c_str(),
                    sentinel::rules::CouplingModeToString((*rule)->coupling()),
                    (*rule)->priority(),
                    (*rule)->enabled() ? "enabled" : "disabled",
                    static_cast<unsigned long long>((*rule)->fired_count()));
      }
    } else if (cmd == "enable" && words.size() >= 2) {
      st = shell.db.rule_manager()->EnableRule(words[1]);
    } else if (cmd == "disable" && words.size() >= 2) {
      st = shell.db.rule_manager()->DisableRule(words[1]);
    } else if (cmd == "trace" && words.size() >= 3 && words[1] == "export") {
      st = shell.db.ExportTrace(words[2]);
      if (st.ok()) {
        std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                    words[2].c_str());
      }
    } else if (cmd == "trace" && words.size() >= 3 && words[1] == "txn") {
      const auto txn = static_cast<sentinel::storage::TxnId>(
          std::strtoull(words[2].c_str(), nullptr, 10));
      std::printf("%s", shell.db.span_tracer()->TxnTreeText(txn).c_str());
    } else if (cmd == "trace") {
      sentinel::obs::SpanTracer* spans = shell.db.span_tracer();
      if (words.size() >= 2) {
        if (words[1] == "off") {
          spans->set_mode(sentinel::obs::TraceMode::kOff);
        } else if (words[1] == "flight") {
          spans->set_mode(sentinel::obs::TraceMode::kFlightOnly);
        } else if (words[1] == "full") {
          spans->set_mode(sentinel::obs::TraceMode::kFull);
        } else {
          std::printf(
              "usage: trace [off|flight|full | txn <id> | export <path>]\n");
          continue;
        }
      }
      std::printf("span tracing %s, %llu recorded, %llu dropped\n",
                  sentinel::obs::TraceModeToString(spans->mode()),
                  static_cast<unsigned long long>(spans->recorded()),
                  static_cast<unsigned long long>(spans->dropped()));
    } else if (cmd == "postmortem") {
      if (words.size() >= 2) {
        auto written = shell.db.DumpPostmortem("shell", shell.txn, words[1]);
        st = written.status();
        if (written.ok()) {
          std::printf("postmortem written to %s\n", written->c_str());
        }
      } else {
        std::printf("%s\n",
                    shell.db.PostmortemJson("shell", shell.txn).c_str());
      }
    } else if (cmd == "rtrace") {
      std::printf("%s", shell.debugger.RenderTrace().c_str());
    } else if (cmd == "dot") {
      std::printf("%s", shell.db.detector()->DumpGraph().c_str());
    } else if (cmd == "serve") {
      if (words.size() >= 2 && words[1] == "stop") {
        shell.db.StopMonitoring();
        std::printf("monitoring stopped\n");
      } else {
        const int port =
            words.size() >= 2
                ? static_cast<int>(std::strtol(words[1].c_str(), nullptr, 10))
                : 9464;
        auto bound = shell.db.StartMonitoring(port);
        st = bound.status();
        if (bound.ok()) {
          std::printf("monitor listening on http://127.0.0.1:%d "
                      "(/metrics /healthz /graph /trace /postmortem)\n",
                      *bound);
        }
      }
    } else if (cmd == "profile") {
      const std::string sub = words.size() >= 2 ? words[1] : "";
      if (sub == "top") {
        const std::string top = shell.db.rule_manager()->TopCostRule();
        std::printf("top-cost rule: %s\n",
                    top.empty() ? "(no rule has run)" : top.c_str());
      } else if (sub == "export" && words.size() >= 3) {
        std::FILE* f = std::fopen(words[2].c_str(), "wb");
        if (f == nullptr) {
          st = Status::IOError("cannot open " + words[2]);
        } else {
          // Folded stacks of the span rings (flamegraph.pl / inferno
          // input), weighted by self wall-ns.
          const std::string folded = shell.db.span_tracer()->FoldedStacks();
          std::fwrite(folded.data(), 1, folded.size(), f);
          std::fclose(f);
          std::printf("folded stacks written to %s (%zu stacks)\n",
                      words[2].c_str(),
                      static_cast<std::size_t>(std::count(
                          folded.begin(), folded.end(), '\n')));
        }
      } else {
        std::printf("usage: profile top | profile export <file>\n");
      }
    } else if (cmd == "health") {
      int http_status = 200;
      const std::string body = shell.db.HealthJson(&http_status);
      std::printf("%d %s\n", http_status, body.c_str());
    } else if (cmd == "metrics") {
      std::printf("%s", shell.db.PrometheusText().c_str());
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
      continue;
    }
    if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
  }
  if (shell.open) (void)shell.db.Close();
  return 0;
}

}  // namespace

int main() { return Run(); }
