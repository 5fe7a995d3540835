// Sentinel end-to-end benchmark. Usage:
//   perfbench --workload <oo7_rules|oo7_store|bus_remote> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--revision <sha>]
// Prints a metadata line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (see README.md).

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports its metrics as 0.
const struct {
  const char* name;
  const char* unit;
} kPerLayer[] = {
    {"core.begin_ns", "ns"},
    {"core.commit_ns", "ns"},
    {"core.op_p99_us", "us"},
    {"core.self_us_per_op", "us"},
    {"detector.notify_ns", "ns"},
    {"detector.detections_per_notify", "ratio"},
    {"detector.flushed_per_op", "count"},
    {"detector.self_us_per_op", "us"},
    {"rules.trigger_to_condition_ns", "ns"},
    {"rules.action_to_return_ns", "ns"},
    {"rules.precommit_ns", "ns"},
    {"rules.offthread_share", "ratio"},
    {"rules.firings_per_op", "count"},
    {"rules.self_us_per_op", "us"},
    {"txn.locked_keys_per_op", "count"},
    {"oodb.cache_get_ns", "ns"},
    {"oodb.cache_put_ns", "ns"},
    {"oodb.cache_hit_ratio", "ratio"},
    {"oodb.populate_ns_per_object", "ns"},
    {"oodb.self_us_per_op", "us"},
    {"storage.fsyncs_per_op", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.lock_waits", "count"},
    {"storage.sync_commit_us", "us"},
    {"storage.self_us_per_op", "us"},
    {"preproc.load_ns_per_rule", "ns"},
    {"net.codec_ns", "ns"},
    {"net.client_notify_ns", "ns"},
    {"net.bytes_per_event", "B"},
    {"net.dispatch_p50_us", "us"},
    {"net.detect_p50_us", "us"},
    {"net.define_rtt_us", "us"},
    {"net.sheds", "count"},
    {"net.drops", "count"},
    {"net.self_us_per_op", "us"},
    {"obs.flight_ns_per_op", "ns"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"harness.op_ns", "ns"},
    {"harness.clock_ns", "ns"},
    {"residual_share", "ratio"},
};

/// Rebuilds `in` with exactly the per-layer metrics, in table order.
perfbench::Result PerLayerOnly(const perfbench::Result& in) {
  perfbench::Result out;
  out.attempted = in.attempted;
  out.failed = in.failed;
  for (const auto& problem : in.problems()) out.Problem(problem);
  for (const auto& m : kPerLayer) {
    out.Add(m.name, in.Has(m.name) ? in.Value(m.name) : 0.0, m.unit);
  }
  return out;
}

/// Pins the process, and every thread it starts later, to the highest CPU
/// it may run on; returns that CPU or -1. On a shared virtual machine a
/// hand-off between threads on different vCPUs waits for the hypervisor to
/// wake the target vCPU, which made op latency vary twofold between
/// identical runs; on one CPU a hand-off is a context switch.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--revision <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--revision") {
      options.revision = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const std::string env = perfbench::ForbiddenEnvironment();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; it changes what "
                 "the database measures\n",
                 env.c_str());
    return 3;
  }

  options.cpu = PinToOneCpu();
  perfbench::Result result;
  if (options.workload == "oo7_rules") {
    result = perfbench::RunOo7Rules(options);
  } else if (options.workload == "oo7_store") {
    result = perfbench::RunOo7Store(options);
  } else if (options.workload == "bus_remote") {
    result = perfbench::RunBusRemote(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (options.trace) result = PerLayerOnly(result);
  if (result.attempted == 0) result.Problem("no operation was attempted");

  for (const auto& problem : result.problems()) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::cout << perfbench::MetadataJson(options) << "\n"
            << result.ToJson() << std::endl;
  return 0;
}
