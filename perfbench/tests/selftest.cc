// Tests of the benchmark's own logic: the percentile rule, the correctness
// checks that mark a run failed, and the self-time / residual arithmetic.
// Run: perfbench_selftest (exit code 0 when every check passes).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bus_remote.h"
#include "harness.h"
#include "oo7_rules.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void PercentileNeedsTenSamplesBeyond() {
  using perfbench::Percentile;
  // p90 of 100 samples: rank 90, ten samples above it.
  auto p90 = Percentile(Range(100), 0.90);
  CHECK(p90.has_value() && Near(*p90, 90));
  // 99 samples: rank 90, only nine above.
  CHECK(!Percentile(Range(99), 0.90).has_value());
  CHECK(!Percentile(Range(19), 0.50).has_value());
  auto p50 = Percentile(Range(20), 0.50);
  CHECK(p50.has_value() && Near(*p50, 10));
  CHECK(!Percentile(Range(999), 0.99).has_value());
  CHECK(Percentile(Range(1000), 0.99).has_value());
  CHECK(!Percentile({}, 0.5).has_value());
}

void SliceWithoutTailSamplesIsNotReported() {
  // Three 1-second slices of 50 ops: enough samples above p50, too few
  // above p90, so op_p90_us is withheld and the run is marked incorrect.
  perfbench::SlicedLoop loop;
  loop.setup_s = {0.5};
  loop.Start(0);
  for (std::uint64_t slice = 0; slice < 3; ++slice) {
    for (std::uint64_t i = 1; i <= 50; ++i) {
      const std::uint64_t now = slice * 1'000'000'000ULL + i * 20'000'000ULL;
      loop.Add(now, i * 1000, /*main=*/true, /*write=*/true);
    }
  }
  perfbench::Result r;
  loop.AddEndToEnd(&r);
  CHECK(r.Has("op_p50_us") && Near(r.Value("op_p50_us"), 25));
  CHECK(!r.Has("op_p90_us"));
  CHECK(!r.correct());
}

void DroppedDeliveryFailsTheRun() {
  perfbench::bus::DeliveryChecker all(3);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) all.OnDelivery(seq % 3, seq);
  perfbench::Result ok;
  all.Finish(10, &ok);
  CHECK(ok.correct());
  CHECK(ok.failed == 0);

  perfbench::bus::DeliveryChecker dropped(3);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    if (seq != 7) dropped.OnDelivery(seq % 3, seq);
  }
  perfbench::Result lost;
  dropped.Finish(10, &lost);
  CHECK(!lost.correct());
  CHECK(lost.failed == 1);

  perfbench::bus::DeliveryChecker twice(1);
  twice.OnDelivery(0, 1);
  twice.OnDelivery(0, 1);
  perfbench::Result dup;
  twice.Finish(1, &dup);
  CHECK(!dup.correct());

  perfbench::bus::DeliveryChecker swapped(1);
  swapped.OnDelivery(0, 2);
  swapped.OnDelivery(0, 1);
  perfbench::Result order;
  swapped.Finish(2, &order);
  CHECK(!order.correct());
}

void WrongFiringCountFailsTheRun() {
  using namespace perfbench::oo7;
  perfbench::Rng rng(42);
  Firings expected;
  for (int i = 0; i < 100; ++i) Expect(GenerateTxn(&rng), &expected);
  perfbench::Result same;
  CheckFirings(expected, expected, &same);
  CHECK(same.correct());

  Firings off_by_one = expected;
  --off_by_one.seq;
  perfbench::Result wrong;
  CheckFirings(expected, off_by_one, &wrong);
  CHECK(!wrong.correct());
}

void FiringModelOfOneTransaction() {
  using namespace perfbench::oo7;
  // change, connect, change, change, connect, connect, change, connect,
  // rotate.
  const EventKind k[] = {EventKind::kChange,  EventKind::kConnect,
                         EventKind::kChange,  EventKind::kChange,
                         EventKind::kConnect, EventKind::kConnect,
                         EventKind::kChange,  EventKind::kConnect};
  Txn txn;
  for (int i = 0; i < kPartEventsPerTxn; ++i) txn.events[i].kind = k[i];
  txn.events[kPartEventsPerTxn].kind = EventKind::kRotate;
  Firings f;
  Expect(txn, &f);
  CHECK(f.hot == 4u * kHotRules);
  CHECK(f.seq == 2);       // connect#1 with change#3, connect#2 with change#4
  CHECK(f.conj == 1);
  CHECK(f.negation == 0);  // the last change is followed by a connect
  CHECK(f.history == 1);
  CHECK(f.deferred == 1);
  CHECK(f.cascade == static_cast<std::uint64_t>(kCascadeDepth));
  CHECK(f.leaf == 1);
}

void ResidualShareOfSyntheticTree() {
  using perfbench::Span;
  // op [0,100]
  //   core A [10,40] > rules B [20,30]
  //   detector C [50,90] > rules D [55,70], rules E [60,80] (overlapping)
  std::vector<Span> spans = {
      {"op", "op", 0, 100, -1, 1},
      {"core", "a", 10, 40, 0, 1},
      {"rules", "b", 20, 30, 1, 1},
      {"detector", "c", 50, 90, 0, 1},
      {"rules", "d", 55, 70, 3, 1},
      {"rules", "e", 60, 80, 3, 1},
  };
  const perfbench::LayerBreakdown b = perfbench::ComputeBreakdown(spans);
  CHECK(b.ops == 1);
  CHECK(Near(b.op_ns, 100));
  CHECK(Near(b.self_ns.at("core"), 20));
  CHECK(Near(b.self_ns.at("detector"), 15));
  CHECK(Near(b.self_ns.at("rules"), 10 + 15 + 20));
  CHECK(Near(b.residual_share, 0.2));

  const perfbench::EdgeGaps gaps = perfbench::ChildEdgeGaps(spans, "c");
  CHECK(gaps.head_ns.size() == 1 && Near(gaps.head_ns[0], 5));
  CHECK(gaps.tail_ns.size() == 1 && Near(gaps.tail_ns[0], 10));
}

void GeneratorIsSeeded() {
  perfbench::Rng a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.Next();
    CHECK(x == b.Next());
    differs |= x != c.Next();
  }
  CHECK(differs);
  CHECK(perfbench::oo7::GenerateSpec(3) == perfbench::oo7::GenerateSpec(3));
}

}  // namespace

int main() {
  PercentileNeedsTenSamplesBeyond();
  SliceWithoutTailSamplesIsNotReported();
  DroppedDeliveryFailsTheRun();
  WrongFiringCountFailsTheRun();
  FiringModelOfOneTransaction();
  ResidualShareOfSyntheticTree();
  GeneratorIsSeeded();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d checks failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
