// Observability layer: sharded counters, latency histograms, per-node
// per-context metrics, and the lifetime/race regressions that ride along with it (scheduler policy atomics, detached
// firing parameter pinning). Suite names start with Obs* so the TSan CI job's
// --gtest_filter picks them up.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "detector/local_detector.h"
#include "detector_test_util.h"
#include "obs/metrics.h"
#include "rules/rule_manager.h"
#include "rules/scheduler.h"
#include "txn/nested_txn.h"

namespace sentinel::obs {
namespace {

using detector::EventModifier;
using detector::LocalEventDetector;
using detector::ParamContext;

TEST(ObsShardedCounterTest, ConcurrentAddsAggregate) {
  ShardedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsHistogramTest, RecordsCountSumMaxAndQuantiles) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(200);
  h.Record(400);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_ns, 700u);
  EXPECT_EQ(snap.max_ns, 400u);
  EXPECT_EQ(snap.mean_ns(), 233u);
  // Quantiles are bucket upper bounds (2^i - 1), clamped to the max.
  EXPECT_EQ(snap.QuantileNs(0.0), 127u);  // 100 lands in bucket 7
  EXPECT_EQ(snap.QuantileNs(0.5), 255u);  // 200 lands in bucket 8
  EXPECT_EQ(snap.QuantileNs(1.0), 400u);  // bucket 9's bound clamps to max
}

TEST(ObsHistogramTest, AggregatesAcrossThreads) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.Record(static_cast<std::uint64_t>(t + 1) * 10);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  // sum = 5000 * 10 * (1 + 2 + ... + 8)
  EXPECT_EQ(snap.sum_ns, static_cast<std::uint64_t>(kRecords) * 10 * 36);
  EXPECT_EQ(snap.max_ns, 80u);
  std::uint64_t bucketed = 0;
  for (auto b : snap.buckets) bucketed += b;
  EXPECT_EQ(bucketed, snap.count);
}

TEST(ObsHistogramTest, ZeroLandsInBucketZero) {
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2);
  LatencyHistogram h;
  h.Record(0);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.QuantileNs(0.5), 0u);
  EXPECT_EQ(snap.mean_ns(), 0u);
}

TEST(ObsHistogramTest, OverflowClampsToLastBucket) {
  LatencyHistogram h;
  h.Record(~0ull);  // bit_width 64 — far beyond the 48 buckets
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.buckets[LatencyHistogram::kBuckets - 1], 1u);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max_ns, ~0ull);
  // The quantile reports the last bucket's upper bound, not the raw max:
  // the histogram cannot resolve beyond its bucket range.
  EXPECT_EQ(snap.QuantileNs(1.0),
            (std::uint64_t{1} << (LatencyHistogram::kBuckets - 1)) - 1);
}

TEST(ObsHistogramTest, QuantileOnEmptyIsZero) {
  LatencyHistogram::Snapshot snap;
  EXPECT_EQ(snap.QuantileNs(0.0), 0u);
  EXPECT_EQ(snap.QuantileNs(0.99), 0u);
  EXPECT_EQ(snap.QuantileNs(1.0), 0u);
  EXPECT_EQ(snap.mean_ns(), 0u);
}

TEST(ObsHistogramTest, QuantileClampsQOutsideUnitInterval) {
  LatencyHistogram h;
  h.Record(100);
  auto snap = h.TakeSnapshot();
  // Out-of-range q behaves like the nearest bound; a single 100ns sample's
  // bucket bound (127) clamps to the recorded max.
  EXPECT_EQ(snap.QuantileNs(-1.0), snap.QuantileNs(0.0));
  EXPECT_EQ(snap.QuantileNs(2.0), snap.QuantileNs(1.0));
  EXPECT_EQ(snap.QuantileNs(1.0), 100u);
}

// Satellite regression: a snapshot taken under concurrent recording can pair
// a lagging bucket array with a sum that already includes newer samples; the
// mean must clamp to the observed max instead of exceeding every sample.
TEST(ObsHistogramTest, TornSnapshotMeanClampsToMax) {
  LatencyHistogram::Snapshot snap;
  snap.count = 1;
  snap.sum_ns = 10000;
  snap.max_ns = 500;
  EXPECT_EQ(snap.mean_ns(), 500u);
}

TEST(ObsNodeMetricsTest, CountersPerContextInSharedGraph) {
  LocalEventDetector det;
  auto node =
      det.DefinePrimitive("e1", "C", EventModifier::kEnd, "void f()");
  ASSERT_TRUE(node.ok());
  // One sink per parameter context, all sharing the node.
  detector::RecordingSink sinks[detector::kNumContexts];
  for (int c = 0; c < detector::kNumContexts; ++c) {
    ASSERT_TRUE(
        det.Subscribe("e1", &sinks[c], static_cast<ParamContext>(c)).ok());
  }
  detector::Fire(&det, "C", "void f()", 1);
  detector::Fire(&det, "C", "void f()", 2);
  const obs::NodeMetrics& m = (*node)->metrics();
  for (int c = 0; c < detector::kNumContexts; ++c) {
    auto snap = m.ForContext(static_cast<ParamContext>(c));
    EXPECT_EQ(snap.received, 2u) << "context " << c;
    EXPECT_EQ(snap.detected, 2u) << "context " << c;
    // Sinks see every active context's detection and filter themselves
    // (as Rule::OnEvent does); count only their own context.
    EXPECT_EQ(sinks[c].CountIn(static_cast<ParamContext>(c)), 2u)
        << "context " << c;
  }
  EXPECT_EQ(m.received_total(), 2u * detector::kNumContexts);
  EXPECT_EQ(m.detected_total(), 2u * detector::kNumContexts);
}

// S2 regression: policy/contingency are read by scheduler workers while the
// application may retune them — both must be data-race free (TSan verifies).
TEST(ObsSchedulerTest, PolicySettersRaceWithReaders) {
  txn::NestedTransactionManager nested;
  rules::RuleScheduler scheduler(&nested, nullptr,
                                 rules::RuleScheduler::Options{});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      scheduler.set_policy(i % 2 == 0
                               ? rules::SchedulingPolicy::kSerial
                               : rules::SchedulingPolicy::kPriorityClasses);
      scheduler.set_contingency(i % 2 == 0
                                    ? rules::ContingencyPolicy::kSkipRule
                                    : rules::ContingencyPolicy::kAbortTop);
    }
    stop = true;
  });
  std::thread reader([&] {
    std::uint64_t observed = 0;
    while (!stop) {
      observed += static_cast<std::uint64_t>(scheduler.policy());
      observed += static_cast<std::uint64_t>(scheduler.contingency());
    }
    // Keep the loop from being optimized away.
    EXPECT_GE(observed, 0u);
  });
  writer.join();
  reader.join();
}

/// Detector + scheduler + manager for the detached-lifetime regression.
class ObsDetachedLifetimeTest : public ::testing::Test {
 protected:
  ObsDetachedLifetimeTest()
      : scheduler_(&nested_, nullptr, rules::RuleScheduler::Options{}),
        manager_(&det_, &scheduler_) {
    (void)*det_.DefinePrimitive("e1", "C", EventModifier::kEnd, "void f(int)");
  }

  LocalEventDetector det_;
  txn::NestedTransactionManager nested_;
  rules::RuleScheduler scheduler_;
  rules::RuleManager manager_;
};

// S4 regression: a DETACHED firing crosses threads, so the parameter list of
// the triggering occurrence must be deep-copied at enqueue time — the caller
// only guarantees it lives until Notify returns. Under ASan the pre-fix
// behavior is a heap-use-after-free in the detached worker.
TEST_F(ObsDetachedLifetimeTest, DetachedFiringOutlivesCallerParams) {
  std::atomic<int> observed{0};
  rules::RuleManager::RuleOptions options;
  options.coupling = rules::CouplingMode::kDetached;
  ASSERT_TRUE(manager_
                  .DefineRule("rd", "e1", nullptr,
                              [&](const rules::RuleContext& ctx) {
                                auto v = ctx.Param("v");
                                if (v.ok()) observed = (*v).AsInt();
                              },
                              options)
                  .ok());
  {
    auto params = std::make_shared<detector::ParamList>();
    params->Insert("v", oodb::Value::Int(42));
    det_.Notify("C", /*oid=*/100, EventModifier::kEnd, "void f(int)", params,
                /*txn=*/1);
    // The only reference dies here, before the detached worker necessarily
    // ran. The enqueue-time deep copy keeps the firing self-contained.
  }
  scheduler_.WaitDetached();
  EXPECT_EQ(observed, 42);
}

}  // namespace
}  // namespace sentinel::obs
