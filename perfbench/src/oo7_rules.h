#ifndef PERFBENCH_OO7_RULES_H_
#define PERFBENCH_OO7_RULES_H_

#include <array>
#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench::oo7 {

constexpr std::uint64_t kAtomicParts = 10000;
constexpr int kPartsPerComposite = 20;
constexpr int kPartEventsPerTxn = 8;
constexpr int kHotRules = 4;
constexpr int kCascadeDepth = 4;
constexpr int kIdleRules = 20000;

enum class EventKind : std::uint8_t { kChange, kConnect, kRotate };

struct Event {
  EventKind kind = EventKind::kChange;
  std::uint32_t part = 0;  // atomic part, or composite part for kRotate
};

/// One generated transaction: kPartEventsPerTxn AtomicPart change/connect
/// events on skewed parts, then one CompositePart rotate.
struct Txn {
  std::array<Event, kPartEventsPerTxn + 1> events;
};

Txn GenerateTxn(Rng* rng);

/// Rule firings the spec's semantics imply for a stream of transactions.
struct Firings {
  std::uint64_t hot = 0;       // IMMEDIATE rules on change, all of them
  std::uint64_t seq = 0;       // connect then change, CHRONICLE pairs
  std::uint64_t conj = 0;      // change ^ rotate, RECENT
  std::uint64_t negation = 0;  // NOT(connect)[change, rotate], RECENT
  std::uint64_t history = 0;   // A*(connect, change, rotate), CUMULATIVE
  std::uint64_t deferred = 0;  // DEFERRED audit on change, once per txn
  std::uint64_t cascade = 0;   // explicit-event cascade rules below rotate
  std::uint64_t leaf = 0;      // deepest cascade rule
};

/// Adds the firings one committed transaction implies. Composite-event
/// buffers are flushed at every commit, so transactions are independent.
void Expect(const Txn& txn, Firings* expected);

/// Compares counted firings with the expected ones; every mismatch becomes
/// a Problem on `result`.
void CheckFirings(const Firings& expected, const Firings& observed,
                  Result* result);

/// The generated rule-base specification (Snoop spec language).
std::string GenerateSpec(std::uint64_t seed);

}  // namespace perfbench::oo7

#endif  // PERFBENCH_OO7_RULES_H_
