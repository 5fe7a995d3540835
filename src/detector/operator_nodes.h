#ifndef SENTINEL_DETECTOR_OPERATOR_NODES_H_
#define SENTINEL_DETECTOR_OPERATOR_NODES_H_

#include <array>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/inline_vector.h"
#include "detector/event_node.h"

namespace sentinel::detector {

/// Snoop operators (paper §3.1 and [5]). Port conventions:
///   binary ops:  0 = left (initiator), 1 = right (terminator)
///   ternary ops: 0 = opener E1, 1 = detector/canceller E2, 2 = closer E3
enum class OperatorKind : std::uint8_t {
  kOr = 0,
  kAnd = 1,
  kSeq = 2,
  kNot = 3,
  kAperiodic = 4,            // A  (E1, E2, E3)
  kAperiodicCumulative = 5,  // A* (E1, E2, E3)
  kPlus = 6,                 // E1 + t
  kPeriodic = 7,             // P  (E1, t, E3)
  kPeriodicCumulative = 8,   // P* (E1, t, E3)
  kAny = 9,                  // ANY(m, E1, ..., En)
};

const char* OperatorKindToString(OperatorKind kind);

/// Shared plumbing for operator nodes: child links and composite-occurrence
/// assembly (linking constituent pointers — never copying parameter data,
/// per §3.2.2 item 2). Operator buffers hold the handles of the detections
/// they wait on, so buffering, pairing and consuming an initiator never
/// copies it.
class OperatorNode : public EventNode {
 public:
  OperatorNode(std::string name, OperatorKind kind,
               std::vector<EventNode*> children);

  OperatorKind kind() const { return kind_; }
  std::vector<EventNode*> Children() const override { return children_; }

 protected:
  /// The detections one delivery produces: almost always none or one.
  using Detections = common::InlineVector<OccurrenceRef, 2>;
  /// The parts of one cumulative detection.
  using Parts = common::InlineVector<const Occurrence*, 8>;

  /// Builds this node's detection from constituent occurrences (in
  /// chronological order of their roles): one pooled node linking the parts'
  /// constituents. It stays writable until the caller publishes it.
  std::shared_ptr<Occurrence> Compose(
      std::span<const Occurrence* const> parts) const;
  std::shared_ptr<Occurrence> Compose(
      std::initializer_list<const Occurrence*> parts) const {
    return Compose(std::span<const Occurrence* const>(parts.begin(),
                                                      parts.size()));
  }

  /// Emits a batch of detections collected under the buffer lock. Operators
  /// mutate their buffers and Compose results while holding buffer_mu(),
  /// then emit after releasing it — buffer locks are leaf locks and are
  /// never held across Emit (see EventNode locking discipline).
  void EmitAll(const Detections& batch, ParamContext context) {
    for (const OccurrenceRef& occ : batch) Emit(occ, context);
  }

  std::vector<EventNode*> children_;

 private:
  OperatorKind kind_;
};

/// OR: either child's occurrence is an occurrence of the disjunction.
/// Stateless — contexts do not affect a single-constituent detection.
class OrNode : public OperatorNode {
 public:
  OrNode(std::string name, EventNode* left, EventNode* right);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
};

/// AND (the paper's `^`): both children occurred, in any order.
class AndNode : public OperatorNode {
 public:
  AndNode(std::string name, EventNode* left, EventNode* right);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

 private:
  struct State {
    std::deque<OccurrenceRef> side[2];
  };
  std::array<State, kNumContexts> state_;
};

/// SEQ (;): left strictly before right (t_end(left) < t_start(right)).
class SeqNode : public OperatorNode {
 public:
  SeqNode(std::string name, EventNode* left, EventNode* right);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

 private:
  struct State {
    std::deque<OccurrenceRef> initiators;
  };
  std::array<State, kNumContexts> state_;
};

/// NOT(E2)[E1, E3]: E3 follows E1 with no intervening E2. An E2 occurrence
/// cancels all pending initiators.
class NotNode : public OperatorNode {
 public:
  NotNode(std::string name, EventNode* opener, EventNode* canceller,
          EventNode* closer);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

 private:
  struct State {
    std::deque<OccurrenceRef> initiators;
  };
  std::array<State, kNumContexts> state_;
};

/// A(E1, E2, E3): each E2 inside the (E1, E3) window signals. E3 closes all
/// open windows without signalling.
class AperiodicNode : public OperatorNode {
 public:
  AperiodicNode(std::string name, EventNode* opener, EventNode* detector,
                EventNode* closer);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

 private:
  struct State {
    std::deque<OccurrenceRef> openers;
  };
  std::array<State, kNumContexts> state_;
};

/// A*(E1, E2, E3): accumulates E2 occurrences inside the (E1, E3) window and
/// signals exactly once, at E3, with every accumulated occurrence — if at
/// least one E2 occurred. This is the operator the Sentinel pre-processor
/// rewrites DEFERRED rules into: A*(begin_transaction, E, pre_commit) fires
/// once per transaction with the net accumulation (§2.3, §3.2.3).
class AperiodicStarNode : public OperatorNode {
 public:
  AperiodicStarNode(std::string name, EventNode* opener, EventNode* detector,
                    EventNode* closer);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

 private:
  struct State {
    std::deque<OccurrenceRef> openers;
    std::deque<OccurrenceRef> accumulated;
  };
  std::array<State, kNumContexts> state_;
};

/// ANY(m, E1, ..., En): occurs when m of the n distinct constituent events
/// have occurred, in any order (Snoop [5]). Generalizes AND (= ANY(n, ...))
/// and OR (= ANY(1, ...)).
///
/// Context treatment mirrors AND's: RECENT keeps the most recent occurrence
/// per constituent and re-detects without consuming; CHRONICLE consumes the
/// oldest occurrence of each participating constituent; CUMULATIVE emits one
/// detection carrying everything buffered. CONTINUOUS uses CHRONICLE's
/// pairing (the m-of-n window-per-initiator semantics degenerate; this
/// simplification is documented in DESIGN.md).
class AnyNode : public OperatorNode {
 public:
  AnyNode(std::string name, std::size_t threshold,
          std::vector<EventNode*> children);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

  std::size_t threshold() const { return threshold_; }

 private:
  struct State {
    std::vector<std::deque<OccurrenceRef>> ports;
  };
  std::size_t threshold_;
  std::array<State, kNumContexts> state_;
};

/// PLUS(E1, t): occurs t milliseconds (of the detector's temporal clock)
/// after each E1 occurrence.
class PlusNode : public OperatorNode {
 public:
  PlusNode(std::string name, EventNode* base, std::uint64_t delta_ms,
           LogicalClock* clock);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void OnTimeAdvance(std::uint64_t now_ms) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

  std::uint64_t delta_ms() const { return delta_ms_; }

 private:
  struct Pending {
    std::uint64_t deadline_ms;
    OccurrenceRef base;
  };
  struct State {
    std::deque<Pending> pending;
  };
  std::uint64_t delta_ms_;
  LogicalClock* clock_;
  std::array<State, kNumContexts> state_;
};

/// P(E1, t, E3): fires every t milliseconds after E1 until E3.
class PeriodicNode : public OperatorNode {
 public:
  PeriodicNode(std::string name, EventNode* opener, std::uint64_t period_ms,
               EventNode* closer, LogicalClock* clock);
  void Receive(int port, const OccurrenceRef& occurrence,
               ParamContext context) override;
  void OnTimeAdvance(std::uint64_t now_ms) override;
  void FlushTxn(TxnId txn) override;
  void FlushAll() override;
  std::size_t BufferedCount() const override;

  std::uint64_t period_ms() const { return period_ms_; }

 protected:
  struct Schedule {
    std::uint64_t next_ms;
    OccurrenceRef opener;
    std::uint64_t ticks = 0;
    // P*: timestamps of elapsed periods, reported once at close.
    std::vector<std::uint64_t> tick_times;
  };
  struct State {
    std::deque<Schedule> schedules;
  };

  /// Hook for P*: called per elapsed period; detections are appended to
  /// `out` (the caller emits them after releasing the buffer lock).
  virtual void OnTick(Schedule* schedule, std::uint64_t tick_ms,
                      Detections* out);
  /// Hook for P*: called when E3 closes `schedule`; same collection rule.
  virtual void OnClose(Schedule* schedule, const Occurrence& closer,
                       Detections* out);

  std::uint64_t period_ms_;
  LogicalClock* clock_;
  std::array<State, kNumContexts> state_;
};

/// P*(E1, t, E3): like P but cumulative — one occurrence at E3 carrying the
/// timestamps of every elapsed period.
class PeriodicStarNode : public PeriodicNode {
 public:
  PeriodicStarNode(std::string name, EventNode* opener, std::uint64_t period_ms,
                   EventNode* closer, LogicalClock* clock);

 protected:
  void OnTick(Schedule* schedule, std::uint64_t tick_ms,
              Detections* out) override;
  void OnClose(Schedule* schedule, const Occurrence& closer,
               Detections* out) override;
};

}  // namespace sentinel::detector

#endif  // SENTINEL_DETECTOR_OPERATOR_NODES_H_
