#include "detector/operator_nodes.h"

#include <algorithm>

#include "common/logging.h"
#include "common/pool.h"

namespace sentinel::detector {

namespace {

int Idx(ParamContext context) { return static_cast<int>(context); }

/// Removes buffered occurrences belonging to `txn` from `buffer`.
void EraseTxn(std::deque<OccurrenceRef>* buffer, TxnId txn) {
  std::erase_if(*buffer, [txn](const OccurrenceRef& o) { return o->txn == txn; });
}

}  // namespace

const char* OperatorKindToString(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kOr:
      return "OR";
    case OperatorKind::kAnd:
      return "AND";
    case OperatorKind::kSeq:
      return "SEQ";
    case OperatorKind::kNot:
      return "NOT";
    case OperatorKind::kAperiodic:
      return "A";
    case OperatorKind::kAperiodicCumulative:
      return "A*";
    case OperatorKind::kPlus:
      return "PLUS";
    case OperatorKind::kPeriodic:
      return "P";
    case OperatorKind::kPeriodicCumulative:
      return "P*";
    case OperatorKind::kAny:
      return "ANY";
  }
  return "?";
}

OperatorNode::OperatorNode(std::string name, OperatorKind kind,
                           std::vector<EventNode*> children)
    : EventNode(std::move(name)), children_(std::move(children)), kind_(kind) {
  MarkComposite();
  for (int port = 0; port < static_cast<int>(children_.size()); ++port) {
    if (children_[port] != nullptr) children_[port]->AddParent(this, port);
  }
}

std::shared_ptr<Occurrence> OperatorNode::Compose(
    std::span<const Occurrence* const> parts) const {
  auto occ = common::MakePooled<Occurrence>();
  occ->event_name = name();
  std::size_t links = 0;
  for (const Occurrence* part : parts) {
    if (part != nullptr) links += part->constituents.size();
  }
  occ->constituents.reserve(links);
  for (const Occurrence* part : parts) {
    if (part == nullptr) continue;
    if (occ->t_start == kInvalidTimestamp || part->t_start < occ->t_start) {
      occ->t_start = part->t_start;
    }
    if (occ->t_end == kInvalidTimestamp || part->t_end > occ->t_end) {
      occ->t_end = part->t_end;
    }
    if (part->at_ms > occ->at_ms) occ->at_ms = part->at_ms;
    occ->txn = part->txn;  // last part = terminator; its txn labels the result
    for (const auto& constituent : part->constituents) {
      occ->constituents.push_back(constituent);
    }
  }
  return occ;
}

// ---- OR ---------------------------------------------------------------------

OrNode::OrNode(std::string name, EventNode* left, EventNode* right)
    : OperatorNode(std::move(name), OperatorKind::kOr, {left, right}) {}

void OrNode::Receive(int port, const OccurrenceRef& occurrence,
                     ParamContext context) {
  // Stateless: no buffers, no lock.
  (void)port;
  Emit(Compose({occurrence.get()}), context);
}

// ---- AND --------------------------------------------------------------------

AndNode::AndNode(std::string name, EventNode* left, EventNode* right)
    : OperatorNode(std::move(name), OperatorKind::kAnd, {left, right}) {}

void AndNode::Receive(int port, const OccurrenceRef& occurrence,
                      ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    std::deque<OccurrenceRef>& mine = st.side[port];
    std::deque<OccurrenceRef>& other = st.side[1 - port];

    switch (context) {
      case ParamContext::kRecent:
        // Keep at most the most recent occurrence per side; a detection does
        // not consume the partner (it stays until replaced).
        if (!other.empty()) {
          out.push_back(Compose({other.back().get(), occurrence.get()}));
        }
        mine.clear();
        mine.push_back(occurrence);
        break;
      case ParamContext::kChronicle:
        // FIFO pairing; both partners consumed.
        if (!other.empty()) {
          out.push_back(Compose({other.front().get(), occurrence.get()}));
          other.pop_front();
        } else {
          mine.push_back(occurrence);
        }
        break;
      case ParamContext::kContinuous:
        // Every buffered partner pairs with (and is consumed by) the arrival.
        if (!other.empty()) {
          for (const OccurrenceRef& partner : other) {
            out.push_back(Compose({partner.get(), occurrence.get()}));
          }
          other.clear();
        } else {
          mine.push_back(occurrence);
        }
        break;
      case ParamContext::kCumulative:
        // One detection carrying everything accumulated on both sides.
        if (!other.empty()) {
          Parts parts;
          for (const OccurrenceRef& o : other) parts.push_back(o.get());
          for (const OccurrenceRef& o : mine) parts.push_back(o.get());
          parts.push_back(occurrence.get());
          out.push_back(Compose(parts));
          other.clear();
          mine.clear();
        } else {
          mine.push_back(occurrence);
        }
        break;
    }
  }
  EmitAll(out, context);
}

void AndNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) {
    EraseTxn(&st.side[0], txn);
    EraseTxn(&st.side[1], txn);
  }
}

void AndNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) {
    st.side[0].clear();
    st.side[1].clear();
  }
}

std::size_t AndNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.side[0].size() + st.side[1].size();
  return n;
}

// ---- SEQ --------------------------------------------------------------------

SeqNode::SeqNode(std::string name, EventNode* left, EventNode* right)
    : OperatorNode(std::move(name), OperatorKind::kSeq, {left, right}) {}

void SeqNode::Receive(int port, const OccurrenceRef& occurrence,
                      ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    if (port == 0) {  // initiator
      if (context == ParamContext::kRecent) st.initiators.clear();
      st.initiators.push_back(occurrence);
      return;
    }
    // Terminator: pair with initiators that strictly precede it.
    auto precedes = [&occurrence](const OccurrenceRef& init) {
      return init->t_end < occurrence->t_start;
    };
    switch (context) {
      case ParamContext::kRecent: {
        // Most recent qualifying initiator; not consumed.
        for (auto it = st.initiators.rbegin(); it != st.initiators.rend();
             ++it) {
          if (precedes(*it)) {
            out.push_back(Compose({it->get(), occurrence.get()}));
            break;
          }
        }
        break;
      }
      case ParamContext::kChronicle: {
        for (auto it = st.initiators.begin(); it != st.initiators.end();
             ++it) {
          if (precedes(*it)) {
            out.push_back(Compose({it->get(), occurrence.get()}));
            st.initiators.erase(it);
            break;
          }
        }
        break;
      }
      case ParamContext::kContinuous: {
        for (const OccurrenceRef& init : st.initiators) {
          if (precedes(init)) {
            out.push_back(Compose({init.get(), occurrence.get()}));
          }
        }
        std::erase_if(st.initiators, precedes);
        break;
      }
      case ParamContext::kCumulative: {
        Parts parts;
        for (const OccurrenceRef& init : st.initiators) {
          if (precedes(init)) parts.push_back(init.get());
        }
        if (!parts.empty()) {
          parts.push_back(occurrence.get());
          out.push_back(Compose(parts));
          std::erase_if(st.initiators, precedes);
        }
        break;
      }
    }
  }
  EmitAll(out, context);
}

void SeqNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) EraseTxn(&st.initiators, txn);
}

void SeqNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) st.initiators.clear();
}

std::size_t SeqNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.initiators.size();
  return n;
}

// ---- NOT --------------------------------------------------------------------

NotNode::NotNode(std::string name, EventNode* opener, EventNode* canceller,
                 EventNode* closer)
    : OperatorNode(std::move(name), OperatorKind::kNot,
                   {opener, canceller, closer}) {}

void NotNode::Receive(int port, const OccurrenceRef& occurrence,
                      ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    auto precedes = [&occurrence](const OccurrenceRef& init) {
      return init->t_end < occurrence->t_start;
    };
    switch (port) {
      case 0:  // opener E1
        if (context == ParamContext::kRecent) st.initiators.clear();
        st.initiators.push_back(occurrence);
        break;
      case 1:  // canceller E2: every pending window that started before it
               // dies
        std::erase_if(st.initiators, precedes);
        break;
      case 2: {  // closer E3
        switch (context) {
          case ParamContext::kRecent: {
            for (auto it = st.initiators.rbegin(); it != st.initiators.rend();
                 ++it) {
              if (precedes(*it)) {
                out.push_back(Compose({it->get(), occurrence.get()}));
                break;
              }
            }
            break;
          }
          case ParamContext::kChronicle: {
            for (auto it = st.initiators.begin(); it != st.initiators.end();
                 ++it) {
              if (precedes(*it)) {
                out.push_back(Compose({it->get(), occurrence.get()}));
                st.initiators.erase(it);
                break;
              }
            }
            break;
          }
          case ParamContext::kContinuous: {
            for (const OccurrenceRef& init : st.initiators) {
              if (precedes(init)) {
                out.push_back(Compose({init.get(), occurrence.get()}));
              }
            }
            std::erase_if(st.initiators, precedes);
            break;
          }
          case ParamContext::kCumulative: {
            Parts parts;
            for (const OccurrenceRef& init : st.initiators) {
              if (precedes(init)) parts.push_back(init.get());
            }
            if (!parts.empty()) {
              parts.push_back(occurrence.get());
              out.push_back(Compose(parts));
              std::erase_if(st.initiators, precedes);
            }
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  EmitAll(out, context);
}

void NotNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) EraseTxn(&st.initiators, txn);
}

void NotNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) st.initiators.clear();
}

std::size_t NotNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.initiators.size();
  return n;
}

// ---- A ----------------------------------------------------------------------

AperiodicNode::AperiodicNode(std::string name, EventNode* opener,
                             EventNode* detector, EventNode* closer)
    : OperatorNode(std::move(name), OperatorKind::kAperiodic,
                   {opener, detector, closer}) {}

void AperiodicNode::Receive(int port, const OccurrenceRef& occurrence,
                            ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    auto in_window = [&occurrence](const OccurrenceRef& opener) {
      return opener->t_end < occurrence->t_start;
    };
    switch (port) {
      case 0:  // E1 opens a window
        if (context == ParamContext::kRecent) st.openers.clear();
        st.openers.push_back(occurrence);
        break;
      case 1: {  // E2 signals inside every open window
        switch (context) {
          case ParamContext::kRecent: {
            for (auto it = st.openers.rbegin(); it != st.openers.rend();
                 ++it) {
              if (in_window(*it)) {
                out.push_back(Compose({it->get(), occurrence.get()}));
                break;
              }
            }
            break;
          }
          case ParamContext::kChronicle:
          case ParamContext::kCumulative: {
            // Oldest open window detects; windows stay open until E3.
            for (auto it = st.openers.begin(); it != st.openers.end(); ++it) {
              if (in_window(*it)) {
                out.push_back(Compose({it->get(), occurrence.get()}));
                break;
              }
            }
            break;
          }
          case ParamContext::kContinuous: {
            for (const OccurrenceRef& opener : st.openers) {
              if (in_window(opener)) {
                out.push_back(Compose({opener.get(), occurrence.get()}));
              }
            }
            break;
          }
        }
        break;
      }
      case 2:  // E3 closes windows that precede it, without signalling
        std::erase_if(st.openers, in_window);
        break;
      default:
        break;
    }
  }
  EmitAll(out, context);
}

void AperiodicNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) EraseTxn(&st.openers, txn);
}

void AperiodicNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) st.openers.clear();
}

std::size_t AperiodicNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.openers.size();
  return n;
}

// ---- A* ---------------------------------------------------------------------

AperiodicStarNode::AperiodicStarNode(std::string name, EventNode* opener,
                                     EventNode* detector, EventNode* closer)
    : OperatorNode(std::move(name), OperatorKind::kAperiodicCumulative,
                   {opener, detector, closer}) {}

void AperiodicStarNode::Receive(int port, const OccurrenceRef& occurrence,
                                ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    switch (port) {
      case 0:  // E1: open (RECENT restarts the window, dropping accumulation)
        if (context == ParamContext::kRecent) {
          st.openers.clear();
          st.accumulated.clear();
        }
        st.openers.push_back(occurrence);
        break;
      case 1:  // E2: accumulate while a window is open
        if (!st.openers.empty() &&
            st.openers.front()->t_end < occurrence->t_start) {
          st.accumulated.push_back(occurrence);
        }
        break;
      case 2: {  // E3: signal once with the whole accumulation (if non-empty)
        if (!st.openers.empty() && !st.accumulated.empty() &&
            st.openers.front()->t_end < occurrence->t_start) {
          Parts parts;
          parts.reserve(st.accumulated.size() + 2);
          parts.push_back(st.openers.front().get());
          for (const OccurrenceRef& acc : st.accumulated) {
            parts.push_back(acc.get());
          }
          parts.push_back(occurrence.get());
          out.push_back(Compose(parts));
        }
        st.openers.clear();
        st.accumulated.clear();
        break;
      }
      default:
        break;
    }
  }
  EmitAll(out, context);
}

void AperiodicStarNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) {
    EraseTxn(&st.openers, txn);
    EraseTxn(&st.accumulated, txn);
  }
}

void AperiodicStarNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) {
    st.openers.clear();
    st.accumulated.clear();
  }
}

std::size_t AperiodicStarNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) {
    n += st.openers.size() + st.accumulated.size();
  }
  return n;
}

// ---- ANY --------------------------------------------------------------------

AnyNode::AnyNode(std::string name, std::size_t threshold,
                 std::vector<EventNode*> children)
    : OperatorNode(std::move(name), OperatorKind::kAny, std::move(children)),
      threshold_(threshold) {
  for (State& st : state_) st.ports.resize(children_.size());
}

void AnyNode::Receive(int port, const OccurrenceRef& occurrence,
                      ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    auto& mine = st.ports[static_cast<std::size_t>(port)];

    // Ports (other than this one) currently holding at least one occurrence.
    common::InlineVector<std::size_t, 8> populated;
    for (std::size_t p = 0; p < st.ports.size(); ++p) {
      if (p != static_cast<std::size_t>(port) && !st.ports[p].empty()) {
        populated.push_back(p);
      }
    }
    if (populated.size() + 1 < threshold_) {
      // Not enough distinct constituents yet: buffer and wait.
      if (context == ParamContext::kRecent) mine.clear();
      mine.push_back(occurrence);
      return;
    }

    switch (context) {
      case ParamContext::kRecent: {
        // Use the most recent occurrence of the (threshold-1) most recently
        // active other ports; nothing is consumed.
        std::sort(populated.begin(), populated.end(),
                  [&st](std::size_t a, std::size_t b) {
                    return st.ports[a].back()->t_end >
                           st.ports[b].back()->t_end;
                  });
        Parts parts;
        for (std::size_t i = 0; i + 1 < threshold_; ++i) {
          parts.push_back(st.ports[populated[i]].back().get());
        }
        parts.push_back(occurrence.get());
        out.push_back(Compose(parts));
        mine.clear();
        mine.push_back(occurrence);
        break;
      }
      case ParamContext::kChronicle:
      case ParamContext::kContinuous: {
        // FIFO: consume the oldest occurrence of the (threshold-1) other
        // ports whose heads are oldest.
        std::sort(populated.begin(), populated.end(),
                  [&st](std::size_t a, std::size_t b) {
                    return st.ports[a].front()->t_end <
                           st.ports[b].front()->t_end;
                  });
        Parts parts;
        for (std::size_t i = 0; i + 1 < threshold_; ++i) {
          parts.push_back(st.ports[populated[i]].front().get());
        }
        parts.push_back(occurrence.get());
        out.push_back(Compose(parts));
        for (std::size_t i = 0; i + 1 < threshold_; ++i) {
          st.ports[populated[i]].pop_front();
        }
        break;
      }
      case ParamContext::kCumulative: {
        Parts parts;
        for (auto& port_buffer : st.ports) {
          for (const OccurrenceRef& o : port_buffer) parts.push_back(o.get());
        }
        parts.push_back(occurrence.get());
        out.push_back(Compose(parts));
        for (auto& port_buffer : st.ports) port_buffer.clear();
        break;
      }
    }
  }
  EmitAll(out, context);
}

void AnyNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) {
    for (auto& port_buffer : st.ports) EraseTxn(&port_buffer, txn);
  }
}

void AnyNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) {
    for (auto& port_buffer : st.ports) port_buffer.clear();
  }
}

std::size_t AnyNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) {
    for (const auto& port_buffer : st.ports) n += port_buffer.size();
  }
  return n;
}

// ---- PLUS -------------------------------------------------------------------

PlusNode::PlusNode(std::string name, EventNode* base, std::uint64_t delta_ms,
                   LogicalClock* clock)
    : OperatorNode(std::move(name), OperatorKind::kPlus, {base}),
      delta_ms_(delta_ms),
      clock_(clock) {}

void PlusNode::Receive(int port, const OccurrenceRef& occurrence,
                       ParamContext context) {
  (void)port;
  auto lock = LockBuffer();
  State& st = state_[Idx(context)];
  if (context == ParamContext::kRecent) st.pending.clear();
  st.pending.push_back(Pending{occurrence->at_ms + delta_ms_, occurrence});
}

void PlusNode::OnTimeAdvance(std::uint64_t now_ms) {
  for (int c = 0; c < kNumContexts; ++c) {
    if (!ActiveIn(static_cast<ParamContext>(c))) continue;
    Detections out;
    {
      auto lock = LockBuffer();
      State& st = state_[c];
      while (!st.pending.empty() &&
             st.pending.front().deadline_ms <= now_ms) {
        Pending fired = std::move(st.pending.front());
        st.pending.pop_front();
        auto occ = Compose({fired.base.get()});
        occ->t_start = occ->t_end = clock_->Tick();
        occ->at_ms = fired.deadline_ms;
        out.push_back(std::move(occ));
      }
    }
    EmitAll(out, static_cast<ParamContext>(c));
  }
}

void PlusNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) {
    st.pending.erase(std::remove_if(st.pending.begin(), st.pending.end(),
                                    [txn](const Pending& p) {
                                      return p.base->txn == txn;
                                    }),
                     st.pending.end());
  }
}

void PlusNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) st.pending.clear();
}

std::size_t PlusNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.pending.size();
  return n;
}

// ---- P ----------------------------------------------------------------------

PeriodicNode::PeriodicNode(std::string name, EventNode* opener,
                           std::uint64_t period_ms, EventNode* closer,
                           LogicalClock* clock)
    : OperatorNode(std::move(name), OperatorKind::kPeriodic,
                   {opener, nullptr, closer}),
      period_ms_(period_ms),
      clock_(clock) {}

void PeriodicNode::Receive(int port, const OccurrenceRef& occurrence,
                           ParamContext context) {
  Detections out;
  {
    auto lock = LockBuffer();
    State& st = state_[Idx(context)];
    if (port == 0) {
      if (context == ParamContext::kRecent) st.schedules.clear();
      st.schedules.push_back(
          Schedule{occurrence->at_ms + period_ms_, occurrence, 0, {}});
    } else if (port == 2) {
      // Close schedules whose opener precedes the closer.
      std::deque<Schedule> keep;
      for (Schedule& schedule : st.schedules) {
        if (schedule.opener->t_end < occurrence->t_start) {
          OnClose(&schedule, *occurrence, &out);
        } else {
          keep.push_back(std::move(schedule));
        }
      }
      st.schedules = std::move(keep);
    }
  }
  EmitAll(out, context);
}

void PeriodicNode::OnTimeAdvance(std::uint64_t now_ms) {
  for (int c = 0; c < kNumContexts; ++c) {
    if (!ActiveIn(static_cast<ParamContext>(c))) continue;
    Detections out;
    {
      auto lock = LockBuffer();
      for (Schedule& schedule : state_[c].schedules) {
        while (schedule.next_ms <= now_ms) {
          OnTick(&schedule, schedule.next_ms, &out);
          schedule.next_ms += period_ms_;
        }
      }
    }
    EmitAll(out, static_cast<ParamContext>(c));
  }
}

void PeriodicNode::OnTick(Schedule* schedule, std::uint64_t tick_ms,
                          Detections* out) {
  ++schedule->ticks;
  auto occ = Compose({schedule->opener.get()});
  occ->t_start = occ->t_end = clock_->Tick();
  occ->at_ms = tick_ms;
  out->push_back(std::move(occ));
}

void PeriodicNode::OnClose(Schedule* schedule, const Occurrence& closer,
                           Detections* out) {
  (void)schedule;
  (void)closer;
  (void)out;  // plain P: closing is silent
}

void PeriodicNode::FlushTxn(TxnId txn) {
  auto lock = LockBuffer();
  for (State& st : state_) {
    st.schedules.erase(std::remove_if(st.schedules.begin(),
                                      st.schedules.end(),
                                      [txn](const Schedule& s) {
                                        return s.opener->txn == txn;
                                      }),
                       st.schedules.end());
  }
}

void PeriodicNode::FlushAll() {
  auto lock = LockBuffer();
  for (State& st : state_) st.schedules.clear();
}

std::size_t PeriodicNode::BufferedCount() const {
  auto lock = LockBuffer();
  std::size_t n = 0;
  for (const State& st : state_) n += st.schedules.size();
  return n;
}

// ---- P* ---------------------------------------------------------------------

PeriodicStarNode::PeriodicStarNode(std::string name, EventNode* opener,
                                   std::uint64_t period_ms, EventNode* closer,
                                   LogicalClock* clock)
    : PeriodicNode(std::move(name), opener, period_ms, closer, clock) {}

void PeriodicStarNode::OnTick(Schedule* schedule, std::uint64_t tick_ms,
                              Detections* out) {
  (void)out;
  ++schedule->ticks;
  schedule->tick_times.push_back(tick_ms);
}

void PeriodicStarNode::OnClose(Schedule* schedule, const Occurrence& closer,
                               Detections* out) {
  if (schedule->ticks == 0) return;
  auto occ = Compose({schedule->opener.get(), &closer});
  // Synthesize the accumulated tick times as a constituent parameter list.
  auto params = std::make_shared<ParamList>();
  params->Insert("ticks", oodb::Value::Int(static_cast<std::int64_t>(
                              schedule->ticks)));
  for (std::size_t i = 0; i < schedule->tick_times.size(); ++i) {
    params->Insert("tick_ms_" + std::to_string(i),
                   oodb::Value::Int(static_cast<std::int64_t>(
                       schedule->tick_times[i])));
  }
  auto synthetic = std::make_shared<PrimitiveOccurrence>();
  synthetic->event_name = name();
  synthetic->class_name = "<temporal>";
  synthetic->at = occ->t_end;
  synthetic->at_ms = closer.at_ms;
  synthetic->txn = closer.txn;
  synthetic->params = std::move(params);
  occ->constituents.push_back(std::move(synthetic));
  out->push_back(std::move(occ));
}

}  // namespace sentinel::detector
