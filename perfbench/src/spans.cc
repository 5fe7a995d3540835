#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SpanLog::full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size() >= capacity_;
}

std::int64_t SpanLog::Begin(const char* layer, const char* name,
                            std::int64_t parent, std::uint64_t op) {
  if (!enabled()) return -1;
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, name, now, 0, parent, op});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::End(std::int64_t id, std::uint64_t at_ns) {
  if (id < 0) return;
  const std::uint64_t now = at_ns != 0 ? at_ns : NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void SpanLog::Relabel(std::int64_t id, const char* layer, const char* name) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].layer = layer;
  spans_[static_cast<std::size_t>(id)].name = name;
}

std::int64_t SpanLog::Add(const char* layer, const char* name,
                          std::uint64_t start, std::uint64_t end,
                          std::int64_t parent, std::uint64_t op) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, name, start, end, parent, op});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

bool Closed(const Span& s) { return s.end >= s.start && s.end != 0; }

/// Children of every span, by parent index.
std::vector<std::vector<std::size_t>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size() &&
        Closed(spans[i])) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return children;
}

/// Length of the union of the children's intervals, clipped to `parent`.
double CoveredNs(const Span& parent, const std::vector<std::size_t>& kids,
                 const std::vector<Span>& spans) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  iv.reserve(kids.size());
  for (std::size_t k : kids) {
    const std::uint64_t a = std::max(spans[k].start, parent.start);
    const std::uint64_t b = std::min(spans[k].end, parent.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  std::uint64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) covered += static_cast<double>(cur_b - cur_a);
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) covered += static_cast<double>(cur_b - cur_a);
  return covered;
}

}  // namespace

LayerBreakdown ComputeBreakdown(const std::vector<Span>& spans) {
  LayerBreakdown out;
  const auto children = ChildLists(spans);
  double layer_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!Closed(s)) continue;
    const double dur = static_cast<double>(s.end - s.start);
    if (std::strcmp(s.layer, "op") == 0) {
      ++out.ops;
      out.op_ns += dur;
      continue;
    }
    const double self = std::max(0.0, dur - CoveredNs(s, children[i], spans));
    out.self_ns[s.layer] += self;
    layer_self += self;
  }
  out.residual_share = out.op_ns > 0 ? 1.0 - layer_self / out.op_ns : 0.0;
  return out;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (Closed(s) && name == s.name) {
      out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

EdgeGaps ChildEdgeGaps(const std::vector<Span>& spans,
                       const std::string& parent_name) {
  EdgeGaps out;
  const auto children = ChildLists(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!Closed(s) || parent_name != s.name || children[i].empty()) continue;
    std::uint64_t first = s.end, last = s.start;
    for (std::size_t k : children[i]) {
      first = std::min(first, spans[k].start);
      last = std::max(last, spans[k].end);
    }
    if (first >= s.start) out.head_ns.push_back(static_cast<double>(first - s.start));
    if (s.end >= last) out.tail_ns.push_back(static_cast<double>(s.end - last));
  }
  return out;
}

}  // namespace perfbench
