// bus_remote: the OO7 event stream over the TCP event bus. An in-process
// EventBusServer on 127.0.0.1 serves two RemoteGedClient sessions: a
// publisher that defines an OO7 catalog of global primitives and streams
// Notify frames, and a subscriber that receives the pushed detections. It
// loads the network plane (codec, admission, dispatcher, GED forward, push)
// and bypasses rules and storage. A closed loop keeps 8 events outstanding:
// enough to matter for throughput, far below the 1024-occurrence admission
// capacity, so nothing is shed.

#include "bus_remote.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/protocol.h"
#include "net/remote_client.h"

namespace perfbench::bus {

void DeliveryChecker::OnDelivery(std::size_t event, std::uint64_t seq) {
  if (event >= last_seq_.size() || seq == 0) {
    ++unknown_;
    return;
  }
  if (seen_.size() <= seq) seen_.resize(seq * 2 + 1, false);
  if (seen_[seq]) {
    ++duplicates_;
    return;
  }
  seen_[seq] = true;
  ++delivered_;
  if (seq < last_seq_[event]) ++reordered_;
  last_seq_[event] = std::max(last_seq_[event], seq);
}

void DeliveryChecker::Finish(std::uint64_t published, Result* result) const {
  const std::uint64_t lost = published > delivered_ ? published - delivered_ : 0;
  const struct {
    const char* what;
    std::uint64_t n;
  } rows[] = {{"lost", lost},
              {"duplicated", duplicates_},
              {"reordered", reordered_},
              {"unknown", unknown_}};
  for (const auto& row : rows) {
    if (row.n == 0) continue;
    result->failed += row.n;
    result->Problem("bus_remote: " + std::to_string(row.n) + " deliveries " +
                    row.what);
  }
}

}  // namespace perfbench::bus

namespace perfbench {
namespace {

using sentinel::detector::EventModifier;
using sentinel::detector::ParamContext;
using sentinel::detector::ParamList;
using sentinel::detector::PrimitiveOccurrence;

constexpr int kCatalog = 2000;
constexpr int kHotEvents = 16;
constexpr std::uint64_t kWindow = 8;
constexpr std::size_t kRing = 1024;  // > kWindow: stamps of in-flight events
constexpr auto kStallTimeout = std::chrono::seconds(5);

const char* kOo7Classes[] = {"Module",     "Assembly", "CompositePart",
                             "AtomicPart", "Document", "Connection"};

struct CatalogEntry {
  std::string name;
  std::string class_name;
  std::string method;
};

CatalogEntry Entry(int i) {
  return CatalogEntry{"g" + std::to_string(i), kOo7Classes[i % 6],
                      "void m" + std::to_string(i) + "(int seq)"};
}

/// Delivery state shared by the load thread and the subscriber's push
/// thread.
struct Stream {
  std::mutex mu;
  std::condition_variable cv;
  bus::DeliveryChecker checker{kHotEvents};  // guarded by mu
  LatencySamples latency;                     // guarded by mu
  SlicedLoop* loop = nullptr;                 // guarded by mu
  std::uint64_t last_delivery_ns = 0;         // guarded by mu
  /// Deliveries of seq >= record_from are timed.
  std::atomic<std::uint64_t> record_from{~0ULL};
  std::atomic<std::uint64_t> send_ns[kRing] = {};
  std::atomic<std::uint64_t> return_ns[kRing] = {};
  SpanLog* log = nullptr;

  void OnPush(std::size_t event, std::uint64_t seq) {
    const std::uint64_t now = NowNs();
    const std::uint64_t sent = send_ns[seq % kRing].load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mu);
    checker.OnDelivery(event, seq);
    last_delivery_ns = now;
    if (seq >= record_from.load(std::memory_order_relaxed)) {
      latency.Add(now - sent);
      if (loop != nullptr) loop->Add(now, now - sent, true, true);
    }
    if (log->enabled() && !log->full()) {
      const std::uint64_t returned =
          return_ns[seq % kRing].load(std::memory_order_acquire);
      const std::int64_t root = log->Add("op", "op", sent, now, -1, seq);
      if (returned >= sent && returned <= now) {
        log->Add("net", "net.client_notify", sent, returned, root, seq);
        log->Add("net", "net.transport", returned, now, root, seq);
      }
    }
    cv.notify_one();
  }
};

/// One server with its publisher and subscriber. Each episode
/// builds a fresh one.
class Bus {
 public:
  Bus() = default;
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;
  ~Bus() {
    if (sub_ != nullptr) sub_->Stop();
    if (pub_ != nullptr) pub_->Stop();
    server_.Stop();
  }

  sentinel::Status Setup(const std::vector<int>& hot, Stream* stream) {
    SENTINEL_RETURN_NOT_OK(server_.Start(sentinel::net::EventBusServer::Options{}));
    pub_ = Connect("oo7_pub");
    sub_ = Connect("oo7_sub");
    SENTINEL_RETURN_NOT_OK(pub_->Start());
    SENTINEL_RETURN_NOT_OK(sub_->Start());
    if (!pub_->WaitConnected(std::chrono::seconds(5)) ||
        !sub_->WaitConnected(std::chrono::seconds(5))) {
      return sentinel::Status::IOError("bus clients did not connect");
    }
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kCatalog; ++i) {
      const CatalogEntry e = Entry(i);
      SENTINEL_RETURN_NOT_OK(pub_->DefineGlobalPrimitive(
          e.name, e.class_name, EventModifier::kEnd, e.method));
    }
    define_ns_ = NowNs() - t0;
    for (std::size_t k = 0; k < hot.size(); ++k) {
      SENTINEL_RETURN_NOT_OK(sub_->Subscribe(
          Entry(hot[k]).name, ParamContext::kRecent,
          [stream, k](const std::string&,
                      const sentinel::detector::Occurrence& occ) {
            auto seq = occ.Param("seq");
            stream->OnPush(k, seq.ok() ? static_cast<std::uint64_t>(seq->AsInt())
                                       : 0);
          }));
    }
    return sentinel::Status::OK();
  }

  sentinel::net::RemoteGedClient* publisher() { return pub_.get(); }
  sentinel::net::RemoteGedClient* subscriber() { return sub_.get(); }
  sentinel::net::EventBusServer* server() { return &server_; }
  std::uint64_t define_ns() const { return define_ns_; }

 private:
  std::unique_ptr<sentinel::net::RemoteGedClient> Connect(const char* app) {
    sentinel::net::RemoteGedClient::Options o;
    o.port = server_.port();
    o.app_name = app;
    return std::make_unique<sentinel::net::RemoteGedClient>(o);
  }

  sentinel::ged::GlobalEventDetector ged_;
  sentinel::net::EventBusServer server_{&ged_};
  std::unique_ptr<sentinel::net::RemoteGedClient> pub_;
  std::unique_ptr<sentinel::net::RemoteGedClient> sub_;
  std::uint64_t define_ns_ = 0;
};

PrimitiveOccurrence MakeOccurrence(int catalog_index, std::uint64_t seq) {
  const CatalogEntry e = Entry(catalog_index);
  PrimitiveOccurrence occ;
  occ.class_name = e.class_name;
  occ.oid = seq % 10000 + 1;
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = e.method;
  occ.txn = 1;
  auto params = std::make_shared<ParamList>();
  params->Insert("seq", sentinel::oodb::Value::Int(static_cast<std::int64_t>(seq)));
  occ.params = std::move(params);
  return occ;
}

/// Per-occurrence cost of the public frame codec (encode, frame, reassemble,
/// decode), median over batches of the workload's own occurrences.
double CodecNs(const std::vector<int>& hot, Rng* gen) {
  constexpr int kBatch = 100;
  std::vector<PrimitiveOccurrence> occs;
  for (int i = 0; i < kBatch; ++i) {
    occs.push_back(MakeOccurrence(hot[gen->Below(hot.size())],
                                  static_cast<std::uint64_t>(i + 1)));
  }
  sentinel::net::FrameAssembler assembler;
  std::vector<double> per_occ;
  std::uint64_t decoded = 0;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t t0 = NowNs();
    for (const auto& occ : occs) {
      sentinel::BytesWriter body;
      sentinel::net::EncodeOccurrence(occ, &body);
      const std::string wire =
          sentinel::net::EncodeFrame(sentinel::net::MessageType::kNotify, body);
      assembler.Feed(wire.data(), wire.size());
      sentinel::net::FrameAssembler::Frame frame;
      auto ready = assembler.Next(&frame);
      if (!ready.ok() || !*ready) continue;
      sentinel::BytesReader reader(frame.body);
      if (sentinel::net::DecodeOccurrence(&reader).ok()) ++decoded;
    }
    per_occ.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  return decoded == 200ULL * kBatch ? Median(per_occ) : 0;
}

/// One episode: a fresh server and clients, set up, warmed up and measured
/// for `seconds`, then checked. Returns false when set-up failed.
bool BusEpisode(const Options& options, const std::vector<int>& hot,
                double seconds, Rng* rng, SpanLog* span_log, SlicedLoop* sliced,
                Result* out) {
  Result& result = *out;
  SpanLog& log = *span_log;
  SlicedLoop& loop = *sliced;
  Rng& gen = *rng;
  // The stream outlives the bus whose subscriber pushes into it.
  Stream stream_state;
  Stream* stream = &stream_state;
  stream->log = &log;
  auto bus = std::make_unique<Bus>();
  const std::uint64_t t0 = NowNs();
  const sentinel::Status st = bus->Setup(hot, stream);
  const std::uint64_t t1 = NowNs();
  if (!st.ok()) {
    result.Problem("bus_remote set-up failed: " + st.ToString());
    return false;
  }
  loop.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  auto* pub = bus->publisher();

  std::uint64_t sent = 0;
  bool stalled = false;
  // Publishes one event once the window has room; blocks (never spins)
  // while kWindow events are outstanding.
  auto publish = [&]() {
    {
      std::unique_lock<std::mutex> lock(stream->mu);
      if (!stream->cv.wait_for(lock, kStallTimeout, [&] {
            return sent - stream->checker.delivered() < kWindow;
          })) {
        stalled = true;
        return;
      }
    }
    const int k = static_cast<int>(gen.Below(kHotEvents));
    const std::uint64_t seq = ++sent;
    PrimitiveOccurrence occ = MakeOccurrence(hot[static_cast<std::size_t>(k)], seq);
    stream->send_ns[seq % kRing].store(NowNs(), std::memory_order_release);
    if (!pub->Notify(occ).ok()) stalled = true;
    stream->return_ns[seq % kRing].store(NowNs(), std::memory_order_release);
  };
  auto drain = [&]() {
    std::unique_lock<std::mutex> lock(stream->mu);
    stream->cv.wait_for(lock, kStallTimeout,
                        [&] { return stream->checker.delivered() >= sent; });
  };
  // Runs the loop for `seconds`, then waits for every delivery.
  auto run_for = [&](double seconds) {
    drain();
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      stream->latency = LatencySamples();
      stream->record_from.store(sent + 1);
    }
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (NowNs() < deadline && !stalled && !(log.enabled() && log.full())) {
      publish();
    }
    drain();
  };

  run_for(kWarmupSeconds);
  const auto s0 = bus->server()->stats();
  if (!options.trace) {
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      stream->loop = &loop;
      loop.Start(NowNs());
    }
    run_for(seconds);
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      loop.Finish(stream->last_delivery_ns);
      stream->loop = nullptr;
    }
  } else {
    run_for(options.seconds * 0.3);
    LatencySamples untraced;
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      untraced = stream->latency;
    }
    log.set_enabled(true);
    run_for(options.seconds * 0.7);
    log.set_enabled(false);
    LatencySamples traced;
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      traced = stream->latency;
    }
    const std::vector<Span> all = log.Snapshot();
    const auto s1 = bus->server()->stats();
    const auto cstats = pub->stats();
    const double events = static_cast<double>(s1.dispatched - s0.dispatched);
    result.Add("core.op_p99_us", untraced.PercentileUs(0.99).value_or(0), "us");
    result.Add("net.codec_ns", CodecNs(hot, &gen), "ns");
    AddMedian("net.client_notify_ns", Durations(all, "net.client_notify"), 1,
              "ns", &result);
    result.Add("net.bytes_per_event",
               events > 0 ? static_cast<double>(s1.bytes_in - s0.bytes_in +
                                                s1.bytes_out - s0.bytes_out) /
                                events
                          : 0,
               "B");
    result.Add("net.dispatch_p50_us",
               static_cast<double>(s1.e2e_delivery_ns.QuantileNs(0.5)) / 1000.0,
               "us");
    result.Add("net.detect_p50_us",
               static_cast<double>(s1.e2e_detect_ns.QuantileNs(0.5)) / 1000.0,
               "us");
    result.Add("net.define_rtt_us",
               static_cast<double>(bus->define_ns()) / kCatalog / 1000.0, "us");
    result.Add("net.sheds",
               static_cast<double>(s1.sheds + cstats.sheds_received), "count");
    result.Add("net.drops", static_cast<double>(cstats.notifies_dropped),
               "count");
    const auto traced_p50 = traced.PercentileUs(0.5);
    const auto untraced_p50 = untraced.PercentileUs(0.5);
    result.Add("obs.trace_overhead_ratio",
               traced_p50 && untraced_p50 ? *traced_p50 / *untraced_p50 : 0,
               "ratio");
    AddBreakdown(all, {"net"}, &result);
    AddHarnessOverhead(&result);
  }

  // Correctness: every published event delivered once, in order, and
  // nothing dropped, shed or reconnected along the way.
  drain();
  result.attempted += sent;
  if (stalled) result.Problem("bus_remote: the stream stalled");
  {
    std::lock_guard<std::mutex> lock(stream->mu);
    stream->checker.Finish(sent, &result);
  }
  const auto cstats = pub->stats();
  const auto sstats = bus->server()->stats();
  const struct {
    const char* what;
    std::uint64_t n;
  } losses[] = {{"notifies dropped by the client", cstats.notifies_dropped},
                {"sheds received", cstats.sheds_received},
                {"notifies shed by the server", sstats.sheds},
                {"client disconnects",
                 cstats.disconnects + bus->subscriber()->stats().disconnects}};
  for (const auto& loss : losses) {
    if (loss.n == 0) continue;
    result.Problem("bus_remote: " + std::to_string(loss.n) + " " + loss.what);
  }
  bus.reset();  // stops the clients before the stream they push into
  return true;
}

}  // namespace

Result RunBusRemote(const Options& options) {
  Result result;
  SlicedLoop loop;
  SpanLog log(options.trace ? 1'000'000 : 0);
  Rng gen(options.seed * 0xd1342543de82ef95ULL + 3);
  std::vector<int> hot;
  while (hot.size() < static_cast<std::size_t>(kHotEvents)) {
    const int pick = static_cast<int>(gen.Below(kCatalog));
    if (std::find(hot.begin(), hot.end(), pick) == hot.end()) hot.push_back(pick);
  }
  for (int episode = 0; episode < Episodes(options); ++episode) {
    if (!BusEpisode(options, hot, options.seconds / Episodes(options), &gen,
                    &log, &loop, &result)) {
      break;
    }
  }
  if (!options.trace) loop.AddEndToEnd(&result);
  return result;
}

}  // namespace perfbench
