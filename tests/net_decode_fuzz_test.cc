// Decoder robustness: seeded mutations of valid SNET frames must decode to a
// value or fail with a Corruption status — never crash, over-read or make
// one allocation larger than the frame bound. Deterministic per seed.
//
// The allocation probe replaces the global allocation functions, so this
// file builds into its own test binary (net_decode_fuzz_tests, see
// tests/CMakeLists.txt): the replacement must not reach sentinel_tests,
// where the sanitizers' own operator new/delete checks stay in force. The
// ASan/UBSan CI job runs both binaries through ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "allocation_probe.h"
#include "common/bytes.h"
#include "detector/event_types.h"
#include "net/protocol.h"
#include "oodb/value.h"

namespace sentinel::net {
namespace {

/// The most one allocation may take while decoding a frame body, whatever
/// its bytes: the frame bound the assembler validates against.
constexpr std::size_t kDecodeBudget = kDefaultMaxFrameBytes;

/// The most one allocation may take while the assembler buffers `n` bytes:
/// its buffer, grown by doubling, plus fixed-size objects.
std::size_t AssemblerBudget(std::size_t n) { return 2 * n + 4096; }

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
  std::uint32_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state_ >> 33);
  }
  std::size_t Below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

detector::PrimitiveOccurrence SampleOccurrence(int v) {
  detector::PrimitiveOccurrence occ;
  occ.event_name = "g_order";
  occ.class_name = "Order";
  occ.oid = 42;
  occ.modifier = detector::EventModifier::kEnd;
  occ.method_signature = "void submit(int qty)";
  occ.at = 7;
  occ.at_ms = 1'700'000'000'000ull;
  occ.txn = 3;
  auto params = std::make_shared<detector::ParamList>();
  params->Insert("qty", oodb::Value::Int(v));
  params->Insert("note", oodb::Value::String("rush"));
  params->Insert("price", oodb::Value::Double(9.5));
  params->Insert("owner", oodb::Value::OfOid(5));
  params->Insert("ok", oodb::Value::Bool(true));
  params->Insert("none", oodb::Value::Null());
  occ.params = params;
  return occ;
}

/// One valid frame of every message type, with and without trace trailers.
std::vector<std::string> Corpus() {
  std::vector<std::string> frames;
  HelloMsg hello;
  hello.seq = 1;
  hello.app_name = "fuzz_app";
  frames.push_back(hello.Encode());
  StatusReplyMsg reply;
  reply.seq = 2;
  reply.code = WireCode::kRetryLater;
  reply.retry_after_ms = 50;
  reply.message = "admission queue full";
  frames.push_back(reply.Encode());
  DefinePrimitiveMsg define;
  define.seq = 3;
  define.name = "g_order";
  define.app_name = "fuzz_app";
  define.class_name = "Order";
  define.method_signature = "void submit(int qty)";
  frames.push_back(define.Encode());
  SubscribeMsg subscribe;
  subscribe.seq = 4;
  subscribe.event = "g_order";
  subscribe.context = detector::ParamContext::kChronicle;
  frames.push_back(subscribe.Encode());
  ByeMsg bye;
  bye.reason = "slow consumer";
  frames.push_back(bye.Encode());
  TraceContext tc;
  tc.trace_id = 11;
  tc.parent_span = 12;
  tc.origin_ns = 13;
  for (bool traced : {false, true}) {
    BytesWriter body;
    EncodeOccurrence(SampleOccurrence(1), &body);
    if (traced) AppendTraceContext(tc, &body);
    frames.push_back(EncodeFrame(MessageType::kNotify, body,
                                 traced ? kFlagTraceContext : 0));
    EventPushMsg push;
    push.event = "g_both";
    push.occurrence.event_name = "g_both";
    push.occurrence.t_start = 1;
    push.occurrence.t_end = 2;
    push.occurrence.txn = 3;
    for (int v = 0; v < 2; ++v) {
      push.occurrence.constituents.push_back(
          std::make_shared<detector::PrimitiveOccurrence>(
              SampleOccurrence(v)));
    }
    if (traced) push.trace = tc;
    frames.push_back(push.Encode());
  }
  frames.push_back(EncodePing(123));
  frames.push_back(EncodePong(123, 456));
  frames.push_back(EncodeFrame(MessageType::kPing));
  return frames;
}

/// Applies 1–4 random edits: bit flips, byte stores, hostile u32 length
/// stores, truncation, random insertion and slice duplication.
void Mutate(Lcg* rng, std::string* bytes) {
  const int edits = 1 + static_cast<int>(rng->Below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t size = bytes->size();
    switch (rng->Below(6)) {
      case 0:
        if (size > 0) {
          (*bytes)[rng->Below(size)] ^=
              static_cast<char>(1u << rng->Below(8));
        }
        break;
      case 1:
        if (size > 0) {
          (*bytes)[rng->Below(size)] = static_cast<char>(rng->Next());
        }
        break;
      case 2:
        if (size >= 4) {
          const std::uint32_t hostile[] = {
              0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu,
              static_cast<std::uint32_t>(size),
              static_cast<std::uint32_t>(size + 1)};
          const std::uint32_t v = hostile[rng->Below(6)];
          std::memcpy(bytes->data() + rng->Below(size - 3), &v, sizeof(v));
        }
        break;
      case 3:
        bytes->resize(rng->Below(size + 1));
        break;
      case 4: {
        std::string extra(rng->Below(16) + 1, '\0');
        for (char& c : extra) c = static_cast<char>(rng->Next());
        bytes->insert(rng->Below(size + 1), extra);
        break;
      }
      case 5:
        if (size > 0) {
          const std::size_t from = rng->Below(size);
          const std::string slice =
              bytes->substr(from, rng->Below(size - from) + 1);
          bytes->insert(rng->Below(size + 1), slice);
        }
        break;
    }
  }
}

template <typename T>
void ExpectValueOrCorruption(const Result<T>& result, const char* decoder) {
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsCorruption())
        << decoder << ": " << result.status();
  }
}

/// Runs every SNET body decoder over `body`, each from a fresh reader; the
/// flag-dependent ones run with and without the trace-context flag.
void DecodeEveryWay(const std::vector<std::uint8_t>& body) {
  auto reader = [&body] { return BytesReader(body); };
  {
    BytesReader r = reader();
    ExpectValueOrCorruption(HelloMsg::Decode(&r), "HelloMsg");
  }
  {
    BytesReader r = reader();
    ExpectValueOrCorruption(StatusReplyMsg::Decode(&r), "StatusReplyMsg");
  }
  {
    BytesReader r = reader();
    ExpectValueOrCorruption(DefinePrimitiveMsg::Decode(&r),
                            "DefinePrimitiveMsg");
  }
  {
    BytesReader r = reader();
    ExpectValueOrCorruption(SubscribeMsg::Decode(&r), "SubscribeMsg");
  }
  {
    BytesReader r = reader();
    ExpectValueOrCorruption(ByeMsg::Decode(&r), "ByeMsg");
  }
  for (std::uint16_t flags : {std::uint16_t{0}, kFlagTraceContext}) {
    {
      BytesReader r = reader();
      auto occ = DecodeOccurrence(&r);
      ExpectValueOrCorruption(occ, "DecodeOccurrence");
      // The trailer reader never fails: absent or short yields zeros.
      const TraceContext tc = ReadTraceContext(flags, &r);
      if (flags == 0) {
        EXPECT_FALSE(tc.traced() || tc.has_origin());
      }
      EXPECT_LE(r.position(), body.size());
    }
    {
      BytesReader r = reader();
      ExpectValueOrCorruption(EventPushMsg::Decode(&r, flags),
                              "EventPushMsg");
      EXPECT_LE(r.position(), body.size());
    }
  }
  {
    BytesReader r = reader();
    (void)ReadPingT0(&r);
    EXPECT_LE(r.position(), body.size());
  }
  {
    BytesReader r = reader();
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    if (ReadPongTimes(&r, &t0, &t1)) {
      EXPECT_NE(t0, 0u);
    }
    EXPECT_LE(r.position(), body.size());
  }
}

class NetDecodeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NetDecodeFuzz, CorpusFramesDecode) {
  // Sanity for the harness: unmutated frames reassemble and decode, so the
  // mutation rounds below do reach the decoders.
  for (const std::string& wire : Corpus()) {
    FrameAssembler assembler;
    assembler.Feed(wire.data(), wire.size());
    FrameAssembler::Frame frame;
    auto ready = assembler.Next(&frame);
    ASSERT_TRUE(ready.ok() && *ready) << MessageTypeToString(frame.type);
    BytesReader r(frame.body);
    switch (frame.type) {
      case MessageType::kHello:
        EXPECT_TRUE(HelloMsg::Decode(&r).ok());
        break;
      case MessageType::kStatusReply:
        EXPECT_TRUE(StatusReplyMsg::Decode(&r).ok());
        break;
      case MessageType::kDefinePrimitive:
        EXPECT_TRUE(DefinePrimitiveMsg::Decode(&r).ok());
        break;
      case MessageType::kSubscribe:
        EXPECT_TRUE(SubscribeMsg::Decode(&r).ok());
        break;
      case MessageType::kBye:
        EXPECT_TRUE(ByeMsg::Decode(&r).ok());
        break;
      case MessageType::kNotify: {
        EXPECT_TRUE(DecodeOccurrence(&r).ok());
        const TraceContext tc = ReadTraceContext(frame.flags, &r);
        EXPECT_EQ(tc.traced(), frame.flags == kFlagTraceContext);
        break;
      }
      case MessageType::kEventPush: {
        auto push = EventPushMsg::Decode(&r, frame.flags);
        ASSERT_TRUE(push.ok());
        EXPECT_EQ(push->occurrence.constituents.size(), 2u);
        break;
      }
      case MessageType::kPing:
      case MessageType::kPong:
        break;
    }
  }
}

TEST_P(NetDecodeFuzz, MutatedBodiesFailAsStatusWithinTheFrameBound) {
  const std::vector<std::string> corpus = Corpus();
  Lcg rng(static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 400; ++round) {
    std::string body = corpus[rng.Below(corpus.size())].substr(
        kFrameHeaderBytes);
    Mutate(&rng, &body);
    const std::vector<std::uint8_t> bytes(body.begin(), body.end());
    std::size_t largest = 0;
    {
      AllocationProbe probe;
      DecodeEveryWay(bytes);
      largest = probe.largest();
    }
    EXPECT_LE(largest, kDecodeBudget)
        << "round " << round << ": " << bytes.size() << "-byte body";
  }
}

TEST_P(NetDecodeFuzz, MutatedStreamsPoisonTheAssemblerOrDecode) {
  const std::vector<std::string> corpus = Corpus();
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  constexpr std::size_t kMaxFrame = 4096;
  for (int round = 0; round < 300; ++round) {
    std::string stream;
    const std::size_t frames = 1 + rng.Below(4);
    for (std::size_t i = 0; i < frames; ++i) {
      stream += corpus[rng.Below(corpus.size())];
    }
    Mutate(&rng, &stream);
    FrameAssembler assembler(kMaxFrame);
    std::size_t fed = 0;
    bool poisoned = false;
    std::size_t assembler_largest = 0;
    std::size_t decode_largest = 0;
    auto next = [&](FrameAssembler::Frame* frame) {
      AllocationProbe probe;
      auto ready = assembler.Next(frame);
      assembler_largest = std::max(assembler_largest, probe.largest());
      return ready;
    };
    while (fed < stream.size() && !poisoned) {
      const std::size_t chunk =
          std::min(stream.size() - fed, 1 + rng.Below(64));
      {
        AllocationProbe probe;
        assembler.Feed(stream.data() + fed, chunk);
        assembler_largest = std::max(assembler_largest, probe.largest());
      }
      fed += chunk;
      for (;;) {
        FrameAssembler::Frame frame;
        auto ready = next(&frame);
        if (!ready.ok()) {
          EXPECT_TRUE(ready.status().IsCorruption()) << ready.status();
          poisoned = true;
          break;
        }
        if (!*ready) break;
        EXPECT_LE(frame.body.size(), kMaxFrame);
        AllocationProbe probe;
        DecodeEveryWay(frame.body);
        decode_largest = std::max(decode_largest, probe.largest());
      }
    }
    EXPECT_LE(assembler_largest, AssemblerBudget(stream.size()))
        << "round " << round << ": " << stream.size() << "-byte stream";
    EXPECT_LE(decode_largest, kDecodeBudget) << "round " << round;
    if (poisoned) {
      // A framing violation is sticky: nothing after it is trusted.
      FrameAssembler::Frame frame;
      EXPECT_FALSE(assembler.Next(&frame).ok());
    }
  }
}

TEST(NetDecodeFuzzHostile, LengthPrefixIsNotAnAllocationRequest) {
  // A header claiming the largest legal body, followed by a few bytes: the
  // assembler waits for the body instead of reserving it.
  BytesWriter header;
  header.PutU32(kFrameMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<std::uint8_t>(MessageType::kNotify));
  header.PutU16(0);
  header.PutU32(static_cast<std::uint32_t>(kDefaultMaxFrameBytes));
  header.PutU32(0);
  std::string wire(header.data().begin(), header.data().end());
  wire += "partial";
  FrameAssembler assembler;
  std::size_t largest = 0;
  {
    AllocationProbe probe;
    assembler.Feed(wire.data(), wire.size());
    FrameAssembler::Frame frame;
    auto ready = assembler.Next(&frame);
    ASSERT_TRUE(ready.ok());
    EXPECT_FALSE(*ready);
    largest = probe.largest();
  }
  EXPECT_LE(largest, AssemblerBudget(wire.size()));

  // Body-level length fields claiming 4 GiB fail without allocating it.
  BytesWriter body;
  body.PutU32(0xFFFFFFFFu);  // event_name length
  const std::vector<std::uint8_t> bytes = body.data();
  {
    AllocationProbe probe;
    DecodeEveryWay(bytes);
    largest = probe.largest();
  }
  EXPECT_LT(largest, 4096u) << "a length field was trusted";
}

// The densest parameter encoding (empty names, null values: 5 wire bytes
// per 72-byte entry) must not expand past the frame bound. A list at the
// cap decodes within it; one past the cap, or a whole frame of them, is
// Corruption before any entry is stored.
TEST(NetDecodeFuzzHostile, DenseParameterListsStayWithinTheFrameBound) {
  auto notify_body = [](std::size_t params) {
    detector::PrimitiveOccurrence occ = SampleOccurrence(1);
    occ.params = nullptr;
    BytesWriter w;
    EncodeOccurrence(occ, &w);  // ends in a u32 parameter count of 0
    std::vector<std::uint8_t> body = w.data();
    body.resize(body.size() - 4);
    BytesWriter tail;
    tail.PutU32(static_cast<std::uint32_t>(params));
    for (std::size_t i = 0; i < params; ++i) {
      tail.PutString("");
      oodb::Value::Null().Serialize(&tail);
    }
    body.insert(body.end(), tail.data().begin(), tail.data().end());
    return body;
  };
  struct Case {
    std::size_t params;
    bool decodes;
  };
  for (const Case c : {Case{kMaxDecodedParams, true},
                       Case{kMaxDecodedParams + 1, false},
                       Case{(kDefaultMaxFrameBytes - 100) / 5, false}}) {
    const std::vector<std::uint8_t> body = notify_body(c.params);
    ASSERT_LE(body.size(), kDefaultMaxFrameBytes);
    BytesReader r(body);
    std::size_t largest = 0;
    {
      AllocationProbe probe;
      auto occ = DecodeOccurrence(&r);
      ASSERT_EQ(occ.ok(), c.decodes) << c.params << " parameters";
      if (occ.ok()) {
        EXPECT_EQ(occ->params->size(), c.params);
      } else {
        EXPECT_TRUE(occ.status().IsCorruption()) << occ.status();
      }
      largest = probe.largest();
    }
    EXPECT_LE(largest, kDecodeBudget) << c.params << " parameters";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetDecodeFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace sentinel::net
