#ifndef SENTINEL_NET_PROTOCOL_H_
#define SENTINEL_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "detector/event_types.h"

namespace sentinel::net {

/// GED event-bus wire protocol: length-prefixed, CRC-framed binary frames
/// over TCP (the socket transport the paper leaves as future work).
///
/// Frame layout (little-endian, 16-byte header):
///
///   +--------+---------+--------+---------+-----------+-----------+------+
///   | u32    | u8      | u8     | u16     | u32       | u32       | ...  |
///   | magic  | version | type   | flags   | body_len  | body_crc  | body |
///   +--------+---------+--------+---------+-----------+-----------+------+
///
/// magic = 0x53'4E'45'54 ("SNET"), version = 1. `flags` is a bitfield of
/// OPTIONAL per-frame capabilities: a receiver processes the bits it knows
/// and MUST ignore the rest (forward compatibility — unknown bits never
/// poison the stream; only magic/version/size/CRC violations do). Bit 0
/// (kFlagTraceContext) marks a trace-context trailer appended after the
/// regular kNotify/kEventPush body; old decoders read their fixed fields
/// and never look at trailing bytes, so flagged frames stay readable.
/// body_crc is CRC-32 (IEEE) of the body bytes, so a torn or bit-flipped
/// frame is detected before any field is parsed — the receiving side treats
/// any header/CRC violation as a protocol error and drops the connection
/// (frames carry no resync marker; TCP framing is all-or-nothing here).
///
/// Control messages (Hello / DefinePrimitive / Subscribe) carry a client-
/// assigned u32 `seq` and are answered by a StatusReply echoing it. Notify
/// is fire-and-forget (seq 0): the at-most-once delivery contract (see
/// DESIGN.md §12) makes per-event acks pointless. A StatusReply with seq 0
/// is an *unsolicited* server verdict — today only RETRY_LATER, the typed
/// load-shed notice.

constexpr std::uint32_t kFrameMagic = 0x53'4E'45'54;  // "SNET"
constexpr std::uint8_t kProtocolVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 16;
/// Header flags bit: the body carries a TraceContext trailer after the
/// message's regular fields (kNotify / kEventPush only).
constexpr std::uint16_t kFlagTraceContext = 0x0001;
/// Upper bound a receiver enforces on body_len before buffering: a corrupt
/// length prefix must not make the peer allocate gigabytes.
constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;
/// Most parameters a decoded occurrence may carry: keeps its ParamList
/// (72-byte entries, grown by doubling) within the frame bound.
constexpr std::size_t kMaxDecodedParams =
    kDefaultMaxFrameBytes / (2 * sizeof(detector::ParamList::Entry));

enum class MessageType : std::uint8_t {
  kHello = 1,            // c→s: register application `app_name`
  kStatusReply = 2,      // s→c: verdict for `seq` (0 = unsolicited shed)
  kDefinePrimitive = 3,  // c→s: declare a global primitive event
  kSubscribe = 4,        // c→s: stream detections of `event` to this session
  kNotify = 5,           // c→s: one PrimitiveOccurrence (fire-and-forget)
  kEventPush = 6,        // s→c: one global detection for a subscription
  kPing = 7,             // either: liveness probe
  kPong = 8,             // either: probe answer
  kBye = 9,              // s→c: server is closing this session (reason)
};

const char* MessageTypeToString(MessageType type);

/// Wire status codes carried by StatusReply (a stable subset of StatusCode;
/// the full enum is process-internal and free to grow).
enum class WireCode : std::uint8_t {
  kOk = 0,
  kRetryLater = 1,  // admission control shed this request; back off
  kError = 2,       // request refused (message says why)
};

struct FrameHeader {
  MessageType type = MessageType::kPing;
  std::uint16_t flags = 0;
  std::uint32_t body_len = 0;
  std::uint32_t body_crc = 0;

  /// Parses and validates a 16-byte header (magic, version, size bound).
  /// Unknown flag bits are preserved, never rejected.
  static Result<FrameHeader> Parse(const std::uint8_t* data,
                                   std::size_t max_frame_bytes);
};

/// Encodes one complete frame (header + body) ready for the wire.
std::string EncodeFrame(MessageType type, const BytesWriter& body,
                        std::uint16_t flags = 0);
std::string EncodeFrame(MessageType type);  // empty body (ping/pong)

// -- Trace-context trailer (DESIGN.md §14) -----------------------------------

/// Compact distributed-trace trailer appended to kNotify/kEventPush bodies
/// when kFlagTraceContext is set: 3 little-endian u64s (24 bytes).
///
///   trace_id    groups every span of one cross-process causal chain
///               (0 when span tracing is off at the sender);
///   parent_span the sender-side span id the receiver's first span should
///               causally parent to (0 = none);
///   origin_ns   wall-clock (system_clock) nanoseconds at the ORIGINATING
///               client's Notify() call — the always-on end-to-end latency
///               anchor, carried unchanged through the GED into pushes.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t origin_ns = 0;

  bool has_origin() const { return origin_ns != 0; }
  bool traced() const { return trace_id != 0; }
};

void AppendTraceContext(const TraceContext& tc, BytesWriter* out);

/// Reads the trailer when `flags` advertises one and the 24 bytes are
/// actually present; otherwise returns an all-zero context. Never fails:
/// a short or absent trailer (old peer, foreign flag use) just yields zeros.
TraceContext ReadTraceContext(std::uint16_t flags, BytesReader* in);

// -- Timestamped heartbeats ---------------------------------------------------

/// Ping bodies carry the sender's steady-clock nanoseconds; Pong echoes that
/// t0 and adds the responder's own steady clock, so the pinger derives
/// RTT = t2 - t0 and the NTP-style offset t1 - (t0 + t2)/2 (responder clock
/// minus the midpoint of the local send/receive pair). Empty bodies — the
/// PR 6 wire form — remain legal: decoders return zeros and the sample is
/// simply skipped, so old and new peers interoperate.
std::string EncodePing(std::uint64_t now_ns);
std::string EncodePong(std::uint64_t echo_t0_ns, std::uint64_t now_ns);
/// Reads the optional u64 of a Ping body (0 when absent/short).
std::uint64_t ReadPingT0(BytesReader* in);
/// Reads the optional (t0 echo, responder now) of a Pong body; returns false
/// (zeros) when the body is empty or short.
bool ReadPongTimes(BytesReader* in, std::uint64_t* echo_t0_ns,
                   std::uint64_t* responder_ns);

// -- Message bodies ----------------------------------------------------------

struct HelloMsg {
  std::uint32_t seq = 0;
  std::string app_name;

  std::string Encode() const;
  static Result<HelloMsg> Decode(BytesReader* in);
};

struct StatusReplyMsg {
  std::uint32_t seq = 0;  // 0 = unsolicited (load shed)
  WireCode code = WireCode::kOk;
  std::uint32_t retry_after_ms = 0;  // advisory backoff for kRetryLater
  std::string message;

  std::string Encode() const;
  static Result<StatusReplyMsg> Decode(BytesReader* in);
};

struct DefinePrimitiveMsg {
  std::uint32_t seq = 0;
  std::string name;       // global event name
  std::string app_name;   // application whose primitive is mirrored
  std::string class_name;
  detector::EventModifier modifier = detector::EventModifier::kEnd;
  std::string method_signature;

  std::string Encode() const;
  static Result<DefinePrimitiveMsg> Decode(BytesReader* in);
};

struct SubscribeMsg {
  std::uint32_t seq = 0;
  std::string event;
  detector::ParamContext context = detector::ParamContext::kRecent;

  std::string Encode() const;
  static Result<SubscribeMsg> Decode(BytesReader* in);
};

struct ByeMsg {
  std::string reason;

  std::string Encode() const;
  static Result<ByeMsg> Decode(BytesReader* in);
};

/// PrimitiveOccurrence on the wire (Notify body). Interned symbols are
/// process-local and never serialized; the receiving detector re-interns.
void EncodeOccurrence(const detector::PrimitiveOccurrence& occ,
                      BytesWriter* out);
Result<detector::PrimitiveOccurrence> DecodeOccurrence(BytesReader* in);

/// Composite Occurrence on the wire (EventPush body): the detection plus
/// flattened copies of its constituent primitives.
struct EventPushMsg {
  std::string event;  // subscribed global event that detected
  detector::Occurrence occurrence;
  /// Trace trailer (zero-valued = absent). Encode() appends it and sets
  /// kFlagTraceContext when it carries anything; Decode() fills it from the
  /// trailer when `flags` advertises one.
  TraceContext trace;

  std::string Encode() const;
  /// The same frame, encoded straight from a detection the caller holds, so
  /// a push sink need not copy the occurrence into a message first.
  static std::string Encode(const std::string& event,
                            const detector::Occurrence& occurrence,
                            const TraceContext& trace);
  static Result<EventPushMsg> Decode(BytesReader* in,
                                     std::uint16_t flags = 0);
};

/// Incremental frame parser: feed raw bytes as they arrive, pop complete
/// frames. Any framing violation (bad magic/version, oversized length, CRC
/// mismatch) is sticky: the stream cannot be trusted past the first bad
/// byte, so the owner must drop the connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  struct Frame {
    MessageType type = MessageType::kPing;
    std::uint16_t flags = 0;
    std::vector<std::uint8_t> body;
  };

  /// Appends newly received bytes to the reassembly buffer.
  void Feed(const void* data, std::size_t size);

  /// Pops the next complete frame: true + frame, false when more bytes are
  /// needed, or a Corruption status on a framing violation.
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed (a permanently growing value here
  /// means a peer is streaming garbage).
  std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  const std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace sentinel::net

#endif  // SENTINEL_NET_PROTOCOL_H_
