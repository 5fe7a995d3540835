#include "net/protocol.h"

#include <cstring>

#include "common/crc32.h"

namespace sentinel::net {

namespace {

/// Encodes the optional ParamList as u32 count + (name, Value) entries
/// (count 0 = absent — the paper's occurrences always carry at least the
/// signalling OID, but explicit events may be parameterless).
void EncodeParams(const std::shared_ptr<const detector::ParamList>& params,
                  BytesWriter* out) {
  if (params == nullptr) {
    out->PutU32(0);
    return;
  }
  out->PutU32(static_cast<std::uint32_t>(params->size()));
  for (const auto& [name, value] : *params) {
    out->PutString(name);
    value.Serialize(out);
  }
}

Result<std::shared_ptr<const detector::ParamList>> DecodeParams(
    BytesReader* in) {
  auto count = in->ReadU32();
  if (!count.ok()) return count.status();
  if (*count == 0) return std::shared_ptr<const detector::ParamList>();
  if (*count > kMaxDecodedParams) {
    return Status::Corruption("too many parameters: " + std::to_string(*count));
  }
  auto params = std::make_shared<detector::ParamList>();
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto name = in->ReadString();
    if (!name.ok()) return name.status();
    auto value = oodb::Value::Deserialize(in);
    if (!value.ok()) return value.status();
    params->Insert(std::move(*name), std::move(*value));
  }
  return std::shared_ptr<const detector::ParamList>(std::move(params));
}

std::string TakeFrame(MessageType type, const std::uint8_t* body,
                      std::size_t body_len, std::uint16_t flags = 0) {
  BytesWriter header;
  header.PutU32(kFrameMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<std::uint8_t>(type));
  header.PutU16(flags);
  header.PutU32(static_cast<std::uint32_t>(body_len));
  header.PutU32(Crc32(body, body_len));
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body_len);
  frame.append(reinterpret_cast<const char*>(header.data().data()),
               header.size());
  frame.append(reinterpret_cast<const char*>(body), body_len);
  return frame;
}

}  // namespace

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "HELLO";
    case MessageType::kStatusReply:
      return "STATUS";
    case MessageType::kDefinePrimitive:
      return "DEFINE_PRIMITIVE";
    case MessageType::kSubscribe:
      return "SUBSCRIBE";
    case MessageType::kNotify:
      return "NOTIFY";
    case MessageType::kEventPush:
      return "EVENT_PUSH";
    case MessageType::kPing:
      return "PING";
    case MessageType::kPong:
      return "PONG";
    case MessageType::kBye:
      return "BYE";
  }
  return "?";
}

Result<FrameHeader> FrameHeader::Parse(const std::uint8_t* data,
                                       std::size_t max_frame_bytes) {
  BytesReader in(data, kFrameHeaderBytes);
  const std::uint32_t magic = *in.ReadU32();
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic — peer is not speaking the "
                              "Sentinel event-bus protocol");
  }
  const std::uint8_t version = *in.ReadU8();
  if (version != kProtocolVersion) {
    return Status::Corruption("unsupported protocol version " +
                              std::to_string(version));
  }
  const std::uint8_t raw_type = *in.ReadU8();
  if (raw_type < static_cast<std::uint8_t>(MessageType::kHello) ||
      raw_type > static_cast<std::uint8_t>(MessageType::kBye)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  const std::uint16_t flags = *in.ReadU16();
  FrameHeader header;
  header.type = static_cast<MessageType>(raw_type);
  // Flags are per-frame capability bits: keep the ones we know AND the ones
  // we don't — unknown bits are a newer peer's optional extras, never an
  // error (decoders check individual bits and skip the rest).
  header.flags = flags;
  header.body_len = *in.ReadU32();
  header.body_crc = *in.ReadU32();
  if (header.body_len > max_frame_bytes) {
    return Status::Corruption("frame body of " +
                              std::to_string(header.body_len) +
                              " bytes exceeds the frame size bound");
  }
  return header;
}

std::string EncodeFrame(MessageType type, const BytesWriter& body,
                        std::uint16_t flags) {
  return TakeFrame(type, body.data().data(), body.size(), flags);
}

std::string EncodeFrame(MessageType type) {
  return TakeFrame(type, nullptr, 0);
}

void AppendTraceContext(const TraceContext& tc, BytesWriter* out) {
  out->PutU64(tc.trace_id);
  out->PutU64(tc.parent_span);
  out->PutU64(tc.origin_ns);
}

TraceContext ReadTraceContext(std::uint16_t flags, BytesReader* in) {
  TraceContext tc;
  if ((flags & kFlagTraceContext) == 0) return tc;
  // Tolerate a flagged frame without the bytes (foreign bit reuse, buggy
  // peer): an absent trailer is "no context", never a decode failure.
  if (in->remaining() < 24) return tc;
  tc.trace_id = *in->ReadU64();
  tc.parent_span = *in->ReadU64();
  tc.origin_ns = *in->ReadU64();
  return tc;
}

std::string EncodePing(std::uint64_t now_ns) {
  BytesWriter w;
  w.PutU64(now_ns);
  return EncodeFrame(MessageType::kPing, w);
}

std::string EncodePong(std::uint64_t echo_t0_ns, std::uint64_t now_ns) {
  BytesWriter w;
  w.PutU64(echo_t0_ns);
  w.PutU64(now_ns);
  return EncodeFrame(MessageType::kPong, w);
}

std::uint64_t ReadPingT0(BytesReader* in) {
  if (in->remaining() < 8) return 0;  // pre-PR9 empty ping
  return *in->ReadU64();
}

bool ReadPongTimes(BytesReader* in, std::uint64_t* echo_t0_ns,
                   std::uint64_t* responder_ns) {
  *echo_t0_ns = 0;
  *responder_ns = 0;
  if (in->remaining() < 16) return false;  // pre-PR9 empty pong
  *echo_t0_ns = *in->ReadU64();
  *responder_ns = *in->ReadU64();
  return *echo_t0_ns != 0;
}

std::string HelloMsg::Encode() const {
  BytesWriter w;
  w.PutU32(seq);
  w.PutString(app_name);
  return EncodeFrame(MessageType::kHello, w);
}

Result<HelloMsg> HelloMsg::Decode(BytesReader* in) {
  HelloMsg msg;
  auto seq = in->ReadU32();
  if (!seq.ok()) return seq.status();
  msg.seq = *seq;
  auto app = in->ReadString();
  if (!app.ok()) return app.status();
  msg.app_name = std::move(*app);
  return msg;
}

std::string StatusReplyMsg::Encode() const {
  BytesWriter w;
  w.PutU32(seq);
  w.PutU8(static_cast<std::uint8_t>(code));
  w.PutU32(retry_after_ms);
  w.PutString(message);
  return EncodeFrame(MessageType::kStatusReply, w);
}

Result<StatusReplyMsg> StatusReplyMsg::Decode(BytesReader* in) {
  StatusReplyMsg msg;
  auto seq = in->ReadU32();
  if (!seq.ok()) return seq.status();
  msg.seq = *seq;
  auto code = in->ReadU8();
  if (!code.ok()) return code.status();
  if (*code > static_cast<std::uint8_t>(WireCode::kError)) {
    return Status::Corruption("unknown wire status code");
  }
  msg.code = static_cast<WireCode>(*code);
  auto retry = in->ReadU32();
  if (!retry.ok()) return retry.status();
  msg.retry_after_ms = *retry;
  auto text = in->ReadString();
  if (!text.ok()) return text.status();
  msg.message = std::move(*text);
  return msg;
}

std::string DefinePrimitiveMsg::Encode() const {
  BytesWriter w;
  w.PutU32(seq);
  w.PutString(name);
  w.PutString(app_name);
  w.PutString(class_name);
  w.PutU8(static_cast<std::uint8_t>(modifier));
  w.PutString(method_signature);
  return EncodeFrame(MessageType::kDefinePrimitive, w);
}

Result<DefinePrimitiveMsg> DefinePrimitiveMsg::Decode(BytesReader* in) {
  DefinePrimitiveMsg msg;
  auto seq = in->ReadU32();
  if (!seq.ok()) return seq.status();
  msg.seq = *seq;
  auto name = in->ReadString();
  if (!name.ok()) return name.status();
  msg.name = std::move(*name);
  auto app = in->ReadString();
  if (!app.ok()) return app.status();
  msg.app_name = std::move(*app);
  auto cls = in->ReadString();
  if (!cls.ok()) return cls.status();
  msg.class_name = std::move(*cls);
  auto modifier = in->ReadU8();
  if (!modifier.ok()) return modifier.status();
  if (*modifier > static_cast<std::uint8_t>(detector::EventModifier::kEnd)) {
    return Status::Corruption("unknown event modifier");
  }
  msg.modifier = static_cast<detector::EventModifier>(*modifier);
  auto sig = in->ReadString();
  if (!sig.ok()) return sig.status();
  msg.method_signature = std::move(*sig);
  return msg;
}

std::string SubscribeMsg::Encode() const {
  BytesWriter w;
  w.PutU32(seq);
  w.PutString(event);
  w.PutU8(static_cast<std::uint8_t>(context));
  return EncodeFrame(MessageType::kSubscribe, w);
}

Result<SubscribeMsg> SubscribeMsg::Decode(BytesReader* in) {
  SubscribeMsg msg;
  auto seq = in->ReadU32();
  if (!seq.ok()) return seq.status();
  msg.seq = *seq;
  auto event = in->ReadString();
  if (!event.ok()) return event.status();
  msg.event = std::move(*event);
  auto context = in->ReadU8();
  if (!context.ok()) return context.status();
  if (*context >= detector::kNumContexts) {
    return Status::Corruption("unknown parameter context");
  }
  msg.context = static_cast<detector::ParamContext>(*context);
  return msg;
}

std::string ByeMsg::Encode() const {
  BytesWriter w;
  w.PutString(reason);
  return EncodeFrame(MessageType::kBye, w);
}

Result<ByeMsg> ByeMsg::Decode(BytesReader* in) {
  ByeMsg msg;
  auto reason = in->ReadString();
  if (!reason.ok()) return reason.status();
  msg.reason = std::move(*reason);
  return msg;
}

void EncodeOccurrence(const detector::PrimitiveOccurrence& occ,
                      BytesWriter* out) {
  out->PutString(occ.event_name);
  out->PutString(occ.class_name);
  out->PutU64(occ.oid);
  out->PutU8(static_cast<std::uint8_t>(occ.modifier));
  out->PutString(occ.method_signature);
  out->PutU64(occ.at);
  out->PutU64(occ.at_ms);
  out->PutU64(occ.txn);
  EncodeParams(occ.params, out);
}

Result<detector::PrimitiveOccurrence> DecodeOccurrence(BytesReader* in) {
  detector::PrimitiveOccurrence occ;
  auto event = in->ReadString();
  if (!event.ok()) return event.status();
  occ.event_name = std::move(*event);
  auto cls = in->ReadString();
  if (!cls.ok()) return cls.status();
  occ.class_name = std::move(*cls);
  auto oid = in->ReadU64();
  if (!oid.ok()) return oid.status();
  occ.oid = *oid;
  auto modifier = in->ReadU8();
  if (!modifier.ok()) return modifier.status();
  if (*modifier > static_cast<std::uint8_t>(detector::EventModifier::kEnd)) {
    return Status::Corruption("unknown event modifier");
  }
  occ.modifier = static_cast<detector::EventModifier>(*modifier);
  auto sig = in->ReadString();
  if (!sig.ok()) return sig.status();
  occ.method_signature = std::move(*sig);
  auto at = in->ReadU64();
  if (!at.ok()) return at.status();
  occ.at = *at;
  auto at_ms = in->ReadU64();
  if (!at_ms.ok()) return at_ms.status();
  occ.at_ms = *at_ms;
  auto txn = in->ReadU64();
  if (!txn.ok()) return txn.status();
  occ.txn = *txn;
  auto params = DecodeParams(in);
  if (!params.ok()) return params.status();
  occ.params = std::move(*params);
  return occ;
}

std::string EventPushMsg::Encode() const {
  BytesWriter w;
  w.PutString(event);
  w.PutString(occurrence.event_name);
  w.PutU64(occurrence.t_start);
  w.PutU64(occurrence.t_end);
  w.PutU64(occurrence.at_ms);
  w.PutU64(occurrence.txn);
  w.PutU32(static_cast<std::uint32_t>(occurrence.constituents.size()));
  for (const auto& constituent : occurrence.constituents) {
    EncodeOccurrence(*constituent, &w);
  }
  if (trace.traced() || trace.has_origin()) {
    AppendTraceContext(trace, &w);
    return EncodeFrame(MessageType::kEventPush, w, kFlagTraceContext);
  }
  return EncodeFrame(MessageType::kEventPush, w);
}

Result<EventPushMsg> EventPushMsg::Decode(BytesReader* in,
                                          std::uint16_t flags) {
  EventPushMsg msg;
  auto event = in->ReadString();
  if (!event.ok()) return event.status();
  msg.event = std::move(*event);
  auto name = in->ReadString();
  if (!name.ok()) return name.status();
  msg.occurrence.event_name = std::move(*name);
  auto t_start = in->ReadU64();
  if (!t_start.ok()) return t_start.status();
  msg.occurrence.t_start = *t_start;
  auto t_end = in->ReadU64();
  if (!t_end.ok()) return t_end.status();
  msg.occurrence.t_end = *t_end;
  auto at_ms = in->ReadU64();
  if (!at_ms.ok()) return at_ms.status();
  msg.occurrence.at_ms = *at_ms;
  auto txn = in->ReadU64();
  if (!txn.ok()) return txn.status();
  msg.occurrence.txn = *txn;
  auto count = in->ReadU32();
  if (!count.ok()) return count.status();
  // Constituent count is bounded by the already-validated frame size; each
  // constituent consumes at least a dozen body bytes, so a hostile count
  // fails decoding below rather than ballooning the vector reserve.
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto occ = DecodeOccurrence(in);
    if (!occ.ok()) return occ.status();
    msg.occurrence.constituents.push_back(
        std::make_shared<detector::PrimitiveOccurrence>(std::move(*occ)));
  }
  msg.trace = ReadTraceContext(flags, in);
  return msg;
}

void FrameAssembler::Feed(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

Result<bool> FrameAssembler::Next(Frame* out) {
  if (poisoned_) {
    return Status::Corruption("frame stream already failed validation");
  }
  // Reclaim consumed prefix lazily, once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes) return false;
  auto header = FrameHeader::Parse(buf_.data() + consumed_, max_frame_bytes_);
  if (!header.ok()) {
    poisoned_ = true;
    return header.status();
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes + header->body_len) {
    return false;  // body still in flight
  }
  const std::uint8_t* body = buf_.data() + consumed_ + kFrameHeaderBytes;
  if (Crc32(body, header->body_len) != header->body_crc) {
    poisoned_ = true;
    return Status::Corruption("frame body CRC mismatch (torn or corrupted)");
  }
  out->type = header->type;
  out->flags = header->flags;
  out->body.assign(body, body + header->body_len);
  consumed_ += kFrameHeaderBytes + header->body_len;
  return true;
}

}  // namespace sentinel::net
