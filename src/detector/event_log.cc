#include "detector/event_log.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "detector/local_detector.h"

namespace sentinel::detector {

EventLog::~EventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status EventLog::OpenFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::InvalidArgument("event log already open");
  file_ = std::fopen(path.c_str(), "a+b");
  if (file_ == nullptr) return Status::IOError("cannot open event log " + path);
  path_ = path;
  status_ = Status::OK();
  return Status::OK();
}

Status EventLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::IOError("cannot close event log " + path_ + ": " +
                                std::strerror(errno));
    }
    file_ = nullptr;
  }
  return status_;
}

Status EventLog::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void EventLog::AttachTo(LocalEventDetector* detector) {
  detector->AddRawObserver(
      [this](const PrimitiveOccurrence& occ) { Record(occ); });
}

void EventLog::Serialize(const PrimitiveOccurrence& occurrence,
                         BytesWriter* out) {
  out->PutString(occurrence.event_name);
  out->PutString(occurrence.class_name);
  out->PutU64(occurrence.oid);
  out->PutU8(static_cast<std::uint8_t>(occurrence.modifier));
  out->PutString(occurrence.method_signature);
  out->PutU64(occurrence.at);
  out->PutU64(occurrence.at_ms);
  out->PutU64(occurrence.txn);
  const std::uint32_t params =
      occurrence.params != nullptr
          ? static_cast<std::uint32_t>(occurrence.params->size())
          : 0;
  out->PutU32(params);
  if (occurrence.params != nullptr) {
    for (const auto& [name, value] : *occurrence.params) {
      out->PutString(name);
      value.Serialize(out);
    }
  }
}

Result<PrimitiveOccurrence> EventLog::Deserialize(BytesReader* in) {
  PrimitiveOccurrence occ;
  auto event_name = in->ReadString();
  if (!event_name.ok()) return event_name.status();
  occ.event_name = std::move(*event_name);
  auto class_name = in->ReadString();
  if (!class_name.ok()) return class_name.status();
  occ.class_name = std::move(*class_name);
  auto oid = in->ReadU64();
  if (!oid.ok()) return oid.status();
  occ.oid = *oid;
  auto modifier = in->ReadU8();
  if (!modifier.ok()) return modifier.status();
  occ.modifier = static_cast<EventModifier>(*modifier);
  auto signature = in->ReadString();
  if (!signature.ok()) return signature.status();
  occ.method_signature = std::move(*signature);
  auto at = in->ReadU64();
  if (!at.ok()) return at.status();
  occ.at = *at;
  auto at_ms = in->ReadU64();
  if (!at_ms.ok()) return at_ms.status();
  occ.at_ms = *at_ms;
  auto txn = in->ReadU64();
  if (!txn.ok()) return txn.status();
  occ.txn = *txn;
  auto params = in->ReadU32();
  if (!params.ok()) return params.status();
  auto list = std::make_shared<ParamList>();
  for (std::uint32_t i = 0; i < *params; ++i) {
    auto name = in->ReadString();
    if (!name.ok()) return name.status();
    auto value = oodb::Value::Deserialize(in);
    if (!value.ok()) return value.status();
    list->Insert(std::move(*name), std::move(*value));
  }
  occ.params = std::move(list);
  return occ;
}

void EventLog::Record(const PrimitiveOccurrence& occurrence) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (file_ != nullptr) {
    // File-backed: the file is the store; no in-memory duplication.
    if (!status_.ok()) return;
    BytesWriter writer;
    Serialize(occurrence, &writer);
    const std::uint32_t size = static_cast<std::uint32_t>(writer.size());
    if (std::fwrite(&size, sizeof(size), 1, file_) != 1 ||
        std::fwrite(writer.data().data(), size, 1, file_) != 1 ||
        std::fflush(file_) != 0) {
      status_ = Status::IOError("cannot write event log " + path_ + ": " +
                                std::strerror(errno));
    }
  } else {
    memory_.push_back(occurrence);
  }
}

Result<std::vector<PrimitiveOccurrence>> EventLog::Load() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return memory_;
  std::vector<PrimitiveOccurrence> result;
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_END);
  const long end = std::ftell(file_);
  std::fseek(file_, 0, SEEK_SET);
  for (;;) {
    std::uint32_t size = 0;
    if (std::fread(&size, sizeof(size), 1, file_) != 1) break;
    // The prefix is untrusted: one longer than the rest of the file is a
    // torn (or corrupt) tail, never an allocation request.
    const long left = std::max(0L, end - std::ftell(file_));
    if (size > static_cast<unsigned long>(left)) break;
    std::vector<std::uint8_t> buf(size);
    if (size > 0 && std::fread(buf.data(), size, 1, file_) != 1) break;
    BytesReader reader(buf);
    auto occ = Deserialize(&reader);
    if (!occ.ok()) break;
    result.push_back(std::move(*occ));
  }
  std::fseek(file_, 0, SEEK_END);
  return result;
}

Status EventLog::Replay(LocalEventDetector* detector) const {
  auto occurrences = Load();
  if (!occurrences.ok()) return occurrences.status();
  for (const PrimitiveOccurrence& occ : *occurrences) {
    detector->Inject(occ);
  }
  return Status::OK();
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

}  // namespace sentinel::detector
