#include "detector/event_log.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "detector/local_detector.h"
#include "net/protocol.h"

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

void EventLog::Record(const PrimitiveOccurrence& occurrence) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (file_ != nullptr) {
    // File-backed: the file is the store; no in-memory duplication.
    if (!status_.ok()) return;
    BytesWriter writer;
    net::EncodeOccurrence(occurrence, &writer);
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
  Status status;
  for (std::size_t index = 0;; ++index) {
    std::uint32_t size = 0;
    if (std::fread(&size, sizeof(size), 1, file_) != 1) break;
    // The prefix is untrusted: one longer than the rest of the file is a
    // torn tail, never an allocation request.
    const long left = std::max(0L, end - std::ftell(file_));
    if (size > static_cast<unsigned long>(left)) break;
    std::vector<std::uint8_t> buf(size);
    if (size > 0 && std::fread(buf.data(), size, 1, file_) != 1) break;
    BytesReader reader(buf);
    auto occ = net::DecodeOccurrence(&reader);
    if (!occ.ok()) {
      // A complete record that does not decode is corruption, not a torn
      // tail: stopping here would silently lose every record after it.
      status = Status::Corruption("event log " + path_ + ": record " +
                                  std::to_string(index) + " does not decode: " +
                                  occ.status().ToString());
      break;
    }
    result.push_back(std::move(*occ));
  }
  std::fseek(file_, 0, SEEK_END);
  if (!status.ok()) return status;
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
