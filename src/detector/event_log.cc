#include "detector/event_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "detector/local_detector.h"
#include "net/protocol.h"

namespace sentinel::detector {

namespace {
// Bound on one record's payload: a size field above it is corruption.
constexpr std::uint32_t kMaxEventRecordSize = 1u << 24;

// Flushes stdio's buffer and forces the file to stable storage.
Status SyncFile(std::FILE* file, const std::string& path) {
  SENTINEL_FAILPOINT("eventlog.sync");
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
    return Status::IOError("cannot sync event log " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}
}  // namespace

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
    Status synced = SyncFile(file_, path_);
    if (!synced.ok() && status_.ok()) status_ = std::move(synced);
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
    BytesWriter payload;
    net::EncodeOccurrence(occurrence, &payload);
    if (payload.size() > kMaxEventRecordSize) {
      status_ = Status::InvalidArgument("occurrence too large for event log " +
                                        path_);
      return;
    }
    BytesWriter frame;
    AppendFrame(payload.data(), &frame);
    if (std::fwrite(frame.data().data(), frame.size(), 1, file_) != 1 ||
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
  std::fseek(file_, 0, SEEK_SET);
  Status status;
  std::vector<std::uint8_t> buf;
  for (std::size_t index = 0;; ++index) {
    // A torn tail (NotFound) ends the log. A complete record that fails its
    // checks or does not decode is corruption: stopping silently would lose
    // every record after it.
    Status read = ReadFrame(file_, kMaxEventRecordSize, &buf);
    if (read.IsNotFound()) break;
    if (read.ok()) {
      BytesReader reader(buf);
      auto occ = net::DecodeOccurrence(&reader);
      if (occ.ok()) {
        result.push_back(std::move(*occ));
        continue;
      }
      read = occ.status();
    }
    status = Status::Corruption("event log " + path_ + ": record " +
                                std::to_string(index) + ": " + read.ToString());
    break;
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
