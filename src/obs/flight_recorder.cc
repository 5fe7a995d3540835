#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/span.h"

namespace sentinel::obs {

void FlightRecorder::RecordLog(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  LogEntry& entry = log_ring_[log_next_ % kLogCapacity];
  entry.at_ns = SpanTracer::NowNs();
  entry.level = level;
  entry.message = message;
  ++log_next_;
}

std::vector<FlightRecorder::LogEntry> FlightRecorder::SnapshotLogs() const {
  std::vector<LogEntry> out;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t count = std::min<std::uint64_t>(log_next_, kLogCapacity);
  const std::uint64_t first = log_next_ - count;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(log_ring_[(first + i) % kLogCapacity]);
  }
  return out;
}

Result<std::string> FlightRecorder::WritePostmortem(const std::string& json,
                                                    const std::string& path) {
  std::uint64_t n = dumps_.fetch_add(1, std::memory_order_relaxed);
  std::string target = path;
  if (target.empty()) {
    const char* dir = std::getenv("SENTINEL_POSTMORTEM_DIR");
    if (dir == nullptr || dir[0] == '\0') return std::string();
    target = std::string(dir) + "/postmortem-" + std::to_string(::getpid()) +
             "-" + std::to_string(n) + ".json";
  }
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open postmortem output: " + target);
  }
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  // fsync so a postmortem written on the way down survives an immediate
  // process exit (the crash matrix's std::_Exit skips stdio flush).
  bool ok = written == json.size() && std::fflush(f) == 0 &&
            ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!ok) return Status::IOError("short write dumping postmortem: " + target);
  return target;
}

}  // namespace sentinel::obs
