#ifndef SENTINEL_OBS_FLIGHT_RECORDER_H_
#define SENTINEL_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace sentinel::obs {

/// The postmortem side of the always-on flight history: the last warn/error
/// log lines and the postmortem file sink. The spans a postmortem shows come
/// from the span tracer's per-thread rings (flight mode keeps the last
/// SpanTracer::kFlightRingCapacity per thread), so when a transaction is
/// doomed by the ABORT_TOP contingency or picked as a deadlock victim the
/// dump can show what the system was doing just before.
///
/// Postmortem destination: an explicit path wins; otherwise files named
/// postmortem-<pid>-<n>.json go to $SENTINEL_POSTMORTEM_DIR; with neither,
/// writing is disabled (dumps are counted but nothing touches disk).
class FlightRecorder {
 public:
  FlightRecorder() : log_ring_(kLogCapacity) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// One warn/error log line kept for postmortems (the database wires
  /// Logger's sink here so the last warnings survive into the dump even when
  /// stderr is gone).
  struct LogEntry {
    std::uint64_t at_ns = 0;  // steady-clock, same timeline as spans
    LogLevel level = LogLevel::kWarn;
    std::string message;
  };
  static constexpr std::size_t kLogCapacity = 64;

  void RecordLog(LogLevel level, const std::string& message);
  /// Last warn/error lines, oldest first.
  std::vector<LogEntry> SnapshotLogs() const;

  /// Postmortems requested (whether or not a destination was configured).
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Writes `json` to the resolved destination (fsynced, so crash-matrix
  /// children can assert on it after _Exit). Returns the path written, an
  /// empty string when no destination is configured, or an IOError.
  Result<std::string> WritePostmortem(const std::string& json,
                                      const std::string& path = "");

 private:
  mutable std::mutex mu_;
  std::vector<LogEntry> log_ring_;  // guarded by mu_
  std::uint64_t log_next_ = 0;
  std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_FLIGHT_RECORDER_H_
