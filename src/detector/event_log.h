#ifndef SENTINEL_DETECTOR_EVENT_LOG_H_
#define SENTINEL_DETECTOR_EVENT_LOG_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "detector/event_types.h"

namespace sentinel::detector {

class LocalEventDetector;

/// Durable log of primitive event occurrences, enabling batch
/// (after-the-fact) composite event detection over a stored stream
/// (paper §2.1 "Online and batch detection of events").
///
/// Attach to a detector with `log.AttachTo(&detector)` (records every
/// accepted raw notification), then later `log.Replay(&other_detector)` to
/// re-run detection offline — the same event graph and contexts apply, so
/// online and batch detection agree.
///
/// File format: the WAL's framed records (common/crc32.h: u32 size, u32
/// CRC32, payload), each payload one occurrence in the event bus codec
/// (net::EncodeOccurrence). Loading stops silently at a torn tail (a record
/// that runs past the end of the file) and fails with Corruption, naming
/// the record, at a complete record whose size is implausible, whose CRC
/// does not match, or that does not decode.
class EventLog {
 public:
  EventLog() = default;
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens (appending) a log file; without a file the log is memory-only.
  Status OpenFile(const std::string& path);
  /// Syncs the file to stable storage (fflush + fsync; the `eventlog.sync`
  /// failpoint fails it) and closes it; returns the first write or sync
  /// failure, if any (see status()). Record flushes each record to the OS
  /// but does not fsync, so occurrences recorded since the last Close are
  /// not durable across a power loss.
  Status Close();

  /// The first failure to write, flush or sync the file. It is sticky: once
  /// set, Record stops writing, so the file stays a readable prefix.
  Status status() const;

  /// Registers this log as a raw observer of `detector`.
  void AttachTo(LocalEventDetector* detector);

  /// Appends one occurrence (thread-safe).
  void Record(const PrimitiveOccurrence& occurrence);

  /// Feeds every recorded occurrence (memory or file) into `detector` in
  /// recorded order, preserving timestamps.
  Status Replay(LocalEventDetector* detector) const;

  /// Loads all recorded occurrences.
  Result<std::vector<PrimitiveOccurrence>> Load() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  // Memory-only store (used when no file is attached; with a file open the
  // file itself is the store).
  std::vector<PrimitiveOccurrence> memory_;
  std::size_t recorded_ = 0;  // total recorded this session
  std::FILE* file_ = nullptr;
  std::string path_;
  Status status_;
};

}  // namespace sentinel::detector

#endif  // SENTINEL_DETECTOR_EVENT_LOG_H_
