#include "detector/event_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "detector/local_detector.h"
#include "detector_test_util.h"
#include "net/protocol.h"

namespace sentinel::detector {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("sentinel_evlog_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".evlog"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

void DefineSeqGraph(LocalEventDetector* det) {
  auto a = det->DefinePrimitive("a", "C", EventModifier::kEnd, "void fa()");
  auto b = det->DefinePrimitive("b", "C", EventModifier::kEnd, "void fb()");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(det->DefineSeq("a_then_b", *a, *b).ok());
}

TEST_F(EventLogTest, RecordsAttachedDetectorEvents) {
  LocalEventDetector det;
  EventLog log;
  log.AttachTo(&det);
  DefineSeqGraph(&det);
  RecordingSink sink;
  ASSERT_TRUE(det.Subscribe("a_then_b", &sink, ParamContext::kRecent).ok());
  Fire(&det, "C", "void fa()", 1);
  Fire(&det, "C", "void fb()", 2);
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(EventLogTest, BatchReplayMatchesOnlineDetection) {
  // Online application: events recorded while detected live.
  EventLog log;
  std::size_t online_detections = 0;
  {
    LocalEventDetector online;
    log.AttachTo(&online);
    DefineSeqGraph(&online);
    RecordingSink sink;
    ASSERT_TRUE(
        online.Subscribe("a_then_b", &sink, ParamContext::kChronicle).ok());
    Fire(&online, "C", "void fa()", 1);
    Fire(&online, "C", "void fb()", 2);
    Fire(&online, "C", "void fa()", 3);
    Fire(&online, "C", "void fb()", 4);
    Fire(&online, "C", "void fb()", 5);  // unmatched
    online_detections = sink.hits.size();
  }
  EXPECT_EQ(online_detections, 2u);

  // Batch: replay the log against a fresh detector (paper §2.1).
  LocalEventDetector batch;
  DefineSeqGraph(&batch);
  RecordingSink sink;
  ASSERT_TRUE(batch.Subscribe("a_then_b", &sink, ParamContext::kChronicle).ok());
  ASSERT_TRUE(log.Replay(&batch).ok());
  EXPECT_EQ(sink.hits.size(), online_detections);
}

TEST_F(EventLogTest, FileBackedLogSurvivesReload) {
  {
    LocalEventDetector det;
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    log.AttachTo(&det);
    DefineSeqGraph(&det);
    RecordingSink sink;  // keep the graph active so events route
    ASSERT_TRUE(det.Subscribe("a_then_b", &sink, ParamContext::kRecent).ok());
    Fire(&det, "C", "void fa()", 42);
    Fire(&det, "C", "void fb()", 43);
    ASSERT_TRUE(log.Close().ok());
  }
  // New process: load from the file and replay.
  EventLog reloaded;
  ASSERT_TRUE(reloaded.OpenFile(path_).ok());
  auto occurrences = reloaded.Load();
  ASSERT_TRUE(occurrences.ok());
  ASSERT_EQ(occurrences->size(), 2u);
  EXPECT_EQ((*occurrences)[0].method_signature, "void fa()");
  EXPECT_EQ((*occurrences)[0].params->Get("v")->AsInt(), 42);

  LocalEventDetector det;
  DefineSeqGraph(&det);
  RecordingSink sink;
  ASSERT_TRUE(det.Subscribe("a_then_b", &sink, ParamContext::kRecent).ok());
  ASSERT_TRUE(reloaded.Replay(&det).ok());
  EXPECT_EQ(sink.hits.size(), 1u);
  ASSERT_TRUE(reloaded.Close().ok());
}

TEST_F(EventLogTest, OversizedLengthPrefixIsATornTail) {
  {
    LocalEventDetector det;
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    log.AttachTo(&det);
    DefineSeqGraph(&det);
    RecordingSink sink;
    ASSERT_TRUE(det.Subscribe("a_then_b", &sink, ParamContext::kRecent).ok());
    Fire(&det, "C", "void fa()", 1);
    Fire(&det, "C", "void fb()", 2);
    ASSERT_TRUE(log.Close().ok());
  }
  // A corrupt last record claims 4 GiB; only a few bytes follow it.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint32_t huge = 0xFFFFFFFFu;
  ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
  ASSERT_EQ(std::fwrite("abc", 3, 1, f), 1u);
  std::fclose(f);

  EventLog reloaded;
  ASSERT_TRUE(reloaded.OpenFile(path_).ok());
  auto occurrences = reloaded.Load();
  ASSERT_TRUE(occurrences.ok());
  ASSERT_EQ(occurrences->size(), 2u);
  EXPECT_EQ((*occurrences)[0].params->Get("v")->AsInt(), 1);
  EXPECT_EQ((*occurrences)[1].params->Get("v")->AsInt(), 2);
  ASSERT_TRUE(reloaded.Close().ok());
}

TEST_F(EventLogTest, WriteFailureIsStickyAndReportedByClose) {
  EventLog log;
  ASSERT_TRUE(log.OpenFile("/dev/full").ok());
  EXPECT_TRUE(log.status().ok());
  PrimitiveOccurrence occ;
  occ.event_name = "e";
  log.Record(occ);  // the flush hits ENOSPC
  EXPECT_EQ(log.status().code(), StatusCode::kIOError);
  log.Record(occ);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Close().code(), StatusCode::kIOError);
  EXPECT_EQ(log.status().code(), StatusCode::kIOError);
}

// Close forces the file to stable storage; a failed sync is the sticky
// status and what Close returns, and the records written before it stay
// readable.
TEST_F(EventLogTest, FailedSyncIsReportedByClose) {
  PrimitiveOccurrence occ;
  occ.event_name = "e";
  {
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    log.Record(occ);
    ASSERT_TRUE(FailPointRegistry::Instance().Enable("eventlog.sync", "error")
                    .ok());
    const Status closed = log.Close();
    FailPointRegistry::Instance().DisableAll();
    EXPECT_EQ(closed.code(), StatusCode::kIOError) << closed;
    EXPECT_EQ(log.status().code(), StatusCode::kIOError);
  }
  EventLog reread;
  ASSERT_TRUE(reread.OpenFile(path_).ok());
  auto loaded = reread.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_TRUE(reread.Close().ok());
}

// A complete record whose modifier byte is out of range is corrupt, not a
// torn tail: Load and Replay fail with Corruption naming the record, so no
// out-of-range EventModifier is injected and no record is silently lost.
TEST_F(EventLogTest, OutOfRangeModifierEndsTheLog) {
  {
    LocalEventDetector det;
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    log.AttachTo(&det);
    Fire(&det, "C", "void fa()", 1);
    ASSERT_TRUE(log.Close().ok());
  }
  PrimitiveOccurrence bad;
  bad.event_name = "a";
  bad.class_name = "C";
  bad.method_signature = "void fa()";
  BytesWriter writer;
  net::EncodeOccurrence(bad, &writer);
  std::vector<std::uint8_t> record = writer.data();
  // event_name and class_name (u32 length + bytes each), then the u64 oid.
  const std::size_t modifier_at = 4 + bad.event_name.size() + 4 +
                                  bad.class_name.size() + sizeof(std::uint64_t);
  ASSERT_LT(modifier_at, record.size());
  record[modifier_at] = 0xFF;
  // Framed with a matching CRC, so only the decoder can refuse it.
  BytesWriter frame;
  AppendFrame(record, &frame);
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data().data(), frame.size(), 1, f), 1u);
  std::fclose(f);

  EventLog reloaded;
  ASSERT_TRUE(reloaded.OpenFile(path_).ok());
  auto occurrences = reloaded.Load();
  ASSERT_TRUE(occurrences.status().IsCorruption()) << occurrences.status();
  EXPECT_NE(occurrences.status().ToString().find("record 1"),
            std::string::npos)
      << occurrences.status();

  LocalEventDetector det;
  DefineSeqGraph(&det);
  RecordingSink sink;
  ASSERT_TRUE(det.Subscribe("a", &sink, ParamContext::kRecent).ok());
  EXPECT_TRUE(reloaded.Replay(&det).IsCorruption());
  EXPECT_EQ(det.notify_count(), 0u);
  EXPECT_TRUE(sink.hits.empty());
  ASSERT_TRUE(reloaded.Close().ok());
}

// A bad record in the middle of the log must not hide the records after it:
// Load reports it instead of returning a silently shortened log.
TEST_F(EventLogTest, CorruptMiddleRecordIsReportedNotTruncated) {
  {
    LocalEventDetector det;
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    log.AttachTo(&det);
    Fire(&det, "C", "void fa()", 1);
    Fire(&det, "C", "void fa()", 2);
    Fire(&det, "C", "void fa()", 3);
    ASSERT_TRUE(log.Close().ok());
  }
  // Record 1's body starts right after record 0 and its own 8-byte header
  // (size, CRC); overwriting its event_name length fails the record's CRC.
  constexpr long kHeader = 2 * sizeof(std::uint32_t);
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::uint32_t size0 = 0;
  ASSERT_EQ(std::fread(&size0, sizeof(size0), 1, f), 1u);
  ASSERT_EQ(std::fseek(f, static_cast<long>(size0) + 2 * kHeader, SEEK_SET),
            0);
  const std::uint32_t huge = 0xFFFFFFF0u;  // event_name length
  ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
  std::fclose(f);

  EventLog reloaded;
  ASSERT_TRUE(reloaded.OpenFile(path_).ok());
  auto occurrences = reloaded.Load();
  ASSERT_TRUE(occurrences.status().IsCorruption()) << occurrences.status();
  EXPECT_NE(occurrences.status().ToString().find("record 1"),
            std::string::npos)
      << occurrences.status();
  ASSERT_TRUE(reloaded.Close().ok());
}

// A flipped byte inside a complete record's string parameter still decodes,
// so only the record's CRC can catch it: Load fails naming the record
// instead of replaying the altered value.
TEST_F(EventLogTest, FlippedParameterByteFailsTheRecordChecksum) {
  {
    EventLog log;
    ASSERT_TRUE(log.OpenFile(path_).ok());
    for (const char* value : {"first", "middle", "last"}) {
      PrimitiveOccurrence occ;
      occ.event_name = "e";
      auto params = std::make_shared<ParamList>();
      params->Insert("s", oodb::Value::String(value));
      occ.params = params;
      log.Record(occ);
    }
    ASSERT_TRUE(log.Close().ok());
  }
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::string bytes(4096, '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  const std::size_t at = bytes.find("middle");
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(std::fseek(f, static_cast<long>(at), SEEK_SET), 0);
  ASSERT_EQ(std::fputc('n', f), 'n');  // "middle" -> "niddle"
  std::fclose(f);

  EventLog reloaded;
  ASSERT_TRUE(reloaded.OpenFile(path_).ok());
  auto occurrences = reloaded.Load();
  ASSERT_TRUE(occurrences.status().IsCorruption()) << occurrences.status();
  EXPECT_NE(occurrences.status().ToString().find("record 1"),
            std::string::npos)
      << occurrences.status();
  ASSERT_TRUE(reloaded.Close().ok());
}

// The log stores occurrences in the event bus codec.
TEST_F(EventLogTest, SerializationRoundTripsAllFields) {
  PrimitiveOccurrence occ;
  occ.event_name = "e";
  occ.class_name = "Klass";
  occ.oid = 99;
  occ.modifier = EventModifier::kBegin;
  occ.method_signature = "void m(int a, float b)";
  occ.at = 12345;
  occ.at_ms = 67890;
  occ.txn = 11;
  auto params = std::make_shared<ParamList>();
  params->Insert("a", oodb::Value::Int(-5));
  params->Insert("b", oodb::Value::Double(2.5));
  params->Insert("s", oodb::Value::String("text"));
  params->Insert("o", oodb::Value::OfOid(7));
  params->Insert("flag", oodb::Value::Bool(true));
  params->Insert("nothing", oodb::Value::Null());
  occ.params = params;

  BytesWriter writer;
  net::EncodeOccurrence(occ, &writer);
  BytesReader reader(writer.data());
  auto back = net::DecodeOccurrence(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->event_name, "e");
  EXPECT_EQ(back->class_name, "Klass");
  EXPECT_EQ(back->oid, 99u);
  EXPECT_EQ(back->modifier, EventModifier::kBegin);
  EXPECT_EQ(back->at, 12345u);
  EXPECT_EQ(back->at_ms, 67890u);
  EXPECT_EQ(back->txn, 11u);
  EXPECT_EQ(back->params->Get("a")->AsInt(), -5);
  EXPECT_DOUBLE_EQ(back->params->Get("b")->AsDouble(), 2.5);
  EXPECT_EQ(back->params->Get("s")->AsString(), "text");
  EXPECT_EQ(back->params->Get("o")->AsOid(), 7u);
  EXPECT_TRUE(back->params->Get("flag")->AsBool());
  EXPECT_TRUE(back->params->Get("nothing")->is_null());
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace sentinel::detector
