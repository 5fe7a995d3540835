#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/inline_vector.h"
#include "common/result.h"
#include "common/status.h"

namespace sentinel {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoriesMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::TransactionAborted("x").IsTransactionAborted());
  EXPECT_TRUE(Status::Deadlock("x").IsDeadlock());
  EXPECT_TRUE(Status::LockTimeout("x").IsLockTimeout());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::TypeMismatch("x").IsTypeMismatch());
}

TEST(StatusTest, CopySharesState) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_TRUE(b.code() == StatusCode::kInternal);
  EXPECT_EQ(b.message(), "boom");
}

Status ReturnsNotOk() {
  SENTINEL_RETURN_NOT_OK(Status::IOError("disk on fire"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(ReturnsNotOk().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "payload");
}

TEST(BytesTest, ScalarRoundTrip) {
  BytesWriter w;
  w.PutU8(7);
  w.PutU16(1000);
  w.PutU32(70000);
  w.PutU64(1ull << 40);
  w.PutI32(-5);
  w.PutI64(-12345678901234);
  w.PutF64(3.25);
  w.PutBool(true);
  w.PutString("hello");

  BytesReader r(w.data());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU16(), 1000);
  EXPECT_EQ(*r.ReadU32(), 70000u);
  EXPECT_EQ(*r.ReadU64(), 1ull << 40);
  EXPECT_EQ(*r.ReadI32(), -5);
  EXPECT_EQ(*r.ReadI64(), -12345678901234);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.25);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReadPastEndIsCorruption) {
  BytesWriter w;
  w.PutU8(1);
  BytesReader r(w.data());
  EXPECT_TRUE(r.ReadU32().status().IsCorruption());
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  BytesWriter w;
  w.PutU32(100);  // promises 100 bytes
  w.PutU8('x');
  BytesReader r(w.data());
  EXPECT_TRUE(r.ReadString().status().IsCorruption());
}

TEST(BytesTest, EmptyString) {
  BytesWriter w;
  w.PutString("");
  BytesReader r(w.data());
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ClockTest, TickIsStrictlyIncreasing) {
  LogicalClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  Timestamp prev = 0;
  for (int i = 0; i < 100; ++i) {
    Timestamp t = clock.Tick();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(clock.Now(), prev);
}

TEST(ClockTest, WitnessAdvances) {
  LogicalClock clock;
  clock.Witness(500);
  EXPECT_EQ(clock.Now(), 500u);
  EXPECT_EQ(clock.Tick(), 501u);
  clock.Witness(100);  // never goes backwards
  EXPECT_GE(clock.Now(), 501u);
}

TEST(ClockTest, ConcurrentTicksAreUnique) {
  LogicalClock clock;
  constexpr int kThreads = 4;
  constexpr int kTicks = 1000;
  std::vector<std::vector<Timestamp>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, &seen, t] {
      for (int i = 0; i < kTicks; ++i) seen[t].push_back(clock.Tick());
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Timestamp> all;
  for (const auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kTicks));
}

// The CRC-32/IEEE check value.
TEST(Crc32Test, CheckValue) {
  const char kInput[] = "123456789";
  EXPECT_EQ(Crc32(kInput, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(kInput, 0), 0u);
}

std::uint32_t BytewiseCrc32(const std::uint8_t* data, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Slicing-by-8 gives the bytewise result at every length and start
// alignment, and chaining through `seed` is the same as one call over the
// whole buffer, so existing WAL, event-log and frame bytes stay valid.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryAlignment) {
  std::mt19937 rng(7);
  std::vector<std::uint8_t> buffer(4096 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t size = rng() % 4097;
    const std::size_t split = size == 0 ? 0 : rng() % (size + 1);
    for (std::size_t align = 0; align < 8; ++align) {
      const std::uint8_t* p = buffer.data() + align;
      const std::uint32_t want = BytewiseCrc32(p, size, 0);
      ASSERT_EQ(Crc32(p, size), want) << "size " << size << " align " << align;
      EXPECT_EQ(Crc32(p + split, size - split, Crc32(p, split)), want)
          << "size " << size << " split " << split << " align " << align;
      EXPECT_EQ(Crc32(p, size, 0x12345678u), BytewiseCrc32(p, size, 0x12345678u));
    }
  }
}

TEST(InlineVectorTest, SpillsPastInlineCapacityAndKeepsOrder) {
  common::InlineVector<std::shared_ptr<int>, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(std::make_shared<int>(i));
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(*v.back(), 4);
  EXPECT_EQ(*v.rbegin()[0], 4);

  auto copy = v;
  auto moved = std::move(v);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_EQ(*moved[2], 2);
  EXPECT_EQ(copy[2].use_count(), 2);

  moved.clear();
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(copy[2].use_count(), 1);  // clear released what it held
  moved.push_back(std::make_shared<int>(9));
  EXPECT_EQ(*moved.front(), 9);
}

TEST(InlineVectorTest, ComparesAndAssignsFromAList) {
  common::InlineVector<int, 3> path = {5, 3};
  common::InlineVector<int, 3> other = path;
  other.push_back(1);
  EXPECT_FALSE(path == other);
  path.push_back(1);
  EXPECT_TRUE(path == other);
  path.push_back(7);  // spills
  other = {5, 3, 1, 7};
  EXPECT_TRUE(path == other);
  other = {4};
  EXPECT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], 4);
}

}  // namespace
}  // namespace sentinel
