// E10 (DESIGN.md): the storage substrate (Exodus substitute) — record
// insert/read/scan throughput, commit cost, buffer pool hit behaviour, and
// recovery replay time as a function of log size.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "storage/recovery.h"
#include "storage/storage_engine.h"

namespace sentinel::bench {
namespace {

using storage::Rid;
using storage::StorageEngine;

std::string TempPrefix(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("sentinel_bench_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

void Cleanup(const std::string& prefix) {
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

std::vector<std::uint8_t> Record(int size, int seed) {
  std::vector<std::uint8_t> rec(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    rec[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed + i);
  }
  return rec;
}

void BM_InsertCommit(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const std::string prefix = TempPrefix("insert");
  Cleanup(prefix);
  StorageEngine engine;
  (void)engine.Open(prefix);
  auto file = engine.CreateHeapFile();
  const auto rec = Record(100, 7);
  for (auto _ : state) {
    auto txn = engine.Begin();
    for (int i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(engine.Insert(*txn, *file, rec).ok());
    }
    (void)engine.Commit(*txn);
  }
  state.SetItemsProcessed(state.iterations() * batch);
  (void)engine.Close();
  Cleanup(prefix);
}
BENCHMARK(BM_InsertCommit)->Arg(1)->Arg(16)->Arg(128);

void BM_PointRead(benchmark::State& state) {
  const std::string prefix = TempPrefix("read");
  Cleanup(prefix);
  StorageEngine engine;
  (void)engine.Open(prefix);
  auto file = engine.CreateHeapFile();
  std::vector<Rid> rids;
  {
    auto txn = engine.Begin();
    for (int i = 0; i < 1000; ++i) {
      rids.push_back(*engine.Insert(*txn, *file, Record(100, i)));
    }
    (void)engine.Commit(*txn);
  }
  auto txn = engine.Begin();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Read(*txn, *file, rids[i++ % rids.size()]).ok());
  }
  (void)engine.Commit(*txn);
  state.SetItemsProcessed(state.iterations());
  state.counters["bp_hit_rate"] =
      static_cast<double>(engine.buffer_pool()->hit_count()) /
      static_cast<double>(engine.buffer_pool()->hit_count() +
                          engine.buffer_pool()->miss_count() + 1);
  (void)engine.Close();
  Cleanup(prefix);
}
BENCHMARK(BM_PointRead);

void BM_Scan(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const std::string prefix = TempPrefix("scan");
  Cleanup(prefix);
  StorageEngine engine;
  (void)engine.Open(prefix);
  auto file = engine.CreateHeapFile();
  {
    auto txn = engine.Begin();
    for (int i = 0; i < records; ++i) {
      (void)engine.Insert(*txn, *file, Record(100, i));
    }
    (void)engine.Commit(*txn);
  }
  for (auto _ : state) {
    auto txn = engine.Begin();
    std::size_t count = 0;
    (void)engine.Scan(*txn, *file,
                      [&count](const Rid&, const std::vector<std::uint8_t>&) {
                        ++count;
                        return Status::OK();
                      });
    (void)engine.Commit(*txn);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * records);
  (void)engine.Close();
  Cleanup(prefix);
}
BENCHMARK(BM_Scan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AbortUndo(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const std::string prefix = TempPrefix("abort");
  Cleanup(prefix);
  StorageEngine engine;
  (void)engine.Open(prefix);
  auto file = engine.CreateHeapFile();
  const auto rec = Record(100, 3);
  for (auto _ : state) {
    auto txn = engine.Begin();
    for (int i = 0; i < batch; ++i) {
      (void)engine.Insert(*txn, *file, rec);
    }
    (void)engine.Abort(*txn);
  }
  state.SetItemsProcessed(state.iterations() * batch);
  (void)engine.Close();
  Cleanup(prefix);
}
BENCHMARK(BM_AbortUndo)->Arg(16)->Arg(128);

void BM_RecoveryReplay(benchmark::State& state) {
  const int committed_txns = static_cast<int>(state.range(0));
  const std::string prefix = TempPrefix("recover");
  for (auto _ : state) {
    state.PauseTiming();
    Cleanup(prefix);
    {
      StorageEngine engine;
      (void)engine.Open(prefix);
      auto file = engine.CreateHeapFile();
      for (int t = 0; t < committed_txns; ++t) {
        auto txn = engine.Begin();
        for (int i = 0; i < 8; ++i) {
          (void)engine.Insert(*txn, *file, Record(64, t * 8 + i));
        }
        (void)engine.Commit(*txn);
      }
      (void)engine.log_manager()->Flush();
      engine.SimulateCrash();  // dirty pages lost
    }
    state.ResumeTiming();
    StorageEngine recovered;
    benchmark::DoNotOptimize(recovered.Open(prefix).ok());
    state.PauseTiming();
    (void)recovered.Close();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * committed_txns * 8);
  Cleanup(prefix);
}
BENCHMARK(BM_RecoveryReplay)->Arg(10)->Arg(100)->Arg(500);

}  // namespace
}  // namespace sentinel::bench
