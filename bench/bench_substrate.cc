// Substrate micro-benchmarks: the table index and the triple store
// underlying every REVERE component. Not tied to a paper claim; they
// bound what the higher layers can possibly achieve and catch substrate
// regressions.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rdf/triple_store.h"
#include "src/storage/table.h"
#include "src/storage/table_version.h"

namespace {

using revere::Rng;
using revere::storage::Row;
using revere::storage::Table;
using revere::storage::TableSchema;
using revere::storage::TableVersion;
using revere::storage::Value;

std::unique_ptr<Table> MakeTable(size_t rows, size_t distinct_keys,
                                 uint64_t seed) {
  auto table = std::make_unique<Table>(TableSchema(
      "t", {{"k", revere::storage::ValueType::kString},
            {"v", revere::storage::ValueType::kInt}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    (void)table->Insert(
        {Value("k" + std::to_string(rng.Uniform(distinct_keys))),
         Value(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  return table;
}

void BM_IndexLookupVsScan(benchmark::State& state) {
  auto table = MakeTable(static_cast<size_t>(state.range(0)), 1024, 3);
  bool use_index = state.range(1) != 0;
  if (use_index) {
    (void)table->CreateIndex(0);
  }
  const Value key("k7");
  for (auto _ : state) {
    // A pinned version probes its sticky index, or scans without one.
    std::shared_ptr<const TableVersion> version = table->Snapshot();
    std::vector<Row> rows;
    for (size_t i : version->LookupIndices(0, key)) {
      rows.push_back(version->row(i));
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(use_index ? "indexed" : "scan");
}
BENCHMARK(BM_IndexLookupVsScan)
    ->ArgsProduct({{10000, 100000}, {0, 1}});

void BM_TripleStoreInsert(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    revere::rdf::TripleStore store;
    for (int i = 0; i < state.range(0); ++i) {
      (void)store.Add("s" + std::to_string(rng.Uniform(1000)), "p",
                      "o" + std::to_string(i), "src");
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(1000)->Arg(10000);

void BM_TripleStoreMatch(benchmark::State& state) {
  revere::rdf::TripleStore store;
  Rng rng(8);
  size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    (void)store.Add("s" + std::to_string(rng.Uniform(n / 10 + 1)),
                    "p" + std::to_string(rng.Uniform(8)),
                    "o" + std::to_string(rng.Uniform(100)), "src");
  }
  for (auto _ : state) {
    auto hits = store.Match({"s7", "p1", std::nullopt});
    benchmark::DoNotOptimize(hits);
  }
  state.counters["triples"] = static_cast<double>(store.size());
}
BENCHMARK(BM_TripleStoreMatch)->Arg(10000)->Arg(100000);

}  // namespace
