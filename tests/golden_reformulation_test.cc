// Replays the frozen golden corpora under tests/golden.
//
// reformulation/:
// Each `case_*.seed` file is a fuzz case (src/fuzz seed-file format)
// recorded from the breadth-first reformulation search that the
// best-first search replaced; `MANIFEST` pins one digest per case. A
// digest covers, for every query, fault-free and then under the case's
// fault plan: the status, the answer rows in order, and the
// `rewritings`, `nodes_expanded`, `pruned_duplicates` and
// `pruned_unreachable` counters. (`pruned_depth` is left out: it counts
// cuts at fully stored nodes the recorded search did not.) The search
// must reproduce every digest, so the corpus keeps that search's
// guarantee after its code is gone.
//
// The seed files carry the older 9-token `reform` line, so every replay
// also exercises the loader's backward-compatible path.
//
// evaluation/: fuzz cases recorded from the std::map binding engine that
// the slot engine replaced as the evaluation reference, digested the
// same way. Every case must replay to its digest under the slot engine,
// scanning and with on-demand indexes, and under the columnar engine,
// so the corpus keeps the guarantee the map engine anchored.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/fuzz/fuzzer.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"

namespace revere::fuzz {
namespace {

using piazza::ExecutionStats;
using piazza::FaultInjector;
using piazza::FaultMode;
using piazza::NetworkCostModel;
using piazza::PdmsNetwork;
using piazza::ReformulationOptions;
using piazza::ReformulationStats;
using storage::Row;
using storage::Value;

const std::string kCorpusDir = std::string(REVERE_GOLDEN_DIR) +
                               "/reformulation";
const std::string kEvaluationDir = std::string(REVERE_GOLDEN_DIR) +
                                   "/evaluation";

struct Outcome {
  Status status;
  std::vector<Row> rows;
  ExecutionStats stats;
};

void ApplyFaults(const FuzzCase& c, FaultInjector* injector) {
  for (const FuzzFault& f : c.faults) {
    switch (f.fault.mode) {
      case FaultMode::kDown:
        injector->SetDown(f.peer);
        break;
      case FaultMode::kFlaky:
        injector->SetFlaky(f.peer, f.fault.failure_probability);
        break;
      case FaultMode::kSlow:
        injector->SetSlow(f.peer, f.fault.extra_latency_ms);
        break;
      case FaultMode::kHealthy:
        break;
    }
  }
}

/// Answers every query of `c` on a fresh network (plan cache off,
/// evaluation per `eval`), with or without the case's fault plan.
std::vector<Outcome> RunCase(const FuzzCase& c, bool with_faults,
                             const query::EvalOptions& eval = {}) {
  std::vector<Outcome> out;
  PdmsNetwork net;
  Status built = BuildNetwork(c, &net);
  if (!built.ok()) {
    Outcome failed;
    failed.status = built;
    out.assign(c.queries.size(), failed);
    return out;
  }
  std::optional<FaultInjector> injector;
  if (with_faults) {
    injector.emplace(c.seed);
    ApplyFaults(c, &*injector);
  }
  ReformulationOptions reform = c.reform;
  reform.use_plan_cache = false;
  NetworkCostModel cost;
  cost.faults = injector ? &*injector : nullptr;
  cost.failure_policy = c.policy;
  cost.retry = c.retry;
  cost.eval = eval;
  for (const auto& q : c.queries) {
    Outcome o;
    Result<std::vector<Row>> rows = net.Answer(q, reform, &o.stats, cost);
    if (rows.ok()) {
      o.rows = std::move(rows).value();
    } else {
      o.status = rows.status();
    }
    out.push_back(std::move(o));
  }
  return out;
}

uint64_t CaseDigest(const std::vector<Outcome>& fault_free,
                    const std::vector<Outcome>& faulted) {
  uint64_t h = Fnv1a64("revere-golden-reformulation-v1");
  for (const std::vector<Outcome>* run : {&fault_free, &faulted}) {
    for (const Outcome& o : *run) {
      h = Fnv1a64(StatusCodeToString(o.status.code()), h);
      h = Fnv1a64(o.status.message(), h);
      for (const Row& row : o.rows) {
        for (const Value& v : row) {
          h = Fnv1a64(ValueTypeToString(v.type()), h);
          h = Fnv1a64(v.ToString(), h);
        }
        h = Fnv1a64("|", h);
      }
      const ReformulationStats& r = o.stats.reformulation;
      for (size_t counter : {r.rewritings, r.nodes_expanded,
                             r.pruned_duplicates, r.pruned_unreachable}) {
        h = Fnv1a64(std::to_string(counter), h);
        h = Fnv1a64(",", h);
      }
      h = Fnv1a64(";", h);
    }
    h = Fnv1a64("#", h);
  }
  return h;
}

struct ManifestEntry {
  std::string file;
  std::string digest;  // 16 hex digits
};

std::vector<ManifestEntry> ReadManifest(const std::string& dir) {
  std::vector<ManifestEntry> entries;
  std::ifstream in(dir + "/MANIFEST");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    ManifestEntry e;
    fields >> e.file >> e.digest;
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenReformulationTest, CorpusReplaysToItsDigests) {
  std::vector<ManifestEntry> manifest = ReadManifest(kCorpusDir);
  ASSERT_GE(manifest.size(), 64u) << "corpus missing under " << kCorpusDir;

  size_t capped = 0, depth_cut = 0, faulted_cases = 0;
  for (const ManifestEntry& entry : manifest) {
    SCOPED_TRACE(entry.file);
    Result<FuzzCase> loaded = LoadCase(kCorpusDir + "/" + entry.file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const FuzzCase& c = loaded.value();
    std::vector<Outcome> fault_free = RunCase(c, false);
    std::vector<Outcome> faulted = RunCase(c, true);
    EXPECT_EQ(Hex(CaseDigest(fault_free, faulted)), entry.digest);

    bool hit_cap = false, cut = false;
    for (const Outcome& o : fault_free) {
      const ReformulationStats& r = o.stats.reformulation;
      hit_cap = hit_cap || r.rewritings >= c.reform.max_rewritings;
      cut = cut || r.pruned_depth > 0;
      // Every search cut reads as a partial answer.
      EXPECT_EQ(o.stats.completeness.complete(), !r.truncated());
    }
    capped += hit_cap ? 1 : 0;
    depth_cut += cut ? 1 : 0;
    faulted_cases += c.faults.empty() ? 0 : 1;
  }
  // The corpus covers the paths a cut or a fault takes, not just clean
  // closures.
  EXPECT_GE(capped, 16u);
  EXPECT_GE(depth_cut, 16u);
  EXPECT_GE(faulted_cases, 16u);
}

TEST(GoldenReformulationTest, RecordedCasesResaveInTheCurrentFormat) {
  std::vector<ManifestEntry> manifest = ReadManifest(kCorpusDir);
  ASSERT_FALSE(manifest.empty());
  Result<FuzzCase> loaded = LoadCase(kCorpusDir + "/" + manifest[0].file);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::string text = SerializeCase(loaded.value());
  Result<FuzzCase> reparsed = ParseCase(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeCase(reparsed.value()), text);
  EXPECT_EQ(Hex(CaseDigest(RunCase(reparsed.value(), false),
                           RunCase(reparsed.value(), true))),
            manifest[0].digest);
}

/// The evaluation configurations the evaluation corpus must replay
/// under.
std::vector<std::pair<std::string, query::EvalOptions>> EvalConfigs() {
  query::EvalOptions scan;
  scan.on_demand_indexes = false;
  query::EvalOptions indexed;
  indexed.on_demand_index_min_rows = 0;  // build every index it can use
  query::EvalOptions columnar;
  columnar.engine = query::EvalEngine::kColumnar;
  return {{"slots_scan", scan},
          {"slots_indexed", indexed},
          {"columnar", columnar}};
}

TEST(GoldenEvaluationTest, CorpusReplaysToItsDigestsUnderEveryEngine) {
  std::vector<ManifestEntry> manifest = ReadManifest(kEvaluationDir);
  ASSERT_GE(manifest.size(), 64u) << "corpus missing under " << kEvaluationDir;

  size_t joins = 0, repeated = 0, constants = 0, faulted_cases = 0;
  for (const ManifestEntry& entry : manifest) {
    SCOPED_TRACE(entry.file);
    Result<FuzzCase> loaded = LoadCase(kEvaluationDir + "/" + entry.file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const FuzzCase& c = loaded.value();
    std::vector<Outcome> scan;  // fault-free, first configuration
    for (const auto& [name, eval] : EvalConfigs()) {
      SCOPED_TRACE(name);
      std::vector<Outcome> fault_free = RunCase(c, false, eval);
      EXPECT_EQ(Hex(CaseDigest(fault_free, RunCase(c, true, eval))),
                entry.digest);
      if (scan.empty()) scan = std::move(fault_free);
    }

    bool join = false, repeat = false, constant = false;
    for (size_t i = 0; i < c.queries.size(); ++i) {
      const std::vector<query::Atom>& body = c.queries[i].body();
      join = join || (body.size() >= 2 && !scan[i].rows.empty());
      for (const query::Atom& atom : body) {
        std::set<std::string> vars;
        for (const query::QTerm& t : atom.args) {
          constant = constant || !t.is_var();
          repeat = repeat || (t.is_var() && !vars.insert(t.var()).second);
        }
      }
    }
    joins += join ? 1 : 0;
    repeated += repeat ? 1 : 0;
    constants += constant ? 1 : 0;
    faulted_cases += c.faults.empty() ? 0 : 1;
  }
  // The corpus covers joins that produce rows, repeated variables,
  // constant filters and faults, not just single-atom scans.
  EXPECT_GE(joins, 12u);
  EXPECT_GE(repeated, 12u);
  EXPECT_GE(constants, 12u);
  EXPECT_GE(faulted_cases, 12u);
}

}  // namespace
}  // namespace revere::fuzz
