// The four named workloads and the two kinds of run (end-to-end and
// traced) the benchmark makes of each.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// End-to-end figures BENCHMARK.json does not gate: printed in the
  /// detail line.
  std::vector<Metric> ungated_metrics;
  /// JSON object: the workload's parameters (sizes, rates, mix, client
  /// model, why).
  std::string params;
  /// JSON object: what each phase sent, got back, and measured.
  std::string detail;
};

const std::vector<std::string>& WorkloadNames();

/// `metrics` as one JSON object {"name": {"value": v, "unit": u}, ...}.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// Runs workload `name` from `seed`: sets it up several times (setup_s
/// is their median), then measures for `seconds` — the end-to-end
/// metrics when `trace` is false, the per-layer split when true.
/// Returns false with `error` set for an unknown workload or a failed
/// setup.
bool RunWorkload(const std::string& name, uint64_t seed, double seconds,
                 bool trace, RunOutcome* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
