// Folds a traced run's spans into per-layer self time.
#ifndef PERFBENCH_FOLD_H_
#define PERFBENCH_FOLD_H_

#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct SpanFold {
  bool well_formed = true;
  std::string error;  ///< first malformation found
  size_t requests = 0;  ///< `answer` root spans
  double root_ms = 0;   ///< summed root durations
  /// Self time per span name, summed over requests (ms).
  std::map<std::string, double> self_ms;
  /// Requests whose plan_cache span reported a miss, and their
  /// reformulate + plan_cache self time.
  size_t miss_requests = 0;
  double miss_reformulate_ms = 0;
};

/// Groups spans by their `answer` root and attributes every instant of
/// a root's interval to the deepest span active at that instant. Where
/// children nest inside their parent in time this is exactly "duration
/// minus the part covered by children"; a `contact` span, which the
/// answer path parents to its already-finished `evaluate` span, still
/// counts once, as contact time. Checks the tree: unique ids, parents
/// present, the answer-path parent/child names, and every span inside
/// its root's interval.
SpanFold FoldSpans(const std::vector<revere::obs::SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_FOLD_H_
