// Load drivers: the open-loop generator (requests timed from their due
// time), the closed-loop client, the rate ladder, and the paced
// updategram writer. Every answer a driver collects is checked against
// ground truth before it counts as succeeded.
#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"
#include "src/serve/server.h"
#include "src/storage/catalog.h"

namespace perfbench {

/// Latency limit of the serving SLO: p99 at or under it, no growing
/// backlog. A refused or failed request misses it.
inline constexpr double kSloMs = 10.0;

/// Fewest samples in a window of a phase's p99, so that the p99 of a
/// window is not simply its largest sample.
inline constexpr size_t kMinP99Window = 200;

/// Ground truth for one request: the fingerprints of the exact answer
/// a complete reformulation must return. A partial answer (some peer
/// unreachable) must be a subset.
struct Expected {
  std::unordered_set<uint64_t> rows;
  /// Concurrent updategrams may add writer rows (see IsWriterRow) on
  /// top of the expected ones; nothing else may appear.
  bool writer_rows_allowed = false;
};

/// Rows the updategram writer inserts carry this instructor value and
/// an id starting with "w:", so a checker can tell them apart.
inline constexpr const char* kWriterTag = "writer";
bool IsWriterRow(const revere::storage::Row& row);

struct Request {
  revere::query::ConjunctiveQuery query;
  revere::serve::Lane lane = revere::serve::Lane::kInteractive;
  std::shared_ptr<const Expected> expect;
};

/// True when `result` is an OK answer consistent with `expect`.
bool CheckAnswer(const Expected& expect, const revere::serve::ServeResult& result);

/// Everything one phase of load measured.
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t shed = 0;            ///< refused at admission (load shedding)
  uint64_t errors = 0;          ///< non-OK status other than shedding
  uint64_t check_failures = 0;  ///< OK status, wrong answer
  /// Per sent request, from due time (open loop) or submit (closed
  /// loop) to resolution; +inf when refused or failed.
  std::vector<double> latency_ms;
  /// Every request a worker served (not shed), from ServeResult.
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  /// Open loop: send time minus due time. Closed loop: the client's gap
  /// between one answer and the next submit.
  std::vector<double> gen_lag_ms;
  size_t backlog_max = 0;
  /// Median in-system count over the last third of the phase against
  /// the first third's plus max(4, first third's); above 1 the backlog
  /// grows.
  double backlog_growth = 0;
  uint64_t complete = 0;  ///< OK answers whose completeness report is complete
  double rows_out = 0, rows_shipped = 0;
  double peers_contacted = 0, contacts_failed = 0, retries = 0,
         breaker_skips = 0;
  double plan_hits = 0, plan_misses = 0, nodes_on_miss = 0, rewritings = 0;
  double sim_net_ms = 0;  ///< simulated network time of the OK answers
  /// Seconds the load ran, less the time spent verifying answers
  /// between closed-loop requests.
  double busy_s = 0;
  /// Closed loop: one entry per request, in send order — the client's
  /// turn (join, request built, answered; verification left out) and
  /// the rows it got, 0 when the request failed.
  struct Turn {
    double ms = 0;
    double rows = 0;
    bool ok = false;
  };
  std::vector<Turn> turns;
  /// The first failed request and why, for the run's detail line.
  std::string first_failure;
  /// Consecutive windows (in send order) the percentiles and, in a
  /// closed loop, the rates are taken over: each figure is the median
  /// of its per-window values, so a stall spoils one window, not the
  /// figure.
  size_t windows = 1;

  void Add(const PhaseStats& other);
  /// Share of sent requests over the SLO limit, refused, or failed.
  double MissFrac() const;
  /// Median and 99th-percentile latency, each the median over `windows`
  /// (the p99 over fewer when a window would hold under kMinP99Window
  /// samples).
  double P50() const;
  double P99() const;
  /// OK answers and answer rows per second. Closed loop: the median
  /// over `windows` of each window's count over its turns' time. Open
  /// loop: over the whole phase (the schedule fixes the request rate).
  double Throughput() const;
  double RowsPerS() const;
  /// How far the phase is from the SLO, continuously: the larger of
  /// P99() / limit (a refused or failed request counted at ten times
  /// the limit) and backlog_growth. The SLO holds while it is at most 1.
  double SloScore() const;
  uint64_t failed() const { return errors + check_failures; }
};

using NextRequest = std::function<Request(uint64_t i)>;

class UpdategramWriter;

/// Open loop for `seconds`: request i is due at start + i/rate, and
/// with a `writer` updategram j at start + j/write_rate, whether or not
/// earlier ones finished. One thread keeps both schedules: it sleeps
/// while more than kSpinMs remain, spins the last stretch (a sleep can
/// wake milliseconds late), collects and checks answers while it waits,
/// and samples the server's backlog each millisecond. `rate` 0 sends no
/// requests (and needs no server).
PhaseStats RunOpenLoop(revere::serve::RevereServer* server, double rate,
                       double seconds, const NextRequest& next,
                       UpdategramWriter* writer = nullptr, double write_rate = 0);

/// How long before a due time the open loop stops sleeping and spins.
inline constexpr double kSpinMs = 2.5;

/// One closed-loop client for `seconds` or `max_requests`, whichever
/// ends first: submit, wait, check, repeat. `before` runs ahead of
/// request i (overlay joins) and counts as load.
PhaseStats RunClosedLoop(revere::serve::RevereServer* server, double seconds,
                         const NextRequest& next,
                         const std::function<void(uint64_t)>& before,
                         uint64_t max_requests = UINT64_MAX);

struct Rung {
  double rate = 0;
  PhaseStats stats;
};

/// The highest rate meeting the SLO: interpolated between the last
/// passing rung and the first failing one where log(SloScore) crosses
/// zero, so the estimate moves smoothly instead of jumping a whole rung.
double MaxRate(const std::vector<Rung>& rungs);

/// The updategram side of a workload: each updategram inserts three
/// writer rows into the next relation (round-robin) and deletes that
/// relation's previous three, through piazza::ApplyToBase. It owns no
/// thread; the open-loop pacer applies each one at its due time.
class UpdategramWriter {
 public:
  UpdategramWriter(revere::storage::Catalog* catalog,
                   std::vector<std::string> relations,
                   std::vector<std::string> titles);

  /// Applies the next updategram, due at `due`.
  void Apply(Clock::time_point due);
  /// Drops the samples (not the round counters) to start a new window.
  void ClearSamples();
  /// Due time → ApplyToBase returned, per updategram of the window.
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  /// Time inside ApplyToBase, per updategram of the window.
  const std::vector<double>& apply_ms() const { return apply_ms_; }
  uint64_t failures() const { return failures_; }

 private:
  revere::storage::Catalog* catalog_;
  std::vector<std::string> relations_;
  std::vector<std::string> titles_;
  std::vector<uint64_t> rounds_;  ///< per relation
  uint64_t issued_ = 0;
  std::vector<double> latency_ms_;
  std::vector<double> apply_ms_;
  uint64_t failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
