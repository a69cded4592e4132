#include "perfbench/src/drivers.h"

#include <deque>
#include <future>
#include <thread>

#include "src/common/status.h"

namespace perfbench {

using revere::serve::RevereServer;
using revere::serve::ServeRequest;
using revere::serve::ServeResult;
using revere::storage::Row;
using revere::storage::Value;

bool IsWriterRow(const Row& row) {
  if (row.empty()) return false;
  const Value& first = row.front();
  const Value& last = row.back();
  return first.type() == revere::storage::ValueType::kString &&
         first.as_string().rfind("w:", 0) == 0 &&
         last.type() == revere::storage::ValueType::kString &&
         last.as_string() == kWriterTag;
}

bool CheckAnswer(const Expected& expect, const ServeResult& result) {
  if (!result.status.ok()) return false;
  std::unordered_set<uint64_t> seen;
  seen.reserve(result.rows.size());
  size_t found = 0;
  for (const Row& row : result.rows) {
    uint64_t fp = Fingerprint(row);
    if (!seen.insert(fp).second) return false;  // a duplicate row
    if (expect.rows.count(fp) != 0) {
      ++found;
    } else if (!(expect.writer_rows_allowed && IsWriterRow(row))) {
      return false;  // a row the generator never produced
    }
  }
  // A complete answer holds every expected row; a partial one a subset.
  return !result.stats.completeness.complete() || found == expect.rows.size();
}

void PhaseStats::Add(const PhaseStats& o) {
  sent += o.sent;
  succeeded += o.succeeded;
  shed += o.shed;
  errors += o.errors;
  check_failures += o.check_failures;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  queue_wait_ms.insert(queue_wait_ms.end(), o.queue_wait_ms.begin(),
                       o.queue_wait_ms.end());
  service_ms.insert(service_ms.end(), o.service_ms.begin(), o.service_ms.end());
  gen_lag_ms.insert(gen_lag_ms.end(), o.gen_lag_ms.begin(), o.gen_lag_ms.end());
  backlog_max = std::max(backlog_max, o.backlog_max);
  backlog_growth = std::max(backlog_growth, o.backlog_growth);
  complete += o.complete;
  rows_out += o.rows_out;
  rows_shipped += o.rows_shipped;
  peers_contacted += o.peers_contacted;
  contacts_failed += o.contacts_failed;
  retries += o.retries;
  breaker_skips += o.breaker_skips;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  nodes_on_miss += o.nodes_on_miss;
  rewritings += o.rewritings;
  sim_net_ms += o.sim_net_ms;
  busy_s += o.busy_s;
  turns.insert(turns.end(), o.turns.begin(), o.turns.end());
  if (first_failure.empty()) first_failure = o.first_failure;
}

double PhaseStats::MissFrac() const {
  if (sent == 0) return 1.0;
  uint64_t missed = 0;
  for (double l : latency_ms) missed += l > kSloMs ? 1 : 0;
  return static_cast<double>(missed) / static_cast<double>(sent);
}

double PhaseStats::P50() const {
  return Quantile(WindowQuantiles(latency_ms, windows, 0.5), 0.5);
}

double PhaseStats::P99() const {
  return WindowedP99(latency_ms, std::min(windows, latency_ms.size() / kMinP99Window));
}

namespace {

/// The median over `windows` consecutive slices of `turns` of the
/// slice's `amount` per second of turn time.
template <typename Amount>
double WindowedRate(const std::vector<PhaseStats::Turn>& turns, size_t windows,
                    Amount amount) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(turns.size(), 1));
  std::vector<double> rates;
  for (size_t w = 0; w < windows; ++w) {
    double total = 0, ms = 0;
    for (size_t i = turns.size() * w / windows; i < turns.size() * (w + 1) / windows; ++i) {
      total += amount(turns[i]);
      ms += turns[i].ms;
    }
    rates.push_back(ms > 0 ? 1000 * total / ms : 0.0);
  }
  return Quantile(rates, 0.5);
}

}  // namespace

double PhaseStats::Throughput() const {
  if (turns.empty()) return busy_s > 0 ? static_cast<double>(succeeded) / busy_s : 0.0;
  return WindowedRate(turns, windows, [](const Turn& t) { return t.ok ? 1.0 : 0.0; });
}

double PhaseStats::RowsPerS() const {
  if (turns.empty()) return busy_s > 0 ? rows_out / busy_s : 0.0;
  return WindowedRate(turns, windows, [](const Turn& t) { return t.rows; });
}

double PhaseStats::SloScore() const {
  std::vector<double> penalized = latency_ms;
  for (double& l : penalized) l = std::min(l, 10 * kSloMs);
  double score = WindowedP99(penalized, windows) / kSloMs;
  return backlog_growth > 1.0 ? std::max(score, backlog_growth) : score;
}

namespace {

struct Pending {
  revere::query::ConjunctiveQuery query;  ///< kept to name a failure
  std::future<ServeResult> future;
  Clock::time_point start;  ///< due time (open loop) or submit (closed)
  Clock::time_point sent;
  std::shared_ptr<const Expected> expect;
};

/// Folds one resolved request into `stats`. The request's resolution
/// instant is the end of its service (the worker fulfils the promise
/// right after), so latency does not depend on when the client got
/// round to collecting it.
void Collect(Pending& p, PhaseStats* stats) {
  ServeResult r = p.future.get();
  if (r.shed) {
    ++stats->shed;
    stats->latency_ms.push_back(kInf);
    return;
  }
  double queue_ms = r.queue_wait_us / 1000.0;
  double service_ms = r.service_us / 1000.0;
  stats->queue_wait_ms.push_back(queue_ms);
  stats->service_ms.push_back(service_ms);
  if (!r.status.ok() || !CheckAnswer(*p.expect, r)) {
    ++(r.status.ok() ? stats->check_failures : stats->errors);
    stats->latency_ms.push_back(kInf);
    if (stats->first_failure.empty()) {
      stats->first_failure = p.query.ToString() + ": " +
                             (r.status.ok() ? "answer disagrees with ground truth ("
                                                  + std::to_string(r.rows.size()) + " rows, expected " +
                                                  std::to_string(p.expect->rows.size()) + ")"
                                            : r.status.ToString());
    }
    return;
  }
  ++stats->succeeded;
  stats->latency_ms.push_back(MsBetween(p.start, p.sent) + queue_ms + service_ms);
  const revere::piazza::ExecutionStats& x = r.stats;
  stats->complete += x.completeness.complete() ? 1 : 0;
  stats->rows_out += static_cast<double>(r.rows.size());
  stats->rows_shipped += static_cast<double>(x.rows_shipped);
  stats->sim_net_ms += x.simulated_network_ms;
  stats->peers_contacted += static_cast<double>(x.peers_contacted);
  stats->contacts_failed += static_cast<double>(x.completeness.contacts_failed);
  stats->retries += static_cast<double>(x.completeness.retries_attempted);
  stats->breaker_skips += static_cast<double>(x.completeness.breaker_skips);
  stats->plan_hits += static_cast<double>(x.plan_cache_hits);
  stats->plan_misses += static_cast<double>(x.plan_cache_misses);
  if (x.plan_cache_misses > 0) {
    stats->nodes_on_miss += static_cast<double>(x.reformulation.nodes_expanded);
  }
  stats->rewritings += static_cast<double>(x.reformulation.rewritings);
}

size_t InSystem(const RevereServer& server) {
  revere::serve::ServerStats s = server.Snapshot();
  return static_cast<size_t>(s.admitted - s.completed - s.deadline_exceeded -
                             s.failed);
}

/// The last third of the samples against the first third plus
/// max(4, first third): above 1 the backlog grows.
double Growth(const std::vector<size_t>& samples) {
  if (samples.size() < 6) return 0;
  size_t third = samples.size() / 3;
  std::vector<double> first(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(third));
  std::vector<double> last(samples.end() - static_cast<std::ptrdiff_t>(third), samples.end());
  double base = Quantile(first, 0.5);
  return Quantile(last, 0.5) / (base + std::max(4.0, base));
}

}  // namespace

PhaseStats RunOpenLoop(RevereServer* server, double rate, double seconds,
                       const NextRequest& next, UpdategramWriter* writer,
                       double write_rate) {
  PhaseStats stats;
  std::deque<Pending> pending;
  std::vector<size_t> backlog;
  const auto reads = static_cast<uint64_t>(rate * seconds);
  const auto writes = writer ? static_cast<uint64_t>(write_rate * seconds) : 0;
  const auto start = Clock::now();
  auto due_at = [&](uint64_t i, double per_s) {
    return AddMs(start, 1000.0 * static_cast<double>(i) / per_s);
  };
  auto next_sample = start;
  auto collect_ready = [&] {
    if (pending.empty() || pending.front().future.wait_for(
                               std::chrono::seconds(0)) !=
                               std::future_status::ready) {
      return false;
    }
    Collect(pending.front(), &stats);
    pending.pop_front();
    return true;
  };
  uint64_t i = 0, j = 0;
  while (i < reads || j < writes) {
    const bool is_write =
        j < writes && (i >= reads || due_at(j, write_rate) < due_at(i, rate));
    const auto due = is_write ? due_at(j, write_rate) : due_at(i, rate);
    Request req;
    if (!is_write) req = next(i);
    for (;;) {
      auto now = Clock::now();
      if (now >= due) break;
      double left_ms = MsBetween(now, due);
      if (left_ms > 0.06 && collect_ready()) continue;
      if (left_ms > kSpinMs) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(left_ms - kSpinMs, 1.0)));
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // spin politely: spare a sibling hyperthread
#endif
      }
    }
    if (is_write) {
      writer->Apply(due);
      ++j;
      continue;
    }
    const auto sent = Clock::now();
    ServeRequest sreq{req.query, req.lane, -1.0};
    pending.push_back(Pending{std::move(req.query), server->Submit(std::move(sreq)),
                              due, sent, std::move(req.expect)});
    ++stats.sent;
    ++i;
    stats.gen_lag_ms.push_back(MsBetween(due, sent));
    if (sent >= next_sample) {
      backlog.push_back(InSystem(*server));
      next_sample = AddMs(sent, 1.0);
    }
  }
  while (!pending.empty()) {
    Collect(pending.front(), &stats);
    pending.pop_front();
  }
  stats.busy_s = MsBetween(start, Clock::now()) / 1000.0;
  for (size_t b : backlog) stats.backlog_max = std::max(stats.backlog_max, b);
  stats.backlog_growth = Growth(backlog);
  return stats;
}

PhaseStats RunClosedLoop(RevereServer* server, double seconds,
                         const NextRequest& next,
                         const std::function<void(uint64_t)>& before,
                         uint64_t max_requests) {
  PhaseStats stats;
  double verify_ms = 0;
  const auto start = Clock::now();
  const auto end = AddMs(start, seconds * 1000.0);
  for (uint64_t i = 0; i < max_requests && Clock::now() < end; ++i) {
    const auto turn = Clock::now();
    if (before) before(i);
    const auto ready = Clock::now();
    Request req = next(i);
    ServeRequest sreq{req.query, req.lane, -1.0};
    const auto sent = Clock::now();
    stats.gen_lag_ms.push_back(MsBetween(ready, sent));
    Pending p{std::move(req.query), server->Submit(std::move(sreq)), sent, sent,
              std::move(req.expect)};
    p.future.wait();
    const auto done = Clock::now();
    ++stats.sent;
    const uint64_t ok_before = stats.succeeded;
    const double rows_before = stats.rows_out;
    Collect(p, &stats);
    const bool ok = stats.succeeded > ok_before;
    if (ok) {
      // Closed loop: the client saw the answer when its wait returned.
      stats.latency_ms.back() = MsBetween(sent, done);
    }
    stats.turns.push_back({MsBetween(turn, done), stats.rows_out - rows_before, ok});
    verify_ms += MsBetween(done, Clock::now());
  }
  stats.busy_s = (MsBetween(start, Clock::now()) - verify_ms) / 1000.0;
  stats.backlog_max = 1;
  return stats;
}

double MaxRate(const std::vector<Rung>& rungs) {
  // Load only makes a server slower, so fit the rungs' log scores with
  // the closest non-decreasing sequence (pool adjacent violators): a
  // stall that spoils one rung is averaged with its neighbours instead
  // of ending the ladder early.
  struct Block {
    double sum;
    size_t n;
    double mean() const { return sum / static_cast<double>(n); }
  };
  std::vector<Block> blocks;
  for (const Rung& r : rungs) {
    blocks.push_back({std::log(std::max(r.stats.SloScore(), 1e-3)), 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].n += blocks.back().n;
      blocks.pop_back();
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks) fit.insert(fit.end(), b.n, b.mean());
  if (fit.front() > 0) return rungs.front().rate / std::exp(fit.front());
  for (size_t i = 1; i < rungs.size(); ++i) {
    if (fit[i] <= 0) continue;
    // log score crosses zero between rung i-1 and rung i.
    double x = -fit[i - 1] / (fit[i] - fit[i - 1]);
    return rungs[i - 1].rate + x * (rungs[i].rate - rungs[i - 1].rate);
  }
  return rungs.back().rate;  // every rung passed: a lower bound
}

UpdategramWriter::UpdategramWriter(revere::storage::Catalog* catalog,
                                   std::vector<std::string> relations,
                                   std::vector<std::string> titles)
    : catalog_(catalog),
      relations_(std::move(relations)),
      titles_(std::move(titles)),
      rounds_(relations_.size(), 0) {}

void UpdategramWriter::ClearSamples() {
  latency_ms_.clear();
  apply_ms_.clear();
}

void UpdategramWriter::Apply(Clock::time_point due) {
  size_t k = issued_++ % relations_.size();
  uint64_t round = rounds_[k]++;
  revere::piazza::Updategram u;
  u.relation = relations_[k];
  auto row = [&](uint64_t r, int j) {
    std::string id = "w:" + std::to_string(k) + ":" + std::to_string(r) + ":" +
                     std::to_string(j);
    const std::string& title = titles_[(r * 3 + static_cast<uint64_t>(j)) %
                                       titles_.size()];
    return Row{Value(id), Value(title), Value(kWriterTag)};
  };
  for (int j = 0; j < 3; ++j) {
    u.inserts.push_back(row(round, j));
    if (round > 0) u.deletes.push_back(row(round - 1, j));
  }
  const auto begin = Clock::now();
  revere::Status st = revere::piazza::ApplyToBase(catalog_, u);
  const auto end = Clock::now();
  if (!st.ok()) ++failures_;
  latency_ms_.push_back(MsBetween(due, end));
  apply_ms_.push_back(MsBetween(begin, end));
}

}  // namespace perfbench
