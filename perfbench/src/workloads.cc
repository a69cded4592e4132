#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "perfbench/src/drivers.h"
#include "perfbench/src/fold.h"
#include "src/common/rng.h"
#include "src/datagen/topology.h"
#include "src/datagen/university.h"
#include "src/obs/trace.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/serve/server.h"

namespace perfbench {

using revere::Rng;
using revere::Status;
using revere::datagen::PdmsGenOptions;
using revere::datagen::Topology;
using revere::piazza::PdmsNetwork;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::QTerm;
using revere::serve::Lane;
using revere::serve::RevereServer;
using revere::serve::ServeOptions;

namespace {

// ---------------------------------------------------------------------
// Ground truth: the generator's own data, re-derived from its seed.
// ---------------------------------------------------------------------

struct Course {
  std::string id, title, instructor;
  size_t peer = 0;
};

/// A university network built by datagen::BuildUniversityPdms plus the
/// rows and mapping graph the generator put in it, re-derived the way
/// the generator draws them (one forked RNG stream per peer, in peer
/// order, then the edges) — so answers are checked against the
/// generator's data, not against another code path.
///
/// A query posed at a peer reaches every peer connected to it through
/// the mapping graph, however many hops away, so a complete answer holds
/// exactly the rows of those peers.
class Universe {
 public:
  Status Build(PdmsNetwork* net, const PdmsGenOptions& options) {
    auto report = revere::datagen::BuildUniversityPdms(net, options);
    if (!report.ok()) return report.status();
    peers_ = report.value().peer_names;
    rels_ = report.value().relation_names;
    Rng rng(options.seed);
    std::set<std::string> titles;
    for (size_t p = 0; p < peers_.size(); ++p) {
      Rng data = rng.Fork();
      auto courses = revere::datagen::GenerateCourses(options.rows_per_peer, &data);
      for (size_t r = 0; r < courses.size(); ++r) {
        by_title_[courses[r].title].push_back(courses_.size());
        titles.insert(courses[r].title);
        courses_.push_back(Course{peers_[p] + "/" + std::to_string(r),
                                  courses[r].title, courses[r].instructor, p});
      }
    }
    if (courses_.size() != report.value().total_rows) {
      return Status::Internal("re-derived data disagrees with the generator");
    }
    titles_.assign(titles.begin(), titles.end());
    // The generator draws the mapping graph next, from the same stream.
    size_t n = peers_.size();
    std::vector<std::vector<size_t>> adjacent(n);
    for (const auto& [a, b] : revere::datagen::TopologyEdges(options, n, &rng)) {
      adjacent[a].push_back(b);
      adjacent[b].push_back(a);
    }
    hops_.assign(n, std::vector<int>(n, -1));
    for (size_t from = 0; from < n; ++from) {
      std::vector<size_t> frontier{from};
      hops_[from][from] = 0;
      for (size_t i = 0; i < frontier.size(); ++i) {
        for (size_t next : adjacent[frontier[i]]) {
          if (hops_[from][next] >= 0) continue;
          hops_[from][next] = hops_[from][frontier[i]] + 1;
          frontier.push_back(next);
        }
      }
    }
    return Status::Ok();
  }

  size_t vocabularies() const { return peers_.size(); }
  const std::vector<Course>& courses() const { return courses_; }
  const std::vector<std::string>& titles() const { return titles_; }
  std::vector<std::string> relations() const {
    std::vector<std::string> out;
    for (size_t p = 0; p < peers_.size(); ++p) out.push_back(Relation(p));
    return out;
  }
  std::string Relation(size_t vocab) const {
    return revere::piazza::QualifiedName(peers_[vocab], rels_[vocab]);
  }

  /// True when a query posed in `vocab` can reach `course`'s peer.
  bool Reaches(size_t vocab, const Course& course) const {
    return hops_[vocab][course.peer] >= 0;
  }

  /// The most mapping hops between two connected peers.
  int Diameter() const {
    int most = 0;
    for (const auto& row : hops_) {
      for (int h : row) most = std::max(most, h);
    }
    return most;
  }

  /// q(T, P) :- rel("id", T, P) in vocabulary `vocab`.
  Request IdLookup(size_t vocab, size_t course) const {
    const Course& c = courses_[course];
    auto expect = std::make_shared<Expected>();
    if (Reaches(vocab, c)) expect->rows.insert(Fingerprint({c.title, c.instructor}));
    expect->writer_rows_allowed = writer_rows_;
    return Make("id_lookup", {QTerm::Var("T"), QTerm::Var("P")},
                {QTerm::Const(c.id), QTerm::Var("T"), QTerm::Var("P")}, vocab,
                std::move(expect));
  }

  /// q(I, P) :- rel(I, "title", P).
  Request TitleLookup(size_t vocab, const std::string& title) const {
    auto& cached = title_expect_[{vocab, title}];
    if (!cached) {
      auto expect = std::make_shared<Expected>();
      for (size_t i : by_title_.at(title)) {
        if (!Reaches(vocab, courses_[i])) continue;
        expect->rows.insert(Fingerprint({courses_[i].id, courses_[i].instructor}));
      }
      expect->writer_rows_allowed = writer_rows_;
      cached = std::move(expect);
    }
    return Make("title_lookup", {QTerm::Var("I"), QTerm::Var("P")},
                {QTerm::Var("I"), QTerm::Const(title), QTerm::Var("P")}, vocab,
                cached);
  }

  /// q(I, T, P) :- rel(I, T, P): every course, in `vocab`'s vocabulary.
  Request Browse(size_t vocab) const {
    auto& cached = browse_expect_[vocab];
    if (!cached) {
      auto expect = std::make_shared<Expected>();
      for (const Course& c : courses_) {
        if (Reaches(vocab, c)) expect->rows.insert(Fingerprint({c.id, c.title, c.instructor}));
      }
      expect->writer_rows_allowed = writer_rows_;
      cached = std::move(expect);
    }
    return Make("browse", {QTerm::Var("I"), QTerm::Var("T"), QTerm::Var("P")},
                {QTerm::Var("I"), QTerm::Var("T"), QTerm::Var("P")}, vocab, cached);
  }

  /// q(X, Y, T) :- rel(X, T, A), rel(Y, T, B): network-wide course
  /// pairs sharing a title.
  Request SameTitlePairs(size_t vocab) const {
    auto& cached = pairs_expect_[vocab];
    if (!cached) {
      auto expect = std::make_shared<Expected>();
      for (const auto& [title, members] : by_title_) {
        for (size_t a : members) {
          for (size_t b : members) {
            if (!Reaches(vocab, courses_[a]) || !Reaches(vocab, courses_[b])) continue;
            expect->rows.insert(Fingerprint({courses_[a].id, courses_[b].id, title}));
          }
        }
      }
      cached = std::move(expect);
    }
    std::string rel = Relation(vocab);
    Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
    Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
    Request req;
    req.query = ConjunctiveQuery("same_title_pairs",
                                 {QTerm::Var("X"), QTerm::Var("Y"), QTerm::Var("T")},
                                 {first, second});
    req.expect = cached;
    return req;
  }

  /// Lets answers carry concurrent writer rows on top of the truth.
  void AllowWriterRows() { writer_rows_ = true; }

 private:
  Request Make(const char* name, std::vector<QTerm> head,
               std::vector<QTerm> args, size_t vocab,
               std::shared_ptr<const Expected> expect) const {
    Request req;
    req.query = ConjunctiveQuery(name, std::move(head),
                                 {Atom{Relation(vocab), std::move(args)}});
    req.expect = std::move(expect);
    return req;
  }

  std::vector<std::string> peers_, rels_, titles_;
  std::vector<Course> courses_;
  std::map<std::string, std::vector<size_t>> by_title_;
  bool writer_rows_ = false;
  std::vector<std::vector<int>> hops_;  ///< mapping hops, -1 = unreachable
  mutable std::map<std::pair<size_t, std::string>, std::shared_ptr<const Expected>>
      title_expect_;
  mutable std::map<size_t, std::shared_ptr<const Expected>> browse_expect_;
  mutable std::map<size_t, std::shared_ptr<const Expected>> pairs_expect_;
};

// ---------------------------------------------------------------------
// Workloads. Each sets only deployment shape — network, data size,
// workers, queue capacity, fault plan, client model — and leaves every
// engine, search, plan-cache and index option at its default.
// ---------------------------------------------------------------------

/// Every run measures the same deployments: the generator builds each
/// network from this seed, and a run's --seed drives its traffic (which
/// ids and titles are asked, the flaky peer's failures, join points).
constexpr uint64_t kNetworkSeed = 2003;

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() { Teardown(); }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// JSON fields (without braces) describing the workload.
  virtual std::string Params() const = 0;
  /// Requests per second of the open loop's nominal rung; 0 means one
  /// closed-loop client.
  virtual double nominal_rps() const { return 0; }
  /// Further open-loop rungs, ascending, for max_rate_rps.
  virtual std::vector<double> ladder() const { return {}; }
  /// Share of the end-to-end run spent on the nominal rung.
  virtual double nominal_share() const { return 0.5; }
  /// Updategrams per second the open loop applies beside the reads;
  /// 0 = none.
  virtual double writer_rps() const { return 0; }
  /// Request i of a stream drawn from `rng`.
  virtual Request Next(Rng* rng, uint64_t i) = 0;
  /// Runs ahead of closed-loop request i (overlay's peer joins).
  virtual void BeforeRequest(uint64_t) {}

  /// Builds a fresh deployment and warms it: plans cached, lazy indexes
  /// built. The timed unit of setup_s; call Teardown() first.
  Status Setup() {
    net_ = std::make_unique<PdmsNetwork>();
    universe_ = std::make_unique<Universe>();
    Status st = Build();
    if (!st.ok()) return st;
    StartServer(nullptr);
    Rng warm(seed_ ^ 0x5741524dULL);
    for (uint64_t i = 0; i < warm_requests(); ++i) {
      Request req = WarmRequest(&warm, i);
      revere::serve::ServeRequest sreq{std::move(req.query), req.lane, -1.0};
      auto result = server_->SubmitAndWait(std::move(sreq));
      if (!result.status.ok()) return result.status;
    }
    if (writer_rps() > 0) writer_ = MakeWriter();
    return Status::Ok();
  }

  /// (Re)starts the server, optionally tracing every request. A closed
  /// loop never has two requests in flight, so it gets one worker: with
  /// two, its requests alternate between threads and lose cache warmth.
  void StartServer(revere::obs::Tracer* tracer) {
    server_.reset();
    server_ = MakeServer(tracer, nominal_rps() > 0 ? ServeOptions().workers : 1);
  }
  /// A server over this deployment's network and fault plan.
  std::unique_ptr<RevereServer> MakeServer(revere::obs::Tracer* tracer,
                                           size_t workers) const {
    ServeOptions options;
    options.workers = workers;
    options.cost.faults = faults_.get();
    options.cost.tracer = tracer;
    return std::make_unique<RevereServer>(net_.get(), options);
  }
  void StopServer() { server_.reset(); }

  /// A peer joins: AddPeer, AddStoredRelation (20 generated courses),
  /// then an equality mapping to a seeded attach point. Returns its ms.
  double Join() {
    auto begin = Clock::now();
    size_t k = joins_++;
    Rng rng(seed_ * 7919 + k);
    const auto& pool = revere::datagen::RelationNamePool();
    std::string peer = "joiner" + std::to_string(k);
    std::string rel = pool[(universe_->vocabularies() + k) % pool.size()];
    size_t attach = rng.Index(universe_->vocabularies());
    auto added = net_->AddPeer(peer);
    bool ok = added.ok();
    if (ok) {
      added.value()->DeclarePeerRelation(rel, 3);
      auto table = net_->AddStoredRelation(
          peer, revere::storage::TableSchema::AllStrings(
                    rel, {"id", "title", "instructor"}));
      ok = table.ok();
      if (ok) {
        auto courses = revere::datagen::GenerateCourses(20, &rng);
        for (size_t r = 0; r < courses.size() && ok; ++r) {
          ok = table.value()
                   ->Insert({revere::storage::Value(peer + "/" + std::to_string(r)),
                             revere::storage::Value(courses[r].title),
                             revere::storage::Value(courses[r].instructor)})
                   .ok();
        }
        ok = ok && table.value()->CreateIndex(0).ok();
      }
    }
    std::string mine = revere::piazza::QualifiedName(peer, rel);
    std::string theirs = universe_->Relation(attach);
    auto source = ConjunctiveQuery::Parse("m(I, T, P) :- " + mine + "(I, T, P)");
    auto target = ConjunctiveQuery::Parse("m(I, T, P) :- " + theirs + "(I, T, P)");
    ok = ok && source.ok() && target.ok();
    if (ok) {
      std::string attach_peer = theirs.substr(0, theirs.find(':'));
      ok = net_->AddMapping(revere::piazza::PeerMapping{
                                {peer + "-" + attach_peer, source.value(),
                                 target.value()},
                                peer, attach_peer, true})
               .ok();
    }
    if (!ok) ++join_failures_;
    return MsBetween(begin, Clock::now());
  }

  PdmsNetwork* net() { return net_.get(); }
  RevereServer* server() { return server_.get(); }
  UpdategramWriter* writer() { return writer_.get(); }
  std::unique_ptr<UpdategramWriter> MakeWriter() {
    return std::make_unique<UpdategramWriter>(
        net_->mutable_storage(), universe_->relations(), universe_->titles());
  }
  uint64_t join_failures() const { return join_failures_; }
  bool has_faults() const { return faults_ != nullptr; }
  const Universe& universe() const { return *universe_; }
  const std::vector<double>& join_ms() const { return join_ms_; }

  /// Sum of every stored relation's published version count.
  uint64_t Versions() const {
    uint64_t v = 0;
    for (const auto& rel : universe_->relations()) {
      auto t = net_->storage().GetTable(rel);
      if (t.ok()) v += t.value()->generation();
    }
    return v;
  }

  /// Drops the deployment, if any.
  void Teardown() {
    writer_.reset();
    server_.reset();
    faults_.reset();
    universe_.reset();
    net_.reset();
    joins_ = 0;
  }

 protected:
  virtual Status Build() = 0;
  virtual uint64_t warm_requests() const = 0;
  virtual Request WarmRequest(Rng* rng, uint64_t i) { return Next(rng, i); }

  Status BuildUniverse(const PdmsGenOptions& options) {
    return universe_->Build(net_.get(), options);
  }

  uint64_t seed_;
  std::unique_ptr<PdmsNetwork> net_;
  std::unique_ptr<Universe> universe_;
  std::unique_ptr<revere::piazza::FaultInjector> faults_;
  std::unique_ptr<RevereServer> server_;
  std::unique_ptr<UpdategramWriter> writer_;
  size_t joins_ = 0;
  uint64_t join_failures_ = 0;
  std::vector<double> join_ms_;
};

// portal: the paper's Figure 2 as a user sees it.
class Portal : public Workload {
 public:
  /// The same peer is flaky under every seed (the seed drives its
  /// failures), so seeds vary the sample, not the deployment.
  static constexpr const char* kFlakyPeer = "roma";
  using Workload::Workload;
  std::string Params() const override {
    return R"J("network": "figure2 (6 peers)", "courses_per_peer": 200, )J"
           R"J("workers": 2, "queue_capacity": 64, "lane": "interactive", )J"
           R"J("deadline": "none", "faults": "peer roma flaky 20% (seeded injector), )J"
           R"J(best-effort, default retries and breakers", )J"
           R"J("client": "open loop, fixed spacing", "nominal_rps": 1000, )J"
           R"J("ladder_rps": [1000, 2000, 3000, 4000, 5000, 5500, 6000, 6500, 7000, 8000], )J"
           R"J("mix": "60% id lookup zipf 0.9 over 1200 ids x 6 vocabularies; )J"
           R"J(30% title lookup zipf 0.9 over titles; 10% all-courses browse at a random peer", )J"
           R"J("why": "Figure 2 as a user sees it: plan-cache working set larger )J"
           R"J(than the cache, admission and queueing, reformulation, output )J"
           R"J(boundary, and live peer contact with retries and breakers")J";
  }
  double nominal_rps() const override { return 1000; }
  double nominal_share() const override { return 0.35; }
  std::vector<double> ladder() const override {
    return {2000, 3000, 4000, 5000, 5500, 6000, 6500, 7000, 8000};
  }
  Request Next(Rng* rng, uint64_t) override {
    const Universe& u = *universe_;
    double pick = rng->UniformDouble();
    if (pick < 0.6) {
      size_t shape = id_order_[id_zipf_->Sample(rng)];
      return u.IdLookup(shape % u.vocabularies(), shape / u.vocabularies());
    }
    if (pick < 0.9) {
      const std::string& title = title_order_[title_zipf_->Sample(rng)];
      return u.TitleLookup(rng->Index(u.vocabularies()), title);
    }
    return u.Browse(rng->Index(u.vocabularies()));
  }

 protected:
  Status Build() override {
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = 200;
    options.seed = kNetworkSeed;
    Status st = BuildUniverse(options);
    if (!st.ok()) return st;
    Rng rng(seed_ ^ 0x504f5254ULL);
    faults_ = std::make_unique<revere::piazza::FaultInjector>(seed_);
    faults_->SetFlaky(kFlakyPeer, 0.2);
    // Popularity ranks land on seeded-shuffled shapes, so the hot ids
    // are spread over every peer and vocabulary.
    size_t shapes = universe_->courses().size() * universe_->vocabularies();
    id_order_.resize(shapes);
    for (size_t i = 0; i < shapes; ++i) id_order_[i] = i;
    rng.Shuffle(&id_order_);
    title_order_ = universe_->titles();
    rng.Shuffle(&title_order_);
    id_zipf_ = std::make_unique<Zipf>(shapes, 0.9);
    title_zipf_ = std::make_unique<Zipf>(title_order_.size(), 0.9);
    return Status::Ok();
  }
  uint64_t warm_requests() const override { return 1500; }

 private:
  std::vector<size_t> id_order_;
  std::vector<std::string> title_order_;
  std::unique_ptr<Zipf> id_zipf_, title_zipf_;
};

// analytics: bulk answers on the batch lane.
class Analytics : public Workload {
 public:
  using Workload::Workload;
  std::string Params() const override {
    return R"J("network": "figure2 (6 peers)", "courses_per_peer": 100, )J"
           R"J("workers": 1, "queue_capacity": 64, "lane": "batch", "faults": "none", )J"
           R"J("client": "one closed-loop client", )J"
           R"J("mix": "network-wide same-title course pairs self-join, posed in )J"
           R"J(each of the 6 vocabularies in turn", )J"
           R"J("why": "per-rewriting join and the output boundary do nearly all )J"
           R"J(the work; plans stay warm and nothing queues")J";
  }
  Request Next(Rng*, uint64_t i) override {
    Request req = universe_->SameTitlePairs(i % universe_->vocabularies());
    req.lane = Lane::kBatch;
    return req;
  }

 protected:
  Status Build() override {
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = 100;
    options.seed = kNetworkSeed;
    return BuildUniverse(options);
  }
  uint64_t warm_requests() const override { return 12; }
};

// churn: reads beside an updategram writer.
class Churn : public Workload {
 public:
  using Workload::Workload;
  std::string Params() const override {
    return R"J("network": "random (12 peers)", "courses_per_peer": 400, )J"
           R"J("workers": 2, "queue_capacity": 64, "lane": "interactive", "faults": "none", )J"
           R"J("client": "open loop, fixed spacing", "nominal_rps": 1000, )J"
           R"J("ladder_rps": [1000, 2000, 4000, 6000, 8000, 9000, 10000, 11000, 12000, 14000], )J"
           R"J("writer": "1000 updategrams/s on the reads' open-loop schedule, through ApplyToBase: 3 inserts )J"
           R"J(plus delete of the relation's previous 3, round-robin over relations", )J"
           R"J("mix": "uniform over a hot set of 192 id and 64 title lookups", )J"
           R"J("why": "every read hits a freshly published version, so per-version )J"
           R"J(index builds and version publishing dominate; reformulation idles")J";
  }
  double nominal_rps() const override { return 1000; }
  std::vector<double> ladder() const override {
    return {2000, 4000, 6000, 8000, 9000, 10000, 11000, 12000, 14000};
  }
  double writer_rps() const override { return 1000; }
  Request Next(Rng* rng, uint64_t) override {
    return Hot(hot_[rng->Index(hot_.size())]);
  }

 protected:
  Status Build() override {
    PdmsGenOptions options;
    options.topology = Topology::kRandom;
    options.peers = 12;
    options.rows_per_peer = 400;
    options.seed = kNetworkSeed;
    Status st = BuildUniverse(options);
    if (!st.ok()) return st;
    universe_->AllowWriterRows();
    Rng rng(seed_ ^ 0x43485552ULL);
    hot_.clear();
    size_t vocabularies = universe_->vocabularies();
    for (size_t i = 0; i < 192; ++i) {
      hot_.push_back({true, rng.Index(vocabularies),
                      rng.Index(universe_->courses().size())});
    }
    for (size_t i = 0; i < 64; ++i) {
      hot_.push_back({false, rng.Index(vocabularies),
                      rng.Index(universe_->titles().size())});
    }
    return Status::Ok();
  }
  uint64_t warm_requests() const override { return hot_.size(); }
  Request WarmRequest(Rng*, uint64_t i) override { return Hot(hot_[i]); }

 private:
  struct HotKey {
    bool by_id;
    size_t vocab;
    size_t index;  ///< course (by id) or title
  };
  Request Hot(const HotKey& k) const {
    return k.by_id ? universe_->IdLookup(k.vocab, k.index)
                   : universe_->TitleLookup(k.vocab, universe_->titles()[k.index]);
  }
  std::vector<HotKey> hot_;
};

// overlay: reformulation search and plan invalidation at scale.
class Overlay : public Workload {
 public:
  using Workload::Workload;
  std::string Params() const override {
    return R"J("network": "small world (100 peers)", "courses_per_peer": 20, )J"
           R"J("workers": 1, "queue_capacity": 64, "lane": "interactive", "faults": "none", )J"
           R"J("client": "one closed-loop client", )J"
           R"J("mix": "id lookups, four in five from a hot set of 32 and every fifth )J"
           R"J(a one-off never repeated; every 200th request a new peer joins )J"
           R"J((AddPeer, AddStoredRelation, AddMapping to a seeded attach point)", )J"
           R"J("why": "the only workload where reformulation search and scoped )J"
           R"J(plan invalidation at scale dominate")J";
  }
  Request Next(Rng* rng, uint64_t i) override {
    const Universe& u = *universe_;
    // Every fifth request is a one-off: a fixed miss share, not a drawn
    // one, so runs differ in which ids they ask, not in how many misses.
    if (i % 5 != 4) {
      const auto& [vocab, course] = hot_[rng->Index(hot_.size())];
      return u.IdLookup(vocab, course);
    }
    for (;;) {
      std::pair<size_t, size_t> key{rng->Index(u.vocabularies()),
                                    rng->Index(u.courses().size())};
      if (used_.insert(key).second) return u.IdLookup(key.first, key.second);
    }
  }
  void BeforeRequest(uint64_t i) override {
    if (i > 0 && i % 200 == 0) join_ms_.push_back(Join());
  }

 protected:
  Status Build() override {
    PdmsGenOptions options;
    options.topology = Topology::kSmallWorld;
    options.peers = 100;
    options.rows_per_peer = 20;
    options.seed = kNetworkSeed;
    Status st = BuildUniverse(options);
    if (!st.ok()) return st;
    Rng rng(seed_ ^ 0x4f564c59ULL);
    hot_.clear();
    used_.clear();
    join_ms_.clear();
    while (hot_.size() < 32) {
      std::pair<size_t, size_t> key{rng.Index(universe_->vocabularies()),
                                    rng.Index(universe_->courses().size())};
      if (used_.insert(key).second) hot_.push_back(key);
    }
    return Status::Ok();
  }
  uint64_t warm_requests() const override { return hot_.size(); }
  Request WarmRequest(Rng*, uint64_t i) override {
    return universe_->IdLookup(hot_[i].first, hot_[i].second);
  }

 private:
  std::vector<std::pair<size_t, size_t>> hot_;
  std::set<std::pair<size_t, size_t>> used_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "portal") return std::make_unique<Portal>(seed);
  if (name == "analytics") return std::make_unique<Analytics>(seed);
  if (name == "churn") return std::make_unique<Churn>(seed);
  if (name == "overlay") return std::make_unique<Overlay>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------

/// Runs the workload's client for `seconds` at `rate` (0: its closed
/// loop), with its updategram writer (if any) beside it.
PhaseStats RunLoad(Workload* w, Rng* rng, double seconds, double rate) {
  auto next = [&](uint64_t i) { return w->Next(rng, i); };
  if (w->writer()) w->writer()->ClearSamples();
  if (rate > 0) {
    return RunOpenLoop(w->server(), rate, seconds, next, w->writer(), w->writer_rps());
  }
  return RunClosedLoop(w->server(), seconds, next,
                       [&](uint64_t i) { w->BeforeRequest(i); });
}

/// Writes measured over one stretch of updategrams.
struct WriteFigures {
  std::vector<double> apply_ms, write_ms;
  double versions_per_s = 0;
  double rss_growth_mb = 0;
  uint64_t failures = 0;
};

/// Measures `writer` (and the version count and resident set beside it)
/// while `run` applies its updategrams.
template <typename Run>
WriteFigures MeasureWrites(Workload* w, UpdategramWriter* writer, Run run) {
  WriteFigures f;
  const double rss_before = ProcStatusMb("VmRSS");
  const uint64_t versions_before = w->Versions();
  const uint64_t failures_before = writer->failures();
  writer->ClearSamples();
  const auto begin = Clock::now();
  run();
  const double s = MsBetween(begin, Clock::now()) / 1000.0;
  f.versions_per_s = static_cast<double>(w->Versions() - versions_before) / s;
  f.rss_growth_mb = ProcStatusMb("VmRSS") - rss_before;
  f.apply_ms = writer->apply_ms();
  f.write_ms = writer->latency_ms();
  f.failures = writer->failures() - failures_before;
  return f;
}

/// The write probe, for workloads without a writer of their own:
/// updategrams with no reads, on churn's writer schedule (1k/s), long
/// enough for three thousand-sample windows of the p99.
constexpr double kWriteProbeRps = 1000;
constexpr double kWriteProbeS = 3;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

std::string PhaseJson(const std::string& name, double rate, const PhaseStats& s) {
  std::ostringstream out;
  out << "{\"phase\": \"" << name << "\", \"rate_rps\": " << Num(rate)
      << ", \"sent\": " << s.sent << ", \"succeeded\": " << s.succeeded
      << ", \"shed\": " << s.shed << ", \"failed\": " << s.failed()
      << ", \"p50_ms\": " << Num(Quantile(s.latency_ms, 0.5))
      << ", \"p99_ms\": " << Num(s.P99())
      << ", \"miss_frac\": " << Num(s.MissFrac())
      << ", \"backlog_max\": " << s.backlog_max
      << ", \"backlog_growth\": " << Num(s.backlog_growth)
      << ", \"slo_score\": " << Num(s.SloScore())
      << ", \"gen_lag_p99_ms\": " << Num(Quantile(s.gen_lag_ms, 0.99));
  if (s.windows > 1) {
    for (double q : {0.5, 0.99}) {
      std::vector<std::string> values;
      for (double v : WindowQuantiles(s.latency_ms, s.windows, q)) values.push_back(Num(v));
      out << (q == 0.5 ? ", \"window_p50_ms\": [" : ", \"window_p99_ms\": [")
          << Join(values) << "]";
    }
  }
  if (!s.first_failure.empty()) out << ", \"first_failure\": " << JsonString(s.first_failure);
  out << "}";
  return out.str();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Windows a closed-loop phase's figures are medians over.
constexpr size_t kClosedLoopWindows = 10;

void EndToEnd(Workload* w, uint64_t seed, double seconds, RunOutcome* out,
              std::vector<std::string>* phases) {
  Rng rng(seed ^ 0x52554eULL);
  PhaseStats main;
  double max_rate = 0;
  const double rate = w->nominal_rps();
  PhaseStats all;
  if (rate > 0) {
    // The nominal rung runs in chunks between the ladder's rungs, so its
    // figures sample the whole run rather than one stretch of it; each
    // chunk is one window of its p99.
    std::vector<double> rungs = w->ladder();
    double chunk_s = seconds * w->nominal_share() / static_cast<double>(rungs.size() + 1);
    double rung_s = seconds * (1 - w->nominal_share()) / static_cast<double>(rungs.size());
    std::vector<Rung> ladder{{rate, {}}};
    for (size_t k = 0; k <= rungs.size(); ++k) {
      main.Add(RunLoad(w, &rng, chunk_s, rate));
      if (k == rungs.size()) break;
      ladder.push_back({rungs[k], RunLoad(w, &rng, rung_s, rungs[k])});
      ladder.back().stats.windows = 3;
    }
    main.windows = rungs.size() + 1;
    ladder.front().stats = main;
    for (const Rung& r : ladder) {
      all.Add(r.stats);
      phases->push_back(PhaseJson(r.rate == rate ? "nominal" : "rung", r.rate, r.stats));
    }
    max_rate = MaxRate(ladder);
  } else {
    main = RunLoad(w, &rng, seconds, 0);
    main.windows = kClosedLoopWindows;
    phases->push_back(PhaseJson("closed_loop", 0, main));
    all = main;
  }
  const uint64_t write_failures = w->writer() ? w->writer()->failures() : 0;
  out->attempted = all.sent;
  out->failed = all.failed();
  out->correct = all.failed() == 0 && write_failures == 0;
  const double ok = static_cast<double>(main.succeeded);
  out->metrics = {
      {"throughput_qps", main.Throughput(), "req/s"},
      {"rows_per_s", main.RowsPerS(), "rows/s"},
  };
  // Not gated: millisecond-scale latencies move several-fold with the
  // minutes-long bursts of stalls a shared machine has; the SLO capacity
  // needs a rate ladder; completeness and simulated network time vary
  // only where a peer fails.
  out->ungated_metrics.push_back({"p50_ms", main.P50(), "ms"});
  out->ungated_metrics.push_back({"p99_ms", main.P99(), "ms"});
  if (rate > 0) out->ungated_metrics.push_back({"max_rate_rps", max_rate, "req/s"});
  if (w->has_faults()) {
    out->ungated_metrics.push_back(
        {"complete_frac", Ratio(static_cast<double>(main.complete), ok), "ratio"});
    out->ungated_metrics.push_back({"sim_net_ms", Ratio(main.sim_net_ms, ok), "ms"});
  }
}

/// Tracing overhead, paired: each request of the stream is answered by
/// an untraced and a traced one-worker server, each warmed on it first,
/// in alternating order. Returns the geometric mean of the per-request
/// ratios of traced to untraced service time, minus one; the mean of the
/// logs cancels the advantage of whichever run goes second.
double TraceOverhead(Workload* w, uint64_t seed, double seconds, PhaseStats* probe) {
  revere::obs::Tracer tracer(revere::obs::TraceMode::kFull);
  auto plain = w->MakeServer(nullptr, 1);
  auto traced = w->MakeServer(&tracer, 1);
  Rng rng(seed ^ 0x4f56ULL);
  std::vector<double> log_ratios;
  const auto end = AddMs(Clock::now(), seconds * 1000);
  for (uint64_t i = 0; Clock::now() < end; ++i) {
    Request req = w->Next(&rng, i);
    double service[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      bool use_traced = (i + k) % 2 == 1;
      RevereServer* server = use_traced ? traced.get() : plain.get();
      server->SubmitAndWait({req.query, req.lane, -1.0});  // warm
      auto r = server->SubmitAndWait({req.query, req.lane, -1.0});
      ++probe->sent;
      bool ok = CheckAnswer(*req.expect, r);
      ++(ok ? probe->succeeded : probe->check_failures);
      if (!ok && probe->first_failure.empty()) {
        probe->first_failure = req.query.ToString() + ": " + r.status.ToString();
      }
      service[use_traced ? 1 : 0] = r.service_us;
    }
    if (service[0] > 0 && service[1] > 0) log_ratios.push_back(std::log(service[1] / service[0]));
    if (i % 256 == 255) tracer.Clear();  // spans are not needed here
  }
  return std::exp(Mean(log_ratios)) - 1;
}

void Layers(Workload* w, uint64_t seed, double seconds, RunOutcome* out,
            std::vector<std::string>* phases) {
  const double half = seconds * 0.4;
  const double rate = w->nominal_rps();
  // Untraced phase: serving layer, the generator's health, and storage
  // when the workload writes.
  // Both phases serve the same request stream from the warm deployment.
  w->StartServer(nullptr);
  Rng rng_u(seed ^ 0x5452ULL);
  PhaseStats u;
  WriteFigures writes;
  if (w->writer()) {
    writes = MeasureWrites(w, w->writer(), [&] { u = RunLoad(w, &rng_u, half, rate); });
  } else {
    u = RunLoad(w, &rng_u, half, rate);
  }
  uint64_t write_failures = writes.failures;
  phases->push_back(PhaseJson("untraced", rate, u));

  // Traced phase: the same shape, every request's span tree retained.
  revere::obs::Tracer tracer(revere::obs::TraceMode::kFull);
  w->StartServer(&tracer);
  auto cache_before = w->net()->PlanCacheStats();
  Rng rng_t(seed ^ 0x5452ULL);
  PhaseStats t = RunLoad(w, &rng_t, half, rate);
  w->StopServer();  // every span has finished once the workers joined
  auto cache_after = w->net()->PlanCacheStats();
  if (w->writer()) write_failures += w->writer()->failures();
  phases->push_back(PhaseJson("traced", rate, t));
  SpanFold fold = FoldSpans(tracer.Records());

  // Where plans stayed warm, the cost of a miss comes from a cold probe:
  // the plan cache cleared, the stream's first requests replayed one at
  // a time, traced.
  SpanFold misses = fold;
  double nodes_per_miss = Ratio(t.nodes_on_miss, t.plan_misses);
  PhaseStats cold;
  if (t.plan_misses < 10) {
    w->net()->ClearPlanCache();
    revere::obs::Tracer probe_tracer(revere::obs::TraceMode::kFull);
    w->StartServer(&probe_tracer);
    Rng rng_c(seed ^ 0x434fULL);
    cold = RunClosedLoop(w->server(), 60, [&](uint64_t i) { return w->Next(&rng_c, i); },
                         nullptr, 64);
    w->StopServer();
    misses = FoldSpans(probe_tracer.Records());
    nodes_per_miss = Ratio(cold.nodes_on_miss, cold.plan_misses);
    phases->push_back(PhaseJson("cold_probe", 0, cold));
  }

  PhaseStats overhead_probe;
  double overhead = TraceOverhead(w, seed, seconds * 0.2, &overhead_probe);
  phases->push_back(PhaseJson("overhead_probe", 0, overhead_probe));

  // Write and join probes change the data, so they come last.
  if (!w->writer()) {
    std::unique_ptr<UpdategramWriter> probe = w->MakeWriter();
    writes = MeasureWrites(w, probe.get(), [&] {
      RunOpenLoop(nullptr, 0, kWriteProbeS, nullptr, probe.get(), kWriteProbeRps);
    });
    write_failures += writes.failures;
  }
  std::vector<double> joins = w->join_ms();
  if (joins.empty()) {
    for (int i = 0; i < 5; ++i) joins.push_back(w->Join());
  }

  const double served = static_cast<double>(t.service_ms.size());
  const double requests = static_cast<double>(fold.requests);
  double service_total = 0;
  for (double ms : t.service_ms) service_total += ms;
  auto self = [&](const char* name) {
    auto it = fold.self_ms.find(name);
    return it == fold.self_ms.end() ? 0.0 : it->second;
  };
  double attributed = 0;
  for (const auto& [name, ms] : fold.self_ms) attributed += ms;
  // The fold must cover each served request exactly once and account
  // for every traced millisecond.
  bool accounted = fold.well_formed && requests == served &&
                   std::abs(attributed - fold.root_ms) <= 0.01 * fold.root_ms + 1e-3;
  out->attempted = u.sent + t.sent + cold.sent + overhead_probe.sent;
  out->failed = u.failed() + t.failed() + cold.failed() + overhead_probe.failed();
  out->correct = out->failed == 0 && accounted && misses.well_formed &&
                 write_failures == 0 && w->join_failures() == 0;
  for (const SpanFold* f : {&fold, &misses}) {
    if (!f->well_formed) {
      phases->push_back("{\"phase\": \"fold\", \"error\": " + JsonString(f->error) + "}");
    }
  }
  if (requests != served) {
    phases->push_back("{\"phase\": \"fold\", \"error\": \"" + Num(requests) +
                      " answer spans for " + Num(served) + " served requests\"}");
  }
  const double ok = static_cast<double>(t.succeeded);
  out->metrics = {
      {"serve.queue_wait_ms.p50", Quantile(u.queue_wait_ms, 0.5), "ms"},
      {"serve.queue_wait_ms.p99", Quantile(u.queue_wait_ms, 0.99), "ms"},
      {"serve.service_ms.p50", Quantile(u.service_ms, 0.5), "ms"},
      {"serve.service_ms.p99", Quantile(u.service_ms, 0.99), "ms"},
      {"serve.shed_frac", Ratio(static_cast<double>(u.shed), static_cast<double>(u.sent)), "ratio"},
      {"plan_cache.hit_rate", Ratio(t.plan_hits, t.plan_hits + t.plan_misses), "ratio"},
      {"plan_cache.evictions_per_kreq",
       1000 * Ratio(static_cast<double>(cache_after.evictions - cache_before.evictions),
                    static_cast<double>(t.sent)),
       "count"},
      {"reformulate.ms_per_miss",
       Ratio(misses.miss_reformulate_ms, static_cast<double>(misses.miss_requests)), "ms"},
      {"reformulate.ms_per_query", Ratio(self("reformulate") + self("plan_cache"), requests), "ms"},
      {"reformulate.nodes_per_miss", nodes_per_miss, "count"},
      {"reformulate.rewritings_per_query", Ratio(t.rewritings, ok), "count"},
      {"route.join_ms", Mean(joins), "ms"},
      {"evaluate.ms_per_query", Ratio(self("evaluate"), requests), "ms"},
      {"evaluate.us_per_row", 1000 * Ratio(self("evaluate"), t.rows_shipped), "us"},
      {"answer.ms_per_query", Ratio(self("answer"), requests), "ms"},
      {"answer.us_per_row_out", 1000 * Ratio(self("answer"), t.rows_out), "us"},
      {"answer.dup_frac", 1 - Ratio(t.rows_out, t.rows_shipped), "ratio"},
      {"answer.unattributed_ms", Ratio(service_total - fold.root_ms, requests), "ms"},
      {"trace.service_ms_per_query", Ratio(service_total, requests), "ms"},
      {"contact.peers_per_query", Ratio(t.peers_contacted, ok), "count"},
      {"contact.failed_per_query", Ratio(t.contacts_failed, ok), "count"},
      {"contact.retries_per_query", Ratio(t.retries, ok), "count"},
      {"contact.breaker_skips_per_query", Ratio(t.breaker_skips, ok), "count"},
      {"contact.ms_per_query", Ratio(self("contact") + self("retry"), requests), "ms"},
      {"storage.apply_ms.p50", Quantile(writes.apply_ms, 0.5), "ms"},
      {"storage.apply_ms.p99", P99ByThousands(writes.apply_ms), "ms"},
      {"storage.write_ms.p50", Quantile(writes.write_ms, 0.5), "ms"},
      {"storage.write_ms.p99", P99ByThousands(writes.write_ms), "ms"},
      {"storage.versions_per_s", writes.versions_per_s, "1/s"},
      {"storage.rss_growth_mb", writes.rss_growth_mb, "MB"},
      {"obs.trace_overhead_frac", overhead, "ratio"},
      {"bench.gen_lag_ms.p99", Quantile(u.gen_lag_ms, 0.99), "ms"},
      {"bench.backlog_max", static_cast<double>(u.backlog_max), "count"},
  };
}

}  // namespace

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!(v == v) || v > 1e12 || v < -1e12) v = 1e12;  // inf/NaN → sentinel
    out << (i ? ", " : "") << JsonString(metrics[i].name) << ": {\"value\": " << v
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const auto* kNames =
      new std::vector<std::string>{"portal", "analytics", "churn", "overlay"};
  return *kNames;
}

bool RunWorkload(const std::string& name, uint64_t seed, double seconds,
                 bool trace, RunOutcome* out, std::string* error) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed);
  if (!w) {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  // Set up several times; setup_s is the median, the last deployment
  // is the one measured.
  std::vector<double> setup_s;
  for (int i = 0; i < 5; ++i) {
    w->Teardown();
    auto begin = Clock::now();
    Status st = w->Setup();
    if (!st.ok()) {
      *error = "setup failed: " + st.ToString();
      return false;
    }
    setup_s.push_back(MsBetween(begin, Clock::now()) / 1000.0);
  }
  std::vector<std::string> phases;
  if (trace) {
    Layers(w.get(), seed, seconds, out, &phases);
  } else {
    EndToEnd(w.get(), seed, seconds, out, &phases);
    out->metrics.insert(out->metrics.begin(),
                        Metric{"setup_s", Quantile(setup_s, 0.5), "s"});
    out->metrics.push_back({"peak_rss_mb", ProcStatusMb("VmHWM"), "MB"});
  }
  out->params = "{\"network_seed\": " + std::to_string(kNetworkSeed) +
                ", \"network_diameter_hops\": " +
                std::to_string(w->universe().Diameter()) + ", " + w->Params() + "}";
  std::vector<std::string> setups;
  for (double s : setup_s) setups.push_back(Num(s));
  out->detail = "{\"setup_s\": [" + Join(setups) + "], \"ungated_metrics\": " +
                MetricsJson(out->ungated_metrics) + ", \"phases\": [" + Join(phases) +
                "]}";
  return true;
}

}  // namespace perfbench
