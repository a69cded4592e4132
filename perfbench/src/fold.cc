#include "perfbench/src/fold.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

using revere::obs::SpanRecord;

namespace {

/// The answer path's span tree: child name → required parent name.
const std::map<std::string, std::string>& ParentOf() {
  static const auto* kParents = new std::map<std::string, std::string>{
      {"reformulate", "answer"}, {"plan_cache", "reformulate"},
      {"evaluate", "answer"},    {"contact", "evaluate"},
      {"retry", "contact"}};
  return *kParents;
}

constexpr uint64_t kSlackNs = 1000;  // clock-read slack at span edges

}  // namespace

SpanFold FoldSpans(const std::vector<SpanRecord>& spans) {
  SpanFold fold;
  auto fail = [&](std::string why) {
    if (fold.well_formed) fold.error = std::move(why);
    fold.well_formed = false;
  };
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!by_id.emplace(spans[i].id, i).second) {
      fail("duplicate span id " + std::to_string(spans[i].id));
    }
  }
  // Root and depth of every span, with the parent-name check on the way.
  std::vector<size_t> root(spans.size());
  std::vector<int> depth(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent == 0) {
      if (s.name != "answer") fail("top-level span '" + s.name + "'");
      root[i] = i;
      depth[i] = 0;
      continue;
    }
    auto want = ParentOf().find(s.name);
    auto parent = by_id.find(s.parent);
    if (want == ParentOf().end() || parent == by_id.end() ||
        spans[parent->second].name != want->second) {
      fail("span '" + s.name + "' has an unexpected or missing parent");
      depth[i] = -2;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    // Walk up to the first span with a known depth (at most 4 levels).
    std::vector<size_t> chain;
    size_t at = i;
    while (depth[at] == -1 && chain.size() <= ParentOf().size()) {
      chain.push_back(at);
      at = by_id.at(spans[at].parent);
    }
    if (depth[at] == -1) {
      fail("span parent chain too deep");
      continue;
    }
    if (depth[at] == -2) continue;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = depth[at] + 1;
      root[*it] = root[at];
      at = *it;
    }
  }
  std::unordered_map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (depth[i] < 0) continue;
    const SpanRecord& r = spans[root[i]];
    const SpanRecord& s = spans[i];
    if (s.start_ns + kSlackNs < r.start_ns ||
        s.start_ns + s.duration_ns > r.start_ns + r.duration_ns + kSlackNs) {
      fail("span '" + s.name + "' outside its answer span");
    }
    groups[root[i]].push_back(i);
  }

  struct Event {
    uint64_t t;
    bool open;
    size_t span;
  };
  for (auto& [root_index, members] : groups) {
    const SpanRecord& r = spans[root_index];
    ++fold.requests;
    fold.root_ms += static_cast<double>(r.duration_ns) / 1e6;
    std::vector<Event> events;
    bool miss = false;
    for (size_t i : members) {
      const SpanRecord& s = spans[i];
      uint64_t begin = std::max(s.start_ns, r.start_ns);
      uint64_t end = std::min(s.start_ns + s.duration_ns, r.start_ns + r.duration_ns);
      if (end <= begin) continue;
      events.push_back({begin, true, i});
      events.push_back({end, false, i});
      if (s.name == "plan_cache") {
        for (const auto& [key, value] : s.attrs) {
          if (key == "hit" && value == 0) miss = true;
        }
      }
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.t != b.t ? a.t < b.t : (!a.open && b.open);
    });
    std::map<std::string, double> self;
    std::vector<size_t> active;
    for (size_t e = 0; e < events.size(); ++e) {
      const Event& ev = events[e];
      if (ev.open) {
        active.push_back(ev.span);
      } else {
        active.erase(std::find(active.begin(), active.end(), ev.span));
      }
      if (active.empty() || e + 1 == events.size()) continue;
      uint64_t width = events[e + 1].t - ev.t;
      if (width == 0) continue;
      size_t owner = active.front();
      for (size_t a : active) {
        if (depth[a] > depth[owner] ||
            (depth[a] == depth[owner] && spans[a].start_ns > spans[owner].start_ns)) {
          owner = a;
        }
      }
      self[spans[owner].name] += static_cast<double>(width) / 1e6;
    }
    for (const auto& [name, ms] : self) fold.self_ms[name] += ms;
    if (miss) {
      ++fold.miss_requests;
      fold.miss_reformulate_ms += self["reformulate"] + self["plan_cache"];
    }
  }
  return fold;
}

}  // namespace perfbench
