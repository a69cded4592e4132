// Small measurement utilities shared by the benchmark's drivers and
// workloads: clocks, order statistics, pacing, process memory, and an
// answer-row fingerprint that is computed independently of the library.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <initializer_list>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/value.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point AddMs(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample. Entries
/// may be +inf (a request that was refused or failed).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// Quantile `q` of each of `windows` consecutive slices of `v`.
inline std::vector<double> WindowQuantiles(const std::vector<double>& v,
                                           size_t windows, double q) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(v.size(), 1));
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / windows);
    auto end = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows);
    out.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return out;
}

/// The median of the p99s of `windows` consecutive slices of `v`: a
/// tail percentile that one stall of the machine cannot move.
inline double WindowedP99(const std::vector<double>& v, size_t windows) {
  return Quantile(WindowQuantiles(v, windows, 0.99), 0.5);
}

/// WindowedP99 over windows of about a thousand samples each.
inline double P99ByThousands(const std::vector<double>& v) {
  return WindowedP99(v, v.size() / 1000);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// `s` as a JSON string literal (quotes and backslashes escaped).
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// A field of /proc/self/status ("VmHWM", "VmRSS") in MiB; 0 if absent.
inline double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// FNV-1a-64 over a row's values with a separator after each — the
/// ground-truth side of every answer check. Deliberately not the
/// library's own row hash, so a bug there cannot hide a wrong answer.
class RowFingerprint {
 public:
  RowFingerprint& Add(std::string_view s) {
    for (unsigned char c : s) Mix(c);
    Mix(0x1f);
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  uint64_t h_ = 1469598103934665603ULL;
};

inline uint64_t Fingerprint(std::initializer_list<std::string_view> values) {
  RowFingerprint fp;
  for (std::string_view v : values) fp.Add(v);
  return fp.value();
}

inline uint64_t Fingerprint(const revere::storage::Row& row) {
  RowFingerprint fp;
  for (const auto& v : row) {
    if (v.type() == revere::storage::ValueType::kString) {
      fp.Add(v.as_string());
    } else {
      fp.Add(v.ToString());
    }
  }
  return fp.value();
}

/// Zipf(θ) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = sum;
    }
  }
  size_t Sample(revere::Rng* rng) const {
    double u = rng->UniformDouble() * cdf_.back();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
