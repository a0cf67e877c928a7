// Summary statistics shared by the benchmark and its self-tests: the
// percentile rule, the staircase interpolation behind service.slo_qps, and the
// metric-name rules BENCHMARK.json holds names to. Header-only and free of
// simdx includes so the self-test binary builds without the library.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace perfbench {

// A percentile is trusted only when at least this many samples lie beyond it.
inline constexpr size_t kTailSamples = 10;

// Nearest-rank percentile of `v` at `permille` (500 = median, 990 = p99):
// the smallest sample with at least permille/1000 of the samples at or
// below it. Integer rank arithmetic, so p99 of 1000 samples is sample 990.
inline size_t NearestRank(size_t n, uint32_t permille) {
  const size_t rank = (static_cast<uint64_t>(permille) * n + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

inline double Percentile(std::vector<double> v, uint32_t permille) {
  if (v.empty()) {
    return 0.0;
  }
  const size_t k = NearestRank(v.size(), permille) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 500); }

// How many samples lie strictly beyond the nearest-rank percentile.
inline size_t SamplesBeyond(size_t n, uint32_t permille) {
  return n - std::min(n, NearestRank(n, permille));
}

// The highest percentile, from the usual ladder, with at least kTailSamples
// samples beyond it; 0 when even the median is not supported.
inline uint32_t HighestSupportedPermille(size_t n) {
  for (uint32_t permille : {999u, 990u, 950u, 900u, 750u, 500u}) {
    if (n > 0 && SamplesBeyond(n, permille) >= kTailSamples) {
      return permille;
    }
  }
  return 0;
}

// The tail the rule allows, capped at `want_permille` (990 for the *p99_ms
// metrics: the plain nearest-rank p99 once 1000 samples support it).
// Reports which percentile it actually is in *used_permille. A sample too
// small for even the median to have ten beyond it falls back to the median,
// so a short run still reports a measured value.
inline double SupportedTail(const std::vector<double>& v, uint32_t want_permille,
                            uint32_t* used_permille) {
  const uint32_t supported = HighestSupportedPermille(v.size());
  *used_permille = std::min(want_permille, supported == 0 ? 500u : supported);
  return Percentile(v, *used_permille);
}

// One step of an open-loop staircase, summarised. Refused, failed and
// wrong answers are in p99_ms as infinitely late: they miss any limit.
struct Rung {
  double rate_qps = 0.0;
  double p99_ms = 0.0;
  bool backlog = false;  // the queue grew over the rung
};

inline bool RungMeets(const Rung& r, double limit_ms) {
  return !r.backlog && r.p99_ms <= limit_ms;
}

// A failing rung whose p99 is unbounded (misses, backlog) is placed at this
// multiple of the limit for interpolation, so the estimate moves smoothly
// with the last passing rung's p99 instead of snapping to a rung rate.
inline constexpr double kFailCeiling = 4.0;

// Highest rate whose p99 meets `limit_ms` with no growing backlog: the
// highest passing rung, moved towards the failing rung above it by linear
// interpolation of p99 between the two. Rungs are in ascending rate order. A
// failing rung below a passing one (one stall on a short rung) does not cap
// the answer. If the top rung passes, its rate is the answer (the
// staircase's ceiling). If no rung passes, the first rung's rate is scaled
// down by limit / p99.
inline double SloRate(const std::vector<Rung>& rungs, double limit_ms) {
  if (rungs.empty() || limit_ms <= 0.0) {
    return 0.0;
  }
  const auto placed_p99 = [&](const Rung& r) {
    const double ceiling = kFailCeiling * limit_ms;
    return r.backlog ? ceiling : std::min(r.p99_ms, ceiling);
  };
  size_t pass = rungs.size();
  for (size_t i = rungs.size(); i-- > 0;) {
    if (RungMeets(rungs[i], limit_ms)) {
      pass = i;
      break;
    }
  }
  if (pass == rungs.size()) {
    return rungs[0].rate_qps * std::min(1.0, limit_ms / placed_p99(rungs[0]));
  }
  if (pass + 1 == rungs.size()) {
    return rungs[pass].rate_qps;
  }
  const Rung& lo = rungs[pass];
  const Rung& hi = rungs[pass + 1];
  const double span = placed_p99(hi) - lo.p99_ms;
  const double frac =
      span > 0.0 ? std::clamp((limit_ms - lo.p99_ms) / span, 0.0, 1.0) : 0.0;
  return lo.rate_qps + frac * (hi.rate_qps - lo.rate_qps);
}

// BENCHMARK.json's name rule: starts with a letter or digit, then at most
// 64 letters, digits, '_', '.' and '-' in all.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Units: at most 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
