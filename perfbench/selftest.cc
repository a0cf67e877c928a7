// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// staircase interpolation behind service.slo_qps, and the metric-name rules.
// Exits non-zero if any expectation fails; run.py runs it before every
// measurement.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9 * std::max(1.0, std::abs(b)); }

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void PercentileRule() {
  // Nearest rank: p99 of 1..1000 is 990, and exactly 10 samples lie beyond.
  EXPECT(Percentile(Iota(1000), 990) == 990.0);
  EXPECT(SamplesBeyond(1000, 990) == 10);
  EXPECT(Median(Iota(5)) == 3.0);
  EXPECT(Median(Iota(4)) == 2.0);
  EXPECT(Percentile({}, 990) == 0.0);
  // Order of the input does not matter.
  EXPECT(Percentile({5, 1, 4, 2, 3}, 500) == 3.0);

  // The highest percentile with at least ten samples beyond it.
  EXPECT(HighestSupportedPermille(10000) == 999);
  EXPECT(HighestSupportedPermille(9999) == 990);
  EXPECT(HighestSupportedPermille(1000) == 990);
  EXPECT(HighestSupportedPermille(999) == 950);
  EXPECT(HighestSupportedPermille(200) == 950);
  EXPECT(HighestSupportedPermille(199) == 900);
  EXPECT(HighestSupportedPermille(100) == 900);
  EXPECT(HighestSupportedPermille(40) == 750);
  EXPECT(HighestSupportedPermille(20) == 500);
  EXPECT(HighestSupportedPermille(19) == 0);
  EXPECT(HighestSupportedPermille(0) == 0);

  uint32_t used = 0;
  EXPECT(SupportedTail(Iota(1000), 990, &used) == 990.0 && used == 990);
  EXPECT(SupportedTail(Iota(100), 990, &used) == 90.0 && used == 900);
  // The cap holds even when more is supported.
  EXPECT(SupportedTail(Iota(20000), 990, &used) == 19800.0 && used == 990);
  // Too few samples for the rule: the median, not a made-up zero.
  EXPECT(SupportedTail(Iota(10), 990, &used) == 5.0 && used == 500);
  EXPECT(SupportedTail({}, 990, &used) == 0.0);
  // A missed answer counts as infinitely late and can become the p99.
  std::vector<double> with_misses = Iota(1000);
  for (int i = 0; i < 11; ++i) {
    with_misses[static_cast<size_t>(i)] = std::numeric_limits<double>::infinity();
  }
  EXPECT(std::isinf(Percentile(with_misses, 990)));

  // Once supported, the p99 is the plain nearest-rank p99, so misses
  // beyond the 99th percentile reach it wherever they fall.
  EXPECT(std::isinf(SupportedTail(with_misses, 990, &used)) && used == 990);
}

void Staircase() {
  const double limit = 10.0;
  // Every rung passes: the staircase's top rate.
  EXPECT(SloRate({{100, 2, false}, {200, 4, false}, {300, 8, false}}, limit) ==
         300.0);
  // Interpolates p99 linearly between the bracketing rungs.
  EXPECT(Near(SloRate({{100, 2, false}, {200, 6, false}, {300, 14, false}}, limit),
              250.0));
  EXPECT(Near(SloRate({{100, 4, false}, {200, 10, false}, {300, 40, false}}, limit),
              200.0));
  // A rung that exactly meets the limit passes.
  EXPECT(SloRate({{100, 4, false}, {200, 10, false}}, limit) == 200.0);
  // A growing backlog fails a rung whatever its p99, and so does a p99 that
  // landed on a missed answer; either is placed at kFailCeiling x limit, so
  // the estimate still moves with the last passing rung.
  const double ceiling = kFailCeiling * limit;
  EXPECT(Near(SloRate({{100, 2, false}, {200, 3, true}}, limit),
              100.0 + 100.0 * (limit - 2) / (ceiling - 2)));
  EXPECT(Near(SloRate({{100, 2, false}, {200, std::numeric_limits<double>::infinity(), false}},
                      limit),
              100.0 + 100.0 * (limit - 2) / (ceiling - 2)));
  // The estimate does not jump: a small change in the passing rung's p99
  // moves it a little, not a whole step.
  const double a = SloRate({{100, 5.0, false}, {200, 20, false}}, limit);
  const double b = SloRate({{100, 5.5, false}, {200, 20, false}}, limit);
  EXPECT(a > b && a - b < 10.0);
  // The highest passing rung counts: a failing rung below it (one stall on
  // a short rung) does not cap the answer.
  EXPECT(SloRate({{100, 2, false}, {200, 18, false}, {300, 3, false}}, limit) == 300.0);
  EXPECT(Near(SloRate({{100, 2, false}, {200, 18, false}, {300, 3, false}, {400, 14, false}},
                      limit),
              300.0 + 100.0 * 7.0 / 11.0));
  EXPECT(Near(SloRate({{100, 2, false}, {200, 18, false}, {300, 30, false}}, limit),
              100.0 + 100.0 * 8.0 / 16.0));
  // The first rung fails: its rate scaled down by limit / p99.
  EXPECT(Near(SloRate({{100, 20, false}, {200, 30, false}}, limit), 50.0));
  EXPECT(Near(SloRate({{100, 2, true}}, limit), 100.0 / kFailCeiling));
  EXPECT(SloRate({}, limit) == 0.0);
}

void MetricNames() {
  EXPECT(ValidMetricName("setup_s"));
  EXPECT(ValidMetricName("engine.bfs.ns_per_edge"));
  EXPECT(ValidMetricName("gen.lag_ms.p99"));
  EXPECT(ValidMetricName("9lives-x"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/no"));
  EXPECT(!ValidMetricName("p99%"));
  EXPECT(ValidUnit("ms"));
  EXPECT(ValidUnit("1/s"));
  EXPECT(ValidUnit("ns/edge"));
  EXPECT(ValidUnit("%"));
  EXPECT(!ValidUnit(""));
  EXPECT(!ValidUnit("seconds per query"));
  EXPECT(!ValidUnit(std::string(17, 'a')));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::Staircase();
  perfbench::MetricNames();
  if (perfbench::failures == 0) {
    std::fprintf(stderr, "perfbench selftest: all passed\n");
  }
  return perfbench::failures == 0 ? 0 : 1;
}
