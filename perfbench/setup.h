// Set-up helpers shared by the workloads: seeds, and the timed graph build
// that setup_s and graph.* are made of.
#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "graph/graph.h"

namespace perfbench {

// RMAT edge factor of every workload graph (Graph500's 16 halved, as in
// host_scaling and qps).
inline constexpr uint32_t kEdgeFactor = 8;
// The graphs are fixed datasets, as in the repo's benches; the workload seed
// picks the sources, the questions and the arrival schedules. The analytics
// graph is host_scaling's (131k vertices, 1M directed edges), the service
// graph the qps bench's (1024 vertices).
inline constexpr uint32_t kAnalyticsScale = 17;
inline constexpr uint64_t kAnalyticsGraphSeed = 42;
inline constexpr uint32_t kServiceScale = 10;
inline constexpr uint64_t kServiceGraphSeed = 3;

// An independent seed for each use of the one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Set-up is repeated and the median reported, so one slow repetition does
// not move setup_s.
struct SetupTimes {
  int reps = 0;
  std::vector<double> generate_s, build_s, total_s;
  void Report(Outcome& out) const;
};

// GenerateRmat + Graph::FromEdges, each timed and traced. Returns the
// undirected graph; also builds the directed one from the same edges when
// `directed` is given.
simdx::Graph TimedGraphBuild(uint32_t scale, uint64_t seed, Tracer& tracer,
                             SetupTimes& times, simdx::Graph* directed = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
