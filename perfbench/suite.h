// The paper's algorithm suite on one graph, driven through the public Run*
// runners with the library's default EngineOptions, every answer checked
// against its baselines/cpu_reference oracle and every run's
// StatsFingerprint checked against the first run of the same question.
#ifndef PERFBENCH_SUITE_H_
#define PERFBENCH_SUITE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/options.h"
#include "core/parallel.h"
#include "core/result.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace perfbench {

enum Algo : uint8_t { kBfs, kSssp, kPageRank, kWcc, kKCore, kAlgoCount };
inline constexpr std::array<const char*, kAlgoCount> kAlgoNames = {
    "bfs", "sssp", "pagerank", "wcc", "kcore"};

inline constexpr double kPageRankEpsilon = 1e-8;
inline constexpr uint32_t kCoreK = 16;
// PageRank answers must lie within this L1 distance of CpuPageRank (power
// iteration to 1e-12; the ranks sum to at most 1). The engine's residual
// push stops each vertex at a residual of kPageRankEpsilon, which leaves an
// L1 error near 1e-3 on the scale-17 graph and near 1e-4 at scale 10.
inline constexpr double kPageRankL1Tolerance = 5e-3;

// Seeded traversal sources: vertices of the largest weakly connected
// component whose forward BFS reaches at least a tenth of it, so no call is
// a trivial isolated-vertex return. Distinct, at most `count` of them.
std::vector<simdx::VertexId> PickSources(const simdx::Graph& g, size_t count,
                                         uint64_t seed);

class EngineSuite {
 public:
  // Computes every oracle up front (outside any timed window). WCC runs on
  // `undirected`, the symmetrised view of `g`: weak connectivity ignores
  // direction, and the engine's label propagation only follows edges the
  // graph stores in both directions (on a directed CSR it yields the least
  // id that can reach each vertex, not its weak component).
  EngineSuite(const simdx::Graph& g, const simdx::Graph& undirected,
              std::vector<simdx::VertexId> sources);

  // One call of `algo` (BFS/SSSP from sources()[source_index % size]),
  // timed on the host around the Run* call alone, in wall time and in the
  // process's CPU time (nothing else runs in the process meanwhile). Checks
  // the answer and the fingerprint; a mismatch is counted, never thrown.
  // Records an engine.<algo> span when `tracer` is given.
  struct Timing {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
  };
  Timing Call(Algo algo, size_t source_index, const simdx::EngineOptions& options,
              Tracer* tracer = nullptr);

  // Telemetry of the first run of every question, summed per algorithm
  // over the sources (BFS/SSSP) — deterministic counts.
  struct Counts {
    uint64_t iterations = 0, edges = 0, push_iters = 0, pull_iters = 0;
    uint64_t records_buffered = 0, record_candidates = 0;
    double sim_ms = 0.0;  // simulated GPU time, never host time
  };
  Counts counts(Algo algo) const;
  // Edges processed by one call (what ns_per_edge divides by).
  uint64_t edges_of(Algo algo, size_t source_index) const;

  const std::vector<simdx::VertexId>& sources() const { return sources_; }
  size_t questions(Algo algo) const;
  uint64_t calls() const { return calls_; }
  uint64_t mismatches() const { return mismatches_; }
  double max_pagerank_l1_error() const { return max_pr_error_; }

 private:
  bool Check(Algo algo, size_t q, const simdx::RunStats& stats,
             const std::string& fingerprint, bool answer_ok);

  const simdx::Graph& g_;
  const simdx::Graph& undirected_;
  const simdx::DeviceSpec device_;
  std::vector<simdx::VertexId> sources_;
  std::vector<std::vector<uint32_t>> bfs_oracle_, sssp_oracle_;
  std::vector<double> pagerank_oracle_;
  std::vector<uint32_t> wcc_oracle_;
  std::vector<bool> kcore_oracle_;
  struct First {
    std::string fingerprint;
    simdx::RunStats stats;
  };
  std::map<std::pair<Algo, size_t>, First> first_;
  uint64_t calls_ = 0;
  uint64_t mismatches_ = 0;
  double max_pr_error_ = 0.0;
};

// Wall and CPU ms of every timed call, per algorithm, and per round the
// mean CPU ms of that algorithm's calls (BFS and SSSP: over the sources).
struct SuiteSamples {
  std::array<std::vector<double>, kAlgoCount> wall_ms;
  std::array<std::vector<double>, kAlgoCount> cpu_ms;
  std::array<std::vector<double>, kAlgoCount> round_cpu_ms;
  std::vector<double> round_op_cpu_ms;  // per round, mean over all its calls
  std::array<uint64_t, kAlgoCount> edges{};  // summed over the timed calls
  size_t rounds = 0;
};

// Runs rounds of the whole suite (every question once: BFS and SSSP from
// each source, the others once) with `options` until `seconds` have passed,
// recording one span per call.
SuiteSamples RunSuiteRounds(EngineSuite& suite, double seconds,
                            const simdx::EngineOptions& options, Tracer& tracer);

// Adds the five <a>_cpu_ms metrics to `out`: the CPU time of one call,
// summed over the pool's threads, as the median over rounds of the round's
// mean (the sources of BFS and SSSP differ in cost, and a median over all
// their calls would jump between them); and op_cpu_us, the same over every
// call of a round, whatever its algorithm. Wall time is printed beside them
// and reported per layer (engine.<a>.wall_ms), not gated: on a shared host
// the CPU the hypervisor gives to other guests stalls whole fork/join
// regions, and whole 30 s runs of the same code came out 1.5-3x slower in
// wall time, p10 included, while that steal lasted.
void ReportTimeToSolution(const SuiteSamples& samples, Outcome& out);

// engine.<a>.* per-layer metrics of the traced pass. parallel_gain is
// measured here: each algorithm alternately at the default and at
// host_threads = 1, on the first question.
void EngineLayerMetrics(EngineSuite& suite, const SuiteSamples& samples,
                        Outcome& out);

// pool.* per-layer metrics: ThreadPool::Global() submission telemetry over
// the window from construction to Report.
class PoolWindow {
 public:
  PoolWindow() : start_(simdx::ThreadPool::Global().telemetry()) {}
  void Report(Outcome& out) const;

 private:
  const simdx::ThreadPool::SubmitTelemetry start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SUITE_H_
