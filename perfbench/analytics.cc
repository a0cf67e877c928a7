// analytics-rmat17: the directed RMAT graph host_scaling uses (scale 17,
// edge factor 8), the whole algorithm suite called back to back (WCC on the
// undirected view of the same edges). The engine and the host pool do nearly
// all the work; the service does none.
#include <iostream>
#include <memory>

#include "setup.h"
#include "suite.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
// BFS and SSSP costs differ from source to source, and every run draws its
// sources from its seed: 32 of them keep the mean over a round close from
// seed to seed (with 8, SSSP's moved 0.08-0.13 as IQR over median).
constexpr size_t kSources = 32;

class Analytics final : public Workload {
 public:
  explicit Analytics(const Args& args) : args_(args) {}

  bool Setup(Tracer& tracer, Outcome& out) override {
    SetupTimes times;
    for (times.reps = 0; times.reps < kSetupReps; ++times.reps) {
      const int64_t t0 = NowNs();
      undirected_ = TimedGraphBuild(kAnalyticsScale, kAnalyticsGraphSeed, tracer, times, &graph_);
      times.total_s.push_back(NsToMs(NowNs() - t0) * 1e-3);
    }
    times.Report(out);
    std::cout << "graph: rmat scale " << kAnalyticsScale << ", " << graph_.vertex_count()
              << " vertices, " << graph_.edge_count() << " edges (directed)\n";
    std::vector<simdx::VertexId> sources = PickSources(graph_, kSources, SubSeed(args_.seed, 1));
    if (sources.empty()) {
      std::cerr << "perfbench: no traversal source reaches a tenth of the graph\n";
      return false;
    }
    suite_ = std::make_unique<EngineSuite>(graph_, undirected_, std::move(sources));
    // Warm-up, untimed: one call per question fills the caches, starts the
    // pool and pins each question's fingerprint.
    for (uint8_t a = 0; a < kAlgoCount; ++a) {
      for (size_t q = 0; q < suite_->questions(static_cast<Algo>(a)); ++q) {
        suite_->Call(static_cast<Algo>(a), q, simdx::EngineOptions{});
      }
    }
    out.attempted = suite_->calls();
    out.failed = out.mismatches = suite_->mismatches();
    return true;
  }

  void Measure(double seconds, Tracer& tracer, Outcome& out) override {
    const uint64_t calls0 = suite_->calls();
    const uint64_t mismatches0 = suite_->mismatches();
    const PoolWindow pool;
    const SuiteSamples s = RunSuiteRounds(*suite_, seconds, simdx::EngineOptions{}, tracer);
    Outcome pool_layers;
    pool.Report(pool_layers);

    ReportTimeToSolution(s, out);
    out.E2e("peak_rss_mb", PeakRssMb(), "MB");
    std::cout << "pagerank L1 error " << suite_->max_pagerank_l1_error() << " (limit "
              << kPageRankL1Tolerance << ")\n";

    if (tracer.on()) {
      EngineLayerMetrics(*suite_, s, out);
      out.per_layer.insert(out.per_layer.end(), pool_layers.per_layer.begin(),
                           pool_layers.per_layer.end());
    }
    out.attempted = suite_->calls() - calls0;
    out.failed = out.mismatches = suite_->mismatches() - mismatches0;
  }

 private:
  const Args args_;
  simdx::Graph graph_;       // directed: every algorithm but WCC
  simdx::Graph undirected_;  // WCC's view of the same edges
  std::unique_ptr<EngineSuite> suite_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics(const Args& args) {
  return std::make_unique<Analytics>(args);
}

}  // namespace perfbench
