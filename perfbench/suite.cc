#include "suite.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <random>
#include <unordered_map>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "core/fingerprint.h"
#include "stats.h"

namespace perfbench {

using simdx::EngineOptions;
using simdx::Graph;
using simdx::VertexId;

std::vector<VertexId> PickSources(const Graph& g, size_t count, uint64_t seed) {
  const std::vector<uint32_t> labels = simdx::CpuWccLabels(g);
  std::unordered_map<uint32_t, uint64_t> sizes;
  for (uint32_t label : labels) {
    ++sizes[label];
  }
  uint32_t giant = 0;
  uint64_t giant_size = 0;
  for (const auto& [label, size] : sizes) {
    if (size > giant_size || (size == giant_size && label < giant)) {
      giant = label;
      giant_size = size;
    }
  }
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (labels[v] == giant && g.OutDegree(v) > 0) {
      members.push_back(v);
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(members.begin(), members.end(), rng);
  std::vector<VertexId> sources;
  for (VertexId v : members) {
    if (sources.size() == count) {
      break;
    }
    const std::vector<uint32_t> levels = simdx::CpuBfsLevels(g, v);
    const auto reached = std::count_if(levels.begin(), levels.end(), [](uint32_t l) {
      return l != simdx::kInfinity;
    });
    if (static_cast<uint64_t>(reached) * 10 >= giant_size) {
      sources.push_back(v);
    }
  }
  return sources;
}

EngineSuite::EngineSuite(const Graph& g, const Graph& undirected,
                         std::vector<VertexId> sources)
    : g_(g), undirected_(undirected), device_(simdx::MakeK40()), sources_(std::move(sources)) {
  for (VertexId s : sources_) {
    bfs_oracle_.push_back(simdx::CpuBfsLevels(g, s));
    sssp_oracle_.push_back(simdx::CpuDijkstra(g, s));
  }
  pagerank_oracle_ = simdx::CpuPageRank(g);
  wcc_oracle_ = simdx::CpuWccLabels(undirected);
  kcore_oracle_ = simdx::CpuKCoreRemoved(g, kCoreK);
}

size_t EngineSuite::questions(Algo algo) const {
  return algo == kBfs || algo == kSssp ? sources_.size() : 1;
}

EngineSuite::Timing EngineSuite::Call(Algo algo, size_t source_index,
                                      const EngineOptions& options, Tracer* tracer) {
  static constexpr std::array<const char*, kAlgoCount> kSpanNames = {
      "engine.bfs", "engine.sssp", "engine.pagerank", "engine.wcc", "engine.kcore"};
  const size_t q = algo == kBfs || algo == kSssp ? source_index % sources_.size() : 0;
  const VertexId source = sources_[q];
  int64_t t0 = 0;
  int64_t t1 = 0;
  int64_t cpu0 = 0;
  int64_t cpu1 = 0;
  const auto timed = [&](auto&& run) {
    cpu0 = ProcessCpuNs();
    t0 = NowNs();
    auto r = run();
    t1 = NowNs();
    cpu1 = ProcessCpuNs();
    return r;
  };
  bool ok = false;
  switch (algo) {
    case kBfs: {
      const auto r = timed([&] { return simdx::RunBfs(g_, source, device_, options); });
      ok = r.stats.ok() && r.values == bfs_oracle_[q];
      ok = Check(algo, q, r.stats, simdx::StatsFingerprint(r), ok);
      break;
    }
    case kSssp: {
      const auto r = timed([&] { return simdx::RunSssp(g_, source, device_, options); });
      ok = r.stats.ok() && r.values == sssp_oracle_[q];
      ok = Check(algo, q, r.stats, simdx::StatsFingerprint(r), ok);
      break;
    }
    case kPageRank: {
      const auto r = timed(
          [&] { return simdx::RunPageRank(g_, device_, options, kPageRankEpsilon); });
      ok = r.stats.ok() && r.values.size() == pagerank_oracle_.size();
      double l1 = 0.0;
      for (size_t v = 0; ok && v < r.values.size(); ++v) {
        l1 += std::abs(r.values[v].rank - pagerank_oracle_[v]);
      }
      max_pr_error_ = std::max(max_pr_error_, l1);
      ok = ok && l1 <= kPageRankL1Tolerance;
      ok = Check(algo, q, r.stats, simdx::StatsFingerprint(r), ok);
      break;
    }
    case kWcc: {
      const auto r = timed([&] { return simdx::RunWcc(undirected_, device_, options); });
      ok = r.stats.ok() && r.values == wcc_oracle_;
      ok = Check(algo, q, r.stats, simdx::StatsFingerprint(r), ok);
      break;
    }
    case kKCore: {
      const auto r = timed([&] { return simdx::RunKCore(g_, kCoreK, device_, options); });
      ok = r.stats.ok() && r.values.size() == kcore_oracle_.size();
      for (size_t v = 0; ok && v < r.values.size(); ++v) {
        ok = (r.values[v].removed != 0) == kcore_oracle_[v];
      }
      ok = Check(algo, q, r.stats, simdx::StatsFingerprint(r), ok);
      break;
    }
    case kAlgoCount:
      break;
  }
  ++calls_;
  if (tracer != nullptr) {
    tracer->Add(kSpanNames[algo], "suite.round", calls_, t0, t1);
  }
  if (!ok) {
    ++mismatches_;
    std::cout << "MISMATCH " << kAlgoNames[algo] << " question " << q << "\n";
  }
  return {NsToMs(t1 - t0), NsToMs(cpu1 - cpu0)};
}

bool EngineSuite::Check(Algo algo, size_t q, const simdx::RunStats& stats,
                        const std::string& fingerprint, bool answer_ok) {
  auto [it, inserted] = first_.try_emplace({algo, q}, First{fingerprint, stats});
  return answer_ok && (inserted || it->second.fingerprint == fingerprint);
}

EngineSuite::Counts EngineSuite::counts(Algo algo) const {
  Counts c;
  for (const auto& [key, first] : first_) {
    if (key.first != algo) {
      continue;
    }
    const simdx::RunStats& s = first.stats;
    c.iterations += s.iterations;
    c.edges += s.total_edges_processed;
    c.push_iters += std::count(s.direction_pattern.begin(), s.direction_pattern.end(), 'p');
    c.pull_iters += std::count(s.direction_pattern.begin(), s.direction_pattern.end(), 'P');
    c.records_buffered += s.push_records_buffered;
    c.record_candidates += s.push_record_candidates;
    c.sim_ms += s.time.ms;
  }
  return c;
}

uint64_t EngineSuite::edges_of(Algo algo, size_t source_index) const {
  const size_t q = algo == kBfs || algo == kSssp ? source_index % sources_.size() : 0;
  const auto it = first_.find({algo, q});
  return it == first_.end() ? 0 : it->second.stats.total_edges_processed;
}

SuiteSamples RunSuiteRounds(EngineSuite& suite, double seconds, const EngineOptions& options,
                            Tracer& tracer) {
  SuiteSamples samples;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    double round_cpu_ms = 0.0;
    size_t round_calls = 0;
    for (uint8_t a = 0; a < kAlgoCount; ++a) {
      const Algo algo = static_cast<Algo>(a);
      double algo_cpu_ms = 0.0;
      for (size_t q = 0; q < suite.questions(algo); ++q) {
        const EngineSuite::Timing t = suite.Call(algo, q, options, &tracer);
        samples.wall_ms[a].push_back(t.wall_ms);
        samples.cpu_ms[a].push_back(t.cpu_ms);
        samples.edges[a] += suite.edges_of(algo, q);
        algo_cpu_ms += t.cpu_ms;
      }
      samples.round_cpu_ms[a].push_back(algo_cpu_ms /
                                        static_cast<double>(suite.questions(algo)));
      round_cpu_ms += algo_cpu_ms;
      round_calls += suite.questions(algo);
    }
    samples.round_op_cpu_ms.push_back(round_cpu_ms / static_cast<double>(round_calls));
    ++samples.rounds;
  } while (NowNs() < end);
  return samples;
}

void ReportTimeToSolution(const SuiteSamples& samples, Outcome& out) {
  std::cout << "time to solution per call over " << samples.rounds
            << " rounds, CPU (median over rounds of the round mean; reported)"
               " / wall median / wall p10:";
  for (uint8_t a = 0; a < kAlgoCount; ++a) {
    const double cpu = Median(samples.round_cpu_ms[a]);
    out.E2e(std::string(kAlgoNames[a]) + "_cpu_ms", cpu, "ms");
    std::cout << " " << kAlgoNames[a] << " " << cpu << " / " << Median(samples.wall_ms[a])
              << " / " << Percentile(samples.wall_ms[a], 100) << " ms";
  }
  std::cout << "\n";
  out.E2e("op_cpu_us", Median(samples.round_op_cpu_ms) * 1e3, "us");
}

void EngineLayerMetrics(EngineSuite& suite, const SuiteSamples& samples,
                        Outcome& out) {
  for (uint8_t a = 0; a < kAlgoCount; ++a) {
    const Algo algo = static_cast<Algo>(a);
    const std::string p = std::string("engine.") + kAlgoNames[a] + ".";
    const EngineSuite::Counts c = suite.counts(algo);
    out.Layer(p + "iterations", static_cast<double>(c.iterations), "count");
    out.Layer(p + "edges", static_cast<double>(c.edges), "count");
    out.Layer(p + "push_iters", static_cast<double>(c.push_iters), "count");
    out.Layer(p + "pull_iters", static_cast<double>(c.pull_iters), "count");
    out.Layer(p + "records_buffered", static_cast<double>(c.records_buffered), "count");
    out.Layer(p + "record_candidates", static_cast<double>(c.record_candidates), "count");
    out.Layer(p + "sim_ms", c.sim_ms, "sim_ms");
    double cpu_ms = 0.0;
    for (double ms : samples.cpu_ms[a]) {
      cpu_ms += ms;
    }
    const double edges = static_cast<double>(std::max<uint64_t>(samples.edges[a], 1));
    out.Layer(p + "ns_per_edge", cpu_ms * 1e6 / edges, "ns/edge");
    out.Layer(p + "wall_ms", Median(samples.wall_ms[a]), "ms");
    // The same question at the default and at host_threads = 1, interleaved.
    EngineOptions serial;
    serial.host_threads = 1;
    std::vector<double> at_default, at_serial;
    for (int rep = 0; rep < 3; ++rep) {
      at_default.push_back(suite.Call(algo, 0, EngineOptions{}).wall_ms);
      at_serial.push_back(suite.Call(algo, 0, serial).wall_ms);
    }
    out.Layer(p + "parallel_gain", Median(at_serial) / Median(at_default), "x");
  }
}

void PoolWindow::Report(Outcome& out) const {
  const auto end = simdx::ThreadPool::Global().telemetry();
  const double submits = static_cast<double>(end.submits - start_.submits);
  const double contended =
      static_cast<double>(end.contended_submits - start_.contended_submits);
  const double inline_runs = static_cast<double>(end.inline_runs - start_.inline_runs);
  out.Layer("pool.submits", submits, "count");
  out.Layer("pool.contended_share", submits > 0 ? contended / submits : 0.0, "ratio");
  out.Layer("pool.inline_share",
            submits + inline_runs > 0 ? inline_runs / (submits + inline_runs) : 0.0,
            "ratio");
}

}  // namespace perfbench
