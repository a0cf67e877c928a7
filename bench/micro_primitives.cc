// Microbenchmarks (google-benchmark) for the substrate primitives the
// engines are built from: warp lane operations, the ballot filter scan,
// CSR construction, the discrete global-barrier simulation, and per-chunk
// scratch writes on the host pool (packed vs cache-line isolated). These guard
// against performance regressions in the simulator itself (wall-clock, not
// simulated time).
#include <benchmark/benchmark.h>

#include <random>

#include "core/filters.h"
#include "core/parallel.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/barrier.h"
#include "simt/warp.h"

namespace simdx {
namespace {

void BM_WarpBallot(benchmark::State& state) {
  std::array<bool, kWarpSize> pred{};
  for (size_t i = 0; i < kWarpSize; i += 3) {
    pred[i] = true;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpBallot(pred));
  }
}
BENCHMARK(BM_WarpBallot);

void BM_WarpReduceSum(benchmark::State& state) {
  std::array<uint32_t, kWarpSize> lanes{};
  std::mt19937 rng(1);
  for (auto& lane : lanes) {
    lane = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpReduce<uint32_t>(
        lanes, [](uint32_t a, uint32_t b) { return a + b; }, 0u));
  }
}
BENCHMARK(BM_WarpReduceSum);

void BM_WarpInclusiveScan(benchmark::State& state) {
  std::array<uint32_t, kWarpSize> lanes{};
  lanes.fill(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpInclusiveScan<uint32_t>(
        lanes, [](uint32_t a, uint32_t b) { return a + b; }, 0u));
  }
}
BENCHMARK(BM_WarpInclusiveScan);

void BM_BallotFilterScan(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  std::vector<bool> active(n);
  std::mt19937 rng(2);
  for (VertexId v = 0; v < n; ++v) {
    active[v] = rng() % 10 == 0;
  }
  for (auto _ : state) {
    CostCounters c;
    benchmark::DoNotOptimize(BallotFilterScan(
        n, [&](VertexId v) { return static_cast<bool>(active[v]); }, c));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BallotFilterScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CsrFromEdges(benchmark::State& state) {
  const EdgeList edges = GenerateRmat(static_cast<uint32_t>(state.range(0)), 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csr::FromEdges(edges));
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrFromEdges)->Arg(10)->Arg(14);

void BM_BarrierSimulation(benchmark::State& state) {
  const auto grid = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateGlobalBarrier(grid, grid, 8));
  }
}
BENCHMARK(BM_BarrierSimulation)->Arg(60)->Arg(240)->Arg(960);

// Per-chunk counters written once per element from inside a ParallelFor
// region: the layer the layout rule of core/parallel.h is about, timed
// alone. Packed, four chunks' slots share one 64 B line, so threads writing
// disjoint slots still bounce it between cores; CacheAligned gives every
// slot its own line. ClobberMemory forces each increment to memory, like a
// per-edge store through a reference to scratch. Arg = host threads; real
// time, since the work runs on pool threads.
struct ChunkCounters {
  uint64_t words = 0;
  uint64_t ops = 0;
};
ChunkCounters& Slot(ChunkCounters& s) { return s; }
ChunkCounters& Slot(CacheAligned<ChunkCounters>& s) { return *s; }

template <typename SlotT>
void BM_ChunkCounters(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  constexpr size_t kChunks = 64;
  constexpr size_t kPerChunk = size_t{1} << 14;
  ThreadPool& pool = ThreadPool::Global();
  std::vector<SlotT> slots(kChunks);
  for (auto _ : state) {
    pool.ParallelFor(0, kChunks * kPerChunk, kPerChunk, threads,
                     [&](const ParallelChunk& c) {
                       ChunkCounters& s = Slot(slots[c.chunk_index]);
                       for (size_t i = c.begin; i < c.end; ++i) {
                         s.words += 1;
                         s.ops += 2;
                         benchmark::ClobberMemory();
                       }
                     });
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kChunks * kPerChunk);
}
BENCHMARK_TEMPLATE(BM_ChunkCounters, ChunkCounters)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ChunkCounters, CacheAligned<ChunkCounters>)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace simdx

BENCHMARK_MAIN();
