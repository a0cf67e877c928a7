#include "baselines/cpu_reference.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/parallel.h"

namespace simdx {

namespace {

// Runs fn(v) for every vertex on the shared pool. Each call must only write
// state owned by v; the iteration-space split is free to vary because per-
// vertex work is self-contained.
template <typename Fn>
void ParallelOverVertices(VertexId n, const Fn& fn) {
  ThreadPool& pool = ThreadPool::Global();
  const uint32_t threads = pool.max_threads();
  if (threads <= 1 || n < 4096) {
    for (VertexId v = 0; v < n; ++v) {
      fn(v);
    }
    return;
  }
  pool.ParallelFor(0, n, SuggestedGrain(n, threads, 1024), threads,
                   [&](const ParallelChunk& c) {
                     for (size_t v = c.begin; v < c.end; ++v) {
                       fn(static_cast<VertexId>(v));
                     }
                   });
}

}  // namespace

std::vector<uint32_t> CpuBfsLevels(const Graph& g, VertexId source) {
  std::vector<uint32_t> level(g.vertex_count(), kInfinity);
  if (source >= g.vertex_count()) {
    return level;
  }
  std::queue<VertexId> q;
  level[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : g.out().Neighbors(v)) {
      if (level[u] == kInfinity) {
        level[u] = level[v] + 1;
        q.push(u);
      }
    }
  }
  return level;
}

std::vector<uint32_t> CpuDijkstra(const Graph& g, VertexId source) {
  std::vector<uint32_t> dist(g.vertex_count(), kInfinity);
  if (source >= g.vertex_count()) {
    return dist;
  }
  using Entry = std::pair<uint32_t, VertexId>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) {
      continue;  // stale entry
    }
    const auto nbrs = g.out().Neighbors(v);
    const auto wts = g.out().NeighborWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const uint32_t nd = d + wts[i];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        heap.emplace(nd, nbrs[i]);
      }
    }
  }
  return dist;
}

std::vector<uint32_t> CpuDeltaStepping(const Graph& g, VertexId source,
                                       uint32_t delta) {
  std::vector<uint32_t> dist(g.vertex_count(), kInfinity);
  if (source >= g.vertex_count() || delta == 0) {
    return dist;
  }
  std::vector<std::vector<VertexId>> buckets;
  auto place = [&](VertexId v, uint32_t d) {
    const size_t b = d / delta;
    if (b >= buckets.size()) {
      buckets.resize(b + 1);
    }
    buckets[b].push_back(v);
  };
  dist[source] = 0;
  place(source, 0);
  for (size_t b = 0; b < buckets.size(); ++b) {
    // Settle the bucket to a fixpoint (light-edge re-insertions land back in
    // the same bucket), then move on.
    while (!buckets[b].empty()) {
      std::vector<VertexId> batch;
      batch.swap(buckets[b]);
      for (VertexId v : batch) {
        if (dist[v] / delta != b) {
          continue;  // moved to a later (or earlier) bucket since insertion
        }
        const auto nbrs = g.out().Neighbors(v);
        const auto wts = g.out().NeighborWeights(v);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const uint32_t nd = dist[v] + wts[i];
          if (nd < dist[nbrs[i]]) {
            dist[nbrs[i]] = nd;
            place(nbrs[i], nd);
          }
        }
      }
    }
  }
  return dist;
}

std::vector<double> CpuPageRank(const Graph& g, double damping, double tolerance,
                                uint32_t max_iters) {
  const VertexId n = g.vertex_count();
  const double base = (1.0 - damping) / n;
  std::vector<double> rank(n, base);
  std::vector<double> next(n, 0.0);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    // Pull formulation over the in-CSR, parallel over destinations. The
    // in-adjacency runs are sorted by source id, which is exactly the order
    // the sequential push-scatter loop (ascending u) deposited contributions
    // into next[v] — so the floating-point sums are bit-identical to the
    // original oracle, for any thread count. Dangling vertices have no
    // out-edges, hence never appear as in-neighbors: their mass drops, as
    // before (matches PageRankProgram).
    ParallelOverVertices(n, [&](VertexId v) {
      double sum = base;
      const auto nbrs = g.in().Neighbors(v);
      for (VertexId u : nbrs) {
        sum += damping * rank[u] / g.OutDegree(u);
      }
      next[v] = sum;
    });
    double l1 = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      l1 += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (l1 < tolerance) {
      break;
    }
  }
  return rank;
}

std::vector<bool> CpuKCoreRemoved(const Graph& g, uint32_t k) {
  const VertexId n = g.vertex_count();
  std::vector<uint32_t> degree(n);
  std::vector<bool> removed(n, false);
  std::queue<VertexId> q;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.OutDegree(v);
    if (degree[v] < k) {
      removed[v] = true;
      q.push(v);
    }
  }
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : g.out().Neighbors(v)) {
      if (!removed[u] && --degree[u] < k) {
        removed[u] = true;
        q.push(u);
      }
    }
  }
  return removed;
}

std::vector<uint32_t> CpuWccLabels(const Graph& g) {
  const VertexId n = g.vertex_count();
  std::vector<uint32_t> label(n, kInfinity);
  for (VertexId seed = 0; seed < n; ++seed) {
    if (label[seed] != kInfinity) {
      continue;
    }
    // BFS flood with the smallest unvisited id; ids visited in order, so the
    // seed is its component's minimum.
    std::queue<VertexId> q;
    label[seed] = seed;
    q.push(seed);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (VertexId u : g.out().Neighbors(v)) {
        if (label[u] == kInfinity) {
          label[u] = seed;
          q.push(u);
        }
      }
      // Directed graphs: weak connectivity also follows in-edges.
      if (g.directed()) {
        for (VertexId u : g.in().Neighbors(v)) {
          if (label[u] == kInfinity) {
            label[u] = seed;
            q.push(u);
          }
        }
      }
    }
  }
  return label;
}

std::vector<uint32_t> CpuSccLabels(const Graph& g) {
  const VertexId n = g.vertex_count();
  std::vector<uint32_t> index(n, kInfinity);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<VertexId> stack;
  std::vector<uint32_t> label(n, kInfinity);
  uint32_t next_index = 0;

  // Iterative Tarjan: frame = (vertex, next neighbor offset).
  struct Frame {
    VertexId v;
    size_t edge;
  };
  std::vector<Frame> call_stack;

  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kInfinity) {
      continue;
    }
    call_stack.push_back(Frame{root, 0});
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const VertexId v = frame.v;
      if (frame.edge == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      const auto nbrs = g.out().Neighbors(v);
      bool descended = false;
      while (frame.edge < nbrs.size()) {
        const VertexId u = nbrs[frame.edge++];
        if (index[u] == kInfinity) {
          call_stack.push_back(Frame{u, 0});
          descended = true;
          break;
        }
        if (on_stack[u]) {
          lowlink[v] = std::min(lowlink[v], index[u]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink[v] == index[v]) {
        // v is a component root: pop its members, label by largest id.
        VertexId largest = v;
        size_t first = stack.size();
        while (true) {
          --first;
          largest = std::max(largest, stack[first]);
          if (stack[first] == v) {
            break;
          }
        }
        for (size_t i = first; i < stack.size(); ++i) {
          label[stack[i]] = largest;
          on_stack[stack[i]] = false;
        }
        stack.resize(first);
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const VertexId parent = call_stack.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return label;
}

std::vector<double> CpuBp(const Graph& g, uint32_t rounds, double damping,
                          double max_weight) {
  const VertexId n = g.vertex_count();
  // Must match BpProgram::Prior bit for bit.
  auto prior = [](VertexId v) {
    return 0.1 + 0.8 * ((v * 2654435761u % 1000) / 1000.0);
  };
  std::vector<double> belief(n);
  for (VertexId v = 0; v < n; ++v) {
    belief[v] = prior(v);
  }
  std::vector<double> next(n, 0.0);
  for (uint32_t r = 0; r < rounds; ++r) {
    // Pull over the in-CSR, parallel over destinations; in-runs are sorted
    // by (source, weight) — the exact deposit order of the sequential
    // push-scatter — so each belief is bit-identical to the original loop.
    ParallelOverVertices(n, [&](VertexId v) {
      double sum = prior(v);
      const auto nbrs = g.in().Neighbors(v);
      const auto wts = g.in().NeighborWeights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        const double per_edge = damping * belief[u] / g.OutDegree(u);
        sum += per_edge * (static_cast<double>(wts[i]) / max_weight);
      }
      next[v] = sum;
    });
    belief.swap(next);
  }
  return belief;
}

namespace {

// Per-chunk buffer for the push-mode oracles: (dst, contribution) records in
// source order, replayed in ascending chunk order so deposits land per
// destination in ascending-source order — matching the summation order of
// the pull oracles' sorted in-runs bit for bit. Cache-line isolated, like
// every per-chunk slot (core/parallel.h).
struct alignas(kCacheLineBytes) ScatterBuffer {
  std::vector<std::pair<VertexId, double>> updates;
};
static_assert(alignof(ScatterBuffer) >= kCacheLineBytes);

// One push sweep: for every source v (ascending), emit contrib(v) — times
// the edge weight when `weighted` (SpMV; PageRank's oracle is unweighted) —
// to each out-neighbor, accumulating into `out` via ordered replay.
template <typename ContribFn>
void PushScatter(const Graph& g, bool weighted,
                 std::vector<ScatterBuffer>& buffers, const ContribFn& contrib,
                 std::vector<double>& out) {
  ThreadPool& pool = ThreadPool::Global();
  CollectAndDrain(
      &pool, pool.max_threads(), g.vertex_count(), /*min_grain=*/1024,
      /*serial_below=*/4096, buffers,
      [&](const ParallelChunk& c, ScatterBuffer& buf) {
        buf.updates.clear();
        for (size_t v = c.begin; v < c.end; ++v) {
          const double share = contrib(static_cast<VertexId>(v));
          if (share == 0.0) {
            continue;
          }
          const auto nbrs = g.out().Neighbors(static_cast<VertexId>(v));
          const auto wts = g.out().NeighborWeights(static_cast<VertexId>(v));
          for (size_t i = 0; i < nbrs.size(); ++i) {
            buf.updates.emplace_back(
                nbrs[i],
                weighted ? share * static_cast<double>(wts[i]) : share);
          }
        }
      },
      [&](const ScatterBuffer& buf) {
        for (const auto& [dst, value] : buf.updates) {
          out[dst] += value;
        }
      });
}

}  // namespace

std::vector<double> CpuPageRankPush(const Graph& g, double damping,
                                    double tolerance, uint32_t max_iters) {
  const VertexId n = g.vertex_count();
  const double base = (1.0 - damping) / n;
  std::vector<double> rank(n, base);
  std::vector<double> next(n);
  std::vector<ScatterBuffer> buffers;
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    next.assign(n, base);
    // Each source scatters damping * rank / outdeg along unit edges. The
    // in-runs the pull oracle gathers over are sorted by source, so the
    // ascending-source deposit order here reproduces its FP sums exactly.
    PushScatter(
        g, /*weighted=*/false, buffers,
        [&](VertexId v) {
          const uint32_t degree = g.OutDegree(v);
          return degree == 0 ? 0.0 : damping * rank[v] / degree;
        },
        next);
    double l1 = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      l1 += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (l1 < tolerance) {
      break;
    }
  }
  return rank;
}

std::vector<double> CpuSpmvPush(const Graph& g, const std::vector<double>& x) {
  std::vector<double> y(g.vertex_count(), 0.0);
  std::vector<ScatterBuffer> buffers;
  PushScatter(g, /*weighted=*/true, buffers, [&](VertexId v) { return x[v]; }, y);
  return y;
}

std::vector<double> CpuSpmv(const Graph& g, const std::vector<double>& x) {
  std::vector<double> y(g.vertex_count(), 0.0);
  // Row-parallel gather over the in-CSR; deposit order per row matches the
  // sequential out-edge scatter (see CpuPageRank), so results are identical.
  ParallelOverVertices(g.vertex_count(), [&](VertexId v) {
    double sum = 0.0;
    const auto nbrs = g.in().Neighbors(v);
    const auto wts = g.in().NeighborWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      sum += static_cast<double>(wts[i]) * x[nbrs[i]];
    }
    y[v] = sum;
  });
  return y;
}

}  // namespace simdx
