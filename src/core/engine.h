// The SIMD-X execution engine: runs an ACC program over a graph on the
// simulated device, combining the paper's three systems —
//   * degree-classified Thread/Warp/CTA scheduling (Section 4, step II),
//   * JIT task management with online + ballot filters (Section 4, step I),
//   * push-pull selective kernel fusion with Eq.-1 grid sizing (Section 5).
//
// Execution is functionally exact (the returned metadata is the algorithm's
// true fixpoint, verified against CPU oracles in tests); the GPU is present
// as an event-cost model — every simulated memory transaction, atomic,
// kernel launch and barrier crossing is charged to CostCounters and
// converted to simulated time per-iteration at that iteration's occupancy.
//
// Buffering model (see acc.h): both directions are BSP. Pull reads prev
// (frozen all iteration); push reads the phase-start snapshot of curr —
// identical to curr at collect time, because every push write is deferred
// into per-chunk buffers and replayed after the collect (push_buffer.h).
// prev is synchronized to curr at every frontier commit, so
// Active(curr, prev) during an iteration means exactly "changed since the
// last commit" — the predicate the ballot filter scans.
#ifndef SIMDX_CORE_ENGINE_H_
#define SIMDX_CORE_ENGINE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "core/acc.h"
#include "core/checkpoint.h"
#include "core/control.h"
#include "core/fault.h"
#include "core/fusion.h"
#include "core/jit.h"
#include "core/metadata.h"
#include "core/options.h"
#include "core/parallel.h"
#include "core/push_buffer.h"
#include "core/result.h"
#include "core/worklist.h"
#include "graph/graph.h"
#include "simt/cost_model.h"
#include "simt/device.h"

namespace simdx {

// Occupancy above this fraction no longer buys throughput for the
// memory-bound graph kernels (bandwidth saturates); below it, throughput
// degrades linearly. This is what makes all-fusion's 110-register kernels
// slower despite fewer launches (Figure 13).
inline constexpr double kOccupancySaturation = 0.4;

inline double EffectiveOccupancy(double occupancy) {
  return std::clamp(occupancy / kOccupancySaturation, 0.05, 1.0);
}

// Host wall-clock split of the push phase, recorded when
// EngineOptions::profile_push_replay is set (consumed by bench/push_replay).
// All times are HOST milliseconds — the simulator's own cost, not simulated
// GPU time — and per-range entries are each replay worker's busy time, the
// direct evidence that the replay stage executed on P workers.
struct PushReplayIterationSplit {
  uint32_t iteration = 0;
  uint64_t records = 0;
  // Records actually written to the push buffers: == records unless the
  // collect-side fold engaged, < records when it merged same-chunk
  // same-destination candidates.
  uint64_t buffered = 0;
  // Applies the drain issued: == records per record, == the touched-
  // destination count when pre-combined.
  uint64_t applies = 0;
  double collect_ms = 0.0;
  double replay_ms = 0.0;
  bool partitioned = false;    // drained over more than one range
  bool pre_combined = false;   // associative fold (one Apply per dst)
  bool collect_folded = false;  // collect-side fold armed for this iteration
};

struct PushReplayProfile {
  uint32_t ranges = 0;  // replay ranges armed for this run (1 = one only)
  uint64_t partitioned_replays = 0;  // iterations drained over `ranges`
  uint64_t serial_replays = 0;       // iterations drained as one range
  // Pre-combined drains and their record/apply totals; fold_records / fold_applies is the fold ratio — how many
  // candidates Combine folded away per issued Apply.
  uint64_t precombined_replays = 0;
  uint64_t fold_records = 0;
  uint64_t fold_applies = 0;
  // Collect-side fold telemetry (the record-stream memory diet): iterations
  // the fold engaged on, and the largest record-stream footprint any single
  // iteration reached (PushBuffer::FootprintBytes summed over that
  // iteration's chunk buffers — host bytes, including bucket lanes, so
  // thread-count dependent). The buffered/candidate record split lives on
  // RunStats, not here: it is always accounted, profiling or not.
  uint64_t collect_fold_replays = 0;
  size_t peak_buffer_bytes = 0;
  double collect_ms = 0.0;  // summed over push iterations
  double replay_ms = 0.0;
  // Pre-combined drain split: worker busy time folding candidates vs
  // applying them (summed over workers; consumes are counted with apply).
  double fold_ms = 0.0;
  double apply_ms = 0.0;
  // Per-range drain busy time, summed (single-range drains land in [0]).
  std::vector<double> range_ms;
  std::vector<PushReplayIterationSplit> iterations;
};

template <AccProgram Program>
class Engine {
 public:
  using Value = typename Program::Value;

  Engine(const Graph& graph, DeviceSpec device, EngineOptions options)
      : graph_(graph), device_(std::move(device)), options_(options) {
    host_threads_ = options_.host_threads != 0
                        ? options_.host_threads
                        : std::max(1u, std::thread::hardware_concurrency());
    pool_ = host_threads_ > 1 ? &ThreadPool::Global() : nullptr;
    if (options_.fixed_sm_budget > 0 && options_.fixed_sm_budget < device_.sm_count) {
      // A launch geometry tuned for an older part drives only a fraction of
      // a newer device's memory system — the Section 7.3 reason Gunrock
      // barely gains from K40/P100.
      const double fraction = static_cast<double>(options_.fixed_sm_budget) /
                              device_.sm_count;
      device_.mem_bandwidth_scale =
          1.0 + (device_.mem_bandwidth_scale - 1.0) * fraction;
      device_.sm_count = options_.fixed_sm_budget;
    }
  }

  RunResult<Value> Run(const Program& program) {
    return Run(program, RunControl{});
  }

  RunResult<Value> Run(const Program& program, const RunControl& control) {
    RunResult<Value> result;
    result.stats.device_bytes_needed = DeviceBytesNeeded(program.combine_kind());
    const size_t budget = options_.memory_budget_bytes != 0
                              ? options_.memory_budget_bytes
                              : device_.global_memory_bytes;
    if (result.stats.device_bytes_needed > budget) {
      result.stats.oom = true;
      return result;
    }

    // --- control-plane arming (checkpoint/cancel/fault survivability layer).
    // Disarmed (the default-constructed RunControl), every hook below
    // compiles to a branch on a null pointer or false flag — the zero-fault
    // hot path is unchanged, which bench/fault_sweep gates.
    control_ = &control;
    cancel_ = control.cancel;
    deadline_ms_ = control.time_budget_ms > 0.0
                       ? NowMs() + control.time_budget_ms
                       : 0.0;
    faults_ = control.faults;
    if (faults_ == nullptr && !options_.fault_spec.empty()) {
      options_faults_ = FaultRegistry();
      std::string fault_error;
      if (!FaultRegistry::Parse(options_.fault_spec, &options_faults_,
                                &fault_error)) {
        // A silently dropped fault would turn a crash test into a false pass.
        std::fprintf(stderr,
                     "simdx: unparseable EngineOptions::fault_spec \"%s\": %s\n",
                     options_.fault_spec.c_str(), fault_error.c_str());
        std::abort();
      }
      faults_ = &options_faults_;
    }
    if (faults_ == nullptr) {
      faults_ = FaultRegistry::FromEnv();
    }
    watch_cancel_ = cancel_ != nullptr || deadline_ms_ > 0.0;
    control_break_ = false;
    break_outcome_ = RunOutcome::kCompleted;
    loop_ = LoopState{};

    const auto n = static_cast<VertexId>(graph_.vertex_count());
    // Associative pre-combining (acc.h CombineCapability): armed per run
    // from the option AND the program's declared capability — never from
    // host_threads, so the contract below is thread-count independent.
    pre_combine_ = options_.pre_combine_replay &&
                   program.combine_capability() ==
                       CombineCapability::kAssociativeOnly;
    result.stats.contract = pre_combine_ ? StatsContract::kPerDestination
                                         : StatsContract::kPerRecord;
    VertexMeta<Value> meta = MakeMetadata(program);
    std::vector<VertexId> frontier = program.InitialFrontier();
    JitController jit(options_.filter, options_.sim_worker_threads,
                      options_.overflow_threshold, pool_, host_threads_);
    FusionAccountant fusion(options_.fusion, options_.threads_per_cta);
    // Stamp arrays are zeroed through ParallelFor (first touch), so their
    // pages land near the replay workers that will stamp them.
    recorded_stamp_.clear();
    ParallelFill(recorded_stamp_, n, pool_, host_threads_, 8192,
                 [](size_t) { return 0u; });
    if (options_.use_atomic_updates) {
      touch_stamp_.clear();
      ParallelFill(touch_stamp_, n, pool_, host_threads_, 8192,
                   [](size_t) { return 0u; });
    }
    if (pre_combine_) {
      // Per-vertex fold accumulators for the pre-combined drain. The stamp
      // guards staleness, so fold_acc_ needs no initialization.
      fold_stamp_.clear();
      ParallelFill(fold_stamp_, n, pool_, host_threads_, 8192,
                   [](size_t) { return 0u; });
      if (fold_acc_.size() < n) {
        fold_acc_.resize(n);
      }
    }
    // Collect-side pre-combining (see the phase comment above ProcessPush):
    // legal only on top of the pre-combined drain — folding records while
    // the per-record drain is selected would change the kPerRecord stats.
    collect_fold_armed_ = pre_combine_ && options_.pre_combine_collect;
    if (collect_fold_armed_) {
      // One fold table per host thread (a thread runs one chunk at a time,
      // and the epoch stamp isolates chunks, so per-thread reuse is safe and
      // deterministic). Stamps must start below any epoch; slots are only
      // read behind a matching stamp and stay uninitialized.
      if (fold_tables_.size() < host_threads_) {
        fold_tables_.resize(host_threads_);
      }
      for (uint32_t t = 0; t < host_threads_; ++t) {
        if (fold_tables_[t].stamp.size() < n) {
          fold_tables_[t].stamp.assign(n, 0u);
          fold_tables_[t].slot.resize(n);
          fold_tables_[t].epoch = 0;
        }
      }
      // Destination universe for the per-iteration reuse estimate: vertices
      // that can receive a record at all. A pure graph fact, computed once.
      const auto& in_offsets = graph_.in().row_offsets();
      in_destinations_ = 0;
      for (size_t v = 0; v < n; ++v) {
        in_destinations_ += in_offsets[v + 1] > in_offsets[v] ? 1 : 0;
      }
    }
    // The worker lane feeds the online-filter bins; a pure-ballot policy
    // never consults it (JitController::RecordActivation returns early), so
    // the collect drops the lane and replay reads a constant 0.
    workers_observed_ = options_.filter != FilterPolicy::kBallotOnly;
    SetupReplayPartition();

    const bool static_frontier = StaticFrontierAfterFirst(program);
    // Any seed set beyond a handful of sources can only have come from an
    // init kernel scanning the metadata — k-Core's all-underfull-vertices
    // seed, PageRank's and BP's all-vertices seed — so it is attributed (and
    // charged) as a ballot pass on the first iteration. This is why Figure 8
    // shows k-Core/PR/BP activating the ballot filter at the initial
    // iteration(s).
    if (frontier.size() > options_.overflow_threshold) {
      loop_.pending_filter = 'B';
      loop_.charge_init_scan = true;
    }

    if (control.resume != nullptr) {
      // Restore AFTER the full normal arming above: InitialFrontier() and
      // the stamp fills have reset every piece of scratch and program state,
      // so the snapshot overwrites exactly the loop-carried state and
      // nothing else — the invariant that makes a resumed run bit-identical
      // to an uninterrupted one.
      if (!RestoreCheckpoint(*control.resume, program, meta, frontier, jit,
                             fusion, result.stats)) {
        result.stats.outcome = RunOutcome::kFaulted;
        result.values.assign(meta.values().begin(), meta.values().end());
        DisarmControl();
        return result;
      }
      result.stats.resumes += 1;
      result.stats.resume_iteration = loop_.iter;
    }
    for (; loop_.iter < options_.max_iterations; ++loop_.iter) {
      const uint32_t iter = loop_.iter;
      if (IterationControl(program, meta, frontier, jit, fusion,
                           result.stats)) {
        break;
      }
      if (frontier.empty()) {
        // Programs with deferred work (delta-stepping SSSP) may refill the
        // frontier from their pending buckets; everything else terminates.
        frontier = Refill(program);
        if (frontier.empty()) {
          break;
        }
        loop_.frontier_sorted = false;
        loop_.refill_words = 2ull * frontier.size();
      }
      IterationInfo info;
      info.iteration = iter;
      info.frontier_size = frontier.size();
      // Lazy classification: the Thread/Warp/CTA bins are only consumed by
      // push iterations, but the direction heuristic needs the frontier's
      // out-edge sum before the direction is known. Predict this iteration's
      // direction from the previous one (deterministic — prev_dir is part of
      // the simulated state): on a predicted push, one fused walk produces
      // the degree sum AND the bins; on a predicted pull, the cheaper
      // sum-only walk runs and a misprediction pays one extra classification
      // pass below. Classification is never charged to the simulated
      // counters, so none of this changes any statistic — it only stops
      // pull-heavy runs from building bins they discard.
      bool lists_ready = false;
      if (options_.classify_worklists &&
          (loop_.prev_dir == Direction::kPush || options_.force_push)) {
        info.frontier_out_edges =
            classifier_.Classify(frontier, graph_, options_.small_degree_limit,
                                 options_.medium_degree_limit, pool_,
                                 host_threads_);
        lists_ready = true;
      } else {
        info.frontier_out_edges =
            classifier_.OutEdgeSum(frontier, graph_, pool_, host_threads_);
      }
      info.vertex_count = graph_.vertex_count();
      info.edge_count = graph_.edge_count();
      info.previous_direction = loop_.prev_dir;
      if (program.Converged(info)) {
        break;
      }
      const Direction dir = options_.force_push ? Direction::kPush
                            : options_.force_pull
                                ? Direction::kPull
                                : program.ChooseDirection(info);
      stamp_ = iter + 1;

      CostCounters it_cost;
      it_cost.coalesced_words += loop_.refill_words;
      loop_.refill_words = 0;
      if (loop_.charge_init_scan) {
        it_cost.coalesced_words += 2ull * n + frontier.size();
        it_cost.alu_ops += n;
        loop_.charge_init_scan = false;
      }
      uint64_t edges_processed = 0;
      if (dir == Direction::kPush) {
        if (options_.classify_worklists) {
          if (!lists_ready) {
            // Direction mispredicted (previous iteration pulled): build the
            // bins now. Uncharged, so the stats stay identical to the old
            // always-classify walk.
            classifier_.Classify(frontier, graph_, options_.small_degree_limit,
                                 options_.medium_degree_limit, pool_,
                                 host_threads_);
          }
          const WorkLists& lists = classifier_.result();
          edges_processed =
              ProcessPush(program, meta, lists.Views(), loop_.frontier_sorted,
                          info.frontier_out_edges, jit, it_cost);
          last_stage_count_ = (lists.small.empty() ? 0u : 1u) +
                              (lists.medium.empty() ? 0u : 1u) +
                              (lists.large.empty() ? 0u : 1u);
        } else {
          // Thread-per-vertex scheduling: a warp stalls until its slowest
          // lane (largest adjacency) finishes — charge the idle-lane cycles.
          it_cost.alu_ops += DivergencePenalty(frontier);
          const std::array<WorkListView, 1> whole = {
              ViewOf(frontier, KernelClass::kThread)};
          edges_processed =
              ProcessPush(program, meta, whole, loop_.frontier_sorted,
                          info.frontier_out_edges, jit, it_cost);
          last_stage_count_ = frontier.empty() ? 0u : 1u;
        }
      } else {
        edges_processed = ProcessPull(program, meta, jit, it_cost);
        // Every contributor's pending activity has now been read by all of
        // its out-neighbors: consume it (residual-carrying programs subtract
        // the consumed amount; others are no-ops). Frontiers are duplicate-
        // free (recorded_stamp_ guarantees at-most-once recording), so the
        // per-vertex consumes are independent.
        ConsumeFrontier(program, meta, frontier);
        last_stage_count_ = 3;
      }

      // A mid-stage break (collect/replay/apply fault, cancellation inside a
      // drain) surfaces here before the filter stage touches shared state.
      if (StageBreak(FaultPoint::kFrontier)) {
        break;
      }

      const char filter_char = loop_.pending_filter;
      if (static_frontier) {
        // Frontier provably unchanged (e.g. belief propagation: every vertex
        // stays active); reuse it without running any filter.
        meta.SyncPrev(pool_, host_threads_);
        loop_.pending_filter = '=';
      } else {
        const auto active = [&](VertexId v) {
          return program.Active(meta.curr(v), meta.prev(v));
        };
        jit.BuildNextFrontierInto(n, active, it_cost, next_frontier_);
        loop_.pending_filter = jit.pattern().back();
        if (jit.failed()) {
          result.stats.failed = true;
        }
        // Frontier committed: "changed" restarts from this snapshot. The
        // real kernels get this for free from the metadata ping-pong swap.
        meta.SyncPrev(pool_, host_threads_);
        loop_.frontier_sorted = loop_.pending_filter == 'B';
        // Swap instead of move: the displaced buffer becomes next
        // iteration's output scratch, so the steady state allocates nothing.
        frontier.swap(next_frontier_);
      }

      const FusionAccountant::IterationCharge charge =
          fusion.ChargeIteration(device_, dir, iter, last_stage_count_);
      it_cost.kernel_launches += charge.launches;
      it_cost.barrier_crossings += charge.barrier_crossings;

      const SimTime t =
          EstimateTime(it_cost, device_, EffectiveOccupancy(charge.occupancy));
      result.stats.counters += it_cost;
      result.stats.time.cycles += t.cycles;
      result.stats.time.ms += t.ms;
      result.stats.serial_ms +=
          (static_cast<double>(it_cost.kernel_launches) * device_.kernel_launch_cycles +
           static_cast<double>(it_cost.barrier_crossings) * device_.barrier_cycles) /
          (device_.clock_ghz * 1e6);
      result.stats.total_active += info.frontier_size;
      result.stats.total_edges_processed += edges_processed;
      result.stats.direction_pattern += dir == Direction::kPush ? 'p' : 'P';
      result.stats.filter_pattern += filter_char;
      if (options_.keep_iteration_log) {
        result.stats.iteration_logs.push_back(IterationLog{
            iter, info.frontier_size, edges_processed, filter_char,
            dir == Direction::kPush ? 'p' : 'P', t.ms});
      }
      loop_.prev_dir = dir;
      if (result.stats.failed) {
        break;
      }
    }

    result.stats.iterations = loop_.iter;
    result.stats.converged = loop_.iter < options_.max_iterations &&
                             !result.stats.failed && !control_break_;
    result.stats.push_record_candidates = loop_.record_candidates;
    result.stats.push_records_buffered = loop_.records_buffered;
    result.stats.collect_fold_iterations = loop_.collect_fold_iterations;
    result.stats.outcome = control_break_ ? break_outcome_
                           : control.resume != nullptr ? RunOutcome::kResumed
                                                       : RunOutcome::kCompleted;
    result.stats.downgrades = loop_.downgrades;
    result.values.assign(meta.values().begin(), meta.values().end());
    DisarmControl();
    return result;
  }

  // Host wall-clock collect/replay telemetry; populated only when
  // EngineOptions::profile_push_replay is set, and valid after Run().
  const PushReplayProfile& push_profile() const { return profile_; }

 private:
  VertexMeta<Value> MakeMetadata(const Program& program) const {
    const auto n = static_cast<VertexId>(graph_.vertex_count());
    // First-touch: the metadata arrays are written through ParallelFor (same
    // values as the serial loop) so their pages fault in on pool threads.
    // Programs whose pull contributors must be visible on the very first
    // iteration seed prev differently from curr via InitPrev.
    if constexpr (requires(const Program& p, VertexId v) { p.InitPrev(v); }) {
      VertexMeta<Value> meta(
          n, [&](VertexId v) { return program.InitPrev(v); }, pool_,
          host_threads_);
      ParallelRange(n, pool_, host_threads_, 8192,
                    [&](size_t begin, size_t end) {
                      for (size_t v = begin; v < end; ++v) {
                        meta.curr(static_cast<VertexId>(v)) = program.InitValue(
                            static_cast<VertexId>(v));  // prev keeps InitPrev
                      }
                    });
      return meta;
    } else {
      return VertexMeta<Value>(
          n, [&](VertexId v) { return program.InitValue(v); }, pool_,
          host_threads_);
    }
  }

  static bool StaticFrontierAfterFirst(const Program& program) {
    if constexpr (requires(const Program& p) { p.StaticFrontierAfterFirst(); }) {
      return program.StaticFrontierAfterFirst();
    }
    return false;
  }

  // Optional hook: programs with bucketed/deferred scheduling refill the
  // frontier when it drains (delta-stepping SSSP's next bucket).
  static std::vector<VertexId> Refill(const Program& program) {
    if constexpr (requires(const Program& p) {
                    { p.RefillFrontier() } -> std::same_as<std::vector<VertexId>>;
                  }) {
      return program.RefillFrontier();
    }
    return {};
  }

  // Optional hook: programs carrying explicit activity (e.g. delta-PageRank
  // residuals) define ConsumeActivity(curr, prev, dir) returning the value
  // after the pending activity has been handed to the neighbors. Gated on
  // kHasConsume — the same probe that decides span tracking in the collect
  // pass — so the two can never drift apart.
  static void Consume(const Program& program, VertexMeta<Value>& meta, VertexId v,
                      Direction dir) {
    if constexpr (kHasConsume) {
      meta.curr(v) = program.ConsumeActivity(meta.curr(v), meta.prev(v), dir);
    }
  }

  size_t DeviceBytesNeeded(CombineKind kind) const {
    const size_t v = graph_.vertex_count();
    size_t bytes = graph_.CsrFootprintBytes();
    bytes += 2 * v * sizeof(Value);          // metadata curr + prev
    bytes += 2 * v * sizeof(VertexId);       // double-buffered worklists
    if (options_.filter == FilterPolicy::kBatch) {
      if (kind == CombineKind::kVote) {
        // Idempotent traversal (BFS class): (src, dst) pairs, one buffer.
        bytes += static_cast<size_t>(graph_.edge_count()) * 2 * sizeof(VertexId);
      } else {
        // Weighted aggregation (SSSP class) keeps weighted triples double-
        // buffered — "up to 2*|E| memory space" (Section 4), the reason
        // Gunrock's SSSP OOMs on the larger graphs of Table 4 while its BFS
        // does not.
        bytes += BatchFilterFootprintBytes(graph_);
      }
    } else {
      bytes += static_cast<size_t>(options_.sim_worker_threads) *
               options_.overflow_threshold * sizeof(VertexId);  // thread bins
    }
    return bytes;
  }

  // SIMD idle-lane cycles when 32 consecutive frontier vertices share a warp
  // without degree classification: every lane waits for the group maximum.
  uint64_t DivergencePenalty(const std::vector<VertexId>& frontier) const {
    uint64_t penalty = 0;
    for (size_t base = 0; base < frontier.size(); base += 32) {
      const size_t end = std::min(frontier.size(), base + 32);
      uint64_t max_deg = 0;
      uint64_t sum_deg = 0;
      for (size_t i = base; i < end; ++i) {
        const uint64_t d = graph_.OutDegree(frontier[i]);
        max_deg = std::max(max_deg, d);
        sum_deg += d;
      }
      // Half of the idle-lane cycles hide behind the group's memory
      // latency; the rest stall the warp's issue slots.
      penalty += (max_deg * (end - base) - sum_deg) / 2;
    }
    return penalty;
  }

  // Records v into the online bins when it acquired unconsumed activity this
  // iteration (at most once per iteration — the thread that performed the
  // activating update owns the record).
  void MaybeRecord(const Program& program, const VertexMeta<Value>& meta,
                   VertexId v, uint32_t worker, JitController& jit,
                   CostCounters& cost) {
    if (recorded_stamp_[v] == stamp_) {
      return;
    }
    if (program.Active(meta.curr(v), meta.prev(v))) {
      recorded_stamp_[v] = stamp_;
      jit.RecordActivation(worker, v, cost);
    }
  }

  // --- push: deterministic collect-then-replay over per-chunk update
  // buffers (push_buffer.h) ---
  //
  // The sequential push loop both READS source values and WRITES destination
  // values of the same curr array, so it cannot split across host threads in
  // place. Instead the phase runs in two passes:
  //
  //   COLLECT (parallel): each chunk of each Thread/Warp/CTA list walks its
  //   contiguous slice, runs Compute against the phase-start metadata —
  //   nothing writes curr during collection, so curr(v) IS the snapshot —
  //   charges the traversal costs to its chunk-private counters, and buffers
  //   one (dst, worker, candidate) record per out-edge (bucketed under the
  //   destination's replay range when the iteration drains over several
  //   ranges).
  //
  //   REPLAY: one drain (ReplayPush / DrainRange). The destination-vertex
  //   space is split into disjoint ranges, balanced by in-degree mass
  //   (BalancedRangeBoundaries over the in-CSR offsets, so ranges balance by
  //   incoming records). An iteration drains over replay_ranges_ ranges
  //   (one per host thread) when its out-edge sum reaches
  //   parallel_replay_min_records, and otherwise as ONE range — every
  //   record and source of the unbucketed buffers — inline on the calling
  //   thread. Each range walks the buffers in ascending chunk order (= list
  //   order, independent of grain and thread count) over the records whose
  //   dst it owns, and the run-constant pre_combine_ picks what it does
  //   with them:
  //
  //     * PER RECORD (StatsContract::kPerRecord): the statement sequence of
  //       a sequential walk — Apply, the curr write, the atomic-contention
  //       stamp, the activation decision — per record, with ConsumeActivity
  //       for the sources the range owns at their serial span positions.
  //
  //     * PRE-COMBINED (StatsContract::kPerDestination; the program declares
  //       CombineCapability::kAssociativeOnly and
  //       EngineOptions::pre_combine_replay is set): FOLD each destination's
  //       candidates with Combine in record order, APPLY once per touched
  //       destination in first-touch order (one Apply, one touch-stamp /
  //       atomic charge and at most one write + activation, sequenced at the
  //       destination's first-record position), then CONSUME the owned
  //       sources. Per vertex the order is always fold-apply-consume, which
  //       hands every same-phase arrival to the consume: residual programs
  //       conserve activity as under the per-record interleaving, with
  //       different FP rounding. The pull path needs none of this: a gather
  //       already combines all contributors before its single Apply.
  //
  //   Everything a record touches — curr(dst), the touch/record/fold
  //   stamps, the activation and park decisions — is keyed by one vertex
  //   that exactly one range owns, so the per-vertex statement order is the
  //   one-range order whatever the range count. The order-sensitive side
  //   channels leave the ranges through per-range scratch: CostCounters
  //   merge in range order (integer sums), while online-filter records and
  //   deferred Apply effects (ApplyEffect; SSSP's bucket parks) carry their
  //   (chunk, record) position and are merged back into the global record
  //   order before touching the shared bins / program state. Every
  //   simulated stat, touch stamp and output value is therefore
  //   bit-identical for any host_threads, under either contract (the two
  //   map to each other as documented in bench/README.md).
  //
  //   COLLECT-SIDE PRE-COMBINING (EngineOptions::pre_combine_collect, on
  //   top of the pre-combined drain): iterations whose cost-model reuse
  //   estimate clears pre_combine_collect_min_fold fold same-chunk
  //   same-destination candidates AT COLLECT TIME through per-thread
  //   epoch-stamped dst→slot tables, buffering one record per (chunk,
  //   destination) with a fold count instead of one per out-edge — the
  //   record stream (and the bytes collect→bucket→replay moves) shrinks at
  //   the source. Simulated stats are untouched (all collect charges are
  //   per edge); the drain-side fold consumes the shorter stream and
  //   produces the identical fold_records/fold_applies split, touch sets,
  //   apply counts and activation order, because a chunk's folded record is
  //   the chunk-contiguous prefix-fold of exactly the candidates the
  //   fold-free stream would have drained there. Folding iterations pin the
  //   thread-count-stable chunk plan (PlanChunksStable) since FP Combines
  //   see the chunk grouping bit-for-bit.
  //
  // Semantics: push iterations are BSP (Jacobi-style), like pull and like
  // the real double-buffered kernels — a candidate computed this phase never
  // observes a value written this phase; same-phase arrivals land in curr
  // and re-activate their destination for the NEXT iteration. Residual-
  // carrying programs consume exactly the snapshot amount they distributed
  // (see PageRankProgram::ConsumeActivity), so no activity is lost.

  // Program capabilities the replay specializes on.
  static constexpr bool kHasConsume =
      requires(const Program& p, const Value& val) {
        { p.ConsumeActivity(val, val, Direction::kPush) } -> std::same_as<Value>;
      };
  static constexpr bool kHasDeferredApply =
      requires(const Program& p, VertexId v, const Value& val,
               std::vector<ApplyEffect>& out) {
        { p.ApplyCollect(v, val, val, Direction::kPush, out) }
            -> std::same_as<Value>;
        p.ReplayApplyEffect(ApplyEffect{});
      };
  // Fail closed: a program that ships ApplyCollect (declaring "my Apply has
  // side effects that need deferral") but whose hook pair doesn't satisfy
  // kHasDeferredApply — missing/misdeclared ReplayApplyEffect, wrong
  // signature — must not silently fall back to running its side-effecting
  // Apply from concurrent range workers.
  static_assert(!requires(const Program& p) { &Program::ApplyCollect; } ||
                    kHasDeferredApply,
                "Program defines ApplyCollect but the deferred-apply hook "
                "pair is malformed (see acc.h: ApplyCollect must return "
                "Value and ReplayApplyEffect(const ApplyEffect&) must be "
                "callable on a const Program)");

  // One destination first touched by the pre-combined fold pass: where its
  // first record sits in the global serial order (the position its single
  // Apply — and any activation it produces — is sequenced at), and the
  // simulated worker lane of that first record (owner of the filter bin the
  // activation lands in, mirroring the per-record drain's convention).
  struct FoldTouch {
    uint64_t pos;
    VertexId dst;
    uint32_t worker;
  };

  // Per-range scratch of the push drain, reused across iterations. Holds the
  // range's counters, apply count and clocks plus its position-tagged
  // deferred streams; `effect_pos[i]` is the position of `effects[i]` (kept
  // parallel rather than wrapped so the no-effect programs pay nothing).
  // `touched` is the pre-combined drain's first-touch list. One range worker
  // writes each slot, so slots are cache-line isolated (core/parallel.h).
  struct alignas(kCacheLineBytes) ReplayScratch {
    CostCounters cost;
    std::vector<DeferredActivation> activations;
    std::vector<ApplyEffect> effects;
    std::vector<uint64_t> effect_pos;
    std::vector<FoldTouch> touched;
    uint64_t applies = 0;
    double wall_ms = 0.0;
    double fold_ms = 0.0;  // pre-combined: the FOLD share of wall_ms
  };
  static_assert(alignof(ReplayScratch) >= kCacheLineBytes);

  // Per-host-thread scratch for the collect-side fold: dst → slot of the
  // destination's first record in the CURRENT chunk's buffer. Epoch-stamped
  // so arming a new chunk is O(1) — a thread runs one chunk at a time, so
  // entries from its previous chunks are simply stale by stamp mismatch.
  // Sized to the vertex count once per run and reused across chunks and
  // iterations: zero steady-state allocation. The table's content never
  // leaves the chunk it was filled for, so per-THREAD reuse is invisible to
  // the (per-chunk-deterministic) record stream. Line-isolated: the running
  // thread bumps `epoch` once per chunk.
  struct alignas(kCacheLineBytes) CollectFoldTable {
    NumaVector<uint32_t> stamp;
    NumaVector<uint32_t> slot;
    uint32_t epoch = 0;
    void NextChunk() {
      if (++epoch == 0) {  // wrapped: old stamps could alias the new epoch
        std::fill(stamp.begin(), stamp.end(), 0u);
        epoch = 1;
      }
    }
  };
  static_assert(alignof(CollectFoldTable) >= kCacheLineBytes);

  // Loop-carried state of one Run: what an iteration boundary hands to the
  // next iteration besides the metadata, the frontier, the jit/fusion
  // histories and RunStats. All of it except `iter` (the checkpoint header
  // carries that) is the engine's part of the kEngineLoop checkpoint section.
  struct LoopState {
    uint32_t iter = 0;
    Direction prev_dir = Direction::kPush;
    bool frontier_sorted = true;  // the initial frontier comes in id order
    // Producer of the CURRENT iteration's frontier (Figure 8 logs the filter
    // per executed iteration).
    char pending_filter = 'O';
    bool charge_init_scan = false;
    uint64_t refill_words = 0;
    // Record-stream telemetry accumulated across the push iterations
    // (copied into RunStats at the end of Run).
    uint64_t record_candidates = 0;
    uint64_t records_buffered = 0;
    uint32_t collect_fold_iterations = 0;
    // Degradation-ladder latches, so a resumed run stays on the rung the
    // interrupted one reached.
    bool shed_fold = false;
    bool serial_drain = false;
    std::vector<DowngradeEvent> downgrades;
  };

  static double NowMs() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // --- control plane: cancellation, deadlines, fault hooks, checkpointing,
  // graceful degradation (control.h / checkpoint.h / fault.h) ---

  // Optional saturation hook for pull gathers (see PullRange): a program
  // whose Combine is monotone-idempotent can certify mid-gather that the
  // accumulated value already determines Apply's output, letting the scan
  // stop early — the aggregation-kind sibling of the kVote early exit.
  static constexpr bool kHasPullSaturated =
      requires(const Program& p, typename Program::Value v) {
        { p.PullSaturated(v, v) } -> std::same_as<bool>;
      };

  // Programs with scheduler state beyond the frontier (delta-stepping SSSP's
  // pending buckets) opt into checkpointing it via this hook pair.
  static constexpr bool kHasProgramState =
      requires(const Program& p, std::vector<uint8_t>& out, const uint8_t* d,
               size_t n) {
        p.SaveSchedulerState(out);
        { p.RestoreSchedulerState(d, n) } -> std::same_as<bool>;
      };

  void DisarmControl() {
    control_ = nullptr;
    cancel_ = nullptr;
    faults_ = nullptr;
    watch_cancel_ = false;
  }

  // Latches the first cancellation/deadline observation into control_break_.
  // Only called from the Run thread (iteration boundaries and the
  // single-range push drain) — never from pool workers, so no races.
  bool CancelOrDeadline() {
    if (control_break_) {
      return true;
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      control_break_ = true;
      break_outcome_ = RunOutcome::kCancelled;
      return true;
    }
    if (deadline_ms_ > 0.0 && NowMs() > deadline_ms_) {
      control_break_ = true;
      break_outcome_ = RunOutcome::kDeadlineExceeded;
      return true;
    }
    return false;
  }

  // Stage-boundary hook compiled into collect/replay/apply/frontier: breaks
  // on a pending control_break_, an armed stage fault, or cancellation.
  // Fully disarmed this is two predictable branches — the hooks-overhead
  // gate bench/fault_sweep measures.
  bool StageBreak(FaultPoint point) {
    if (control_break_) {
      return true;
    }
    if (faults_ != nullptr && faults_->ShouldFail(point, stamp_ - 1)) {
      control_break_ = true;
      break_outcome_ = RunOutcome::kFaulted;
      return true;
    }
    return watch_cancel_ && CancelOrDeadline();
  }

  // Graceful-degradation ladder under host memory pressure: shed the
  // collect-fold tables first (the largest optional allocation), then fall
  // back to the single-range drain (drops the bucket lanes and per-range
  // scratch growth). Each rung is latched and recorded as a DowngradeEvent
  // instead of aborting, and every rung is stats-invariant — simulated
  // statistics are identical on any rung, so the fingerprint oracle holds
  // under pressure (pinned by tests/core/control_test).
  void Degrade(uint32_t iteration, const char* trigger) {
    if (!loop_.shed_fold) {
      loop_.shed_fold = true;
      collect_fold_armed_ = false;
      fold_tables_.clear();
      fold_tables_.shrink_to_fit();
      loop_.downgrades.push_back(DowngradeEvent{
          iteration, std::string("shed-collect-fold:") + trigger});
      return;
    }
    if (!loop_.serial_drain) {
      loop_.serial_drain = true;
      push_buffers_.clear();
      push_buffers_.shrink_to_fit();
      loop_.downgrades.push_back(
          DowngradeEvent{iteration, std::string("serial-drain:") + trigger});
    }
  }

  // Runs at the top of every iteration, before any stage: cancellation,
  // alloc-pressure faults, checkpoint cadence, iteration-start faults.
  // Returns true when the loop must break (break_outcome_ says why).
  bool IterationControl(const Program& program, const VertexMeta<Value>& meta,
                        const std::vector<VertexId>& frontier,
                        const JitController& jit,
                        const FusionAccountant& fusion, RunStats& stats) {
    const uint32_t iter = loop_.iter;
    if (!watch_cancel_ && faults_ == nullptr &&
        control_->checkpoint_every == 0) {
      return false;  // fully disarmed: the zero-cost path
    }
    if (CancelOrDeadline()) {
      return true;
    }
    if (faults_ != nullptr &&
        faults_->ShouldFail(FaultPoint::kAllocPressure, iter)) {
      // Simulated allocation failure: step the ladder, keep running.
      Degrade(iter, "fault");
    }
    if (control_->checkpoint_every != 0 && control_->on_checkpoint &&
        iter % control_->checkpoint_every == 0) {
      if (!WriteCheckpoint(program, meta, frontier, jit, fusion, stats)) {
        // WriteCheckpoint set break_outcome_: kFaulted for an injected write
        // fault, kCheckpointSinkFailed when the caller's sink refused the
        // bytes.
        control_break_ = true;
        return true;
      }
    }
    if (faults_ != nullptr &&
        faults_->ShouldFail(FaultPoint::kIterationStart, iter)) {
      control_break_ = true;
      break_outcome_ = RunOutcome::kFaulted;
      return true;
    }
    return false;
  }

  // Builds, seals and hands out a checkpoint of the iteration-boundary
  // state. Returns false — with break_outcome_ set — when an armed
  // checkpoint-write fault fails the write (→ kFaulted) or the caller-owned
  // sink reports a persistence failure (→ kCheckpointSinkFailed); a
  // corruption-armed fault instead poisons the bytes silently — the
  // simulated torn write Validate() later catches.
  bool WriteCheckpoint(const Program& program, const VertexMeta<Value>& meta,
                       const std::vector<VertexId>& frontier,
                       const JitController& jit,
                       const FusionAccountant& fusion, RunStats& stats) {
    const uint32_t iter = loop_.iter;
    static_assert(std::is_trivially_copyable_v<Value>,
                  "checkpointing snapshots raw value bytes");
    Checkpoint cp;
    cp.header.options_digest = SemanticOptionsDigest(options_);
    cp.header.graph_vertices = graph_.vertex_count();
    cp.header.graph_edges = graph_.edge_count();
    cp.header.value_size = sizeof(Value);
    cp.header.iteration = iter;
    cp.header.contract = static_cast<uint8_t>(stats.contract);
    {
      ByteWriter w(&cp.AddSection(CheckpointSectionId::kEngineLoop));
      w.Pod(static_cast<uint8_t>(loop_.prev_dir));
      w.Pod(static_cast<uint8_t>(loop_.frontier_sorted));
      w.Pod(loop_.pending_filter);
      w.Pod(static_cast<uint8_t>(loop_.charge_init_scan));
      w.Pod(loop_.refill_words);
      w.Pod(loop_.record_candidates);
      w.Pod(loop_.records_buffered);
      w.Pod(loop_.collect_fold_iterations);
      w.Pod(static_cast<uint8_t>(loop_.shed_fold));
      w.Pod(static_cast<uint8_t>(loop_.serial_drain));
      w.Pod(static_cast<uint64_t>(loop_.downgrades.size()));
      for (const DowngradeEvent& d : loop_.downgrades) {
        w.Pod(d.iteration);
        w.Str(d.action);
      }
      w.Pod(static_cast<uint8_t>(jit.failed()));
      w.Pod(jit.ballot_iterations());
      w.Pod(jit.online_iterations());
      w.Str(jit.pattern());
      w.Pod(static_cast<uint8_t>(fusion.launched_any()));
      w.Pod(static_cast<uint8_t>(fusion.last_direction()));
      w.Pod(fusion.total_launches());
      w.Pod(fusion.total_barriers());
    }
    {
      ByteWriter w(&cp.AddSection(CheckpointSectionId::kValuesCurr));
      w.Pod(static_cast<uint64_t>(meta.size()));
      w.Bytes(meta.values().data(), meta.size() * sizeof(Value));
    }
    {
      ByteWriter w(&cp.AddSection(CheckpointSectionId::kValuesPrev));
      w.Pod(static_cast<uint64_t>(meta.size()));
      w.Bytes(meta.prev_values().data(), meta.size() * sizeof(Value));
    }
    {
      ByteWriter w(&cp.AddSection(CheckpointSectionId::kFrontier));
      w.Pod(static_cast<uint64_t>(frontier.size()));
      w.Bytes(frontier.data(), frontier.size() * sizeof(VertexId));
    }
    {
      ByteWriter w(&cp.AddSection(CheckpointSectionId::kStats));
      SerializeRunStats(stats, w);
    }
    if constexpr (kHasProgramState) {
      program.SaveSchedulerState(
          cp.AddSection(CheckpointSectionId::kProgramState));
    }
    cp.Seal();
    if (faults_ != nullptr) {
      if (faults_->ShouldFail(FaultPoint::kCheckpointWrite, iter)) {
        break_outcome_ = RunOutcome::kFaulted;
        return false;
      }
      if (const ArmedFault* corrupt = faults_->TakeCorruption(iter)) {
        CorruptCheckpointSection(
            &cp, static_cast<uint32_t>(corrupt->corrupt_section),
            corrupt->seed);
      }
    }
    if (!control_->on_checkpoint(cp)) {
      // The sink could not persist the snapshot. The failed write is not
      // counted: checkpoints_written is the number of snapshots the caller
      // actually holds.
      break_outcome_ = RunOutcome::kCheckpointSinkFailed;
      return false;
    }
    stats.checkpoints_written += 1;
    return true;
  }

  // Restores a checkpoint into the freshly armed run state. Treats the
  // snapshot as untrusted: CRC validation, header cross-checks and
  // bounds-checked parses; any mismatch returns false (→ kFaulted), never
  // UB — the CI ASan+UBSan job drives malformed bytes through this path.
  bool RestoreCheckpoint(const Checkpoint& cp, const Program& program,
                         VertexMeta<Value>& meta,
                         std::vector<VertexId>& frontier, JitController& jit,
                         FusionAccountant& fusion, RunStats& stats) {
    if (!cp.Validate(nullptr)) {
      return false;
    }
    const auto n = static_cast<uint64_t>(graph_.vertex_count());
    if (cp.header.options_digest != SemanticOptionsDigest(options_) ||
        cp.header.graph_vertices != n ||
        cp.header.graph_edges != graph_.edge_count() ||
        cp.header.value_size != sizeof(Value) ||
        cp.header.contract != static_cast<uint8_t>(stats.contract)) {
      return false;
    }
    const CheckpointSection* loop = cp.Find(CheckpointSectionId::kEngineLoop);
    const CheckpointSection* curr = cp.Find(CheckpointSectionId::kValuesCurr);
    const CheckpointSection* prev = cp.Find(CheckpointSectionId::kValuesPrev);
    const CheckpointSection* front = cp.Find(CheckpointSectionId::kFrontier);
    const CheckpointSection* stat = cp.Find(CheckpointSectionId::kStats);
    if (loop == nullptr || curr == nullptr || prev == nullptr ||
        front == nullptr || stat == nullptr) {
      return false;
    }
    {
      ByteReader r(loop->bytes);
      uint8_t dir8 = 0, sorted8 = 0, init8 = 0, shed8 = 0, serial8 = 0;
      r.Pod(&dir8);
      r.Pod(&sorted8);
      r.Pod(&loop_.pending_filter);
      r.Pod(&init8);
      r.Pod(&loop_.refill_words);
      r.Pod(&loop_.record_candidates);
      r.Pod(&loop_.records_buffered);
      r.Pod(&loop_.collect_fold_iterations);
      r.Pod(&shed8);
      r.Pod(&serial8);
      uint64_t downgrade_count = 0;
      if (!r.Pod(&downgrade_count) || downgrade_count > loop->bytes.size()) {
        return false;
      }
      loop_.downgrades.clear();
      for (uint64_t i = 0; i < downgrade_count; ++i) {
        DowngradeEvent d;
        if (!r.Pod(&d.iteration) || !r.Str(&d.action)) {
          return false;
        }
        loop_.downgrades.push_back(std::move(d));
      }
      uint8_t jit_failed = 0;
      uint32_t ballot = 0, online = 0;
      std::string pattern;
      r.Pod(&jit_failed);
      r.Pod(&ballot);
      r.Pod(&online);
      r.Str(&pattern);
      uint8_t launched8 = 0, last_dir8 = 0;
      uint64_t launches = 0, barriers = 0;
      r.Pod(&launched8);
      r.Pod(&last_dir8);
      r.Pod(&launches);
      if (!r.Pod(&barriers) || !r.AtEnd() || dir8 > 1 || last_dir8 > 1) {
        return false;
      }
      loop_.prev_dir = static_cast<Direction>(dir8);
      loop_.frontier_sorted = sorted8 != 0;
      loop_.charge_init_scan = init8 != 0;
      loop_.shed_fold = shed8 != 0;
      loop_.serial_drain = serial8 != 0;
      if (loop_.shed_fold) {
        // Re-apply the recorded downgrade so the resumed trajectory matches
        // the interrupted one from the restore point onward.
        collect_fold_armed_ = false;
        fold_tables_.clear();
        fold_tables_.shrink_to_fit();
      }
      jit.RestoreHistory(std::move(pattern), ballot, online, jit_failed != 0);
      fusion.RestoreHistory(launched8 != 0, static_cast<Direction>(last_dir8),
                            launches, barriers);
    }
    {
      ByteReader rc(curr->bytes);
      uint64_t curr_count = 0;
      if (!rc.Pod(&curr_count) || curr_count != n) {
        return false;
      }
      const uint8_t* curr_bytes =
          rc.Raw(static_cast<size_t>(curr_count) * sizeof(Value));
      ByteReader rp(prev->bytes);
      uint64_t prev_count = 0;
      if (curr_bytes == nullptr || !rp.Pod(&prev_count) || prev_count != n) {
        return false;
      }
      const uint8_t* prev_bytes =
          rp.Raw(static_cast<size_t>(prev_count) * sizeof(Value));
      if (prev_bytes == nullptr) {
        return false;
      }
      meta.RestoreSnapshot(curr_bytes, prev_bytes);
    }
    {
      ByteReader r(front->bytes);
      if (!r.Vec(&frontier) || !r.AtEnd()) {
        return false;
      }
      for (const VertexId v : frontier) {
        if (static_cast<uint64_t>(v) >= n) {
          return false;
        }
      }
    }
    {
      ByteReader r(stat->bytes);
      if (!DeserializeRunStats(r, &stats) || !r.AtEnd()) {
        return false;
      }
    }
    if constexpr (kHasProgramState) {
      const CheckpointSection* ps =
          cp.Find(CheckpointSectionId::kProgramState);
      if (ps == nullptr ||
          !program.RestoreSchedulerState(ps->bytes.data(), ps->bytes.size())) {
        return false;
      }
    }
    loop_.iter = cp.header.iteration;
    return true;
  }

  uint64_t ProcessPush(const Program& program, VertexMeta<Value>& meta,
                       std::span<const WorkListView> views, bool frontier_sorted,
                       uint64_t frontier_out_edges, JitController& jit,
                       CostCounters& cost) {
    if (StageBreak(FaultPoint::kCollect)) {
      return 0;
    }
    // Decide the drain up front: the frontier's out-edge sum (already
    // computed by classification) is exactly the record count a fold-free
    // collect will buffer, so iterations below the threshold skip the
    // bucketing bookkeeping (owner lookups, index appends, span events)
    // entirely and drain as one range.
    collect_bucketed_ =
        replay_ranges_ > 1 && !loop_.serial_drain &&
        frontier_out_edges >= options_.parallel_replay_min_records;
    // Collect-side fold, decided per iteration from simulated statistics
    // only (thread-count independent): skip the fold-table walk when the
    // cost model predicts destinations barely repeat.
    collect_fold_ =
        collect_fold_armed_ &&
        EstimateRecordsPerDestination(frontier_out_edges, in_destinations_) >=
            options_.pre_combine_collect_min_fold;
    // The whole replay scheme addresses records WITHIN one buffer by uint32
    // (Pos packs buffer<<32|index, span counters and bucket entries are
    // uint32), and a single-chunk collect puts the entire frontier in one
    // buffer. 2^32 records is ~50 GB of host buffer — far past the
    // simulator's design regime — so refuse loudly instead of wrapping
    // silently into corrupt replays.
    if (frontier_out_edges >> 32 != 0) {
      std::fprintf(stderr,
                   "simdx: push iteration with %llu out-edge records exceeds "
                   "the 2^32 per-buffer record bound\n",
                   static_cast<unsigned long long>(frontier_out_edges));
      std::abort();
    }
    const bool profile = options_.profile_push_replay;
    const double t_collect = profile ? NowMs() : 0.0;
    uint32_t num_buffers = 0;
    for (const WorkListView& view : views) {
      num_buffers += CollectPush(program, meta, view, frontier_sorted, num_buffers);
    }
    if (StageBreak(FaultPoint::kReplay)) {
      return 0;
    }
    const double t_replay = profile ? NowMs() : 0.0;
    const ReplayOutcome outcome =
        ReplayPush(program, meta, num_buffers, jit, cost);
    // Host-side memory pressure: the record stream outgrew the budget —
    // step down the degradation ladder instead of aborting (the next
    // iterations collect leaner; this one already ran to completion, so
    // simulated stats are untouched).
    if (options_.host_memory_budget_bytes != 0 &&
        outcome.buffer_bytes > options_.host_memory_budget_bytes) {
      Degrade(stamp_ - 1, "budget");
    }
    if (StageBreak(FaultPoint::kApply)) {
      return outcome.edges;
    }
    loop_.record_candidates += outcome.edges;
    loop_.records_buffered += outcome.buffered;
    loop_.collect_fold_iterations += collect_fold_ ? 1 : 0;
    if (profile) {
      const double t_done = NowMs();
      profile_.collect_ms += t_replay - t_collect;
      profile_.replay_ms += t_done - t_replay;
      (outcome.partitioned ? profile_.partitioned_replays
                           : profile_.serial_replays) += 1;
      if (pre_combine_) {
        profile_.precombined_replays += 1;
        profile_.fold_records += outcome.edges;
        profile_.fold_applies += outcome.applies;
      }
      profile_.collect_fold_replays += collect_fold_ ? 1 : 0;
      profile_.peak_buffer_bytes =
          std::max(profile_.peak_buffer_bytes, outcome.buffer_bytes);
      profile_.iterations.push_back(PushReplayIterationSplit{
          stamp_ - 1, outcome.edges, outcome.buffered, outcome.applies,
          t_replay - t_collect, t_done - t_replay, outcome.partitioned,
          pre_combine_, collect_fold_});
    }
    return outcome.edges;
  }

  // Collect phase for one list: chunk it, fill push_buffers_[base ..
  // base+chunks). Grain floors shrink with kernel class — a CTA-class vertex
  // carries at least medium_degree_limit edges, so far fewer of them make a
  // worthwhile chunk. Without the collect-side fold, chunk boundaries never
  // affect results (the replay drains in list order regardless), so the
  // serial path may legally use a single chunk. WITH it they are observable
  // (the fold groups records by chunk, and FP Combines see the grouping), so
  // a folding collect pins the thread-count-stable plan and every thread
  // count — including the inline serial path — runs the same decomposition.
  uint32_t CollectPush(const Program& program, const VertexMeta<Value>& meta,
                       const WorkListView& view, bool frontier_sorted,
                       uint32_t base) {
    if (view.empty()) {
      return 0;
    }
    size_t min_grain = 256;
    if (view.klass == KernelClass::kWarp) {
      min_grain = 32;
    } else if (view.klass == KernelClass::kCta) {
      min_grain = 4;
    }
    const ChunkPlan plan =
        collect_fold_
            ? PlanChunksStable(view.size, min_grain)
            : PlanChunks(view.size, host_threads_, min_grain,
                         /*serial_below=*/512, pool_ != nullptr);
    if (push_buffers_.size() < base + plan.chunks) {
      push_buffers_.resize(base + plan.chunks);
    }
    // Partitioned-replay runs bucket every record under its destination's
    // range at collect time (one extra owner lookup per edge) so each replay
    // worker later walks only its own records. Chunk buffers are filled —
    // and their bucket pages first-touched — by whichever pool thread runs
    // the chunk.
    const bool bucketed = collect_bucketed_;
    const auto run_chunk = [&](uint32_t chunk, size_t begin, size_t end,
                               uint32_t thread_index) {
      PushBuffer<Value>& buf = push_buffers_[base + chunk];
      buf.BeginCollect(bucketed ? replay_ranges_ : 0,
                       /*track_spans=*/bucketed && kHasConsume,
                       /*store_workers=*/workers_observed_,
                       /*store_fold_counts=*/collect_fold_);
      CollectPushRange(program, meta, view, frontier_sorted, begin, end, buf,
                       collect_fold_ ? &fold_tables_[thread_index] : nullptr);
    };
    if (plan.chunks == 1) {
      run_chunk(0, 0, view.size, 0);
    } else if (pool_ == nullptr || host_threads_ <= 1) {
      // Stable plans reach here at host_threads == 1: run the identical
      // decomposition inline, chunk by chunk in order (same boundaries as
      // ParallelFor would produce — begin + i*grain).
      for (uint32_t i = 0; i < plan.chunks; ++i) {
        const size_t begin = static_cast<size_t>(i) * plan.grain;
        run_chunk(i, begin, std::min(view.size, begin + plan.grain), 0);
      }
    } else {
      pool_->ParallelFor(0, view.size, plan.grain, host_threads_,
                         [&](const ParallelChunk& c) {
                           run_chunk(c.chunk_index, c.begin, c.end,
                                     c.thread_index);
                         });
    }
    return plan.chunks;
  }

  // One chunk's collect. `fold` (non-null iff the collect-side fold is armed
  // this iteration) is the running thread's dst→slot table, armed for this
  // chunk by NextChunk: a repeated destination folds its candidate into its
  // first record of THIS chunk instead of appending. Every simulated charge
  // below is per EDGE and unconditional, so folding changes no statistic —
  // only the record stream shrinks. The charges are pure sums, kept in
  // locals (per-edge charges as per-source multiples of the degree) and
  // written to the buffer once at the end of the chunk.
  void CollectPushRange(const Program& program, const VertexMeta<Value>& meta,
                        const WorkListView& view, bool frontier_sorted,
                        size_t begin, size_t end, PushBuffer<Value>& buf,
                        CollectFoldTable* fold) const {
    const uint32_t workers = options_.sim_worker_threads;
    const bool bucketed = collect_bucketed_;
    // Batch filter: every edge also transits the expanded active-edge list
    // (3 words written at expansion, 3 read back at apply).
    const uint64_t batch_words =
        options_.filter == FilterPolicy::kBatch ? 6 : 0;
    if (fold != nullptr) {
      fold->NextChunk();
    }
    CostCounters cost;
    uint64_t edges = 0;
    for (size_t idx = begin; idx < end; ++idx) {
      const VertexId v = view[idx];
      const auto nbrs = graph_.out().Neighbors(v);
      const auto wts = graph_.out().NeighborWeights(v);
      const uint32_t degree = static_cast<uint32_t>(nbrs.size());

      // Row-offset + own-metadata reads: coalesced when the frontier is
      // sorted (ballot-filter output), scattered otherwise — the memory
      // benefit Section 4 attributes to the ballot filter.
      if (frontier_sorted) {
        cost.coalesced_words += 3;
      } else {
        cost.scattered_words += 3;
      }
      // Adjacency ids + weights. The Warp/CTA kernels read them coalesced,
      // rounded up to full 32-lane transactions; the Thread kernel's lanes
      // walk unrelated adjacency runs (partial coalescing).
      if (view.klass == KernelClass::kThread) {
        cost.coalesced_words += 2ull * degree;
        cost.scattered_words += degree / 4;
      } else {
        const uint32_t rounded = (degree + 31) / 32 * 32;
        cost.coalesced_words += 2ull * rounded;
      }
      // Per edge: load the destination's metadata, Compute + Combine lane
      // work, and the batch filter's edge-list traffic.
      cost.scattered_words += degree;
      cost.alu_ops += 2ull * degree;
      cost.coalesced_words += batch_words * degree;

      buf.BeginSource(v, bucketed ? range_of_vertex_[v] : 0);
      for (uint32_t i = 0; i < degree; ++i) {
        const VertexId dst = nbrs[i];
        const Value cand =
            program.Compute(v, dst, wts[i], meta.curr(v), Direction::kPush);
        if (fold != nullptr && fold->stamp[dst] == fold->epoch) {
          // Same chunk, same destination: continue its left-fold in place.
          // The record keeps its first candidate's worker lane — exactly the
          // worker the drain-side fold's first touch would have kept.
          buf.FoldInto(fold->slot[dst], cand, program);
        } else {
          const uint32_t slot =
              buf.Append(dst, WorkerFor(idx, i, view.klass, workers), cand,
                         bucketed ? range_of_vertex_[dst] : 0);
          if (fold != nullptr) {
            fold->stamp[dst] = fold->epoch;
            fold->slot[dst] = slot;
          }
        }
      }
      edges += degree;
    }
    buf.FinishCollect();
    buf.cost += cost;
    buf.edges += edges;
  }

  struct ReplayOutcome {
    uint64_t edges = 0;     // out-edge candidates walked at collect
    uint64_t buffered = 0;  // records written (< edges iff collect folded)
    uint64_t applies = 0;   // == buffered per record; touched dsts when folded
    size_t buffer_bytes = 0;  // record-stream footprint of this iteration
    bool partitioned = false;  // drained over replay_ranges_ > 1 ranges
  };

  // The push drain. Merges the collect-side counters in chunk order, then
  // runs DrainRange once per destination range: over replay_ranges_
  // owner-computes workers when the collect bucketed, else as one range
  // inline on the calling thread. The per-range side channels then merge
  // back in range order (counters, applies, clocks) and in global record
  // order (filter records into the shared bins, Apply effects into the
  // program — the overflow latching, charge order and SSSP pending-list
  // order of one sequential walk).
  ReplayOutcome ReplayPush(const Program& program, VertexMeta<Value>& meta,
                           uint32_t num_buffers, JitController& jit,
                           CostCounters& cost) {
    ReplayOutcome out;
    for (uint32_t b = 0; b < num_buffers; ++b) {
      cost += push_buffers_[b].cost;
      out.edges += push_buffers_[b].edges;
      out.buffered += push_buffers_[b].size();
      out.buffer_bytes += push_buffers_[b].FootprintBytes();
    }
    const uint32_t ranges = collect_bucketed_ ? replay_ranges_ : 1;
    out.partitioned = ranges > 1;
    const bool profile = options_.profile_push_replay;
    PartitionedDrain(
        pool_, host_threads_, ranges,
        [&](uint32_t p) {
          DrainRange(program, meta, num_buffers, p,
                     /*on_run_thread=*/ranges == 1, replay_scratch_[p]);
        },
        [&](uint32_t p) {
          const ReplayScratch& s = replay_scratch_[p];
          cost += s.cost;
          out.applies += s.applies;
          if (profile) {
            profile_.range_ms[p] += s.wall_ms;
            if (pre_combine_) {
              profile_.fold_ms += s.fold_ms;
              profile_.apply_ms += s.wall_ms - s.fold_ms;
            }
          }
        });
    MergeByPosition(
        ranges,
        [&](uint32_t p) { return replay_scratch_[p].activations.size(); },
        [&](uint32_t p, size_t h) { return replay_scratch_[p].activations[h].pos; },
        [&](uint32_t p, size_t h) {
          jit.ReplayActivation(replay_scratch_[p].activations[h], cost);
        });
    if constexpr (kHasDeferredApply) {
      MergeByPosition(
          ranges,
          [&](uint32_t p) { return replay_scratch_[p].effect_pos.size(); },
          [&](uint32_t p, size_t h) { return replay_scratch_[p].effect_pos[h]; },
          [&](uint32_t p, size_t h) {
            program.ReplayApplyEffect(replay_scratch_[p].effects[h]);
          });
    }
    return out;
  }

  // One range's drain (see the phase comment above ProcessPush). Walks every
  // buffer in ascending chunk order over the records range `p` owns — all of
  // them for an unbucketed buffer — and either
  //   * replays each record (per record), with the owned sources'
  //     ConsumeActivity interleaved at their serial span positions, or
  //   * folds each record into its destination's accumulator (pre-combined),
  //     then applies once per touched destination in first-touch order, then
  //     consumes the owned sources in span order.
  // Only the drain on the Run thread polls cancellation (every 32 buffers):
  // pool workers must not touch control_break_.
  void DrainRange(const Program& program, VertexMeta<Value>& meta,
                  uint32_t num_buffers, uint32_t p, bool on_run_thread,
                  ReplayScratch& s) {
    s.cost = CostCounters{};
    s.activations.clear();
    s.effects.clear();
    s.effect_pos.clear();
    s.touched.clear();
    s.applies = 0;
    s.wall_ms = 0.0;
    s.fold_ms = 0.0;
    const bool profile = options_.profile_push_replay;
    const double t0 = profile ? NowMs() : 0.0;
    const auto consume = [&](VertexId src) {
      Consume(program, meta, src, Direction::kPush);
    };
    // Counted in a local: a per-record store to `s` measurably slows the
    // replay loop.
    uint64_t replayed = 0;
    for (uint32_t b = 0; b < num_buffers; ++b) {
      if (on_run_thread && watch_cancel_ && (b & 31u) == 0 &&
          CancelOrDeadline()) {
        return;  // the run breaks at the next stage boundary
      }
      const PushBuffer<Value>& buf = push_buffers_[b];
      if (pre_combine_) {
        buf.ForEachOwned(
            p,
            [&](uint32_t idx) {
              FoldRecord(program, buf.dst(idx), buf.worker(idx), buf.cand(idx),
                         Pos(b, idx), s.touched);
            },
            [](VertexId) {});
      } else {
        buf.ForEachOwned(
            p,
            [&](uint32_t idx) {
              ReplayRecord(program, meta, buf.record(idx), Pos(b, idx), s);
              ++replayed;
            },
            consume);
      }
    }
    if (!pre_combine_) {
      s.applies = replayed;
    } else {
      if (profile) {
        s.fold_ms = NowMs() - t0;
      }
      for (const FoldTouch& t : s.touched) {
        ReplayRecord(program, meta,
                     PushRecord<Value>{t.dst, t.worker, fold_acc_[t.dst]},
                     t.pos, s);
      }
      s.applies = s.touched.size();
      if constexpr (kHasConsume) {
        for (uint32_t b = 0; b < num_buffers; ++b) {
          push_buffers_[b].ForEachOwnedSource(p, consume);
        }
      }
    }
    if (profile) {
      s.wall_ms = NowMs() - t0;
    }
  }

  // The FOLD step: left-folds one record's candidate into its destination's
  // accumulator. fold_stamp_ guards staleness; the fold order for one
  // destination is exactly the serial record order restricted to it,
  // however the destinations are distributed over ranges. First touch files
  // a FoldTouch carrying the record's global position and worker lane. A
  // collect-side pre-folded record continues the left-fold seamlessly: its
  // candidate is the fold of a chunk-contiguous run of the original
  // candidates, so chaining chunk folds here reproduces the global left-fold
  // of the fold-free stream (bit-exactly for a fixed chunk plan — which is
  // why a folding collect pins PlanChunksStable).
  void FoldRecord(const Program& program, VertexId u, uint32_t worker,
                  const Value& cand, uint64_t pos,
                  std::vector<FoldTouch>& touched) {
    if (fold_stamp_[u] != stamp_) {
      fold_stamp_[u] = stamp_;
      fold_acc_[u] = cand;
      touched.push_back(FoldTouch{pos, u, worker});
    } else {
      fold_acc_[u] = program.Combine(fold_acc_[u], cand);
    }
  }

  // Global serial position of record `index` in chunk buffer `buffer` — the
  // merge key every deferred stream is sequenced by.
  static uint64_t Pos(uint32_t buffer, uint32_t index) {
    return (static_cast<uint64_t>(buffer) << 32) | index;
  }

  // The per-record statement sequence of a sequential walk — Apply, the
  // atomic-contention stamp, the curr write, the activation decision — with
  // the two shared side channels deferred: the online-filter record and any
  // Apply side effect go to the range scratch, tagged with the record's
  // global position `pos` for the serial-order merge. Everything else it
  // touches is owned by the range. The pre-combined drain calls it with a
  // synthesized record carrying the folded candidate and the destination's
  // first-record position.
  void ReplayRecord(const Program& program, VertexMeta<Value>& meta,
                    const PushRecord<Value>& rec, uint64_t pos,
                    ReplayScratch& s) {
    const VertexId u = rec.dst;
    Value applied;
    if constexpr (kHasDeferredApply) {
      const size_t before = s.effects.size();
      applied = program.ApplyCollect(u, rec.cand, meta.curr(u),
                                     Direction::kPush, s.effects);
      for (size_t i = before; i < s.effects.size(); ++i) {
        s.effect_pos.push_back(pos);
      }
    } else {
      applied = program.Apply(u, rec.cand, meta.curr(u), Direction::kPush);
    }
    if (options_.use_atomic_updates) {
      // AFC-style: every candidate lands as a device atomic; concurrent
      // candidates for the same destination serialize (Figure 5's
      // aggregation overhead).
      s.cost.atomic_ops += 1;
      if (touch_stamp_[u] == stamp_) {
        s.cost.atomic_conflicts += 1;
      }
      touch_stamp_[u] = stamp_;
    }
    if (program.ValueChanged(meta.curr(u), applied)) {
      meta.curr(u) = applied;
      if (!options_.use_atomic_updates) {
        s.cost.scattered_words += 1;  // single writer, no atomic (ACC)
      }
      // MaybeRecord, deferred: the stamp and the Active check only touch
      // owned per-vertex state; the bin append must wait for the merge.
      if (recorded_stamp_[u] != stamp_ &&
          program.Active(meta.curr(u), meta.prev(u))) {
        recorded_stamp_[u] = stamp_;
        s.activations.push_back(DeferredActivation{pos, rec.worker, u});
      }
    }
  }

  // K-way merge of the first `ranges` position-sorted streams back into the
  // global serial record order: size(p)/pos(p, h) describe range p's
  // stream, emit(p, h) consumes the chosen head. Each stream is
  // position-sorted (range workers walk the buffers in order) and a position
  // belongs to exactly one range (one record, one owner), so strict-<
  // selection is unambiguous and within-range order is preserved. For one
  // range it is a linear pass. The linear head scan is O(ranges) per
  // element; with ranges capped at host_threads it beats a heap's constant
  // factor — revisit if range counts grow past ~32.
  template <typename SizeFn, typename PosFn, typename EmitFn>
  void MergeByPosition(uint32_t ranges, const SizeFn& size, const PosFn& pos,
                       const EmitFn& emit) {
    merge_heads_.assign(ranges, 0);
    while (true) {
      uint32_t best = ranges;
      uint64_t best_pos = ~0ull;
      for (uint32_t p = 0; p < ranges; ++p) {
        const size_t h = merge_heads_[p];
        if (h < size(p) && pos(p, h) < best_pos) {
          best_pos = pos(p, h);
          best = p;
        }
      }
      if (best == ranges) {
        break;
      }
      emit(best, merge_heads_[best]++);
    }
  }

  // Arms the owner-computes replay for this run: picks the range count,
  // computes in-degree-balanced boundaries (each destination receives at
  // most in-degree records per phase, so in-CSR offset mass IS expected
  // replay work; the +i term splits long zero-degree runs), and fills the
  // vertex→range owner lookup the collect pass buckets with — range by
  // range, so each slice is first-touched by a pool thread.
  void SetupReplayPartition() {
    const auto n = static_cast<size_t>(graph_.vertex_count());
    replay_ranges_ = pool_ == nullptr || n == 0
                         ? 1
                         : static_cast<uint32_t>(
                               std::min<size_t>(host_threads_, n));
    if (replay_scratch_.size() < replay_ranges_) {
      replay_scratch_.resize(replay_ranges_);
    }
    if (options_.profile_push_replay) {
      profile_ = PushReplayProfile{};
      profile_.ranges = replay_ranges_;
      profile_.range_ms.assign(replay_ranges_, 0.0);
    }
    if (replay_ranges_ == 1) {
      return;
    }
    const auto& in_offsets = graph_.in().row_offsets();
    const std::vector<size_t> boundaries = BalancedRangeBoundaries(
        n, replay_ranges_,
        [&](size_t i) { return static_cast<uint64_t>(in_offsets[i]) + i; });
    if (range_of_vertex_.size() < n) {
      range_of_vertex_.resize(n);
    }
    PartitionedDrain(
        pool_, host_threads_, replay_ranges_,
        [&](uint32_t p) {
          for (size_t v = boundaries[p]; v < boundaries[p + 1]; ++v) {
            range_of_vertex_[v] = p;
          }
        },
        [](uint32_t) {});
  }

  // --- pull: every (non-skipped) vertex gathers from contributing
  // in-neighbors, reading previous-iteration values (pure BSP) ---
  //
  // The gather for vertex v touches only prev (frozen for the whole
  // iteration) and emits one candidate update for v, so the scan
  // parallelizes over contiguous vertex ranges with zero sharing. The tail
  // of the sequential loop — Apply (which may carry program side effects,
  // e.g. delta-stepping's bucket parking), the curr write, and the online-
  // filter record — is DEFERRED: chunks collect (v, combined) pairs, and
  // after the join the engine replays them in ascending chunk (= vertex)
  // order. The replay performs exactly the statements the sequential loop
  // would, in the same order, so values, counters, bins and program state
  // are bit-identical for any host thread count.
  uint64_t ProcessPull(const Program& program, VertexMeta<Value>& meta,
                       JitController& jit, CostCounters& cost) {
    const VertexId n = graph_.in().vertex_count();
    if (pool_ == nullptr || host_threads_ <= 1 || n < 1024) {
      uint64_t edges = 0;
      PullRange(program, meta, 0, n, cost, edges,
                [&](VertexId v, const Value& combined) {
                  ApplyPullUpdate(program, meta, v, combined, jit, cost);
                });
      return edges;
    }
    const size_t grain = SuggestedGrain(n, host_threads_, 256);
    const uint32_t chunks = ThreadPool::NumChunks(0, n, grain);
    if (pull_scratch_.size() < chunks) {
      pull_scratch_.resize(chunks);
    }
    pool_->ParallelFor(0, n, grain, host_threads_, [&](const ParallelChunk& c) {
      PullScratch& s = pull_scratch_[c.chunk_index];
      s.cost = CostCounters{};
      s.edges = 0;
      s.updates.clear();
      PullRange(program, meta, static_cast<VertexId>(c.begin),
                static_cast<VertexId>(c.end), s.cost, s.edges,
                [&s](VertexId v, const Value& combined) {
                  s.updates.emplace_back(v, combined);
                });
    });
    uint64_t edges = 0;
    for (uint32_t i = 0; i < chunks; ++i) {
      cost += pull_scratch_[i].cost;
      edges += pull_scratch_[i].edges;
    }
    for (uint32_t i = 0; i < chunks; ++i) {
      for (const auto& [v, combined] : pull_scratch_[i].updates) {
        ApplyPullUpdate(program, meta, v, combined, jit, cost);
      }
    }
    return edges;
  }

  // The per-vertex gather shared by the sequential and per-chunk paths;
  // `on_update(v, combined)` fires where the sequential loop would Apply.
  // Charges and the edge count are pure sums, kept in locals and added to
  // `cost_out`/`edges_out` once for the range.
  template <typename OnUpdate>
  void PullRange(const Program& program, const VertexMeta<Value>& meta,
                 VertexId vbegin, VertexId vend, CostCounters& cost_out,
                 uint64_t& edges_out, OnUpdate&& on_update) const {
    const Csr& in = graph_.in();
    const bool vote = program.combine_kind() == CombineKind::kVote;
    CostCounters cost;
    uint64_t edges = 0;
    for (VertexId v = vbegin; v < vend; ++v) {
      cost.coalesced_words += 1;  // own metadata, sequential over v
      cost.alu_ops += 1;
      if (program.PullSkip(meta.prev(v))) {
        continue;
      }
      cost.coalesced_words += 2;  // row offsets
      const auto nbrs = in.Neighbors(v);
      const auto wts = in.NeighborWeights(v);
      Value combined = program.CombineIdentity();
      bool any = false;
      uint32_t scanned = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        ++edges;
        ++scanned;
        cost.alu_ops += 1;
        if (program.PullContributes(meta.prev(u))) {
          const Value cand =
              program.Compute(u, v, wts[i], meta.prev(u), Direction::kPull);
          combined = any ? program.Combine(combined, cand) : cand;
          any = true;
          cost.alu_ops += 2;
          if (vote && options_.enable_vote_early_exit) {
            // Voting combine: all updates are identical, one suffices —
            // collaborative early termination (Section 3.3, Figure 5).
            break;
          }
          if constexpr (kHasPullSaturated) {
            // Aggregation generalization of the vote exit: the program
            // certifies that no further contribution can change what Apply
            // will produce (e.g. MS-BFS's lane mask is already full), so
            // the rest of the gather is provably dead work. Deterministic —
            // the in-neighbor scan order is fixed — and exact, because
            // skipped contributions are absorbed by the saturated value.
            // Shares the ablation flag: baselines that model AFC-style
            // frameworks (no collaborative termination) lose both exits.
            if (options_.enable_vote_early_exit &&
                program.PullSaturated(meta.prev(v), combined)) {
              break;
            }
          }
        }
      }
      // A warp gathers 32 neighbors per step, so memory moves in 32-edge
      // granules even when the vote exits after the first contributor.
      const uint32_t degree = static_cast<uint32_t>(nbrs.size());
      const uint32_t granule = std::min(degree, (scanned + 31) / 32 * 32);
      cost.coalesced_words += 2ull * granule;  // adjacency ids + weights
      cost.scattered_words += granule;         // contributor metadata (prev)
      if (!any) {
        continue;
      }
      on_update(v, combined);
    }
    cost_out += cost;
    edges_out += edges;
  }

  // The deferred tail of a pull-mode vertex update; identical statement
  // sequence to the tail of the original sequential loop.
  void ApplyPullUpdate(const Program& program, VertexMeta<Value>& meta, VertexId v,
                       const Value& combined, JitController& jit,
                       CostCounters& cost) {
    const Value applied =
        program.Apply(v, combined, meta.curr(v), Direction::kPull);
    if (program.ValueChanged(meta.curr(v), applied)) {
      meta.curr(v) = applied;
      cost.coalesced_words += 1;  // own write, sequential over v
      MaybeRecord(program, meta, v, v % options_.sim_worker_threads, jit, cost);
    }
  }

  // Post-pull activity consumption. ConsumeActivity is pure per vertex and
  // the frontier is duplicate-free, so vertices split across threads.
  void ConsumeFrontier(const Program& program, VertexMeta<Value>& meta,
                       const std::vector<VertexId>& frontier) {
    if (pool_ == nullptr || host_threads_ <= 1 || frontier.size() < 4096) {
      for (VertexId v : frontier) {
        Consume(program, meta, v, Direction::kPull);
      }
      return;
    }
    pool_->ParallelFor(0, frontier.size(),
                       SuggestedGrain(frontier.size(), host_threads_, 2048),
                       host_threads_, [&](const ParallelChunk& c) {
                         for (size_t i = c.begin; i < c.end; ++i) {
                           Consume(program, meta, frontier[i], Direction::kPull);
                         }
                       });
  }

  // Simulated hardware thread that discovered an activation: a Thread-class
  // vertex is owned by one lane; Warp/CTA-class vertices spread their edges
  // over 32 / 256 lanes, which spreads bin pressure — the reason a single
  // hub rarely overflows a bin but a large frontier volume does.
  static uint32_t WorkerFor(size_t list_idx, uint32_t edge_idx, KernelClass klass,
                            uint32_t workers) {
    uint32_t worker = 0;
    switch (klass) {
      case KernelClass::kThread:
        worker = static_cast<uint32_t>(list_idx);
        break;
      case KernelClass::kWarp: {
        const uint32_t warp_slots = std::max(1u, workers / 32);
        worker = (static_cast<uint32_t>(list_idx) % warp_slots) * 32 + edge_idx % 32;
        break;
      }
      case KernelClass::kCta: {
        const uint32_t cta_slots = std::max(1u, workers / 256);
        worker =
            (static_cast<uint32_t>(list_idx) % cta_slots) * 256 + edge_idx % 256;
        break;
      }
    }
    return worker % workers;
  }

  // Per-chunk scratch for the parallel pull phase, reused across iterations;
  // cache-line isolated (core/parallel.h).
  struct alignas(kCacheLineBytes) PullScratch {
    CostCounters cost;
    uint64_t edges = 0;
    std::vector<std::pair<VertexId, Value>> updates;
  };
  static_assert(alignof(PullScratch) >= kCacheLineBytes);


  const Graph& graph_;
  DeviceSpec device_;
  EngineOptions options_;
  ThreadPool* pool_ = nullptr;
  uint32_t host_threads_ = 1;
  // Iteration-loop scratch, owned by the engine so the steady state of the
  // hot loop performs no heap allocation.
  FrontierClassifier classifier_;
  std::vector<VertexId> next_frontier_;
  std::vector<PullScratch> pull_scratch_;
  // Per-chunk push update buffers (one per chunk slot across the three
  // lists), reused across iterations; see push_buffer.h for the memory
  // model.
  std::vector<PushBuffer<Value>> push_buffers_;
  // Iteration-stamped "already recorded" marks (avoids duplicate bin
  // entries; the real system tolerates duplicates, our sequential apply
  // makes exactly-once recording the natural semantics). NumaVector +
  // ParallelFill: pages first-touched by pool threads.
  NumaVector<uint32_t> recorded_stamp_;
  // Same-iteration destination-touch marks for atomic-contention accounting
  // (only allocated when use_atomic_updates is set).
  NumaVector<uint32_t> touch_stamp_;
  uint32_t stamp_ = 0;
  uint32_t last_stage_count_ = 0;
  // Owner-computes replay state (SetupReplayPartition): the range count
  // (1 = partitioned replay disarmed), the per-vertex owner lookup the
  // collect pass buckets with, per-range worker scratch, and the merge
  // cursors.
  uint32_t replay_ranges_ = 1;
  // Per-iteration decision made in ProcessPush before the collect: whether
  // this iteration's records were bucketed (and must drain partitioned).
  bool collect_bucketed_ = false;
  // Per-run decision (Run): associative pre-combining armed — option on AND
  // the program declared CombineCapability::kAssociativeOnly.
  bool pre_combine_ = false;
  // Per-run: collect-side fold available (pre_combine_ AND the option); and
  // the per-iteration decision made in ProcessPush from the cost-model
  // reuse estimate. When collect_fold_ is set for an iteration, the collect
  // runs the thread-count-stable chunk plan and folds through fold_tables_.
  bool collect_fold_armed_ = false;
  bool collect_fold_ = false;
  // Per-run: whether any drain can observe the per-record worker lane (the
  // filter policy consults the online bins); off lets the collect drop the
  // lane entirely (push_buffer.h memory diet).
  bool workers_observed_ = true;
  // Vertices with incoming edges — the destination universe of the reuse
  // estimate. Computed once per run when the collect-side fold is armed.
  uint64_t in_destinations_ = 0;
  std::vector<CollectFoldTable> fold_tables_;
  // Pre-combined drain state: per-vertex fold accumulators guarded by an
  // iteration stamp (a vertex's fold is owned by exactly one worker, so no
  // sharing). Allocated only when pre_combine_ is armed.
  NumaVector<uint32_t> fold_stamp_;
  std::vector<Value> fold_acc_;
  NumaVector<uint32_t> range_of_vertex_;
  std::vector<ReplayScratch> replay_scratch_;
  std::vector<size_t> merge_heads_;
  PushReplayProfile profile_;
  // --- control plane (valid during Run; DisarmControl nulls the pointers).
  const RunControl* control_ = nullptr;
  CancelToken* cancel_ = nullptr;
  double deadline_ms_ = 0.0;  // absolute NowMs()-based; 0 = none
  FaultRegistry* faults_ = nullptr;
  // Backing registry when faults come from EngineOptions::fault_spec
  // (re-parsed each Run so every run gets fresh one-shot faults).
  FaultRegistry options_faults_;
  bool watch_cancel_ = false;
  // Set by the first cancellation/deadline/fault observation; the loop
  // breaks at the next stage boundary with break_outcome_ as the verdict.
  bool control_break_ = false;
  RunOutcome break_outcome_ = RunOutcome::kCompleted;
  LoopState loop_;
};

}  // namespace simdx

#endif  // SIMDX_CORE_ENGINE_H_
