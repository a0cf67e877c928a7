// Per-chunk update buffers for the deterministic parallel push phase.
//
// The push scatter writes arbitrary destinations, so it cannot run in place
// from multiple threads without racing on metadata and counters. Instead the
// engine splits it into two phases built on these buffers:
//
//   1. COLLECT (parallel): each ParallelFor chunk walks its contiguous slice
//      of a Thread/Warp/CTA work list, runs Compute against the phase-start
//      metadata snapshot (nothing mutates `curr` during collection), charges
//      the traversal costs to the chunk-private `cost` counters, and appends
//      one record per out-edge, grouped under a PushSourceSpan per source
//      vertex. For kAssociativeOnly programs the engine may instead fold
//      same-chunk same-destination candidates INTO the destination's first
//      record of the chunk (FoldInto, collect-side pre-combining): the
//      record stream then carries one record per (chunk, destination)
//      whose candidate is the left-fold of its constituents in record order
//      and whose fold count says how many candidates it absorbed.
//   2. REPLAY: one drain (engine.h, the phase comment above ProcessPush)
//      walks the buffers in ascending chunk index order — exactly work-list
//      order, independent of grain and thread count — once per destination
//      range. A range visits only the records whose `dst` it owns and the
//      sources it owns (ForEachOwned / ForEachOwnedSource), and either
//      replays them per record or folds them with Combine before one Apply
//      per destination. The buffers are oblivious to that choice: the fold
//      is a different walk over the same record sequences, and a
//      collect-side pre-folded stream drains through it unchanged (a
//      chunk's folded record IS the chunk-contiguous prefix of the
//      destination's global left-fold).
//
// Ranges: an UNBUCKETED buffer (BeginCollect with ranges <= 1) is one range
// — range 0 owns every record and every source span, walked straight off the
// record lanes and sources() with no index list built. When an iteration
// drains over P > 1 ranges, the collect BUCKETIZES: BeginCollect(P, ...)
// makes every Append file the record's index under its destination's range,
// and — when the program defines ConsumeActivity — every closed source span
// file a PushSpanEvent under the SOURCE's range, tagged with the record
// index the span ends at. A range then merges its record bucket and its
// span bucket by position, which reproduces the one-range interleaving of
// Apply and ConsumeActivity for every vertex it owns (a source that also
// receives same-phase updates sees them land around its consume exactly as
// in the one-range walk).
//
// Record layout (the record-stream memory diet): storage is struct-of-arrays
// so every drain walk touches only the lanes it reads —
//   dst lane         4 bytes/record, always present (fold probes and range
//                    bucketing scan it without dragging candidate bytes);
//   cand lane        sizeof(Value) bytes/record, always present;
//   worker lane      4 bytes/record, present only when the filter policy can
//                    observe the simulated worker lane (kBallotOnly never
//                    consults it — see JitController::RecordActivation — so
//                    the engine drops the lane and replay reads worker 0);
//   fold-count lane  4 bytes/record, present only while the collect-side
//                    fold is armed (telemetry: how many candidates each
//                    record absorbed; Σ fold counts == frontier out-edges).
// Per-record byte budget = 4 + sizeof(Value) [+4 worker] [+4 fold count]
// [+4 bucket index when range bucketing is armed], against the fold-free
// baseline of one record per frontier out-edge.
//
// Buffer memory model: one buffer per chunk, owned by the engine and reused
// across iterations. BeginCollect() keeps capacity, so after the first
// iteration at a given frontier volume the steady state allocates nothing;
// a larger iteration regrows the vectors (amortized doubling) and the
// capacity then persists. Each buffer is written by one pool thread at a
// time, so a buffer — and each per-range header of its bucket arrays —
// starts on its own cache line (the layout rule of core/parallel.h):
// neighbouring chunks' vector end pointers and counters never share a line.
#ifndef SIMDX_CORE_PUSH_BUFFER_H_
#define SIMDX_CORE_PUSH_BUFFER_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "graph/types.h"
#include "simt/cost_model.h"

namespace simdx {

// One deferred push update, materialized from the SoA lanes where a drain
// needs the whole tuple: the destination, the Compute candidate (possibly a
// collect-side fold of several candidates), and the simulated worker lane
// of the update's FIRST record (it owns the online-filter bin the
// activation lands in during replay).
template <typename Value>
struct PushRecord {
  VertexId dst;
  uint32_t worker;
  Value cand;
};

// The edge records of one source vertex, in adjacency order. Replay calls
// ConsumeActivity for `src` after its `num_records` records — the position
// the sequential loop consumes at. Under the collect-side fold a span counts
// only the records first APPENDED in it (candidates folded into an earlier
// span's record belong to that record's span), which keeps span arithmetic
// consistent; spans may legally hold zero records.
struct PushSourceSpan {
  VertexId src;
  uint32_t num_records;
};

// A closed source span filed under the source's destination range: the
// owner must run ConsumeActivity for `src` after applying its owned records
// with index < `end_pos` and before the one at `end_pos` (if any) — the
// one-range consume position.
struct PushSpanEvent {
  uint32_t end_pos;
  VertexId src;
};

template <typename Value>
class alignas(kCacheLineBytes) PushBuffer {
 public:
  // Collect-side charges for this chunk (header + adjacency + per-edge
  // words); merged into the iteration counters in chunk order. Replay-side
  // charges (atomics, value-changed writes, filter records) are accumulated
  // by the drain into per-range scratch, merged in range order.
  CostCounters cost;
  uint64_t edges = 0;

  // Clear + configure the lanes for one chunk's collect; every vector keeps
  // its capacity across iterations, so the steady state allocates nothing.
  //   ranges           > 1 arms destination-range bucketing for that many
  //                    replay ranges (0/1 = no bucketing);
  //   track_spans      additionally files one PushSpanEvent per closed
  //                    source span (only wanted when bucketing is armed AND
  //                    the program defines ConsumeActivity);
  //   store_workers    keep the per-record worker lane (off when the filter
  //                    policy never observes it; worker() then reads 0);
  //   store_fold_counts keep the per-record fold-count lane (on only while
  //                    the collect-side fold is armed; fold_count() reads 1
  //                    otherwise).
  void BeginCollect(uint32_t ranges, bool track_spans, bool store_workers,
                    bool store_fold_counts) {
    dsts_.clear();
    workers_.clear();
    cands_.clear();
    fold_counts_.clear();
    sources_.clear();
    cost = CostCounters{};
    edges = 0;
    ranges_ = ranges > 1 ? ranges : 0;
    track_spans_ = track_spans && ranges_ > 1;
    store_workers_ = store_workers;
    store_fold_counts_ = store_fold_counts;
    if (ranges_ > 1) {
      if (range_records_.size() < ranges_) {
        range_records_.resize(ranges_);
      }
      for (uint32_t r = 0; r < ranges_; ++r) {
        range_records_[r]->clear();
      }
      if (track_spans_) {
        if (range_spans_.size() < ranges_) {
          range_spans_.resize(ranges_);
        }
        for (uint32_t r = 0; r < ranges_; ++r) {
          range_spans_[r]->clear();
        }
      }
    }
  }

  // Convenience for the plain per-record collect: no bucketing, worker lane
  // on, fold-count lane off.
  void Clear() {
    BeginCollect(0, /*track_spans=*/false, /*store_workers=*/true,
                 /*store_fold_counts=*/false);
  }

  // `src_range` is the replay range owning `src` (pass 0 when bucketing is
  // not armed). No default on purpose: with BeginCollect(ranges > 1) armed,
  // a wrong range here or in Append means a record replayed by a non-owner —
  // a silent race — so every caller must consult the owner lookup.
  void BeginSource(VertexId src, uint32_t src_range) {
    CloseOpenSpan();
    sources_.push_back(PushSourceSpan{src, 0});
    open_src_range_ = src_range;
  }

  // Appends one record and returns its index in this buffer (the slot a
  // collect-side fold table remembers for FoldInto).
  uint32_t Append(VertexId dst, uint32_t worker, const Value& cand,
                  uint32_t dst_range) {
    const uint32_t slot = static_cast<uint32_t>(dsts_.size());
    if (ranges_ > 1) {
      range_records_[dst_range]->push_back(slot);
    }
    dsts_.push_back(dst);
    cands_.push_back(cand);
    if (store_workers_) {
      workers_.push_back(worker);
    }
    if (store_fold_counts_) {
      fold_counts_.push_back(1);
    }
    ++sources_.back().num_records;
    return slot;
  }

  // Collect-side pre-combining: left-folds a later same-chunk candidate for
  // the same destination into record `slot` — cand(slot) becomes
  // Combine(cand(slot), cand), exactly the next step of the destination's
  // global left-fold (same-chunk records are contiguous in the global
  // (chunk, record) order). The record keeps its dst, its first-record
  // worker, and its bucket entry; only the candidate and the fold count
  // change, so no span or bucket bookkeeping moves.
  template <typename Program>
  void FoldInto(uint32_t slot, const Value& cand, const Program& program) {
    assert(store_fold_counts_ && "FoldInto requires the fold-count lane");
    cands_[slot] = program.Combine(cands_[slot], cand);
    ++fold_counts_[slot];
  }

  // Files the final span event; must be called once after the last source
  // when span tracking is armed (harmless otherwise).
  void FinishCollect() { CloseOpenSpan(); }

  bool empty() const { return sources_.empty(); }
  uint32_t size() const { return static_cast<uint32_t>(dsts_.size()); }
  VertexId dst(uint32_t i) const { return dsts_[i]; }
  const Value& cand(uint32_t i) const { return cands_[i]; }
  // Worker lane of record i's FIRST candidate; 0 when the lane is dropped
  // (legal only because no drain observes it then).
  uint32_t worker(uint32_t i) const {
    return store_workers_ ? workers_[i] : 0u;
  }
  // Candidates folded into record i (>= 1); 1 when the lane is off.
  uint32_t fold_count(uint32_t i) const {
    return store_fold_counts_ ? fold_counts_[i] : 1u;
  }
  PushRecord<Value> record(uint32_t i) const {
    return PushRecord<Value>{dsts_[i], worker(i), cands_[i]};
  }
  const std::vector<PushSourceSpan>& sources() const { return sources_; }

  // Bytes the record stream of this chunk occupies right now: the armed
  // record lanes plus span and bucket bookkeeping. Bucket-index bytes depend
  // on whether the collect bucketed (a host_threads decision), so
  // this is host telemetry — never a simulated statistic.
  size_t FootprintBytes() const {
    size_t per_record = sizeof(VertexId) + sizeof(Value);
    if (store_workers_) {
      per_record += sizeof(uint32_t);
    }
    if (store_fold_counts_) {
      per_record += sizeof(uint32_t);
    }
    if (ranges_ > 1) {
      per_record += sizeof(uint32_t);  // one bucket index entry per record
    }
    size_t bytes = dsts_.size() * per_record +
                   sources_.size() * sizeof(PushSourceSpan);
    if (track_spans_) {
      for (uint32_t r = 0; r < ranges_; ++r) {
        bytes += range_spans_[r]->size() * sizeof(PushSpanEvent);
      }
    }
    return bytes;
  }

  size_t capacity() const { return dsts_.capacity(); }

  // Walks the records range `r` owns in ascending index order, calling
  // on_record(index), and calls on_consume(src) for each source span `r`
  // owns at its one-range consume position: after the owned records below
  // the span's end and before the one at it. An unbucketed buffer is one
  // range: every record, and every span in sources() order. Bucketed
  // without span tracking, no span events exist and on_consume never runs.
  template <typename OnRecord, typename OnConsume>
  void ForEachOwned(uint32_t r, OnRecord&& on_record,
                    OnConsume&& on_consume) const {
    if (ranges_ == 0) {
      uint32_t idx = 0;
      for (const PushSourceSpan& span : sources_) {
        for (const uint32_t end = idx + span.num_records; idx < end; ++idx) {
          on_record(idx);
        }
        on_consume(span.src);
      }
      return;
    }
    const PushSpanEvent* span = nullptr;
    const PushSpanEvent* span_end = nullptr;
    if (track_spans_) {
      span = range_spans_[r]->data();
      span_end = span + range_spans_[r]->size();
    }
    for (const uint32_t idx : *range_records_[r]) {
      for (; span != span_end && span->end_pos <= idx; ++span) {
        on_consume(span->src);
      }
      on_record(idx);
    }
    for (; span != span_end; ++span) {
      on_consume(span->src);
    }
  }

  // The source half of ForEachOwned alone: on_consume(src) for every source
  // span range `r` owns, in span order.
  template <typename OnConsume>
  void ForEachOwnedSource(uint32_t r, OnConsume&& on_consume) const {
    if (ranges_ == 0) {
      for (const PushSourceSpan& span : sources_) {
        on_consume(span.src);
      }
    } else if (track_spans_) {
      for (const PushSpanEvent& span : *range_spans_[r]) {
        on_consume(span.src);
      }
    }
  }

 private:
  void CloseOpenSpan() {
    if (track_spans_ && ranges_ > 1 && !sources_.empty()) {
      range_spans_[open_src_range_]->push_back(
          PushSpanEvent{static_cast<uint32_t>(dsts_.size()),
                        sources_.back().src});
    }
  }

  // SoA record lanes (see the layout comment at the top of the file).
  std::vector<VertexId> dsts_;
  std::vector<uint32_t> workers_;
  std::vector<Value> cands_;
  std::vector<uint32_t> fold_counts_;
  std::vector<PushSourceSpan> sources_;
  // Owner-computes replay buckets (see file comment), armed by BeginCollect.
  // Line-aligned headers: these heap arrays would otherwise pack against
  // the neighbouring chunk buffers' arrays.
  std::vector<CacheAligned<std::vector<uint32_t>>> range_records_;
  std::vector<CacheAligned<std::vector<PushSpanEvent>>> range_spans_;
  uint32_t ranges_ = 0;
  uint32_t open_src_range_ = 0;
  bool track_spans_ = false;
  bool store_workers_ = true;
  bool store_fold_counts_ = false;
};

static_assert(alignof(PushBuffer<uint32_t>) >= kCacheLineBytes,
              "per-chunk push buffers must not share cache lines");

}  // namespace simdx

#endif  // SIMDX_CORE_PUSH_BUFFER_H_
