// The two service workloads, both on the same seeded RMAT scale-10 graph
// (undirected, as the qps bench serves it) and both driven open loop: one
// generator thread sends each query at its scheduled Poisson arrival
// whether or not earlier answers came back, and latency runs from that
// scheduled arrival, so a stall is charged to every query it delays.
//
//   service-mix  in-process GraphService, workers = 4, batching and cache
//                off. Uniform mix of BFS, SSSP, PPR and k-Core. Admission,
//                queue wait and dispatch dominate; PPR costs ~70 BFS, so
//                head-of-line blocking shows in service.bfs_p99_ms.
//   wire-hot     SocketServer over a Unix socket in front of a GraphService
//                with batch_max = 64 and a 64-entry result cache, fed
//                pipelined over up to nproc connections. 3/4 of arrivals
//                re-ask a hot set of 16 BFS questions, the rest are fresh
//                BFS questions. Codec, transport, cache and MS-BFS batching
//                dominate.
//
// Each measured pass: the reference rate, a staircase of higher rates that
// stops after two rungs in a row miss the latency limit, then a run of
// analytics-rmat17 in a child process (behind <algo>_cpu_ms).
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string_view>

#include "algos/algos.h"
#include "core/fingerprint.h"
#include "service/codec.h"
#include "service/server.h"
#include "service/service.h"
#include "setup.h"
#include "stats.h"
#include "suite.h"

namespace perfbench {
namespace {

namespace svc = simdx::service;
namespace wire = simdx::service::wire;
using simdx::VertexId;

// Set-up takes a few ms here, so many repetitions keep its median steady.
constexpr int kSetupReps = 41;
// The generator fell behind, and the run is invalid, when its lateness at
// the reference rate has a median above kMaxReferenceLagP50Ms or a p99
// above this share of the workload's latency limit.
constexpr double kMaxReferenceLagP50Ms = 1.0;
constexpr double kMaxReferenceLagShare = 0.25;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Shares of a pass: the reference rate, the staircase and the direct-call
// engine probe (the rest is a one-second lead-in). Every rung gets the same
// number of arrivals, so each rung's p99 rests on as many answers. The probe
// carries the gated <algo>_cpu_ms, so it gets as much of the run as the
// reference rate: a few seconds of calls can fall inside one burst of CPU
// taken by other guests on a shared host.
constexpr double kReferenceShare = 0.4;
constexpr double kStaircaseShare = 0.2;
constexpr double kProbeShare = 0.4;
// The staircase stops after this many failing rungs in a row.
constexpr int kFailedRungsToStop = 2;
constexpr size_t kTracedQueriesPerPhase = 20000;
constexpr uint32_t kHotQuestions = 16;  // wire-hot's hot set
constexpr double kHotShare = 0.75;      // of wire-hot arrivals
constexpr int kSubmitProbeQueries = 1000;

struct LoadPlan {
  double ref_qps = 0.0;
  std::vector<double> rung_qps;  // ascending, above ref_qps
  double limit_ms = 0.0;         // p99 limit that service.slo_qps is held to
};

struct Question {
  svc::QueryKind kind = svc::QueryKind::kBfs;
  VertexId source = 0;
  uint64_t oracle = 0;  // value_fingerprint of a one-shot run
};

enum class Status : uint8_t { kPending, kOk, kWrong, kRefused, kFailed };

// One scheduled query and what happened to it. Timestamps are steady-clock
// ns; the generator writes start/end, the completion side the rest.
struct Record {
  uint32_t question = 0;
  int64_t sched_ns = 0;  // scheduled arrival
  int64_t start_ns = 0;  // Submit / send began
  int64_t end_ns = 0;    // Submit / send returned
  int64_t done_ns = 0;   // answer observed
  double queue_ms = 0.0;  // echoed by the service
  double run_ms = 0.0;
  double decode_us = 0.0;  // wire only
  Status status = Status::kPending;
  // Anything but a correct answer misses every latency limit.
  bool ok() const { return status == Status::kOk; }
};

const char* RunSpan(svc::QueryKind kind) {
  static constexpr const char* kRun[] = {"service.run.bfs", "service.run.sssp",
                                         "service.run.ppr", "service.run.kcore"};
  return kRun[static_cast<uint8_t>(kind)];
}

// Poisson arrivals at `rate` over `seconds`, questions from `pick`.
template <typename Pick>
std::vector<Record> Schedule(double rate, double seconds, uint64_t seed, Pick pick) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<Record> recs;
  double at = gap(rng);
  while (at < seconds) {
    Record r;
    r.sched_ns = static_cast<int64_t>(at * 1e9);
    r.question = pick(rng);
    recs.push_back(r);
    at += gap(rng);
  }
  return recs;
}

void Finish(Record& r, const Question& q, bool ok, uint64_t value_fingerprint) {
  if (!ok) {
    r.status = Status::kFailed;
  } else {
    r.status = value_fingerprint == q.oracle ? Status::kOk : Status::kWrong;
  }
}

// Records the spans of one finished query (traced passes only).
void TraceQuery(Tracer& tracer, const Record& r, const Question& q, uint64_t id,
                bool wire_path) {
  if (!tracer.on()) {
    return;
  }
  tracer.Add("query", "", id, r.sched_ns, r.done_ns);
  tracer.Add("gen.lag", "query", id, r.sched_ns, r.start_ns);
  tracer.Add(wire_path ? "wire.send" : "service.submit", "query", id, r.start_ns, r.end_ns);
  if (r.status == Status::kOk || r.status == Status::kWrong) {
    const int64_t queue_end = r.start_ns + static_cast<int64_t>(r.queue_ms * 1e6);
    tracer.Add("service.queue", "query", id, r.start_ns, queue_end);
    tracer.Add(RunSpan(q.kind), "query", id, queue_end,
               queue_end + static_cast<int64_t>(r.run_ms * 1e6));
  }
  if (wire_path) {
    tracer.Add("wire.rtt", "query", id, r.start_ns, r.done_ns);
  }
}

// ---- in-process load generator ---------------------------------------------

// Submits every record at its scheduled time from the calling thread; a
// collector thread notes when each future resolves. Returns the collector's
// CPU time.
int64_t DriveInProcess(svc::GraphService& service, std::vector<Record>& recs,
                       const std::vector<Question>& questions, int64_t t0) {
  struct Inflight {
    size_t index;
    std::future<svc::QueryResult> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Inflight> handoff;  // guarded by mu
  bool generator_done = false;    // guarded by mu

  int64_t collector_cpu_ns = 0;
  const auto collect = [&] {
    std::vector<Inflight> live;
    for (;;) {
      bool done = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (live.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || generator_done; });
        }
        for (Inflight& f : handoff) {
          live.push_back(std::move(f));
        }
        handoff.clear();
        done = generator_done;
      }
      if (live.empty()) {
        if (done) {
          return;
        }
        continue;
      }
      bool any = false;
      for (size_t i = 0; i < live.size();) {
        if (live[i].result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const int64_t now = NowNs();
        const svc::QueryResult r = live[i].result.get();
        Record& rec = recs[live[i].index];
        rec.done_ns = now;
        rec.queue_ms = r.queue_ms;
        rec.run_ms = r.run_ms;
        Finish(rec, questions[rec.question], r.ok(), r.value_fingerprint);
        live[i] = std::move(live.back());
        live.pop_back();
        any = true;
      }
      if (!any && !live.empty()) {
        live.front().result.wait_for(std::chrono::microseconds(50));
      }
    }
  };
  std::thread collector([&] {
    const int64_t cpu0 = ThreadCpuNs();
    collect();
    collector_cpu_ns = ThreadCpuNs() - cpu0;
  });

  for (size_t i = 0; i < recs.size(); ++i) {
    Record& rec = recs[i];
    rec.sched_ns += t0;
    WaitUntilNs(rec.sched_ns);
    const Question& q = questions[rec.question];
    svc::Query query;
    query.kind = q.kind;
    query.source = q.source;
    rec.start_ns = NowNs();
    svc::GraphService::Ticket ticket = service.Submit(query);
    rec.end_ns = NowNs();
    if (ticket.verdict == svc::AdmissionVerdict::kAdmitted) {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back({i, std::move(ticket.result)});
      cv.notify_one();
    } else {
      rec.done_ns = rec.end_ns;
      rec.status = ticket.verdict == svc::AdmissionVerdict::kRejectedInvalid
                       ? Status::kFailed
                       : Status::kRefused;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    cv.notify_one();
  }
  collector.join();
  return collector_cpu_ns;
}

// ---- wire load generator ----------------------------------------------------

class UdsConnection {
 public:
  explicit UdsConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~UdsConnection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  UdsConnection(const UdsConnection&) = delete;
  UdsConnection& operator=(const UdsConnection&) = delete;

  int fd() const { return fd_; }
  bool SendAll(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }
  wire::FrameDecoder& decoder() { return decoder_; }

 private:
  int fd_ = -1;
  wire::FrameDecoder decoder_;
};

struct WireCounters {
  double encode_us_sum = 0.0;
  uint64_t encodes = 0;
};

// Writes every record's request at its scheduled time, round-robin over the
// connections, without waiting for replies; a receiver thread decodes the
// replies as they arrive. Returns the receiver's CPU time.
int64_t DriveWire(std::vector<std::unique_ptr<UdsConnection>>& conns,
                  std::vector<Record>& recs, const std::vector<Question>& questions,
                  int64_t t0, uint64_t id_base, bool timed_codec, WireCounters& wc) {
  std::atomic<size_t> sent{0};
  std::atomic<bool> generator_done{false};

  int64_t receiver_cpu_ns = 0;
  const auto receive = [&] {
    std::vector<pollfd> fds;
    for (const auto& c : conns) {
      fds.push_back({c->fd(), POLLIN, 0});
    }
    std::vector<uint8_t> buf(1 << 16);
    size_t answered = 0;
    int64_t give_up_ns = 0;
    for (;;) {
      if (generator_done.load(std::memory_order_acquire)) {
        if (answered == sent.load(std::memory_order_acquire)) {
          return;
        }
        if (give_up_ns == 0) {
          give_up_ns = NowNs() + 10'000'000'000;
        } else if (NowNs() > give_up_ns) {
          return;  // unanswered records stay pending and count as failed
        }
      }
      if (::poll(fds.data(), fds.size(), 5) <= 0) {
        continue;
      }
      for (size_t c = 0; c < conns.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        const ssize_t n = ::recv(fds[c].fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
            fds[c].fd = -1;  // connection lost: its queries stay pending
          }
          continue;
        }
        const int64_t now = NowNs();
        wire::FrameDecoder& decoder = conns[c]->decoder();
        decoder.Feed(buf.data(), static_cast<size_t>(n));
        for (;;) {
          wire::Frame frame;
          const int64_t d0 = timed_codec ? NowNs() : 0;
          const wire::DecodeStatus st = decoder.Next(&frame);
          const int64_t d1 = timed_codec ? NowNs() : 0;
          if (st == wire::DecodeStatus::kNeedMore) {
            break;
          }
          if (st != wire::DecodeStatus::kOk) {
            fds[c].fd = -1;  // framing lost
            break;
          }
          const uint64_t id = frame.type == wire::MsgType::kResponse
                                  ? frame.response.request_id
                                  : frame.reject.request_id;
          if (id <= id_base || id - id_base > recs.size()) {
            continue;  // not ours (a reject for a frame we never sent)
          }
          Record& rec = recs[id - id_base - 1];
          rec.done_ns = now;
          rec.decode_us = NsToMs(d1 - d0) * 1e3;
          if (frame.type == wire::MsgType::kResponse) {
            rec.queue_ms = frame.response.queue_ms;
            rec.run_ms = frame.response.run_ms;
            const auto outcome = static_cast<simdx::RunOutcome>(frame.response.outcome);
            Finish(rec, questions[rec.question],
                   outcome == simdx::RunOutcome::kCompleted ||
                       outcome == simdx::RunOutcome::kResumed,
                   frame.response.value_fingerprint);
          } else {
            const auto code = static_cast<wire::RejectCode>(frame.reject.code);
            rec.status = code == wire::RejectCode::kShedQueueFull ||
                                 code == wire::RejectCode::kShedDeadline ||
                                 code == wire::RejectCode::kPipelineFull
                             ? Status::kRefused
                             : Status::kFailed;
          }
          ++answered;
        }
      }
    }
  };
  std::thread receiver([&] {
    const int64_t cpu0 = ThreadCpuNs();
    receive();
    receiver_cpu_ns = ThreadCpuNs() - cpu0;
  });

  std::vector<uint8_t> frame;
  for (size_t i = 0; i < recs.size(); ++i) {
    Record& rec = recs[i];
    rec.sched_ns += t0;
    WaitUntilNs(rec.sched_ns);
    const Question& q = questions[rec.question];
    wire::RequestFrame req;
    req.request_id = id_base + i + 1;
    req.kind = static_cast<uint8_t>(q.kind);
    req.source = q.source;
    rec.start_ns = NowNs();
    frame.clear();
    wire::EncodeRequest(req, &frame);
    if (timed_codec) {
      wc.encode_us_sum += NsToMs(NowNs() - rec.start_ns) * 1e3;
      ++wc.encodes;
    }
    const bool ok = conns[i % conns.size()]->SendAll(frame);
    rec.end_ns = NowNs();
    if (!ok) {
      rec.status = Status::kFailed;
      rec.done_ns = rec.end_ns;
      continue;  // never answered, never counted as sent
    }
    sent.fetch_add(1, std::memory_order_release);
  }
  generator_done.store(true, std::memory_order_release);
  receiver.join();
  for (Record& rec : recs) {
    if (rec.status == Status::kPending) {
      rec.status = Status::kFailed;
      rec.done_ns = NowNs();
    }
  }
  return receiver_cpu_ns;
}

// The generator's sleeps end on time: without this the kernel may defer a
// wake-up by the default 50 us timer slack, which at wire-hot's sub-0.1 ms
// latencies would be a visible part of every query. Threads started later
// by the calling thread (the answer collectors) inherit it.
void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// ---- summaries --------------------------------------------------------------

struct PhaseSummary {
  double rate_qps = 0.0;
  uint64_t ok = 0, wrong = 0, refused = 0, failed = 0;
  std::vector<double> latency_ms;  // misses as +inf
  std::vector<double> bfs_latency_ms;
  double lag_p50_ms = 0.0, lag_p99_ms = 0.0, lag_max_ms = 0.0;
  bool backlog = false;
  // Misses are in latency_ms as +inf, so more than 1% refused fails a rung.
  Rung rung() const { return {rate_qps, Percentile(latency_ms, 990), backlog}; }
};

PhaseSummary Summarize(const std::vector<Record>& recs,
                       const std::vector<Question>& questions, double rate,
                       double limit_ms) {
  PhaseSummary s;
  s.rate_qps = rate;
  std::vector<double> lag;
  for (const Record& r : recs) {
    const double ms = r.ok() ? NsToMs(r.done_ns - r.sched_ns) : kInf;
    s.latency_ms.push_back(ms);
    if (questions[r.question].kind == svc::QueryKind::kBfs) {
      s.bfs_latency_ms.push_back(ms);
    }
    lag.push_back(NsToMs(r.start_ns - r.sched_ns));
    s.ok += r.status == Status::kOk;
    s.wrong += r.status == Status::kWrong;
    s.refused += r.status == Status::kRefused;
    s.failed += r.status == Status::kFailed;
  }
  s.lag_p50_ms = Median(lag);
  s.lag_p99_ms = Percentile(lag, 990);
  s.lag_max_ms = lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  // Growing backlog: the last quarter of arrivals waits twice as long as the
  // first quarter did, and long enough to matter against the limit.
  const size_t quarter = recs.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(s.latency_ms.begin(), s.latency_ms.begin() + quarter);
    const std::vector<double> last(s.latency_ms.end() - quarter, s.latency_ms.end());
    const double a = Median(first);
    const double b = Median(last);
    s.backlog = b > 2.0 * a && b > 0.5 * limit_ms;
  }
  return s;
}

std::string Rate(double qps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", qps);
  return buf;
}

void PrintPhase(const char* name, const PhaseSummary& s, double limit_ms) {
  uint32_t used = 0;
  const double tail = SupportedTail(s.latency_ms, 990, &used);
  std::cout << name << " @" << Rate(s.rate_qps) << " qps: " << s.latency_ms.size()
            << " arrivals, ok " << s.ok << ", refused " << s.refused << ", failed "
            << s.failed << ", wrong " << s.wrong << "; p50 " << Median(s.latency_ms)
            << " ms, p" << used / 10.0 << " " << tail << " ms (limit " << limit_ms
            << " ms at p99), lag p99 " << s.lag_p99_ms << " ms"
            << (s.backlog ? ", backlog growing" : "") << "\n";
}

// ---- the workload -----------------------------------------------------------

enum class Mode { kServiceMix, kWireHot };

class Serving final : public Workload {
 public:
  Serving(const Args& args, Mode mode) : args_(args), mode_(mode) {
    if (mode_ == Mode::kServiceMix) {
      options_.workers = 4;
      plan_ = {250.0, {750, 1000, 1250, 1500, 1750, 2000, 2500}, 50.0};
    } else {
      options_.batch_max = 64;
      options_.cache_capacity = 64;
      plan_ = {4000.0, {8000, 16000, 24000, 32000, 48000, 64000, 80000, 96000, 128000}, 20.0};
    }
  }
  ~Serving() override { Stop(); }

  bool Setup(Tracer& tracer, Outcome& out) override {
    SetupTimes times;
    for (times.reps = 0; times.reps < kSetupReps; ++times.reps) {
      Stop();
      const int64_t t0 = NowNs();
      graph_ = TimedGraphBuild(kServiceScale, kServiceGraphSeed, tracer, times);
      const int64_t t1 = NowNs();
      service_ = std::make_unique<svc::GraphService>(graph_, options_);
      if (mode_ == Mode::kWireHot && !StartServer()) {
        return false;
      }
      const int64_t t2 = NowNs();
      tracer.Add(mode_ == Mode::kWireHot ? "server.start" : "service.start", "setup",
                 static_cast<uint64_t>(times.reps), t1, t2);
      times.total_s.push_back(NsToMs(t2 - t0) * 1e-3);
    }
    times.Report(out);
    std::cout << "graph: rmat scale " << kServiceScale << ", " << graph_.vertex_count()
              << " vertices, " << graph_.edge_count() << " edges (undirected)\n";

    // Questions and their one-shot oracles, outside any timed window.
    const bool hot = mode_ == Mode::kWireHot;
    // service-mix: PPR dominates the CPU and its cost differs by source, so
    // 128 sources keep op_cpu_us close from seed to seed.
    sources_ = PickSources(graph_, hot ? 4096 : 128, SubSeed(args_.seed, 1));
    if (sources_.empty()) {
      std::cerr << "perfbench: no traversal source reaches a tenth of the graph\n";
      return false;
    }
    for (VertexId s : sources_) {
      for (uint8_t k = 0; k < (hot ? 1 : svc::kQueryKindCount); ++k) {
        Question q;
        q.kind = static_cast<svc::QueryKind>(k);
        q.source = s;
        q.oracle = Oracle(q);
        questions_.push_back(q);
      }
    }
    std::cout << questions_.size() << " distinct questions from " << sources_.size()
              << " sources\n";

    // Warm-up, untimed: every question once through the service (fills the
    // worker arenas, and for wire-hot the connections and the cache), at
    // the reference rate or 2000 qps, whichever is lower.
    std::vector<Record> warm;
    const double gap_s = 1.0 / std::min(plan_.ref_qps, 2000.0);
    for (uint32_t q = 0; q < questions_.size(); ++q) {
      Record r;
      r.question = q;
      r.sched_ns = static_cast<int64_t>(q * gap_s * 1e9);
      warm.push_back(r);
    }
    Tracer off(false);
    RunLoad(warm, off);
    Count(warm, true, out);
    TightenTimerSlack();
    return true;
  }

  void Measure(double seconds, Tracer& tracer, Outcome& out) override {
    ++pass_;
    const svc::ServiceStats svc0 = service_->stats();
    const svc::ServerStats srv0 = server_ ? server_->stats() : svc::ServerStats{};

    // A second of load at the reference rate, not measured: the first
    // arrivals after an idle service meet cold arenas and sleeping threads.
    std::vector<Record> lead_in = Arrivals(plan_.ref_qps, 1.0, 99);
    Tracer off(false);
    RunLoad(lead_in, off);
    Count(lead_in, false, out);

    // Reference rate.
    const double ref_s = kReferenceShare * seconds;
    std::vector<Record> ref = Arrivals(plan_.ref_qps, ref_s, 0);
    const PoolWindow pool;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t harness_cpu_ns = RunLoad(ref, tracer);
    const int64_t system_cpu_ns = ProcessCpuNs() - cpu0 - harness_cpu_ns;
    Outcome pool_layers;
    pool.Report(pool_layers);
    const PhaseSummary rs = Summarize(ref, questions_, plan_.ref_qps, plan_.limit_ms);
    PrintPhase("reference", rs, plan_.limit_ms);
    // The system's CPU per answer: the benchmark's own threads left out.
    const double answered = static_cast<double>(std::max<uint64_t>(rs.ok, 1));
    const double system_us = NsToMs(system_cpu_ns) * 1e3 / answered;
    out.E2e("op_cpu_us", system_us, "us");
    std::cout << "reference CPU per answered query: system " << system_us
              << " us, load generator " << NsToMs(harness_cpu_ns) * 1e3 / answered << " us\n";
    Count(ref, true, out);
    uint32_t used = 0;
    uint32_t bfs_used = 0;
    // The footprint under the reference load; the staircase after it
    // allocates arrival records by the rung and would swamp it.
    out.E2e("peak_rss_mb", PeakRssMb(), "MB");
    out.Layer("service.p50_ms", Median(rs.latency_ms), "ms");
    out.Layer("service.p99_ms", SupportedTail(rs.latency_ms, 990, &used), "ms");
    out.Layer("service.bfs_p99_ms", SupportedTail(rs.bfs_latency_ms, 990, &bfs_used),
              "ms");
    std::cout << "service.p99_ms is p" << used / 10.0 << " of " << rs.latency_ms.size()
              << " answers; service.bfs_p99_ms is p" << bfs_used / 10.0 << " of "
              << rs.bfs_latency_ms.size() << "\n";
    if (rs.lag_p50_ms > kMaxReferenceLagP50Ms ||
        rs.lag_p99_ms > kMaxReferenceLagShare * plan_.limit_ms) {
      std::cout << "the generator fell behind at the reference rate: lag p50 "
                << rs.lag_p50_ms << " ms, p99 " << rs.lag_p99_ms << " ms\n";
      out.valid = false;
    }

    // Staircase: the reference rate is its first rung. It stops after
    // kFailedRungsToStop failing rungs in a row.
    std::vector<Rung> rungs = {rs.rung()};
    double inverse_rates = 0.0;
    for (double rate : plan_.rung_qps) {
      inverse_rates += 1.0 / rate;
    }
    const double rung_arrivals = kStaircaseShare * seconds / inverse_rates;
    int failed_in_a_row = RungMeets(rungs.back(), plan_.limit_ms) ? 0 : 1;
    for (size_t i = 0; i < plan_.rung_qps.size() && failed_in_a_row < kFailedRungsToStop;
         ++i) {
      const double rate = plan_.rung_qps[i];
      std::vector<Record> recs = Arrivals(rate, rung_arrivals / rate, i + 1);
      RunLoad(recs, off);  // spans cover the reference rate only
      const PhaseSummary s = Summarize(recs, questions_, rate, plan_.limit_ms);
      PrintPhase("rung", s, plan_.limit_ms);
      Count(recs, false, out);
      rungs.push_back(s.rung());
      failed_in_a_row = RungMeets(rungs.back(), plan_.limit_ms) ? 0 : failed_in_a_row + 1;
    }
    out.Layer("service.slo_qps", SloRate(rungs, plan_.limit_ms), "1/s");

    if (!ProbeEngine(kProbeShare * seconds, out)) {
      std::cerr << "perfbench: the engine probe failed\n";
      ++out.failed;
      ++out.mismatches;
    }
    if (!tracer.on()) {
      return;
    }

    // ---- per-layer metrics of the traced pass ----
    out.per_layer.insert(out.per_layer.end(), pool_layers.per_layer.begin(),
                         pool_layers.per_layer.end());
    const svc::ServiceStats svc1 = service_->stats();
    ServiceLayers(ref, svc0, svc1, ref_s, out);
    out.Layer("gen.lag_ms.p99", rs.lag_p99_ms, "ms");
    out.Layer("gen.lag_ms.max", rs.lag_max_ms, "ms");
    if (mode_ == Mode::kWireHot) {
      WireLayers(ref, srv0, server_->stats(), out);
    }
    Reconcile(ref);
  }

 private:
  // Every workload reports the <a>_cpu_ms metrics, and the service graph's
  // own engine times do not repeat: a call there is mostly pool wake-ups
  // or, serial, a few cache-resident milliseconds, and either moved 15-25%
  // between processes on one seed on a shared 4-vCPU host. So the service
  // workloads run analytics-rmat17 for `seconds` in a child process (this
  // binary again) and report its <a>_cpu_ms and ops. The child has a CPU
  // clock of its own, which the parent's idle service threads stay out of.
  bool ProbeEngine(double seconds, Outcome& out) const {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return false;
    }
    const std::string seed = std::to_string(args_.seed);
    const std::string secs = std::to_string(seconds);
    const char* const argv[] = {"perfbench", "--workload", "analytics-rmat17", "--seed",
                                seed.c_str(), "--seconds", secs.c_str(), "--trace", "0",
                                nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                      const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n = 0; spawned == 0 && (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
      if (n > 0) {
        text.append(buf, static_cast<size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
    ::close(fds[0]);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return false;
    }
    std::istringstream lines(text);
    size_t reported = 0;
    for (std::string line; std::getline(lines, line);) {
      char name[64];
      double value = 0.0;
      unsigned long long attempted = 0, failed = 0, wrong = 0;
      if (std::sscanf(line.c_str(), "metric %63s = %lf ms", name, &value) == 2 &&
          std::string_view(name).ends_with("_ms")) {
        out.E2e(name, value, "ms");
        ++reported;
      } else if (std::sscanf(line.c_str(), "ops: attempted %llu, failed %llu, wrong answers %llu",
                             &attempted, &failed, &wrong) == 3) {
        out.attempted += attempted;
        out.failed += failed;
        out.mismatches += wrong;
      } else if (line.starts_with("time to solution")) {
        std::cout << "engine probe (analytics-rmat17, " << secs << " s): " << line << "\n";
      }
    }
    return reported == kAlgoCount;
  }

  uint64_t Oracle(const Question& q) const {
    const simdx::EngineOptions defaults;  // what the service runs with
    const auto fp = [](const auto& r) {
      using Value = typename std::decay_t<decltype(r.values)>::value_type;
      return simdx::ValueBytesFingerprint(r.values.data(), r.values.size() * sizeof(Value));
    };
    switch (q.kind) {
      case svc::QueryKind::kBfs:
        return fp(simdx::RunBfs(graph_, q.source, options_.device, defaults));
      case svc::QueryKind::kSssp:
        return fp(simdx::RunSssp(graph_, q.source, options_.device, defaults));
      case svc::QueryKind::kPpr:
        return fp(simdx::RunPpr(graph_, q.source, options_.device, defaults));
      case svc::QueryKind::kKCore:
        return fp(simdx::RunKCore(graph_, svc::Query{}.k, options_.device, defaults));
      case svc::QueryKind::kCount:
        break;
    }
    return 0;
  }

  bool StartServer() {
    svc::ServerOptions so;
    so.uds_path = (args_.socket_dir.empty() ? std::string(".") : args_.socket_dir) +
                  "/perfbench-" + std::to_string(::getpid()) + ".sock";
    server_ = std::make_unique<svc::SocketServer>(*service_, so);
    std::string error;
    if (!server_->Start(&error)) {
      std::cerr << "perfbench: socket server: " << error << "\n";
      return false;
    }
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (uint32_t c = 0; c < std::min(hw, 4u); ++c) {
      conns_.push_back(std::make_unique<UdsConnection>(so.uds_path));
      if (conns_.back()->fd() < 0) {
        std::cerr << "perfbench: could not connect to " << so.uds_path << "\n";
        return false;
      }
    }
    return true;
  }

  void Stop() {
    conns_.clear();
    if (server_) {
      server_->Stop();
      server_.reset();
    }
    service_.reset();
  }

  // Seeded arrivals for phase `phase` of this pass.
  std::vector<Record> Arrivals(double rate, double seconds, uint64_t phase) {
    return Schedule(rate, seconds, SubSeed(args_.seed, 100 + pass_ * 64 + phase),
                    [this](std::mt19937_64& rng) { return PickQuestion(rng); });
  }

  // service-mix: any question, uniformly. wire-hot: 3/4 of arrivals re-ask
  // the hot set; the rest walk the other sources in a seeded order, so a
  // fresh question is not asked again until every other cold source has
  // been, long after the LRU cache dropped it.
  uint32_t PickQuestion(std::mt19937_64& rng) {
    const auto n = static_cast<uint32_t>(questions_.size());
    if (mode_ == Mode::kServiceMix) {
      return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
    }
    const uint32_t hot = std::min<uint32_t>(kHotQuestions, n);
    if (n == hot || std::bernoulli_distribution(kHotShare)(rng)) {
      return std::uniform_int_distribution<uint32_t>(0, hot - 1)(rng);
    }
    return hot + static_cast<uint32_t>(next_cold_++ % (n - hot));
  }

  // Drives `recs` open loop and returns the CPU time of the benchmark's own
  // threads meanwhile (generator, and answer collector or receiver).
  int64_t RunLoad(std::vector<Record>& recs, Tracer& tracer) {
    const int64_t cpu0 = ThreadCpuNs();
    const int64_t t0 = NowNs() + 1'000'000;
    int64_t harness_cpu_ns = 0;
    if (mode_ == Mode::kServiceMix) {
      harness_cpu_ns = DriveInProcess(*service_, recs, questions_, t0);
      service_->Drain();
    } else {
      harness_cpu_ns =
          DriveWire(conns_, recs, questions_, t0, next_request_id_, tracer.on(), wire_);
      next_request_id_ += recs.size();
    }
    harness_cpu_ns += ThreadCpuNs() - cpu0;
    // Spans of every query would run to gigabytes at wire-hot rates; one
    // query in `stride` is traced, all of its spans.
    const size_t stride =
        std::max<size_t>(1, (recs.size() + kTracedQueriesPerPhase - 1) / kTracedQueriesPerPhase);
    for (size_t i = 0; i < recs.size(); i += stride) {
      TraceQuery(tracer, recs[i], questions_[recs[i].question], ++next_trace_id_,
                 mode_ == Mode::kWireHot);
    }
    return harness_cpu_ns;
  }

  // Ops attempted and failed. A refusal is a failure only at the reference
  // rate; a wrong answer always is, and also fails the run.
  static void Count(const std::vector<Record>& recs, bool reference, Outcome& out) {
    for (const Record& r : recs) {
      ++out.attempted;
      const bool wrong = r.status == Status::kWrong;
      out.mismatches += wrong;
      out.failed += wrong || r.status == Status::kFailed ||
                    (reference && r.status == Status::kRefused);
    }
  }

  void ServiceLayers(const std::vector<Record>& ref, const svc::ServiceStats& a,
                     const svc::ServiceStats& b, double ref_s, Outcome& out) {
    std::vector<double> submit_us;
    std::vector<double> queue_ms;
    std::vector<std::vector<double>> run_ms(svc::kQueryKindCount);
    double busy_ms = 0.0;
    for (const Record& r : ref) {
      if (mode_ == Mode::kServiceMix) {
        submit_us.push_back(NsToMs(r.end_ns - r.start_ns) * 1e3);
      }
      if (r.ok()) {
        queue_ms.push_back(r.queue_ms);
        run_ms[static_cast<uint8_t>(questions_[r.question].kind)].push_back(r.run_ms);
        busy_ms += r.run_ms;
      }
    }
    if (mode_ == Mode::kWireHot) {
      submit_us = SubmitProbe();
    }
    out.Layer("service.submit_us.p50", Median(submit_us), "us");
    out.Layer("service.submit_us.p99", Percentile(submit_us, 990), "us");
    out.Layer("service.queue_ms.p50", Median(queue_ms), "ms");
    out.Layer("service.queue_ms.p99", Percentile(queue_ms, 990), "ms");
    for (uint8_t k = 0; k < svc::kQueryKindCount; ++k) {
      const std::string p =
          std::string("service.run_ms.") + svc::ToString(static_cast<svc::QueryKind>(k));
      out.Layer(p + ".p50", Median(run_ms[k]), "ms");
      out.Layer(p + ".p99", Percentile(run_ms[k], 990), "ms");
    }
    if (mode_ == Mode::kServiceMix) {
      // Batches would count their run time once per member; there are none here.
      out.Layer("service.busy_share", busy_ms / (options_.workers * ref_s * 1e3), "ratio");
    }
    const double submitted = static_cast<double>(b.submitted - a.submitted);
    const double shed = static_cast<double>(b.shed_queue_full - a.shed_queue_full +
                                            b.shed_deadline - a.shed_deadline);
    out.Layer("service.shed_share", submitted > 0 ? shed / submitted : 0.0, "ratio");
    out.Layer("service.ladder_transitions",
              static_cast<double>(b.ladder.size() - a.ladder.size()), "count");
    const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
    const double lookups = hits + static_cast<double>(b.cache_misses - a.cache_misses);
    out.Layer("service.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
    const double batches = static_cast<double>(b.batches - a.batches);
    const double batched = static_cast<double>(b.batched_queries - a.batched_queries);
    const double completed = static_cast<double>(b.completed - a.completed);
    out.Layer("service.batch_size", batches > 0 ? batched / batches : 0.0, "count");
    out.Layer("service.batched_share", completed > 0 ? batched / completed : 0.0, "ratio");
  }

  // Submit timed alone, in process, against the wire-hot service: the same
  // hot/fresh mix, one query at a time, waiting for each answer.
  std::vector<double> SubmitProbe() {
    std::mt19937_64 rng(SubSeed(args_.seed, 2));
    std::vector<double> us;
    for (int i = 0; i < kSubmitProbeQueries; ++i) {
      svc::Query q;
      q.source = questions_[PickQuestion(rng)].source;
      const int64_t t0 = NowNs();
      svc::GraphService::Ticket t = service_->Submit(q);
      us.push_back(NsToMs(NowNs() - t0) * 1e3);
      if (t.verdict == svc::AdmissionVerdict::kAdmitted) {
        t.result.wait();
      }
    }
    submit_probe_us_ = 0.0;
    for (double u : us) {
      submit_probe_us_ += u / static_cast<double>(us.size());
    }
    return us;
  }

  void WireLayers(const std::vector<Record>& ref, const svc::ServerStats& a,
                  const svc::ServerStats& b, Outcome& out) {
    std::vector<double> overhead;
    double decode_us = 0.0;
    size_t decoded = 0;
    for (const Record& r : ref) {
      if (r.ok()) {
        overhead.push_back(NsToMs(r.done_ns - r.start_ns) - r.queue_ms - r.run_ms);
        decode_us += r.decode_us;
        ++decoded;
      }
    }
    out.Layer("wire.overhead_ms.p50", Median(overhead), "ms");
    out.Layer("wire.overhead_ms.p99", Percentile(overhead, 990), "ms");
    out.Layer("wire.encode_us", wire_.encodes ? wire_.encode_us_sum / wire_.encodes : 0.0,
              "us");
    out.Layer("wire.decode_us", decoded ? decode_us / decoded : 0.0, "us");
    const double requests = static_cast<double>(b.requests - a.requests);
    out.Layer("wire.bytes_per_query",
              requests > 0 ? static_cast<double>(b.bytes_rx - a.bytes_rx + b.bytes_tx -
                                                 a.bytes_tx) /
                                 requests
                           : 0.0,
              "B");
    out.Layer("wire.rejects", static_cast<double>(b.rejects - a.rejects), "count");
  }

  // How the mean reference-rate latency splits into its parts; whatever the
  // parts do not explain is printed on its own line.
  void Reconcile(const std::vector<Record>& ref) {
    double n = 0, lat = 0, lag = 0, send = 0, queue = 0, run = 0, decode = 0;
    for (const Record& r : ref) {
      if (!r.ok()) {
        continue;
      }
      n += 1;
      lat += NsToMs(r.done_ns - r.sched_ns);
      lag += NsToMs(r.start_ns - r.sched_ns);
      send += NsToMs(r.end_ns - r.start_ns);
      queue += r.queue_ms;
      run += r.run_ms;
      decode += r.decode_us * 1e-3;
    }
    if (n == 0) {
      return;
    }
    const auto line = [&](const char* part, double sum_ms) {
      std::cout << "  " << part << ": " << sum_ms / n << " ms\n";
    };
    std::cout << "reconciliation of the mean reference-rate latency (" << n
              << " answers):\n";
    line("latency (scheduled arrival to answer)", lat);
    line("generator lag", lag);
    double explained = lag + queue + run;
    if (mode_ == Mode::kServiceMix) {
      line("Submit", send);
      explained += send;
    } else {
      const double submit = submit_probe_us_ * 1e-3 * n;
      line("wire send (encode + write)", send);
      line("Submit (timed alone)", submit);
      line("wire decode", decode);
      explained += send + submit + decode;
    }
    line("queue (echoed by the service)", queue);
    line("run (echoed by the service)", run);
    line("unexplained remainder", lat - explained);
  }

  const Args args_;
  const Mode mode_;
  svc::ServiceOptions options_;
  LoadPlan plan_;
  simdx::Graph graph_;
  std::vector<VertexId> sources_;
  std::vector<Question> questions_;
  std::unique_ptr<svc::GraphService> service_;
  std::unique_ptr<svc::SocketServer> server_;
  std::vector<std::unique_ptr<UdsConnection>> conns_;
  WireCounters wire_;
  uint64_t pass_ = 0;
  uint64_t next_cold_ = 0;
  uint64_t next_request_id_ = 0;
  uint64_t next_trace_id_ = 0;
  double submit_probe_us_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceMix(const Args& args) {
  return std::make_unique<Serving>(args, Mode::kServiceMix);
}

std::unique_ptr<Workload> MakeWireHot(const Args& args) {
  return std::make_unique<Serving>(args, Mode::kWireHot);
}

}  // namespace perfbench
