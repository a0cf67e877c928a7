// Shared plumbing of the end-to-end benchmark: the clock, the in-memory span
// recorder, metric collection and the per-workload entry points.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
// CPU time of every thread of the process, and of the calling thread. The
// kernel leaves out time the hypervisor gave the vCPU to other guests
// (steal), which wall time cannot.
inline int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }
// Sleeps until a scheduled instant. (Spinning the last stretch would cut
// wake-up jitter on an idle machine, but under load the scheduler then
// treats the generator as CPU-bound and starves it for milliseconds.)
inline void WaitUntilNs(int64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   // where the traced run writes its spans
  std::string socket_dir;  // where wire-hot binds its Unix socket
};

// One timed interval at a layer boundary. Spans of one query share
// `trace_id`; `parent` names the span that caused this one.
struct Span {
  const char* name = "";
  const char* parent = "";
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps spans in memory while the benchmark runs and writes them out at the
// end. Disabled, every call is a no-op, which is what the untraced run uses.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void Add(const char* name, const char* parent, uint64_t trace_id,
           int64_t start_ns, int64_t end_ns) {
    if (!on_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, trace_id, start_ns, end_ns});
  }
  // One JSON object per line: a header line, then one line per span.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one measured pass of a workload produced.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // wrong answers: any makes the run fail
  bool valid = true;        // false when the load generator fell behind
  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// A workload sets up once (false: it could not), then measures one or more
// passes. Each pass prints its detail lines to stdout and adds its metrics
// to `out`; `tracer` records spans when it is on. The caller merges Setup's
// Outcome into the reported pass.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool Setup(Tracer& tracer, Outcome& out) = 0;
  virtual void Measure(double seconds, Tracer& tracer, Outcome& out) = 0;
};

std::unique_ptr<Workload> MakeAnalytics(const Args& args);
std::unique_ptr<Workload> MakeServiceMix(const Args& args);
std::unique_ptr<Workload> MakeWireHot(const Args& args);

// Peak resident memory of the process so far, in MiB.
double PeakRssMb();

// Share of the machine's CPU time that the hypervisor gave to other guests
// between construction and Share() (/proc/stat steal; 0 where there is none).
class StealWindow {
 public:
  StealWindow();
  double Share() const;

 private:
  uint64_t steal0_ = 0;
  uint64_t total0_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
