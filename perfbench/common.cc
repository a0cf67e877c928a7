#include <sys/resource.h>

#include <fstream>
#include <string>

#include "bench.h"
#include "graph/generators.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {

bool Tracer::Write(const std::string& path, const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  f << header_json << "\n";
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"parent\":\"" << s.parent
      << "\",\"id\":" << s.trace_id << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(f);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
  // so under a launcher it reports the launcher's peak when that is larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// The aggregate "cpu" line of /proc/stat: steal and the sum of all fields.
void ReadCpuTicks(uint64_t* steal, uint64_t* total) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  *steal = *total = 0;
  uint64_t v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    *total += v;
    if (field == 7) {
      *steal = v;
    }
  }
}

}  // namespace

StealWindow::StealWindow() { ReadCpuTicks(&steal0_, &total0_); }

double StealWindow::Share() const {
  uint64_t steal = 0;
  uint64_t total = 0;
  ReadCpuTicks(&steal, &total);
  return total > total0_ ? static_cast<double>(steal - steal0_) /
                               static_cast<double>(total - total0_)
                         : 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finaliser: independent-looking streams from one seed.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

simdx::Graph TimedGraphBuild(uint32_t scale, uint64_t seed, Tracer& tracer,
                             SetupTimes& times, simdx::Graph* directed) {
  const int64_t t0 = NowNs();
  simdx::EdgeList edges = simdx::GenerateRmat(scale, kEdgeFactor, seed);
  const int64_t t1 = NowNs();
  if (directed != nullptr) {
    *directed = simdx::Graph::FromEdges(edges, /*directed=*/true);
  }
  simdx::Graph g = simdx::Graph::FromEdges(std::move(edges), /*directed=*/false);
  const int64_t t2 = NowNs();
  tracer.Add("graph.generate", "setup", times.reps, t0, t1);
  tracer.Add("graph.build", "setup", times.reps, t1, t2);
  times.generate_s.push_back(NsToMs(t1 - t0) * 1e-3);
  times.build_s.push_back(NsToMs(t2 - t1) * 1e-3);
  return g;
}

void SetupTimes::Report(Outcome& out) const {
  out.E2e("setup_s", Median(total_s), "s");
  out.Layer("graph.generate_s", Median(generate_s), "s");
  out.Layer("graph.build_s", Median(build_s), "s");
}

}  // namespace perfbench
