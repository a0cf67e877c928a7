// perfbench: one end-to-end benchmark for the engine, the query service and
// the wire. Usually run through run.py, which builds it first:
//
//   perfbench --workload <analytics-rmat17|service-mix|wire-hot> --seed N
//             --seconds S --trace <0|1> [--trace-out FILE] [--socket-dir DIR]
//             [--source-id ID]
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the workload
// twice in one process, first untraced and then with spans recorded, and
// reports the per-layer metrics of the traced pass plus the tracing overhead
// (traced minus untraced end-to-end and service latency figures). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "stats.h"

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The metric catalogue; BENCHMARK.json lists the same names and units, and
// run.py checks that the two agree.
const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},     {"bfs_cpu_ms", "ms"},
      {"sssp_cpu_ms", "ms"},     {"pagerank_cpu_ms", "ms"}, {"wcc_cpu_ms", "ms"},
      {"kcore_cpu_ms", "ms"},    {"op_cpu_us", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {{"graph.generate_s", "s"}, {"graph.build_s", "s"}};
    for (const char* a : {"bfs", "sssp", "pagerank", "wcc", "kcore"}) {
      const std::string p = std::string("engine.") + a + ".";
      for (const char* count : {"iterations", "edges", "push_iters", "pull_iters",
                                "records_buffered", "record_candidates"}) {
        s.push_back({p + count, "count"});
      }
      s.push_back({p + "ns_per_edge", "ns/edge"});
      s.push_back({p + "wall_ms", "ms"});
      s.push_back({p + "parallel_gain", "x"});
      s.push_back({p + "sim_ms", "sim_ms"});
    }
    s.insert(s.end(), {{"service.p50_ms", "ms"},
                       {"service.p99_ms", "ms"},
                       {"service.bfs_p99_ms", "ms"},
                       {"service.slo_qps", "1/s"},
                       {"pool.submits", "count"},
                       {"pool.contended_share", "ratio"},
                       {"pool.inline_share", "ratio"},
                       {"service.submit_us.p50", "us"},
                       {"service.submit_us.p99", "us"},
                       {"service.queue_ms.p50", "ms"},
                       {"service.queue_ms.p99", "ms"}});
    for (const char* kind : {"bfs", "sssp", "ppr", "kcore"}) {
      for (const char* q : {"p50", "p99"}) {
        s.push_back({std::string("service.run_ms.") + kind + "." + q, "ms"});
      }
    }
    s.insert(s.end(), {{"service.busy_share", "ratio"},
                       {"service.shed_share", "ratio"},
                       {"service.ladder_transitions", "count"},
                       {"service.cache_hit_rate", "ratio"},
                       {"service.batch_size", "count"},
                       {"service.batched_share", "ratio"},
                       {"wire.overhead_ms.p50", "ms"},
                       {"wire.overhead_ms.p99", "ms"},
                       {"wire.encode_us", "us"},
                       {"wire.decode_us", "us"},
                       {"wire.bytes_per_query", "B"},
                       {"wire.rejects", "count"},
                       {"gen.lag_ms.p99", "ms"},
                       {"gen.lag_ms.max", "ms"}});
    return s;
  }();
  return specs;
}

[[noreturn]] void Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <analytics-rmat17|service-mix|wire-hot>"
               " --seed N --seconds S --trace <0|1> [--trace-out FILE]"
               " [--socket-dir DIR] [--source-id ID]\n";
  std::exit(2);
}

Args Parse(int argc, char** argv, std::string* source_id) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--socket-dir") {
      a.socket_dir = value;
    } else if (flag == "--source-id") {
      *source_id = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  return a;
}

// Timings from a sanitizer, assertion or unoptimised build are refused.
const char* BuildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "assertions on or optimisation off";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "build type is not Release";
  }
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer flags in CMAKE_CXX_FLAGS";
  }
  return nullptr;
#endif
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// JSON has no infinity: a latency percentile that landed on a missed answer
// is reported as the largest double.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = std::numeric_limits<double>::max();
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

const Metric* Find(const std::vector<Metric>& metrics, const std::string& name) {
  const auto it = std::find_if(metrics.begin(), metrics.end(),
                               [&](const Metric& m) { return m.name == name; });
  return it == metrics.end() ? nullptr : &*it;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Ends with its parent: run.py on a timeout, or a service workload whose
  // engine probe this process is.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::string source_id = "unknown";
  const Args args = Parse(argc, argv, &source_id);
  for (const auto* catalog : {&EndToEndCatalog(), &PerLayerCatalog()}) {
    for (const MetricSpec& spec : *catalog) {
      if (!ValidMetricName(spec.name) || !ValidUnit(spec.unit)) {
        std::cerr << "perfbench: invalid metric " << spec.name << " [" << spec.unit << "]\n";
        return 1;
      }
    }
  }
  if (const char* refusal = BuildRefusal()) {
    std::cerr << "perfbench: refusing to report timings: " << refusal << "\n";
    return 2;
  }

  std::unique_ptr<Workload> workload;
  if (args.workload == "analytics-rmat17") {
    workload = MakeAnalytics(args);
  } else if (args.workload == "service-mix") {
    workload = MakeServiceMix(args);
  } else if (args.workload == "wire-hot") {
    workload = MakeWireHot(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::ostringstream provenance;
  provenance << "{\"workload\":" << Json(args.workload) << ",\"seed\":" << args.seed
             << ",\"seconds\":" << Number(args.seconds) << ",\"trace\":" << args.trace
             << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
             << ",\"build_type\":" << Json(PERFBENCH_BUILD_TYPE)
             << ",\"compiler\":" << Json(PERFBENCH_COMPILER)
             << ",\"source\":" << Json(source_id) << "}";
  std::cout << "provenance " << provenance.str() << std::endl;

  Tracer tracer(args.trace);
  Tracer untraced(false);
  Outcome setup;
  if (!workload->Setup(tracer, setup)) {
    std::cerr << "perfbench: set-up failed\n";
    return 1;
  }

  // The end-to-end run measures with tracing off. The traced run measures an
  // untraced pass first, then a traced one, so the overhead is a difference
  // of two passes over the same set-up.
  Outcome base;
  Outcome traced;
  const StealWindow steal;
  workload->Measure(args.trace ? args.seconds / 2 : args.seconds, untraced, base);
  if (args.trace) {
    workload->Measure(args.seconds / 2, tracer, traced);
  }
  std::cout << "CPU stolen by other guests while measuring: " << 100.0 * steal.Share()
            << "%\n";
  Outcome& out = args.trace ? traced : base;
  for (Outcome* o : {&base, &traced}) {
    o->end_to_end.insert(o->end_to_end.begin(), setup.end_to_end.begin(),
                         setup.end_to_end.end());
  }
  out.per_layer.insert(out.per_layer.end(), setup.per_layer.begin(),
                       setup.per_layer.end());

  // Every catalogue metric must be present in the reported pass: an
  // end-to-end gap is a bug; a per-layer gap is a layer this workload does
  // not use, reported as 0.
  for (const MetricSpec& spec : EndToEndCatalog()) {
    const Metric* m = Find(out.end_to_end, spec.name);
    if (m == nullptr || m->unit != spec.unit) {
      std::cerr << "perfbench: end-to-end metric " << spec.name << " missing\n";
      return 1;
    }
  }
  for (const MetricSpec& spec : PerLayerCatalog()) {
    const Metric* m = Find(out.per_layer, spec.name);
    if (m == nullptr) {
      out.Layer(spec.name, 0.0, spec.unit);
    } else if (m->unit != spec.unit) {
      std::cerr << "perfbench: per-layer metric " << spec.name << " has unit "
                << m->unit << ", catalogue says " << spec.unit << "\n";
      return 1;
    }
  }

  const std::vector<MetricSpec>& catalog =
      args.trace ? PerLayerCatalog() : EndToEndCatalog();
  const std::vector<Metric>& reported = args.trace ? out.per_layer : out.end_to_end;
  for (const MetricSpec& spec : catalog) {
    std::cout << "metric " << spec.name << " = " << Number(Find(reported, spec.name)->value)
              << " " << spec.unit << "\n";
  }
  if (args.trace) {
    std::cout << "tracing overhead (traced pass minus untraced pass):\n";
    const auto overhead = [](const Metric* t, const Metric* u) {
      if (t != nullptr && u != nullptr) {
        std::cout << "  " << t->name << ": " << Number(t->value) << " - " << Number(u->value)
                  << " = " << Number(t->value - u->value) << " " << t->unit << "\n";
      }
    };
    for (const MetricSpec& spec : EndToEndCatalog()) {
      overhead(Find(traced.end_to_end, spec.name), Find(base.end_to_end, spec.name));
    }
    // The service-level latency figures, measured in both passes.
    for (const char* name :
         {"service.p50_ms", "service.p99_ms", "service.bfs_p99_ms", "service.slo_qps"}) {
      overhead(Find(traced.per_layer, name), Find(base.per_layer, name));
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out, provenance.str())) {
      std::cerr << "perfbench: could not write " << args.trace_out << "\n";
      return 1;
    }
  }

  const uint64_t attempted = setup.attempted + base.attempted + traced.attempted;
  const uint64_t failed = setup.failed + base.failed + traced.failed;
  const uint64_t mismatches = setup.mismatches + base.mismatches + traced.mismatches;
  std::cout << "ops: attempted " << attempted << ", failed " << failed
            << ", wrong answers " << mismatches << "\n";
  // A late generator is the machine's fault, not the system's: the run is
  // marked, its figures are still reported.
  if (!base.valid || (args.trace && !traced.valid)) {
    std::cout << "run INVALID: the load generator fell behind its schedule\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < catalog.size(); ++i) {
    json << (i ? ", " : "") << Json(catalog[i].name) << ": {\"value\": "
         << Number(Find(reported, catalog[i].name)->value)
         << ", \"unit\": " << Json(catalog[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return mismatches == 0 ? 0 : 1;
}
