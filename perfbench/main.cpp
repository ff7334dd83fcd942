// brics_perfbench — one run of one benchmark workload (see README.md).
//
//   brics_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --build-dir DIR
//
// Prints one JSON line as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1, printing no result, on any error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

const Workload* find_workload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"farness-social", "soc-pref-b", false, 0.3, false},
      {"farness-road", "road-grid-b", false, 0.3, false},
      {"betweenness-social", "soc-pref-b", true, 0.1, false},
      {"serve-rw", "web-copy-b", false, 0.3, true},
  };
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

// Every run reports exactly these, in this order; BENCHMARK.json lists the
// same names.
const char* const kEndToEnd[] = {"estimate_s", "op_p50_ms", "rel_err",
                                 "setup_s", "peak_rss_mb"};
const char* const kPerLayer[] = {
    "gen.build_s",
    "reduce.s",
    "reduce.nodes_removed",
    "bcc.s",
    "bcc.blocks",
    "bcc.cold_s",
    "plan.s",
    "plan.sources",
    "traverse.s",
    "traverse.edges_relaxed",
    "traverse.nodes_settled",
    "traverse.busy_s",
    "traverse.idle_s",
    "traverse.edges_per_s_per_thread",
    "traverse.speedup",
    "aggregate.s",
    "stages.unaccounted_s",
    "trace.overhead_s",
    "kernel.bfs.edges_per_s",
    "kernel.bfs.bytes_per_edge",
    "kernel.dial.edges_per_s",
    "kernel.dial.bytes_per_edge",
    "brandes.pass_us",
    "serve.initial_estimate_s",
    "engine.farness_query_us",
    "engine.apply_ms",
    "checkpoint.commit_bytes",
    "dynamic.insert_ms",
    "server.queue_wait_ms",
    "server.execute_ms",
    "server.reply_write_ms",
    "server.read_p50_during_update_ms",
    "server.read_max_during_update_ms",
    "server.read_p99_ms",
    "server.reads_per_s",
    "server.update_p50_ms",
    "server.update_late_max_ms",
};

int usage() {
  std::fprintf(stderr,
               "usage: brics_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --build-dir DIR\n");
  return 2;
}

template <std::size_t N>
std::string render(const Outcome& o, const char* const (&names)[N]) {
  if (o.metrics.size() != N)
    throw std::runtime_error("run produced " +
                             std::to_string(o.metrics.size()) +
                             " metrics, expected " + std::to_string(N));
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric* m = nullptr;
    for (const Metric& x : o.metrics)
      if (x.name == names[i]) m = &x;
    if (m == nullptr)
      throw std::runtime_error(std::string("metric missing: ") + names[i]);
    if (!std::isfinite(m->value))
      throw std::runtime_error("metric not finite: " + m->name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m->name.c_str(), m->value,
                  m->unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--build-dir") {
      a.build_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_trace || a.build_dir.empty() ||
      !(a.seconds > 0.0))
    return usage();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  try {
    const Outcome o = w->serve ? run_serve_workload(*w, a)
                               : run_estimator_workload(*w, a);
    for (const std::string& p : o.problems)
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    const std::string line =
        a.trace ? render(o, kPerLayer) : render(o, kEndToEnd);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "brics_perfbench: %s\n", e.what());
    return 1;
  }
}
