// Shared plumbing of the benchmark program: workload table, metric output,
// timing helpers and the span log the traced run records from outside the
// library (see README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "graph/csr_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// rel_err is the mean over estimates with the fixed sampling seeds
/// 1..kAccuracyPanel. On road-grid-b one estimate's error varies fourfold
/// with the sampling seed, so a panel drawn from --seed would need far more
/// estimates per run to hold rel_err's bound; a fixed panel makes it a
/// comparison of the same estimates across builds.
constexpr int kAccuracyPanel = 3;

/// One workload: which registry graph, which measure, which rate.
struct Workload {
  std::string name;
  std::string graph;  ///< registry name, built at scale 1.0
  bool betweenness = false;
  double rate = 0.3;
  bool serve = false;  ///< drive the brics_serve daemon instead
};

const Workload* find_workload(const std::string& name);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string build_dir;  ///< holds brics_serve and the reference cache
};

/// Ordered metric list, printed as the "metrics" object of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& why) {
    if (problems.size() < 20) problems.push_back(why);
    correct = false;
  }
};

Outcome run_estimator_workload(const Workload& w, const Args& a);
Outcome run_serve_workload(const Workload& w, const Args& a);

/// Median wall time of `builds` single-thread build_dataset calls.
double median_build_s(const std::string& graph, int builds);

// Per-layer probes shared by every traced run.

/// Stage spans of the staged estimate, Traverse speedup, kernel rates.
void add_pipeline_layers(const brics::CsrGraph& g, bool bc, double rate,
                         const Args& a, Outcome& out);
/// In-process ServerEngine / DynamicFarness / checkpoint costs on `g`.
void add_engine_layers(const brics::CsrGraph& g, double rate, const Args& a,
                       Outcome& out);
/// A brics_serve session of `seconds` on the workload's graph: the
/// server-side latency split and the reads that overlapped an update.
void add_server_layers(const Workload& w, const brics::CsrGraph& g,
                       const Args& a, double seconds, Outcome& out);

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank style quantile with linear interpolation, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Spans recorded around calls into the library: name, start, end and the
/// enclosing span. Kept in memory and written out as a Chrome trace when
/// the traced run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(
          {std::move(name), log_.now(), -1.0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span now; returns its duration in seconds.
    double close() {
      Span& s = log_.spans_[static_cast<std::size_t>(index_)];
      if (s.end_s < 0.0) {
        s.end_s = log_.now();
        log_.open_ = s.parent;
      }
      return s.end_s - s.start_s;
    }

   private:
    SpanLog& log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name && s.end_s >= 0.0) out.push_back(s.end_s - s.start_s);
    return out;
  }

  /// Chrome trace_event JSON (complete events, microseconds).
  std::string to_chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    bool first = true;
    for (const Span& s : spans_) {
      if (s.end_s < 0.0) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                    first ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6, s.parent);
      first = false;
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
