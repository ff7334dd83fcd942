// Estimator workloads: farness-social, farness-road, betweenness-social.
//
// Untraced run: warm estimate_centrality calls for --seconds, each checked
// against the benchmark's own references. Traced run: the same estimate
// composed stage by stage from the public stage classes, each call wrapped
// in a span recorded here, plus kernel, thread-speedup, engine and daemon
// layer measurements (see README.md for which metric each should move).
#include <omp.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>

#include "common.hpp"
#include "gen/dataset.hpp"
#include "measures/betweenness.hpp"
#include "measures/brandes.hpp"
#include "obs/metrics.hpp"
#include "obs/parallel.hpp"
#include "pipeline/stages.hpp"
#include "reference.hpp"
#include "traverse/bfs.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace brics;

namespace {

constexpr std::size_t kFarnessProbes = 2048;
// Scale of the graph copy estimated at rate 1.0 during set-up.
constexpr double kExactScale = 0.03;
// Graph builds per run; setup_s is their median.
constexpr int kSetupBuilds = 15;

EstimateOptions estimator_options(bool bc, double rate, std::uint64_t seed) {
  EstimateOptions o;
  o.measure = bc ? Measure::kBetweenness : Measure::kFarness;
  o.sample_rate = rate;
  o.seed = seed;
  return o;
}

/// What the checks compare a result against.
struct Reference {
  bool bc = false;
  std::vector<NodeId> probes;         ///< farness: seeded probe nodes
  std::vector<std::uint64_t> farness; ///< farness: BFS farness of probes
  std::vector<double> betweenness;    ///< bc: Brandes value of every node
  std::vector<NodeId> leaves;         ///< bc: degree-1 nodes
};

/// Checks one estimate; returns its relative error Σ|est − ref| / Σ ref
/// over the probe set (all nodes for betweenness).
double check_result(const EstimateResult& r, const Reference& ref,
                    NodeId n, Outcome& out) {
  if (r.farness.size() != n) {
    out.fail_check("result has the wrong length");
    return 0.0;
  }
  if (r.degraded || r.samples != r.planned_samples)
    out.fail_check("estimate degraded or did not complete every source");
  double err = 0.0, total = 0.0;
  if (!ref.bc) {
    for (std::size_t i = 0; i < ref.probes.size(); ++i) {
      const NodeId v = ref.probes[i];
      const double exact = static_cast<double>(ref.farness[i]);
      if (r.exact[v] && r.farness[v] != exact)
        out.fail_check("node " + std::to_string(v) +
                       " is flagged exact but differs from BFS farness");
      err += std::fabs(r.farness[v] - exact);
      total += exact;
    }
  } else {
    for (NodeId v = 0; v < n; ++v) {
      const double x = r.farness[v];
      if (!std::isfinite(x) || x < 0.0)
        out.fail_check("betweenness of node " + std::to_string(v) +
                       " is negative or not finite");
      err += std::fabs(x - ref.betweenness[v]);
      total += ref.betweenness[v];
    }
    for (NodeId v : ref.leaves)
      if (r.farness[v] != 0.0)
        out.fail_check("degree-1 node " + std::to_string(v) +
                       " has nonzero betweenness");
  }
  return total > 0.0 ? err / total : 0.0;
}

/// At set-up: a scaled-down copy estimated at rate 1.0 must match the
/// benchmark's own Brandes within 1e-9 on every node, or its own BFS
/// farness exactly on every node flagged exact, and every node the
/// reduction kept must be flagged. (Nodes the reduction removed are
/// reconstructed, and only those anchored exactly are flagged exact.)
void check_exact_at_full_rate(const Workload& w, Outcome& out) {
  const CsrGraph small = build_dataset(w.graph, kExactScale);
  const PlainGraph pg = copy_graph(small);
  const NodeId n = small.num_nodes();
  const EstimateResult r =
      estimate_centrality(small, estimator_options(w.betweenness, 1.0, 7));
  ++out.attempted;
  if (r.degraded) ++out.failed;
  if (!w.betweenness) {
    std::vector<NodeId> all(n);
    for (NodeId v = 0; v < n; ++v) all[v] = v;
    const std::vector<std::uint64_t> f = bfs_farness(pg, all);
    NodeId flagged = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!r.exact[v]) continue;
      ++flagged;
      if (r.farness[v] != static_cast<double>(f[v])) {
        out.fail_check("rate-1.0 farness of node " + std::to_string(v) +
                       " on the scaled-down graph differs from BFS");
        break;
      }
    }
    if (flagged < r.reduce_stats.reduced_nodes)
      out.fail_check("rate-1.0 estimate flags fewer nodes exact than the "
                     "reduction kept");
  } else {
    const std::vector<double> bc = brandes_all(pg);
    for (NodeId v = 0; v < n; ++v)
      if (std::fabs(r.farness[v] - bc[v]) >
          1e-9 * std::max(1.0, std::fabs(bc[v]))) {
        out.fail_check("rate-1.0 betweenness of node " + std::to_string(v) +
                       " on the scaled-down graph differs from Brandes");
        break;
      }
  }
}

Reference build_reference(const Workload& w, const CsrGraph& g,
                          std::uint64_t seed, const std::string& build_dir) {
  Reference ref;
  ref.bc = w.betweenness;
  const PlainGraph pg = copy_graph(g);
  const NodeId n = g.num_nodes();
  if (!w.betweenness) {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<std::uint8_t> taken(n, 0);
    while (ref.probes.size() < std::min<std::size_t>(kFarnessProbes, n)) {
      const NodeId v = static_cast<NodeId>(rng() % n);
      if (!taken[v]) {
        taken[v] = 1;
        ref.probes.push_back(v);
      }
    }
    ref.farness = bfs_farness(pg, ref.probes);
  } else {
    ref.betweenness =
        brandes_all_cached(pg, build_dir + "/reference-cache", w.graph);
    for (NodeId v = 0; v < n; ++v)
      if (g.degree(v) == 1) ref.leaves.push_back(v);
  }
  return ref;
}

/// Sampling seed of the i-th estimate of a run.
std::uint64_t call_seed(std::uint64_t seed, std::uint64_t i) {
  return std::mt19937_64(seed * 1000003ull + i)();
}

// ---------------------------------------------------------------- traced

/// Artifacts of one staged run, kept for the speedup and kernel probes.
struct Staged {
  std::optional<ReducedGraph> rg;
  Decomposition dec;
  SamplePlan plan;
  std::optional<BcMasses> masses;
  EstimateResult result;
  double wall_s = 0.0;
  double stages_s = 0.0;
};

/// estimate_centrality composed from the public stages, one span per
/// stage. Mirrors estimate_brics / estimate_betweenness without the
/// checkpoint and fallback paths, which a healthy run never takes.
Staged run_staged(const CsrGraph& g, const EstimateOptions& base,
                  SpanLog& log) {
  EstimateOptions opts = base;
  if (opts.measure == Measure::kBetweenness)
    opts.reduce = bc_reduce_options(opts.reduce);
  Staged s;
  CancelToken token;
  SpanLog::Scope whole(log, "estimate");
  PipelineContext rctx(g, opts, token);
  {
    SpanLog::Scope sp(log, "reduce");
    s.rg.emplace(ReduceStage{}.run(rctx));
    s.stages_s += sp.close();
  }
  const ReducedGraph& rg = *s.rg;
  PipelineContext ctx(rg.graph, opts, token);
  ctx.set_phase(ExecPhase::kBcc);
  {
    SpanLog::Scope sp(log, "decompose");
    s.dec = DecomposeStage{}.run(ctx, rg);
    s.stages_s += sp.close();
  }
  {
    SpanLog::Scope sp(log, "plan");
    s.plan = PlanStage{}.run(ctx, s.dec, rg.num_present);
    if (opts.measure == Measure::kBetweenness)
      s.masses.emplace(compute_bc_masses(rg, s.dec));
    s.stages_s += sp.close();
  }
  if (opts.measure == Measure::kBetweenness) {
    BcTraversalResults trav;
    {
      SpanLog::Scope sp(log, "traverse");
      trav = BcTraverseStage{}.run(ctx, s.dec, s.plan, *s.masses);
      s.stages_s += sp.close();
    }
    SpanLog::Scope sp(log, "aggregate");
    s.result = BcAggregateStage{}.run(ctx, rg, s.dec, s.plan, trav, *s.masses);
    s.stages_s += sp.close();
  } else {
    TraversalResults trav;
    {
      SpanLog::Scope sp(log, "traverse");
      trav = TraverseStage{}.run(ctx, rg, s.dec, s.plan);
      s.stages_s += sp.close();
    }
    SpanLog::Scope sp(log, "aggregate");
    s.result = AggregateStage{}.run(ctx, rg, s.dec, s.plan, trav);
    s.stages_s += sp.close();
  }
  s.wall_s = whole.close();
  return s;
}

/// Wall time of the Traverse stage alone on an existing plan.
double time_traverse(const Staged& s, const EstimateOptions& base) {
  EstimateOptions opts = base;
  if (opts.measure == Measure::kBetweenness)
    opts.reduce = bc_reduce_options(opts.reduce);
  CancelToken token;
  PipelineContext ctx(s.rg->graph, opts, token);
  ctx.set_phase(ExecPhase::kTraverse);
  const Clock::time_point t0 = Clock::now();
  if (opts.measure == Measure::kBetweenness)
    (void)BcTraverseStage{}.run(ctx, s.dec, s.plan, *s.masses);
  else
    (void)TraverseStage{}.run(ctx, *s.rg, s.dec, s.plan);
  return seconds_since(t0);
}

std::uint64_t counter(const char* name) {
  const Counter* c = MetricsRegistry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Single-thread kernel throughput on the largest block: BFS on its
/// topology, Dial on its weighted form, and the Brandes dependency pass.
void add_kernel_layers(const Staged& s, std::uint64_t seed, Outcome& out) {
  BlockId giant = 0;
  for (BlockId b = 0; b < s.dec.num_blocks(); ++b)
    if (s.dec.blocks[b].num_nodes() > s.dec.blocks[giant].num_nodes())
      giant = b;
  const CsrGraph& block = s.dec.blocks[giant].sub.graph;
  const NodeId n = block.num_nodes();
  CsrGraph unit;
  if (block.unit_weights()) {
    unit = block;
  } else {
    GraphBuilder b(n);
    for (NodeId v = 0; v < n; ++v)
      block.for_neighbors(v, [&](NodeId u, Weight) {
        if (v < u) b.add_edge(v, u, 1);
      });
    unit = b.build();
  }
  std::mt19937_64 rng(seed ^ 0x5bd1e995ull);
  std::vector<NodeId> sources(16);
  for (NodeId& v : sources) v = static_cast<NodeId>(rng() % n);

  auto kernel_rate = [&](const CsrGraph& kg, bool dial, const char* prefix) {
    TraversalWorkspace ws;
    ws.resize(kg.num_nodes(), kg.max_weight());
    MetricsRegistry::global().reset();
    const Clock::time_point t0 = Clock::now();
    for (NodeId src : sources) {
      if (dial)
        dial_sssp(kg, src, ws);
      else
        bfs(kg, src, ws);
    }
    const double t = seconds_since(t0);
    const double edges = static_cast<double>(counter("traverse.edges_relaxed"));
    // Bytes one traversal streams: the CSR (offsets, targets, weights when
    // Dial reads them), the distance array and the queue or buckets.
    const double bytes = static_cast<double>(kg.memory().total()) +
                         static_cast<double>(kg.num_nodes()) *
                             (sizeof(Dist) + sizeof(NodeId));
    const double per_traversal = edges / static_cast<double>(sources.size());
    out.add(std::string(prefix) + ".edges_per_s", edges / t, "1/s");
    out.add(std::string(prefix) + ".bytes_per_edge",
            per_traversal > 0 ? bytes / per_traversal : 0.0, "B");
  };
  kernel_rate(unit, false, "kernel.bfs");
  kernel_rate(block, true, "kernel.dial");

  BcWorkspace bws;
  bws.resize(n, block.max_weight());
  TraversalWorkspace tws;
  tws.resize(n, block.max_weight());
  std::vector<double> pass_us;
  for (NodeId src : sources) {
    sssp(block, src, tws);
    const Clock::time_point t0 = Clock::now();
    bc_dependency_pass(block, src, tws.dist(), {}, bws);
    pass_us.push_back(seconds_since(t0) * 1e6);
  }
  out.add("brandes.pass_us", median(pass_us), "us");
}

}  // namespace

void add_pipeline_layers(const CsrGraph& g, bool bc, double rate,
                         const Args& a, Outcome& out) {
  SpanLog log;
  const int threads = omp_get_num_procs();
  set_threads(threads);
  const EstimateOptions base = estimator_options(bc, rate, a.seed);

  // The first estimate in this process is the cold one; it is timed apart.
  (void)run_staged(g, base, log);
  ++out.attempted;
  const double cold_decompose = log.durations("decompose").back();

  std::vector<double> walls, gaps;
  std::optional<Staged> last;
  const std::size_t first_warm = log.spans().size();
  const Clock::time_point t0 = Clock::now();
  do {
    MetricsRegistry::global().reset();
    last.emplace(run_staged(g, base, log));
    ++out.attempted;
    if (last->result.degraded) ++out.failed;
    walls.push_back(last->wall_s);
    gaps.push_back(last->wall_s - last->stages_s);
  } while (seconds_since(t0) < a.seconds);

  auto warm_median = [&](const std::string& name) {
    std::vector<double> d;
    const auto& spans = log.spans();
    for (std::size_t i = first_warm; i < spans.size(); ++i)
      if (spans[i].name == name) d.push_back(spans[i].end_s - spans[i].start_s);
    return median(d);
  };

  const ReduceStats& rs = last->rg->stats;
  out.add("reduce.s", warm_median("reduce"), "s");
  out.add("reduce.nodes_removed",
          static_cast<double>(rs.input_nodes - rs.reduced_nodes), "count");
  out.add("bcc.s", warm_median("decompose"), "s");
  out.add("bcc.blocks", static_cast<double>(last->dec.num_blocks()), "count");
  out.add("bcc.cold_s", cold_decompose, "s");
  out.add("plan.s", warm_median("plan"), "s");
  out.add("plan.sources", static_cast<double>(last->plan.total_sources()),
          "count");
  out.add("traverse.s", warm_median("traverse"), "s");
  out.add("aggregate.s", warm_median("aggregate"), "s");
  out.add("stages.unaccounted_s", median(gaps), "s");

  // Tracing overhead: the same estimate through estimate_centrality with
  // no spans, against the staged median above.
  std::vector<double> untraced;
  for (int i = 0; i < 2; ++i) {
    const Clock::time_point u0 = Clock::now();
    const EstimateResult r = estimate_centrality(g, base);
    untraced.push_back(seconds_since(u0));
    ++out.attempted;
    if (r.degraded) ++out.failed;
  }
  out.add("trace.overhead_s", median(walls) - median(untraced), "s");

  // Measured Traverse speedup: same plan at 1 thread and at nproc threads.
  set_threads(1);
  const double t1 = time_traverse(*last, base);
  set_threads(threads);
  MetricsRegistry::global().reset();
  const double tn = time_traverse(*last, base);
  const ParallelStats ps =
      collect_parallel_stats(MetricsRegistry::global(), threads);
  const double edges = static_cast<double>(counter("traverse.edges_relaxed"));
  out.add("traverse.edges_relaxed", edges, "count");
  out.add("traverse.nodes_settled",
          static_cast<double>(counter("traverse.nodes_settled")), "count");
  out.add("traverse.busy_s", ps.busy_total_s, "s");
  out.add("traverse.idle_s",
          std::max(0.0, tn * threads - ps.busy_total_s), "s");
  out.add("traverse.edges_per_s_per_thread", edges / (tn * threads), "1/s");
  out.add("traverse.speedup", t1 / tn, "x");

  add_kernel_layers(*last, a.seed, out);

  if (!a.build_dir.empty()) {
    std::filesystem::create_directories(a.build_dir + "/traces");
    std::ofstream(a.build_dir + "/traces/" + a.workload + "-seed" +
                  std::to_string(a.seed) + ".json")
        << log.to_chrome_json();
  }
}

double median_build_s(const std::string& graph, int builds) {
  // One thread: with nproc threads the build's short OpenMP regions swing
  // between 0.02 and 0.09 s with the host's load, at one thread by ±5%.
  // The untimed builds warm the allocator.
  const int threads = omp_get_max_threads();
  set_threads(1);
  for (int i = 0; i < 3; ++i) (void)build_dataset(graph, 1.0);
  std::vector<double> times;
  for (int i = 0; i < builds; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)build_dataset(graph, 1.0);
    times.push_back(seconds_since(t0));
  }
  set_threads(threads);
  return median(times);
}

Outcome run_estimator_workload(const Workload& w, const Args& a) {
  Outcome out;
  set_threads(omp_get_num_procs());
  const CsrGraph g = build_dataset(w.graph, 1.0);
  const NodeId n = g.num_nodes();

  if (a.trace) {
    // Stage attribution first, so that its cold run is this process's
    // first estimate; the engine and daemon layers follow.
    add_pipeline_layers(g, w.betweenness, w.rate, a, out);
    out.add("gen.build_s", median_build_s(w.graph, kSetupBuilds), "s");
    check_exact_at_full_rate(w, out);
    add_engine_layers(g, w.rate, a, out);
    add_server_layers(w, g, a, 3.0, out);
    return out;
  }

  const double setup_s = median_build_s(w.graph, kSetupBuilds);
  check_exact_at_full_rate(w, out);
  const Reference ref = build_reference(w, g, a.seed, a.build_dir);

  // Warm-up: the first estimate in a process pays one-off costs (thread
  // pool start, first-touch page faults) that bcc.cold_s reports.
  {
    const EstimateResult r = estimate_centrality(
        g, estimator_options(w.betweenness, w.rate, call_seed(a.seed, 0)));
    ++out.attempted;
    if (r.degraded) ++out.failed;
    check_result(r, ref, n, out);
  }

  // The first kAccuracyPanel timed estimates use the fixed sampling seeds
  // 1..kAccuracyPanel and give rel_err; later ones use seeds from --seed.
  std::vector<double> times;
  double err = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 1;
       i <= kAccuracyPanel || seconds_since(start) < a.seconds; ++i) {
    const EstimateOptions o = estimator_options(
        w.betweenness, w.rate, i <= kAccuracyPanel ? i : call_seed(a.seed, i));
    const Clock::time_point t0 = Clock::now();
    const EstimateResult r = estimate_centrality(g, o);
    times.push_back(seconds_since(t0));
    ++out.attempted;
    if (r.degraded) ++out.failed;
    const double e = check_result(r, ref, n, out);
    if (i <= kAccuracyPanel) err += e / kAccuracyPanel;
  }

  out.add("estimate_s", median(times), "s");
  out.add("op_p50_ms", median(times) * 1e3, "ms");
  out.add("rel_err", err, "ratio");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb_self(), "MB");
  return out;
}

}  // namespace perfbench
