#include "reference.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <omp.h>
#include <unistd.h>

namespace perfbench {

PlainGraph copy_graph(const brics::CsrGraph& g) {
  if (!g.unit_weights())
    throw std::runtime_error("reference graphs must be unit-weight");
  PlainGraph p;
  const NodeId n = g.num_nodes();
  p.offsets.assign(n + 1, 0);
  p.targets.reserve(g.num_directed_edges());
  for (NodeId v = 0; v < n; ++v) {
    g.for_neighbors(v, [&](NodeId u, brics::Weight) { p.targets.push_back(u); });
    p.offsets[v + 1] = p.targets.size();
  }
  return p;
}

PlainGraph with_edges(const PlainGraph& base,
                      const std::vector<std::pair<NodeId, NodeId>>& extra) {
  const NodeId n = base.num_nodes();
  std::vector<std::vector<NodeId>> add(n);
  for (const auto& [u, v] : extra) {
    add[u].push_back(v);
    add[v].push_back(u);
  }
  PlainGraph p;
  p.offsets.assign(n + 1, 0);
  p.targets.reserve(base.targets.size() + 2 * extra.size());
  for (NodeId v = 0; v < n; ++v) {
    p.targets.insert(p.targets.end(), base.targets.begin() + base.offsets[v],
                     base.targets.begin() + base.offsets[v + 1]);
    p.targets.insert(p.targets.end(), add[v].begin(), add[v].end());
    p.offsets[v + 1] = p.targets.size();
  }
  return p;
}

namespace {

constexpr std::uint32_t kUnseen = 0xffffffffu;

// Queue BFS; fills dist and the visit order, returns Σ dist.
std::uint64_t bfs(const PlainGraph& g, NodeId s, std::vector<std::uint32_t>& dist,
                  std::vector<NodeId>& order) {
  std::fill(dist.begin(), dist.end(), kUnseen);
  order.clear();
  dist[s] = 0;
  order.push_back(s);
  std::uint64_t sum = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    const std::uint32_t dv = dist[v];
    sum += dv;
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const NodeId u = g.targets[e];
      if (dist[u] == kUnseen) {
        dist[u] = dv + 1;
        order.push_back(u);
      }
    }
  }
  if (order.size() != g.num_nodes())
    throw std::runtime_error("reference BFS: graph is not connected");
  return sum;
}

}  // namespace

std::vector<std::uint64_t> bfs_farness(const PlainGraph& g,
                                       const std::vector<NodeId>& sources) {
  std::vector<std::uint64_t> out(sources.size(), 0);
  const NodeId n = g.num_nodes();
  bool disconnected = false;
#pragma omp parallel
  {
    std::vector<std::uint32_t> dist(n);
    std::vector<NodeId> order;
    order.reserve(n);
#pragma omp for schedule(dynamic, 4)
    for (std::size_t i = 0; i < sources.size(); ++i) {
      try {
        out[i] = bfs(g, sources[i], dist, order);
      } catch (const std::exception&) {
#pragma omp atomic write
        disconnected = true;
      }
    }
  }
  if (disconnected)
    throw std::runtime_error("reference BFS: graph is not connected");
  return out;
}

std::vector<double> brandes_all(const PlainGraph& g) {
  const NodeId n = g.num_nodes();
  const int threads = omp_get_max_threads();
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(threads));
#pragma omp parallel num_threads(threads)
  {
    const int t = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    std::vector<double>& bc = partial[static_cast<std::size_t>(t)];
    bc.assign(n, 0.0);
    std::vector<std::uint32_t> dist(n);
    std::vector<NodeId> order;
    order.reserve(n);
    std::vector<double> sigma(n), delta(n);
    const NodeId lo = static_cast<NodeId>(std::uint64_t{n} * t / nt);
    const NodeId hi = static_cast<NodeId>(std::uint64_t{n} * (t + 1) / nt);
    for (NodeId s = lo; s < hi; ++s) {
      std::fill(dist.begin(), dist.end(), kUnseen);
      order.clear();
      dist[s] = 0;
      sigma[s] = 1.0;
      order.push_back(s);
      for (std::size_t head = 0; head < order.size(); ++head) {
        const NodeId v = order[head];
        delta[v] = 0.0;
        for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
          const NodeId u = g.targets[e];
          if (dist[u] == kUnseen) {
            dist[u] = dist[v] + 1;
            sigma[u] = 0.0;
            order.push_back(u);
          }
          if (dist[u] == dist[v] + 1) sigma[u] += sigma[v];
        }
      }
      for (std::size_t i = order.size(); i-- > 1;) {
        const NodeId w = order[i];
        for (std::uint64_t e = g.offsets[w]; e < g.offsets[w + 1]; ++e) {
          const NodeId v = g.targets[e];
          if (dist[v] + 1 == dist[w])
            delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
        bc[w] += delta[w];
      }
    }
  }
  std::vector<double> bc(n, 0.0);
  for (const std::vector<double>& p : partial)
    for (NodeId v = 0; v < n; ++v) bc[v] += p[v];
  return bc;
}

namespace {

std::uint64_t graph_key(const PlainGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (std::uint64_t o : g.offsets) mix(o);
  for (NodeId t : g.targets) mix(t);
  return h;
}

}  // namespace

std::vector<double> brandes_all_cached(const PlainGraph& g,
                                       const std::string& cache_dir,
                                       const std::string& label) {
  const std::uint64_t key = graph_key(g);
  char name[128];
  std::snprintf(name, sizeof(name), "brandes-%s-%016llx.bin", label.c_str(),
                static_cast<unsigned long long>(key));
  const std::filesystem::path path = std::filesystem::path(cache_dir) / name;
  const std::size_t n = g.num_nodes();
  {
    std::ifstream in(path, std::ios::binary);
    std::uint64_t stored_key = 0, stored_n = 0;
    std::vector<double> bc(n);
    if (in.read(reinterpret_cast<char*>(&stored_key), sizeof(stored_key)) &&
        in.read(reinterpret_cast<char*>(&stored_n), sizeof(stored_n)) &&
        stored_key == key && stored_n == n &&
        in.read(reinterpret_cast<char*>(bc.data()),
                static_cast<std::streamsize>(n * sizeof(double))))
      return bc;
  }
  std::vector<double> bc = brandes_all(g);
  std::filesystem::create_directories(cache_dir);
  const std::filesystem::path tmp =
      path.string() + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const std::uint64_t stored_n = n;
    out.write(reinterpret_cast<const char*>(&key), sizeof(key));
    out.write(reinterpret_cast<const char*>(&stored_n), sizeof(stored_n));
    out.write(reinterpret_cast<const char*>(bc.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
  return bc;
}

}  // namespace perfbench
