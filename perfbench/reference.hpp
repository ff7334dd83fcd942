// Independent reference computations: plain BFS farness and plain Brandes
// betweenness on the benchmark's own copy of the graph.
//
// The library's oracles (exact_farness, exact_betweenness) run the
// estimator's own traversal kernels and its own bc_dependency_pass, so a
// defect in those would pass unseen. These share no code with the library:
// the graph is copied into a private CSR and traversed with a textbook
// queue BFS and a textbook Brandes (one forward pass counting shortest
// paths, one backward pass over the BFS order accumulating dependencies).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"

namespace perfbench {

using brics::NodeId;

/// Unweighted undirected graph in the benchmark's own CSR.
struct PlainGraph {
  std::vector<std::uint64_t> offsets;  ///< n + 1
  std::vector<NodeId> targets;         ///< both directions of every edge

  NodeId num_nodes() const {
    return static_cast<NodeId>(offsets.size() - 1);
  }
};

/// Copy `g`'s topology. Throws std::runtime_error if g is weighted (every
/// workload graph is unit-weight).
PlainGraph copy_graph(const brics::CsrGraph& g);

/// `base` plus undirected edges `extra` (assumed absent from base).
PlainGraph with_edges(const PlainGraph& base,
                      const std::vector<std::pair<NodeId, NodeId>>& extra);

/// Σ_w d(s, w) for each s in `sources` (graph must be connected), computed
/// in parallel over sources.
std::vector<std::uint64_t> bfs_farness(const PlainGraph& g,
                                       const std::vector<NodeId>& sources);

/// Unnormalised ordered-pair betweenness of every node: Σ_s δ_s(v).
/// Parallel over static source ranges with per-thread partial sums merged
/// in thread order.
std::vector<double> brandes_all(const PlainGraph& g);

/// brandes_all, cached in `cache_dir` under a key derived from the graph's
/// contents (the full-graph reference costs a minute of CPU; the graph
/// does not depend on the seed). A missing or mismatched file recomputes.
std::vector<double> brandes_all_cached(const PlainGraph& g,
                                       const std::string& cache_dir,
                                       const std::string& label);

}  // namespace perfbench
