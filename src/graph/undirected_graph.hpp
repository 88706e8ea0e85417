#pragma once
// Dense undirected graph over vertices 0..n-1, one packed `DynBitset`
// adjacency row per vertex.  Serves the clique binder's compatibility graph
// and the generic chordal / max-clique routines, which the tests and demos
// run on conflict graphs built by `interval_graph` (graph/interval.hpp).
// Synthesis itself never builds conflict edges: the register binders read
// the live intervals.

#include <cstddef>
#include <vector>

#include "support/dyn_bitset.hpp"

namespace lbist {

/// Simple undirected graph; no self loops.
class UndirectedGraph {
 public:
  UndirectedGraph() = default;
  explicit UndirectedGraph(std::size_t n) : rows_(n, DynBitset(n)) {}

  [[nodiscard]] std::size_t num_vertices() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Adds edge {a, b}; idempotent.  Self loops are rejected.
  void add_edge(std::size_t a, std::size_t b);

  [[nodiscard]] bool adjacent(std::size_t a, std::size_t b) const {
    return rows_[a].test(b);
  }

  /// Adjacency row of `v`.
  [[nodiscard]] const DynBitset& row(std::size_t v) const { return rows_[v]; }

  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return rows_[v].count();
  }

  /// Neighbors of `v` in increasing order.
  [[nodiscard]] std::vector<std::size_t> neighbors(std::size_t v) const {
    return rows_[v].members();
  }

 private:
  std::vector<DynBitset> rows_;
  std::size_t num_edges_ = 0;
};

}  // namespace lbist
