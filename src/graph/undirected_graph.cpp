#include "graph/undirected_graph.hpp"

#include "support/check.hpp"

namespace lbist {

void UndirectedGraph::add_edge(std::size_t a, std::size_t b) {
  LBIST_CHECK(a < rows_.size() && b < rows_.size(), "vertex out of range");
  LBIST_CHECK(a != b, "self loops not allowed");
  if (!rows_[a].test(b)) {
    rows_[a].set(b);
    rows_[b].set(a);
    ++num_edges_;
  }
}

}  // namespace lbist
