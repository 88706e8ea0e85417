#include "graph/bron_kerbosch.hpp"

#include <algorithm>

namespace lbist {

namespace {

struct Search {
  const UndirectedGraph& g;
  std::vector<std::size_t> best;

  void expand(std::vector<std::size_t>& r, DynBitset p, DynBitset x) {
    if (!p.any() && !x.any()) {
      if (r.size() > best.size()) best = r;
      return;
    }
    // Bound: even taking all of P cannot beat the incumbent.
    if (r.size() + p.count() <= best.size()) return;

    // Pivot: vertex of P ∪ X with the most neighbours in P.
    std::size_t pivot = 0;
    std::size_t pivot_degree = 0;
    bool have_pivot = false;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      if (!p.test(v) && !x.test(v)) continue;
      const std::size_t d = p.intersect_count(g.row(v));
      if (!have_pivot || d > pivot_degree) {
        pivot = v;
        pivot_degree = d;
        have_pivot = true;
      }
    }

    // Candidates: P minus the pivot's neighbourhood.
    DynBitset candidates = p;
    if (have_pivot) {
      g.row(pivot).for_each_set_bit(
          [&](std::size_t v) { candidates.reset(v); });
    }
    for (std::size_t v : candidates.members()) {
      r.push_back(v);
      DynBitset np = p;
      np &= g.row(v);
      DynBitset nx = x;
      nx &= g.row(v);
      expand(r, np, nx);
      r.pop_back();
      p.reset(v);
      x.set(v);
    }
  }
};

}  // namespace

std::vector<std::size_t> max_clique(const UndirectedGraph& g) {
  const std::size_t n = g.num_vertices();
  Search search{g, {}};
  DynBitset p(n), x(n);
  for (std::size_t v = 0; v < n; ++v) p.set(v);
  std::vector<std::size_t> r;
  search.expand(r, p, x);
  std::sort(search.best.begin(), search.best.end());
  return search.best;
}

std::size_t max_clique_size(const UndirectedGraph& g) {
  return max_clique(g).size();
}

}  // namespace lbist
