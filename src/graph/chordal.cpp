#include "graph/chordal.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "support/check.hpp"

namespace lbist {

namespace {

/// Window-local simpliciality check: is N(v) ∩ alive a clique?  `alive` is
/// bit-per-vertex; `scratch` receives the alive neighbourhood words and must
/// be at least the row window long.  On failure `witness` receives a pair of
/// alive, non-adjacent neighbours — the certificate stays valid until one of
/// them is eliminated, so callers can skip rechecks while both live.
bool simplicial_in(const UndirectedGraph& g, std::size_t v,
                   const DynBitset& alive,
                   std::vector<std::uint64_t>& scratch,
                   std::pair<std::size_t, std::size_t>* witness) {
  const RowView row = g.row(v);
  const std::size_t lo = row.word_lo();
  const std::size_t hi = row.word_hi();
  scratch.resize(hi > lo ? hi - lo : 0);
  for (std::size_t w = lo; w < hi; ++w) {
    const std::uint64_t aw = w < alive.num_words() ? alive.word(w) : 0;
    scratch[w - lo] = row.word(w) & aw;
  }
  for (std::size_t w = lo; w < hi; ++w) {
    std::uint64_t bits = scratch[w - lo];
    while (bits != 0) {
      const std::size_t u =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      // (alive N(v) \ {u}) must be a subset of N(u).
      const RowView row_u = g.row(u);
      for (std::size_t w2 = lo; w2 < hi; ++w2) {
        std::uint64_t bad = scratch[w2 - lo] & ~row_u.word(w2);
        if (w2 == u / 64) bad &= ~(std::uint64_t{1} << (u % 64));
        if (bad != 0) {
          if (witness != nullptr) {
            *witness = {u, w2 * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bad))};
          }
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

bool is_simplicial(const UndirectedGraph& g, std::size_t v,
                   const DynBitset& removed) {
  DynBitset alive(g.num_vertices());
  for (std::size_t w = 0; w < alive.num_words(); ++w) {
    const std::uint64_t rw = w < removed.num_words() ? removed.word(w) : 0;
    alive.or_word(w, ~rw);
  }
  // Mask stray high bits the complement may have introduced in the last
  // word (they would otherwise alias out-of-range "alive" vertices).
  const std::size_t n = g.num_vertices();
  if (n % 64 != 0 && alive.num_words() > 0) {
    alive.and_word(alive.num_words() - 1,
                   (std::uint64_t{1} << (n % 64)) - 1);
  }
  std::vector<std::uint64_t> scratch;
  return simplicial_in(g, v, alive, scratch, nullptr);
}

std::optional<std::vector<std::size_t>> perfect_elimination_order(
    const UndirectedGraph& g, const std::vector<std::size_t>& priority_rank) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(priority_rank.empty() || priority_rank.size() == n,
              "priority_rank must cover every vertex");
  auto rank = [&](std::size_t v) {
    return priority_rank.empty() ? v : priority_rank[v];
  };

  // Incremental formulation of the greedy min-rank elimination: once a
  // vertex's alive neighbourhood is a clique it stays one (elimination only
  // shrinks neighbourhoods), so each vertex enters the ready-heap exactly
  // once, and only neighbours of an eliminated vertex can newly qualify.
  // Non-simplicial vertices carry a witness pair of alive non-adjacent
  // neighbours; while both live, the recheck is skipped outright.  This
  // replaces the historical O(n) full rescans per elimination step, which
  // were the dominant cost of large-DFG binding.
  DynBitset alive(n);
  for (std::size_t v = 0; v < n; ++v) alive.set(v);
  std::vector<char> ready(n, 0);
  constexpr std::size_t kNone = SIZE_MAX;
  std::vector<std::pair<std::size_t, std::size_t>> witness(
      n, {kNone, kNone});
  std::vector<std::uint64_t> scratch;

  using HeapItem = std::pair<std::size_t, std::size_t>;  // (rank, vertex)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  for (std::size_t v = 0; v < n; ++v) {
    if (simplicial_in(g, v, alive, scratch, &witness[v])) {
      ready[v] = 1;
      heap.emplace(rank(v), v);
    }
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  while (order.size() < n) {
    if (heap.empty()) return std::nullopt;  // no simplicial vertex: not chordal
    const std::size_t v = heap.top().second;
    heap.pop();
    order.push_back(v);
    alive.reset(v);
    g.row(v).for_each([&](std::size_t u) {
      if (!alive.test(u) || ready[u] != 0) return;
      auto& [wa, wb] = witness[u];
      if (wa != kNone && alive.test(wa) && alive.test(wb)) return;
      if (simplicial_in(g, u, alive, scratch, &witness[u])) {
        ready[u] = 1;
        heap.emplace(rank(u), u);
      }
    });
  }
  return order;
}

bool is_chordal(const UndirectedGraph& g) {
  return perfect_elimination_order(g).has_value();
}

std::vector<std::vector<std::size_t>> elimination_cliques(
    const UndirectedGraph& g, const std::vector<std::size_t>& order) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(order.size() == n, "order must cover every vertex");
  DynBitset removed(n);
  std::vector<std::vector<std::size_t>> cliques;
  cliques.reserve(n);
  for (std::size_t v : order) {
    std::vector<std::size_t> clique{v};
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) clique.push_back(u);
    });
    std::sort(clique.begin(), clique.end());
    cliques.push_back(std::move(clique));
    removed.set(v);
  }
  return cliques;
}

std::vector<std::size_t> max_clique_through_vertex(
    const UndirectedGraph& g, const std::vector<std::size_t>& order) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(order.size() == n, "order must cover every vertex");
  // Streamed version of "max elimination-clique size through v": walking the
  // cliques directly avoids materializing them (they total O(edges) space).
  std::vector<std::size_t> mcs(n, 0);
  DynBitset removed(n);
  for (std::size_t v : order) {
    std::size_t clique_size = 1;
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) ++clique_size;
    });
    mcs[v] = std::max(mcs[v], clique_size);
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) mcs[u] = std::max(mcs[u], clique_size);
    });
    removed.set(v);
  }
  return mcs;
}

std::size_t chordal_clique_number(const UndirectedGraph& g) {
  auto order = perfect_elimination_order(g);
  LBIST_CHECK(order.has_value(), "graph is not chordal");
  std::size_t best = 0;
  for (const auto& clique : elimination_cliques(g, *order)) {
    best = std::max(best, clique.size());
  }
  return best;
}

}  // namespace lbist
