#pragma once
// Chordal-graph machinery: simplicial vertices, perfect vertex elimination
// schemes (PVES), elimination cliques.
//
// Interval graphs (the conflict graphs of straight-line scheduled DFGs) are
// chordal, so they admit a PVES; coloring greedily in *reverse* PVES order
// is optimal (Golumbic).  These routines work on any graph from its bitset
// adjacency.  The register binders do not call them: they take the same
// order and MCS from the live intervals (graph/interval.hpp), and the tests
// hold that path to these generic routines as its reference.

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/undirected_graph.hpp"

namespace lbist {

/// True if v's not-yet-eliminated neighbourhood induces a clique.
/// `removed` marks eliminated vertices.
[[nodiscard]] bool is_simplicial(const UndirectedGraph& g, std::size_t v,
                                 const DynBitset& removed);

/// Builds a PVES choosing, at every step, the simplicial vertex with the
/// smallest `priority_rank` (ties by vertex index).  Returns the elimination
/// order (first eliminated first), or nullopt if the graph is not chordal.
/// `priority_rank` may be empty, meaning "by vertex index".
[[nodiscard]] std::optional<std::vector<std::size_t>>
perfect_elimination_order(const UndirectedGraph& g,
                          const std::vector<std::size_t>& priority_rank = {});

/// True iff the graph is chordal (has a PVES).
[[nodiscard]] bool is_chordal(const UndirectedGraph& g);

/// The elimination cliques C_i = {order[i]} ∪ (later neighbours of
/// order[i]); every maximal clique of a chordal graph appears among these.
[[nodiscard]] std::vector<std::vector<std::size_t>> elimination_cliques(
    const UndirectedGraph& g, const std::vector<std::size_t>& order);

/// For each vertex v, the size of the largest elimination clique containing
/// v — the paper's MCS(v) (size of a maximum clique through v; exact for
/// chordal graphs).
[[nodiscard]] std::vector<std::size_t> max_clique_through_vertex(
    const UndirectedGraph& g, const std::vector<std::size_t>& order);

/// Size of the largest elimination clique — for a chordal graph its clique
/// number, which equals its chromatic number.  Throws lbist::Error if the
/// graph is not chordal.
[[nodiscard]] std::size_t chordal_clique_number(const UndirectedGraph& g);

}  // namespace lbist
