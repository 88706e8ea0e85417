// Tests for the scaling-tier machinery: DynBitset word-level operations,
// the incremental perfect-elimination-order builder, the ΔSD word kernel
// and the incremental Lemma-2 CbilboTracker — each checked against a
// from-scratch recomputation or the reference implementation it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "binding/cbilbo_check.hpp"
#include "binding/cbilbo_tracker.hpp"
#include "binding/module_spec.hpp"
#include "binding/sharing.hpp"
#include "core/synthesizer.hpp"
#include "dfg/random_dfg.hpp"
#include "graph/chordal.hpp"
#include "graph/interval.hpp"
#include "graph/undirected_graph.hpp"
#include "support/dyn_bitset.hpp"

namespace lbist {
namespace {

// ---------------------------------------------------------------------------
// DynBitset

TEST(DynBitsetTest, WordBoundarySizes) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{128}}) {
    DynBitset b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(b.num_words(), (n + 63) / 64);
    EXPECT_FALSE(b.any());
    EXPECT_EQ(b.count(), 0u);

    b.set(0);
    b.set(n - 1);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(n - 1));
    EXPECT_EQ(b.count(), n == 1 ? 1u : 2u);

    b.reset(n - 1);
    EXPECT_FALSE(b.test(n - 1));
  }
}

TEST(DynBitsetTest, IterateSetBitsAcrossWords) {
  DynBitset b(130);
  const std::vector<std::size_t> want = {0, 1, 63, 64, 65, 127, 128, 129};
  for (std::size_t i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each_set_bit([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.members(), want);
}

TEST(DynBitsetTest, IntersectAndClearOnEmptyAndFull) {
  DynBitset empty(100);
  DynBitset full(100);
  for (std::size_t i = 0; i < 100; ++i) full.set(i);

  EXPECT_FALSE(empty.intersects(full));
  EXPECT_FALSE(full.intersects(empty));
  EXPECT_TRUE(full.intersects(full));
  EXPECT_EQ(empty.intersect_count(full), 0u);
  EXPECT_EQ(full.intersect_count(full), 100u);
  EXPECT_TRUE(empty.subset_of(full));
  EXPECT_FALSE(full.subset_of(empty));

  full.clear();
  EXPECT_FALSE(full.any());
  EXPECT_EQ(full.count(), 0u);
  EXPECT_EQ(full.num_words(), 2u);  // capacity survives clear()

  empty.clear();  // clearing an already-empty set is a no-op
  EXPECT_FALSE(empty.any());
}

TEST(DynBitsetTest, CountAndNotMatchesMergedRecompute) {
  // The ΔSD kernel: |a \ b| must equal |a ∪ b| - |b| for arbitrary masks.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    DynBitset a(n);
    DynBitset b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 3 == 0) a.set(i);
      if (rng() % 3 == 0) b.set(i);
    }
    DynBitset merged = b;
    merged |= a;
    EXPECT_EQ(a.count_and_not(b), merged.count() - b.count());
    EXPECT_EQ(a.intersect_count(b), a.count() + b.count() - merged.count());
  }
}

// ---------------------------------------------------------------------------
// Incremental PEO vs the reference greedy scan

/// The O(n^3) reference: repeatedly eliminate the smallest-rank simplicial
/// vertex, rescanning everything each step.
std::optional<std::vector<std::size_t>> reference_peo(
    const UndirectedGraph& g, const std::vector<std::size_t>& rank) {
  const std::size_t n = g.num_vertices();
  DynBitset removed(n);
  std::vector<std::size_t> order;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (removed.test(v) || !is_simplicial(g, v, removed)) continue;
      if (best == n || (!rank.empty() && rank[v] < rank[best]) ||
          (!rank.empty() && rank[v] == rank[best] && v < best) ||
          (rank.empty() && v < best)) {
        best = v;
      }
    }
    if (best == n) return std::nullopt;
    order.push_back(best);
    removed.set(best);
  }
  return order;
}

/// Random live intervals (birth, death]: their `interval_graph` is chordal,
/// the binder's actual shape.
std::vector<LiveInterval> random_intervals(std::size_t n,
                                           std::mt19937_64& rng) {
  std::vector<LiveInterval> iv(n);
  for (auto& [birth, death] : iv) {
    birth = static_cast<int>(rng() % (2 * n));
    death = birth + 1 + static_cast<int>(rng() % 10);
  }
  return iv;
}

TEST(ChordalTest, IncrementalPeoMatchesReferenceOnIntervalGraphs) {
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + rng() % 60;
    const std::vector<LiveInterval> iv = random_intervals(n, rng);
    const UndirectedGraph g = interval_graph(iv);

    auto got = perfect_elimination_order(g);
    auto want = reference_peo(g, {});
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(interval_elimination_order(iv), *want);

    // And with a nontrivial priority rank (the binder's PVES path).
    std::vector<std::size_t> rank(n);
    for (std::size_t v = 0; v < n; ++v) rank[v] = rng() % 5;
    auto got_rank = perfect_elimination_order(g, rank);
    auto want_rank = reference_peo(g, rank);
    ASSERT_TRUE(want_rank.has_value());
    ASSERT_TRUE(got_rank.has_value());
    EXPECT_EQ(*got_rank, *want_rank);
    EXPECT_EQ(interval_elimination_order(iv, rank), *want_rank);
  }
}

TEST(ChordalTest, NonChordalGraphHasNoPeo) {
  UndirectedGraph c4(4);  // the 4-cycle: smallest non-chordal graph
  c4.add_edge(0, 1);
  c4.add_edge(1, 2);
  c4.add_edge(2, 3);
  c4.add_edge(3, 0);
  EXPECT_FALSE(perfect_elimination_order(c4).has_value());
  EXPECT_FALSE(is_chordal(c4));
}

// ---------------------------------------------------------------------------
// ΔSD incremental vs recompute on real random DFGs

RandomDfgOptions dfg_opts(std::uint64_t seed) {
  RandomDfgOptions o;
  o.seed = seed;
  o.num_steps = 8;
  o.ops_per_step = 3;
  o.num_inputs = 5;
  o.kinds = {OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Sub};
  return o;
}

TEST(DeltaSdTest, IncrementalDeltasTelescopeToFullRecompute) {
  // The binder accumulates SD(R) as a running sum of count_and_not deltas.
  // For every register of a real binding, that sum must equal the SD of
  // the register's recomputed union mask — in any insertion order.
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const RandomDfg rd = make_random_dfg(dfg_opts(seed));
    SynthesisOptions so;
    so.binder = BinderKind::BistAware;
    const SynthesisResult res = Synthesizer(so).run(
        rd.dfg, rd.schedule, minimal_module_spec(rd.dfg, rd.schedule));

    const SharingAnalysis sharing(rd.dfg, res.modules);
    for (const auto& members : res.registers.regs) {
      for (int order = 0; order < 2; ++order) {
        std::vector<VarId> vars(members.begin(), members.end());
        if (order == 1) std::reverse(vars.begin(), vars.end());
        DynBitset share = sharing.empty_mask();
        std::size_t sd_incremental = 0;
        for (VarId v : vars) {
          sd_incremental += sharing.mask(v).count_and_not(share);
          share |= sharing.mask(v);
        }
        EXPECT_EQ(sd_incremental,
                  static_cast<std::size_t>(SharingAnalysis::sd_of(share)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CbilboTracker vs brute-force forced_cbilbos

TEST(CbilboTrackerTest, MatchesBruteForceAtEveryPrefix) {
  for (std::uint64_t seed : {5u, 17u, 29u, 41u}) {
    const RandomDfg rd = make_random_dfg(dfg_opts(seed));
    SynthesisOptions so;
    so.binder = BinderKind::Traditional;
    const SynthesisResult res = Synthesizer(so).run(
        rd.dfg, rd.schedule, minimal_module_spec(rd.dfg, rd.schedule));
    const ModuleBinding& mb = res.modules;
    const RegisterBinding& rb = res.registers;

    CbilboTracker tracker(rd.dfg, mb);
    std::vector<DynBitset> masks;
    for (std::size_t r = 0; r < rb.regs.size(); ++r) {
      EXPECT_EQ(tracker.add_register(), r);
      masks.emplace_back(rd.dfg.num_vars());
    }

    // Replay the final binding variable by variable (VarId order, which
    // interleaves registers like the real binder does) and require the
    // tracker to agree with a from-scratch Lemma-2 evaluation after every
    // single placement — and to have predicted it via delta_if_assigned.
    for (const auto& var : rd.dfg.vars()) {
      const RegId reg = rb.reg_of[var.id];
      if (!reg.valid()) continue;
      const std::size_t r = reg.index();
      const int before = tracker.current();
      const int delta = tracker.delta_if_assigned(var.id, r);
      tracker.assign(var.id, r);
      masks[r].set(var.id.index());
      EXPECT_EQ(tracker.current(), before + delta);
      EXPECT_EQ(static_cast<std::size_t>(tracker.current()),
                forced_cbilbos(mb, masks).size())
          << "seed " << seed << " after placing " << var.name;
    }
  }
}

}  // namespace
}  // namespace lbist
