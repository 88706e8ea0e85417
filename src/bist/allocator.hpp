#pragma once
// BIST test-resource allocation — the BITS stand-in (see DESIGN.md §2).
//
// Given a data path, choose one BIST embedding per module (TPG pair + SA)
// so that the total extra area of converting registers to test registers is
// minimal.  Modules need not be tested in the same session, so a register
// may be TPG for one module and SA for another (a BILBO, role TpgSa); only
// a register that is TPG and SA *for the same module* must be a CBILBO.
//
// `solve` runs a per-module branch-and-bound dynamic program over register
// role-state vectors (3 bits per register: tpg, sa, cbilbo).  A greedy
// completion seeds the incumbent; since role flags only accumulate and the
// area model is (normally) monotone in them, a partial state's own area is
// an admissible lower bound and strictly-worse states are cut without
// losing exactness.  If the surviving frontier still exceeds a cap — or
// the design has more registers than `exact_max_regs`, which makes every
// DP state itself large — the allocator falls back to the greedy solver.
// Objective is lexicographic: minimal extra area, then fewest CBILBOs,
// then fewest modified registers.
//
// The greedy solver gives each module, in order, the first embedding of
// least marginal cost.  Since that cost depends only on the current roles
// of the touched registers, it scans only a few registers of each role per
// port (O(fan-in) per module) and still picks the embedding the full
// |left| x |right| x |dests| product would; the argument is at
// `solve_greedy_impl`.

#include <optional>
#include <string>
#include <vector>

#include "bist/area_model.hpp"
#include "bist/roles.hpp"
#include "rtl/datapath.hpp"
#include "rtl/ipath.hpp"

namespace lbist {

class AlgorithmEvents;  // obs/events.hpp

/// Per-role counts of a solution (the columns of Tables II and III).
struct RoleCounts {
  int tpg = 0;
  int sa = 0;
  int tpg_sa = 0;  ///< BILBOs
  int cbilbo = 0;

  [[nodiscard]] int modified() const { return tpg + sa + tpg_sa + cbilbo; }
  [[nodiscard]] std::string to_string() const;
};

/// A complete BIST resource allocation.
struct BistSolution {
  /// Final role of every register (index space of Datapath::registers).
  std::vector<BistRole> roles;
  /// Chosen embedding per module, in module order; nullopt for untestable
  /// modules.
  std::vector<std::optional<BistEmbedding>> embeddings;
  /// Modules with no feasible embedding (e.g. one register feeds both
  /// input ports).
  std::vector<std::size_t> untestable_modules;
  /// Total extra gates of the register conversions.
  double extra_area = 0.0;
  /// True when produced by the exact DP; false for greedy (including the
  /// frontier-cap fallback, where a larger embedding space can paradoxically
  /// yield a worse solution).
  bool exact = true;

  [[nodiscard]] RoleCounts counts() const;
  /// Overhead as percentage of functional area (the paper's "% BIST area").
  [[nodiscard]] double overhead_percent(const Datapath& dp,
                                        const AreaModel& model) const;
  [[nodiscard]] std::string describe(const Datapath& dp) const;
};

/// Minimal-area BIST allocation.
class BistAllocator {
 public:
  explicit BistAllocator(AreaModel model) : model_(model) {}

  /// Exact branch-and-bound solver; falls back to greedy beyond
  /// `max_frontier` surviving states or `exact_max_regs` registers.
  [[nodiscard]] BistSolution solve(const Datapath& dp) const;

  /// Greedy: modules in order, each takes its locally cheapest embedding
  /// (the first in enumeration order).  Scans a few options per role and
  /// port, so it costs O(fan-in) per module at any design size.
  [[nodiscard]] BistSolution solve_greedy(const Datapath& dp) const;

  /// Frontier cap for the exact DP (states per module level).
  std::size_t max_frontier = 500000;

  /// Register-count cap for the exact DP.  Each DP state is one role byte
  /// per register, so frontier memory and hashing cost scale with the
  /// register count; past this many registers the search would burn
  /// seconds and gigabytes before the inevitable `max_frontier` bail, so
  /// `solve` goes straight to the greedy allocator instead.
  /// Paper benchmarks and fuzz shapes sit far below this cap.
  std::size_t exact_max_regs = 192;

  /// Also consider TPG paths through modules held in an identity mode
  /// (extension; widens the embedding space at zero area cost — see
  /// rtl/ipath.hpp and bench_transparency).
  bool use_transparent_paths = false;

  /// Among area-minimal solutions, prefer the one needing the fewest test
  /// sessions (shorter total test time).  Evaluates the session count of
  /// every area-optimal final state, so leave off for very large designs.
  bool minimize_sessions = false;

  /// If non-null, receives per-register role assignments, greedy-fallback
  /// notifications and the greedy scan's embedding count
  /// (obs/events.hpp).  Borrowed, not owned.
  AlgorithmEvents* events = nullptr;

 private:
  /// The greedy scan.  `emit_roles` is false when it only seeds the
  /// branch-and-bound incumbent; the embedding count is published either
  /// way.
  [[nodiscard]] BistSolution solve_greedy_impl(const Datapath& dp,
                                               bool emit_roles) const;

  AreaModel model_;
};

}  // namespace lbist
