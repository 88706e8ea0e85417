#include "bist/allocator.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "bist/sessions.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"

namespace lbist {

namespace {

/// Frontier cap of the exact DP: past this many surviving states in one
/// module level, `solve` abandons the search for the greedy allocator.  A
/// level is built in full before the next starts, so the cap bounds the
/// DP's memory (500k states of one role byte per register each).
constexpr std::size_t kMaxFrontier = 500000;

/// Register-count gate of the exact DP.  A DP state is one role byte per
/// register, so frontier memory and hashing cost grow with the register
/// count; past this many registers the search would burn seconds and
/// gigabytes before the inevitable kMaxFrontier bail, so `solve` goes
/// straight to greedy.  The paper designs and fuzz shapes have at most a
/// few dozen registers and never reach it.
constexpr std::size_t kExactMaxRegs = 192;

using StateKey = std::string;  // one byte of RoleFlags per register

StateKey apply_embedding(const StateKey& state, const BistEmbedding& e) {
  StateKey next = state;
  auto set_flags = [&](std::size_t reg, bool tpg, bool sa) {
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[reg]));
    f.tpg = f.tpg || tpg;
    f.sa = f.sa || sa;
    next[reg] = static_cast<char>(f.encode());
  };
  set_flags(e.tpg_left, true, false);
  set_flags(e.tpg_right, true, false);
  if (e.sa.has_value()) {
    if (e.needs_cbilbo()) {
      RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[*e.sa]));
      f.tpg = true;
      f.sa = true;
      f.cbilbo = true;
      next[*e.sa] = static_cast<char>(f.encode());
    } else {
      set_flags(*e.sa, false, true);
    }
  }
  return next;
}

double role_extra_of(char c, const AreaModel& model) {
  return model.role_extra(
      RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
}

/// Area change from `prev` to `next` where `next = apply_embedding(prev,
/// e)`: only the (up to three) registers e touches can differ.
double area_delta(const StateKey& prev, const StateKey& next,
                  const BistEmbedding& e, const AreaModel& model) {
  double delta = 0.0;
  auto touch = [&](std::size_t reg) {
    if (prev[reg] != next[reg]) {
      delta += role_extra_of(next[reg], model) -
               role_extra_of(prev[reg], model);
    }
  };
  // Deduplicate: an embedding may reuse one register for several roles, and
  // counting its change twice would corrupt the incremental area.
  std::size_t touched[3];
  std::size_t count = 0;
  auto add_unique = [&](std::size_t reg) {
    for (std::size_t i = 0; i < count; ++i) {
      if (touched[i] == reg) return;
    }
    touched[count++] = reg;
  };
  add_unique(e.tpg_left);
  add_unique(e.tpg_right);
  if (e.sa.has_value()) add_unique(*e.sa);
  for (std::size_t i = 0; i < count; ++i) touch(touched[i]);
  return delta;
}

/// Objective change `cost_of(apply_embedding(state, e)) -
/// cost_of(state)`, computed from the (up to three) touched registers
/// without copying the state.  All three components are non-negative
/// whenever the model is flag-monotone (flags only accumulate), and role
/// extras are small multiples of the bit width, so comparing deltas is
/// exactly equivalent to comparing the absolute tuples.
std::tuple<double, int, int> delta_of(const StateKey& state,
                                      const BistEmbedding& e,
                                      const AreaModel& model) {
  std::size_t touched[3];
  std::size_t count = 0;
  auto add_unique = [&](std::size_t reg) {
    for (std::size_t i = 0; i < count; ++i) {
      if (touched[i] == reg) return;
    }
    touched[count++] = reg;
  };
  add_unique(e.tpg_left);
  add_unique(e.tpg_right);
  if (e.sa.has_value()) add_unique(*e.sa);

  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t reg = touched[i];
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(state[reg]));
    RoleFlags next = f;
    if (reg == e.tpg_left || reg == e.tpg_right) next.tpg = true;
    if (e.sa.has_value() && reg == *e.sa) {
      next.sa = true;
      if (e.needs_cbilbo()) {
        next.tpg = true;
        next.cbilbo = true;
      }
    }
    const BistRole before = f.role();
    const BistRole after = next.role();
    if (before == after) continue;
    area += model.role_extra(after) - model.role_extra(before);
    cbilbos += (after == BistRole::Cbilbo ? 1 : 0) -
               (before == BistRole::Cbilbo ? 1 : 0);
    modified += (after != BistRole::None ? 1 : 0) -
                (before != BistRole::None ? 1 : 0);
  }
  return {area, cbilbos, modified};
}

/// (extra_area, #cbilbo, #modified): the lexicographic objective.
std::tuple<double, int, int> cost_of(const StateKey& state,
                                     const AreaModel& model) {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (char c : state) {
    const BistRole role =
        RoleFlags::decode(static_cast<std::uint8_t>(c)).role();
    area += model.role_extra(role);
    if (role == BistRole::Cbilbo) ++cbilbos;
    if (role != BistRole::None) ++modified;
  }
  return {area, cbilbos, modified};
}

/// True if adding role flags never decreases `role_extra` — the property
/// that makes a state's own area an admissible bound on every completion.
/// Holds for the default model (None <= Tpg/Sa <= TpgSa <= Cbilbo) but a
/// custom AreaModel may break it, in which case pruning is disabled.
bool area_flag_monotone(const AreaModel& model) {
  const double none = model.role_extra(BistRole::None);
  const double tpg = model.role_extra(BistRole::Tpg);
  const double sa = model.role_extra(BistRole::Sa);
  const double bilbo = model.role_extra(BistRole::TpgSa);
  const double cbilbo = model.role_extra(BistRole::Cbilbo);
  return none <= tpg && none <= sa && tpg <= bilbo && sa <= bilbo &&
         bilbo <= cbilbo;
}

BistRole role_in(const StateKey& state, std::size_t reg) {
  return RoleFlags::decode(static_cast<std::uint8_t>(state[reg])).role();
}

/// Keep counts of the greedy scan's role filter (see solve_greedy_impl):
/// one more than the registers a replacement option may have to avoid.
constexpr int kKeepTpg = 4;        // other TPG, its via register, the SA
constexpr int kKeepCbilboTpg = 3;  // other TPG and its via register
constexpr int kKeepDest = 5;       // both TPGs and both via registers
constexpr std::size_t kRoles = static_cast<std::size_t>(BistRole::Cbilbo) + 1;

/// Shortens `opts` to the options the greedy scan needs under `state`:
/// per port, the first kKeepTpg direct options of each current role, the
/// first kKeepCbilboTpg of each role that are also destinations, and every
/// transparent option; per role, the first kKeepDest destinations, plus
/// every destination that is the register of a kept TPG option.
void keep_role_representatives(EmbeddingOptions& opts,
                               const StateKey& state) {
  auto trim_port = [&](std::vector<TpgOption>& port) {
    std::array<int, kRoles> seen{};
    std::array<int, kRoles> seen_dest{};
    std::size_t kept = 0;
    for (const TpgOption& o : port) {
      bool keep = o.through.has_value();
      if (!keep) {
        const auto role = static_cast<std::size_t>(role_in(state, o.reg));
        keep = seen[role]++ < kKeepTpg;
        if (std::binary_search(opts.dests.begin(), opts.dests.end(),
                               o.reg) &&
            seen_dest[role]++ < kKeepCbilboTpg) {
          keep = true;
        }
      }
      if (keep) port[kept++] = o;
    }
    port.resize(kept);
  };
  trim_port(opts.left);
  trim_port(opts.right);

  // Registers of the kept TPG options, sorted; built only once some role
  // has more than kKeepDest destinations (small designs never pay for it).
  std::vector<std::size_t> tpg_regs;
  auto is_kept_tpg = [&](std::size_t reg) {
    if (tpg_regs.empty()) {
      for (const TpgOption& o : opts.left) tpg_regs.push_back(o.reg);
      for (const TpgOption& o : opts.right) tpg_regs.push_back(o.reg);
      std::sort(tpg_regs.begin(), tpg_regs.end());
    }
    return std::binary_search(tpg_regs.begin(), tpg_regs.end(), reg);
  };
  std::array<int, kRoles> seen{};
  std::size_t kept = 0;
  for (std::size_t reg : opts.dests) {
    const auto role = static_cast<std::size_t>(role_in(state, reg));
    if (seen[role]++ < kKeepDest || is_kept_tpg(reg)) {
      opts.dests[kept++] = reg;
    }
  }
  opts.dests.resize(kept);
}

std::vector<BistRole> roles_of(const StateKey& state) {
  std::vector<BistRole> roles;
  roles.reserve(state.size());
  for (char c : state) {
    roles.push_back(RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
  }
  return roles;
}

}  // namespace

RoleCounts BistSolution::counts() const {
  RoleCounts c;
  for (BistRole r : roles) {
    switch (r) {
      case BistRole::None: break;
      case BistRole::Tpg: ++c.tpg; break;
      case BistRole::Sa: ++c.sa; break;
      case BistRole::TpgSa: ++c.tpg_sa; break;
      case BistRole::Cbilbo: ++c.cbilbo; break;
    }
  }
  return c;
}

std::string RoleCounts::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto item = [&](int n, const char* label) {
    if (n == 0) return;
    if (!first) os << ", ";
    os << n << " " << label;
    first = false;
  };
  item(cbilbo, "CBILBO");
  item(tpg_sa, "TPG/SA");
  item(tpg, "TPG");
  item(sa, "SA");
  if (first) os << "none";
  return os.str();
}

double BistSolution::overhead_percent(const Datapath& dp,
                                      const AreaModel& model) const {
  return 100.0 * extra_area / model.functional_area(dp);
}

std::string BistSolution::describe(const Datapath& dp) const {
  std::ostringstream os;
  os << "BIST solution: " << counts().to_string() << " (extra "
     << extra_area << " gates)\n";
  for (std::size_t r = 0; r < roles.size(); ++r) {
    if (roles[r] == BistRole::None) continue;
    os << "  " << dp.registers[r].name << " -> " << to_string(roles[r])
       << "\n";
  }
  for (std::size_t m : untestable_modules) {
    os << "  ! module " << dp.modules[m].name
       << " has no feasible BIST embedding\n";
  }
  return os.str();
}

namespace {

/// Reports the final per-register role assignment (modified registers only).
void emit_role_events(AlgorithmEvents* events,
                      const std::vector<BistRole>& roles) {
  if (events == nullptr) return;
  for (std::size_t r = 0; r < roles.size(); ++r) {
    if (roles[r] != BistRole::None) events->bist_role(r, to_string(roles[r]));
  }
}

}  // namespace

BistSolution BistAllocator::solve(const Datapath& dp) const {
  const std::size_t nregs = dp.registers.size();

  if (nregs > kExactMaxRegs) {
    if (events != nullptr) events->bist_greedy_fallback();
    return solve_greedy_impl(dp, /*emit_roles=*/true);
  }

  // Pre-enumerate embeddings; record untestable modules.
  std::vector<std::vector<BistEmbedding>> embeddings;
  std::vector<std::size_t> untestable;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    embeddings.push_back(use_transparent_paths
                             ? enumerate_embeddings_extended(dp, m)
                             : enumerate_embeddings(dp, m));
    if (embeddings.back().empty()) untestable.push_back(m);
  }

  // Branch and bound: the greedy completion seeds the incumbent, and —
  // because role flags only accumulate and the area model is (normally)
  // monotone in them — a partial state's own area is an admissible lower
  // bound on every completion.  Any state on a path to an area-optimal
  // final state therefore survives the strict cut, so the search stays
  // exact while the frontier collapses to near-optimal states only.
  const bool prune = area_flag_monotone(model_);
  double incumbent = 0.0;
  if (prune) {
    const BistSolution greedy = solve_greedy_impl(dp, /*emit_roles=*/false);
    incumbent = greedy.extra_area;
  }
  constexpr double kAreaSlack = 1e-6;  // guards incremental-sum rounding

  struct Entry {
    StateKey state;
    std::size_t parent = 0;                 // index into previous level
    std::optional<BistEmbedding> chosen;    // embedding taken at this level
    double area = 0.0;                      // incremental cost_of area term
  };
  std::vector<std::vector<Entry>> levels;
  levels.push_back({Entry{StateKey(nregs, '\0'), 0, std::nullopt, 0.0}});

  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const auto& prev = levels.back();
    std::vector<Entry> next;
    std::unordered_map<StateKey, std::size_t> seen;
    if (embeddings[m].empty()) {
      // Untestable module: states pass through unchanged.
      for (std::size_t p = 0; p < prev.size(); ++p) {
        if (seen.emplace(prev[p].state, next.size()).second) {
          next.push_back(Entry{prev[p].state, p, std::nullopt, prev[p].area});
        }
      }
    } else {
      for (std::size_t p = 0; p < prev.size(); ++p) {
        for (const BistEmbedding& e : embeddings[m]) {
          StateKey s = apply_embedding(prev[p].state, e);
          const double area =
              prev[p].area + area_delta(prev[p].state, s, e, model_);
          // Admissible cut: completions only add flags, so `area` already
          // bounds every descendant.  States matching the incumbent stay —
          // they may win on the CBILBO/modified tie-break.
          if (prune && area > incumbent + kAreaSlack) continue;
          if (seen.emplace(s, next.size()).second) {
            next.push_back(Entry{std::move(s), p, e, area});
            // Bail out *during* construction — a single level can exhaust
            // memory long before it completes on large designs.
            if (next.size() > kMaxFrontier) {
              if (events != nullptr) events->bist_greedy_fallback();
              return solve_greedy_impl(dp, /*emit_roles=*/true);
            }
          }
        }
      }
    }
    levels.push_back(std::move(next));
  }

  // Pick the best final state.
  const auto& final_level = levels.back();
  LBIST_CHECK(!final_level.empty(), "BIST allocator reached no state");
  std::size_t best = 0;
  auto best_cost = cost_of(final_level[0].state, model_);
  for (std::size_t i = 1; i < final_level.size(); ++i) {
    auto c = cost_of(final_level[i].state, model_);
    if (c < best_cost) {
      best_cost = c;
      best = i;
    }
  }

  auto reconstruct = [&](std::size_t final_index) {
    BistSolution sol;
    sol.roles = roles_of(final_level[final_index].state);
    sol.extra_area = std::get<0>(cost_of(final_level[final_index].state,
                                         model_));
    sol.untestable_modules = untestable;
    sol.embeddings.assign(dp.modules.size(), std::nullopt);
    std::size_t idx = final_index;
    for (std::size_t level = levels.size() - 1; level >= 1; --level) {
      const Entry& e = levels[level][idx];
      sol.embeddings[level - 1] = e.chosen;
      idx = e.parent;
    }
    return sol;
  };

  if (!minimize_sessions) {
    BistSolution sol = reconstruct(best);
    emit_role_events(events, sol.roles);
    return sol;
  }

  // Among cost-optimal states, pick the solution with the fewest test
  // sessions (total test time).
  BistSolution best_sol = reconstruct(best);
  int best_sessions =
      schedule_test_sessions(dp, best_sol).num_sessions;
  for (std::size_t i = 0; i < final_level.size(); ++i) {
    if (i == best || cost_of(final_level[i].state, model_) != best_cost) {
      continue;
    }
    BistSolution candidate = reconstruct(i);
    const int sessions =
        schedule_test_sessions(dp, candidate).num_sessions;
    if (sessions < best_sessions) {
      best_sessions = sessions;
      best_sol = std::move(candidate);
    }
  }
  emit_role_events(events, best_sol.roles);
  return best_sol;
}

BistSolution BistAllocator::solve_greedy(const Datapath& dp) const {
  return solve_greedy_impl(dp, /*emit_roles=*/true);
}

BistSolution BistAllocator::solve_greedy_impl(const Datapath& dp,
                                              bool emit_roles) const {
  const std::size_t nregs = dp.registers.size();
  StateKey state(nregs, '\0');

  // Each module takes the first embedding, in enumeration order, of least
  // (Δarea, ΔCBILBO, Δmodified).  The scan walks shortened option lists
  // (keep_role_representatives) and finds the very embedding the full
  // |left| x |right| x |dests| product would, for any AreaModel and either
  // enumerator.  delta_of depends only on the current roles of the at
  // most three registers an embedding touches and on whether the SA is
  // one of the TPGs; the via registers only constrain validity.  Suppose
  // the first optimal embedding E used a dropped option.  Then an earlier
  // option of the same role, valid beside E's other two choices, yields
  // an embedding with the same delta that comes earlier in the order — a
  // contradiction:
  //   * a dropped direct TPG option has kKeepTpg earlier direct options of
  //     its role; a replacement must differ from the other TPG, that
  //     TPG's via register and the SA, at most three registers;
  //   * if the SA is that TPG (CBILBO), the replacement must itself be a
  //     destination and differ only from the other TPG and its via
  //     register: kKeepCbilboTpg earlier such options suffice;
  //   * a dropped destination has kKeepDest earlier destinations of its
  //     role; a replacement must differ from both TPGs and both via
  //     registers.  A destination that is also a TPG (the CBILBO case) is
  //     kept with its TPG option;
  //   * transparent options are never dropped.
  // Replacing one option keeps the other two in place, so the replacement
  // comes earlier: the order is lexicographic in (left, right, dest).
  // The first minimum of the shortened scan is therefore the first
  // minimum of the full one.  This needs a strict order on deltas, so
  // area coefficients must be finite.  The exact branch-and-bound keeps
  // the full lists: there, two embeddings with equal roles lead to
  // different states.
  //
  // A zero marginal cost cannot be beaten when role flags only accumulate
  // and the model is flag-monotone (every delta component is then >= 0),
  // so the scan of a module may stop at the first such embedding.
  const bool can_cut = area_flag_monotone(model_);
  constexpr std::tuple<double, int, int> kZero{0.0, 0, 0};
  const std::vector<TransparentIPath> transparent =
      use_transparent_paths ? transparent_ipaths(dp)
                            : std::vector<TransparentIPath>{};

  BistSolution sol;
  sol.exact = false;
  sol.embeddings.assign(dp.modules.size(), std::nullopt);
  std::uint64_t scanned = 0;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    std::optional<BistEmbedding> best_emb;
    std::tuple<double, int, int> best_delta{0, 0, 0};
    EmbeddingOptions options = embedding_options(dp, m, transparent);
    keep_role_representatives(options, state);
    scanned += visit_embeddings(options, [&](const BistEmbedding& e) {
      const auto d = delta_of(state, e, model_);
      if (!best_emb.has_value() || d < best_delta) {
        best_delta = d;
        best_emb = e;
      }
      return !(can_cut && best_delta == kZero);
    });
    if (!best_emb.has_value()) {
      sol.untestable_modules.push_back(m);
      continue;
    }
    state = apply_embedding(state, *best_emb);
    sol.embeddings[m] = best_emb;
  }
  sol.roles = roles_of(state);
  sol.extra_area = std::get<0>(cost_of(state, model_));
  if (events != nullptr) events->bist_embeddings_scanned(scanned);
  if (emit_roles) emit_role_events(events, sol.roles);
  return sol;
}

}  // namespace lbist
