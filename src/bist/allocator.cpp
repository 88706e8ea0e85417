#include "bist/allocator.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <tuple>

#include "bist/sessions.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace lbist {

namespace {

/// Frontier cap of the exact DP: past this many surviving states in one
/// module level, `solve` abandons the search for the greedy allocator.  A
/// level is built in full before the next starts, so the cap bounds the
/// DP's memory (500k packed states of at most 12 words each, plus their
/// links and the level's hash table: under 70 MB).
constexpr std::size_t kMaxFrontier = 500000;

/// Register-count gate of the exact DP.  A DP state holds four bits per
/// register, so frontier memory and hashing cost grow with the register
/// count; past this many registers the search would burn seconds and
/// memory before the inevitable kMaxFrontier bail, so `solve` goes
/// straight to greedy.  It also caps a state at 12 words.  The paper
/// designs and fuzz shapes have at most a few dozen registers and never
/// reach it.
constexpr std::size_t kExactMaxRegs = 192;

// ---- Packed role states -------------------------------------------------
//
// A role state holds RoleFlags::encode() of every register in four bits,
// sixteen registers to a 64-bit word: register r sits in bits
// 4*(r % 16) .. 4*(r % 16) + 3 of word r / 16.  Both solvers keep their
// states in this form, whatever the register count.

constexpr std::size_t kRegsPerWord = 16;

std::size_t state_words(std::size_t nregs) {
  return std::max<std::size_t>(1, (nregs + kRegsPerWord - 1) / kRegsPerWord);
}

std::uint8_t flags_at(const std::uint64_t* state, std::size_t reg) {
  return static_cast<std::uint8_t>(
      (state[reg / kRegsPerWord] >> (4 * (reg % kRegsPerWord))) & 0xfU);
}

BistRole role_at(const std::uint64_t* state, std::size_t reg) {
  return RoleFlags::decode(flags_at(state, reg)).role();
}

/// What one embedding does to a state: the flag bits it ORs into each of
/// its at most three distinct registers, in the order tpg_left, tpg_right,
/// sa.  That order is the summation order of its area change.
struct RoleMask {
  std::size_t count = 0;
  std::array<std::size_t, 3> reg{};
  std::array<std::uint8_t, 3> bits{};
};

RoleMask role_mask(const BistEmbedding& e) {
  RoleMask mask;
  auto add = [&](std::size_t reg, RoleFlags duty) {
    const std::uint8_t bits = duty.encode();
    for (std::size_t i = 0; i < mask.count; ++i) {
      if (mask.reg[i] == reg) {
        mask.bits[i] |= bits;
        return;
      }
    }
    mask.reg[mask.count] = reg;
    mask.bits[mask.count++] = bits;
  };
  add(e.tpg_left, RoleFlags{.tpg = true});
  add(e.tpg_right, RoleFlags{.tpg = true});
  if (e.sa.has_value()) {
    // An SA that is also a TPG of the same module must be a CBILBO.
    add(*e.sa, e.needs_cbilbo()
                   ? RoleFlags{.tpg = true, .sa = true, .cbilbo = true}
                   : RoleFlags{.sa = true});
  }
  return mask;
}

void apply_mask(std::uint64_t* state, const RoleMask& mask) {
  for (std::size_t i = 0; i < mask.count; ++i) {
    const std::size_t reg = mask.reg[i];
    state[reg / kRegsPerWord] |= std::uint64_t{mask.bits[i]}
                                 << (4 * (reg % kRegsPerWord));
  }
}

/// Objective change of applying `mask` to `state`, computed from the (up
/// to three) touched registers.  All three components are non-negative
/// whenever the model is flag-monotone (flags only accumulate), and role
/// extras are small multiples of the bit width, so comparing deltas is
/// exactly equivalent to comparing the absolute tuples.
std::tuple<double, int, int> delta_of(const std::uint64_t* state,
                                      const RoleMask& mask,
                                      const AreaModel& model) {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (std::size_t i = 0; i < mask.count; ++i) {
    const std::uint8_t flags = flags_at(state, mask.reg[i]);
    const BistRole before = RoleFlags::decode(flags).role();
    const BistRole after =
        RoleFlags::decode(static_cast<std::uint8_t>(flags | mask.bits[i]))
            .role();
    if (before == after) continue;
    area += model.role_extra(after) - model.role_extra(before);
    cbilbos += (after == BistRole::Cbilbo ? 1 : 0) -
               (before == BistRole::Cbilbo ? 1 : 0);
    modified += (after != BistRole::None ? 1 : 0) -
                (before != BistRole::None ? 1 : 0);
  }
  return {area, cbilbos, modified};
}

/// (extra_area, #cbilbo, #modified): the lexicographic objective, summed
/// over the registers in index order.
std::tuple<double, int, int> cost_of(const std::uint64_t* state,
                                     std::size_t nregs,
                                     const AreaModel& model) {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (std::size_t r = 0; r < nregs; ++r) {
    const BistRole role = role_at(state, r);
    area += model.role_extra(role);
    if (role == BistRole::Cbilbo) ++cbilbos;
    if (role != BistRole::None) ++modified;
  }
  return {area, cbilbos, modified};
}

std::vector<BistRole> roles_of(const std::uint64_t* state,
                               std::size_t nregs) {
  std::vector<BistRole> roles;
  roles.reserve(nregs);
  for (std::size_t r = 0; r < nregs; ++r) roles.push_back(role_at(state, r));
  return roles;
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

// ---- The branch-and-bound levels ----------------------------------------

/// One choice of a module level: an embedding's mask and its index in the
/// module's embedding list.
struct Step {
  RoleMask mask;
  std::uint32_t embedding = 0;
};

/// The module's embeddings with distinct masks, in enumeration order:
/// each mask is kept at its first embedding.  From any parent two
/// embeddings with one mask make the same child, and the earlier one gets
/// there first.  The area it adds is bit for bit the same: both sum the
/// same at most three terms, an SA term always last, so only the two
/// other terms can come in the other order, and floating-point addition
/// is commutative.  Dropping the later one therefore changes no state,
/// parent, embedding or area.
std::vector<Step> distinct_steps(const std::vector<BistEmbedding>& list) {
  // Canonical mask: the (register, bits) pairs sorted by register, one
  // non-zero 16-bit lane each (registers < kExactMaxRegs); unused lanes
  // stay zero.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(list.size());
  std::vector<Step> steps;
  steps.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const RoleMask mask = role_mask(list[i]);
    std::array<std::uint64_t, 3> lanes{};
    for (std::size_t k = 0; k < mask.count; ++k) {
      lanes[k] = (mask.reg[k] << 3 | mask.bits[k]) + 1;
    }
    std::sort(lanes.begin(), lanes.begin() + mask.count);
    keyed.emplace_back(lanes[0] << 32 | lanes[1] << 16 | lanes[2],
                       static_cast<std::uint32_t>(i));
    steps.push_back(Step{mask, static_cast<std::uint32_t>(i)});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<bool> first(list.size(), false);
  for (std::size_t k = 0; k < keyed.size(); ++k) {
    if (k == 0 || keyed[k].first != keyed[k - 1].first) {
      first[keyed[k].second] = true;
    }
  }
  std::erase_if(steps, [&](const Step& s) { return !first[s.embedding]; });
  return steps;
}

/// Which state comes from which: per kept state, its parent's index in the
/// previous level and the embedding taken (kNoEmbedding for an untestable
/// module).
struct Link {
  std::uint32_t parent = 0;
  std::uint32_t embedding = 0;
};
constexpr std::uint32_t kNoEmbedding = UINT32_MAX;

/// The states of one level, deduplicated: an open-addressing table of
/// indices into the level's key arena (`words` words per state), linear
/// probing, at most half full.  A level's states are indices 0..size-1.
class StateSet {
 public:
  explicit StateSet(std::size_t words) : words_(words) {}

  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  /// Adds the state at `arena[size() * words]` unless an equal state is in
  /// already; returns true if it was added.
  bool insert(const std::vector<std::uint64_t>& arena) {
    if (2 * (size_ + 1) > slots_.size()) grow(arena);
    const auto index = static_cast<std::uint32_t>(size_);
    if (place(arena, index)) {
      ++size_;
      return true;
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  bool place(const std::vector<std::uint64_t>& arena, std::uint32_t index) {
    const std::uint64_t* key = &arena[index * words_];
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash_words({key, words_}) & mask;;
         s = (s + 1) & mask) {
      const std::uint32_t other = slots_[s];
      if (other == kEmpty) {
        slots_[s] = index;
        return true;
      }
      if (std::equal(key, key + words_, &arena[other * words_])) return false;
    }
  }

  void grow(const std::vector<std::uint64_t>& arena) {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
    for (std::size_t i = 0; i < size_; ++i) {
      place(arena, static_cast<std::uint32_t>(i));
    }
  }

  std::size_t words_;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> slots_;
};

// ---- The greedy scan's option filter ------------------------------------

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
                               const std::uint64_t* state) {
  auto trim_port = [&](std::vector<TpgOption>& port) {
    std::array<int, kRoles> seen{};
    std::array<int, kRoles> seen_dest{};
    std::size_t kept = 0;
    for (const TpgOption& o : port) {
      bool keep = o.through.has_value();
      if (!keep) {
        const auto role = static_cast<std::size_t>(role_at(state, o.reg));
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
    const auto role = static_cast<std::size_t>(role_at(state, reg));
    if (seen[role]++ < kKeepDest || is_kept_tpg(reg)) {
      opts.dests[kept++] = reg;
    }
  }
  opts.dests.resize(kept);
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
    if (events != nullptr) {
      events->bist_greedy_fallback(BistFallback::RegisterGate);
    }
    return solve_greedy_impl(dp, /*emit_roles=*/true);
  }

  // Pre-enumerate embeddings; record untestable modules.
  const std::vector<TransparentIPath> transparent =
      use_transparent_paths ? transparent_ipaths(dp)
                            : std::vector<TransparentIPath>{};
  std::vector<std::vector<BistEmbedding>> embeddings;
  std::vector<std::size_t> untestable;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    embeddings.push_back(enumerate_embeddings(dp, m, transparent));
    LBIST_CHECK(embeddings.back().size() < kNoEmbedding,
                "too many BIST embeddings for one module");
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

  // role_extra of every flag code, for the incremental area.
  std::array<double, 8> extra_of{};
  for (std::uint8_t code = 0; code < extra_of.size(); ++code) {
    extra_of[code] = model_.role_extra(RoleFlags::decode(code).role());
  }

  // The current level's states (`words` words each, back to back) with
  // their incremental areas, and every level's links.  A level is built
  // into next_keys/next_area from the current one, then replaces it.
  const std::size_t words = state_words(nregs);
  std::vector<std::uint64_t> keys(words, 0);
  std::vector<double> area{0.0};
  std::vector<std::uint64_t> next_keys;
  std::vector<double> next_area;
  std::vector<std::vector<Link>> levels;
  StateSet seen(words);
  std::uint64_t kept = 0;
  std::uint64_t pruned = 0;

  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    std::vector<Link> level;
    if (embeddings[m].empty()) {
      // Untestable module: states pass through unchanged.
      level.resize(area.size());
      for (std::size_t p = 0; p < level.size(); ++p) {
        level[p] = Link{static_cast<std::uint32_t>(p), kNoEmbedding};
      }
    } else {
      const std::vector<Step> steps = distinct_steps(embeddings[m]);
      next_keys.clear();
      next_area.clear();
      seen.clear();
      for (std::size_t p = 0; p < area.size(); ++p) {
        const std::uint64_t* parent = &keys[p * words];
        for (const Step& step : steps) {
          double delta = 0.0;
          for (std::size_t i = 0; i < step.mask.count; ++i) {
            const std::uint8_t before = flags_at(parent, step.mask.reg[i]);
            const auto after =
                static_cast<std::uint8_t>(before | step.mask.bits[i]);
            if (before != after) delta += extra_of[after] - extra_of[before];
          }
          const double child_area = area[p] + delta;
          // Admissible cut: completions only add flags, so `child_area`
          // already bounds every descendant.  States matching the
          // incumbent stay — they may win on the CBILBO/modified
          // tie-break.
          if (prune && child_area > incumbent + kAreaSlack) {
            ++pruned;
            continue;
          }
          const std::size_t at = next_keys.size();
          next_keys.insert(next_keys.end(), parent, parent + words);
          apply_mask(&next_keys[at], step.mask);
          if (!seen.insert(next_keys)) {
            next_keys.resize(at);
            continue;
          }
          level.push_back(Link{static_cast<std::uint32_t>(p), step.embedding});
          next_area.push_back(child_area);
          // Bail out *during* construction — a single level can exhaust
          // memory long before it completes on large designs.
          if (level.size() > kMaxFrontier) {
            if (events != nullptr) {
              events->bist_bnb_work(kept + level.size(), pruned);
              events->bist_greedy_fallback(BistFallback::Frontier);
            }
            return solve_greedy_impl(dp, /*emit_roles=*/true);
          }
        }
      }
      keys.swap(next_keys);
      area.swap(next_area);
    }
    kept += level.size();
    levels.push_back(std::move(level));
  }
  if (events != nullptr) events->bist_bnb_work(kept, pruned);

  // Pick the best final state.
  LBIST_CHECK(!area.empty(), "BIST allocator reached no state");
  auto final_cost = [&](std::size_t i) {
    return cost_of(&keys[i * words], nregs, model_);
  };
  std::size_t best = 0;
  auto best_cost = final_cost(0);
  for (std::size_t i = 1; i < area.size(); ++i) {
    auto c = final_cost(i);
    if (c < best_cost) {
      best_cost = c;
      best = i;
    }
  }

  auto reconstruct = [&](std::size_t final_index) {
    BistSolution sol;
    sol.roles = roles_of(&keys[final_index * words], nregs);
    sol.extra_area = std::get<0>(final_cost(final_index));
    sol.untestable_modules = untestable;
    sol.embeddings.assign(dp.modules.size(), std::nullopt);
    std::size_t idx = final_index;
    for (std::size_t level = levels.size(); level >= 1; --level) {
      const Link& link = levels[level - 1][idx];
      if (link.embedding != kNoEmbedding) {
        sol.embeddings[level - 1] = embeddings[level - 1][link.embedding];
      }
      idx = link.parent;
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
  for (std::size_t i = 0; i < area.size(); ++i) {
    if (i == best || final_cost(i) != best_cost) continue;
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
  std::vector<std::uint64_t> state(state_words(nregs), 0);

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
    keep_role_representatives(options, state.data());
    scanned += visit_embeddings(options, [&](const BistEmbedding& e) {
      const auto d = delta_of(state.data(), role_mask(e), model_);
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
    apply_mask(state.data(), role_mask(*best_emb));
    sol.embeddings[m] = best_emb;
  }
  sol.roles = roles_of(state.data(), nregs);
  sol.extra_area = std::get<0>(cost_of(state.data(), nregs, model_));
  if (events != nullptr) events->bist_embeddings_scanned(scanned);
  if (emit_roles) emit_role_events(events, sol.roles);
  return sol;
}

}  // namespace lbist
