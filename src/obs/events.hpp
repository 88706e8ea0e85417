#pragma once
// Typed algorithm-event sink: records the paper-level decisions the
// synthesis pipeline makes, so "why did this binding win?" is answerable
// from data instead of a debugger.
//
// Event taxonomy (mapped to the paper's sections; docs/observability.md
// has the full field reference):
//
//   pves_rank       III.A.1  PVES elimination order with its (SD, MCS) key
//   assign          III.A.2  per-variable ΔSD candidate set + chosen register
//   case_override   III.A.2  a Case 1 / Case 2 override fired
//   cbilbo_checked  III.B    Lemma-2 conditions evaluated for a candidate
//   cbilbo_avoided  III.B    assignment moved to dodge a forced CBILBO
//   cbilbo_forced   III.B    Lemma-1/2 conditions hold on the final binding
//   mux_input       IV       a register became a new mux input of a module
//   mux_merge       IV       an interconnect endpoint was reused (merged)
//   port_flip       IV       a commutative module's L/R split was flipped
//   bist_role       —        final TPG/SA/BILBO/CBILBO role of a register
//   bist_greedy_fallback  —  exact BIST DP gated or overflowed; greedy
//                            solver used (with the reason)
//
// Every record also increments a MetricsRegistry counter (when a registry
// is attached), e.g. `binding.case1_overrides`, `cbilbo.forced`,
// `bist.roles_cbilbo` — so long-running services get cheap aggregate
// visibility without retaining event objects (`keep_events = false`).
//
// The sink is thread-safe; a null sink pointer at an instrumentation site
// costs one branch.  Event detail strings are only built when the sink
// keeps events, so counters-only mode stays cheap in inner loops (call
// sites may additionally guard expensive detail construction with
// recording()).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/metrics.hpp"
#include "support/json.hpp"

namespace lbist {

/// Why `BistAllocator::solve` gave up the exact search for the greedy one.
enum class BistFallback {
  RegisterGate,  ///< more registers than the exact DP takes
  Frontier,      ///< one module level kept too many states
};

/// One recorded decision: a kind tag plus its typed fields as JSON.
struct AlgorithmEvent {
  std::string kind;
  Json detail;
};

/// A ΔSD candidate considered for one variable (see assign()).
struct SdCandidate {
  std::size_t reg = 0;  ///< 0-based register index
  int delta_sd = 0;
};

class AlgorithmEvents {
 public:
  /// `metrics` (optional) receives one counter increment per record;
  /// `keep_events` off turns the sink into a counters-only mirror that
  /// never grows (what `lowbist serve` uses).
  explicit AlgorithmEvents(MetricsRegistry* metrics = nullptr,
                           bool keep_events = true);

  AlgorithmEvents(const AlgorithmEvents&) = delete;
  AlgorithmEvents& operator=(const AlgorithmEvents&) = delete;

  /// True when event objects are retained (snapshot() will see them).
  [[nodiscard]] bool recording() const { return keep_events_; }

  // ---- binding (Section III.A) ------------------------------------------
  void pves_rank(std::string_view var, int sd, std::size_t mcs,
                 std::size_t rank);
  void assign(std::string_view var, std::size_t reg, int delta_sd,
              bool new_register, const std::vector<SdCandidate>& candidates);
  void case_override(int case_no, std::string_view var, std::size_t from_reg,
                     std::size_t to_reg);
  /// Work counter of one BIST-aware binder run: adds `n` (its register fit
  /// tests) to the `binding.registers_scanned` counter; records no event.
  void binding_registers_scanned(std::uint64_t n);

  // ---- CBILBO avoidance (Section III.B) ---------------------------------
  void cbilbo_checked(std::string_view var, std::size_t reg,
                      bool would_force);
  void cbilbo_avoided(std::string_view var, std::size_t from_reg,
                      std::size_t to_reg);
  void cbilbo_forced(std::size_t reg, std::size_t module, int lemma_case);

  // ---- interconnect (Section IV) ----------------------------------------
  void mux_input(std::string_view module, std::size_t reg, char side,
                 bool merged);
  void port_flip(std::string_view module);
  /// Work counter of one data-path build: adds `n` (the registers
  /// assign_ports promoted to IR^LR to resolve clashes, each restarting
  /// its fixpoint) to the `interconnect.promotions` counter; records no
  /// event.
  void interconnect_promotions(std::uint64_t n);

  // ---- BIST allocation --------------------------------------------------
  void bist_role(std::size_t reg, std::string_view role);
  /// Counts `bist.greedy_fallbacks` and, by reason,
  /// `bist.fallbacks_register_gate` or `bist.fallbacks_frontier`.
  void bist_greedy_fallback(BistFallback reason);
  /// Work counter of one greedy solve: adds `n` to the
  /// `bist.embeddings_scanned` counter; records no event.
  void bist_embeddings_scanned(std::uint64_t n);
  /// Work counters of one exact branch-and-bound solve: adds `states`
  /// (states kept, summed over the module levels) to `bist.bnb_states` and
  /// `pruned` (children cut by the area bound) to `bist.bnb_pruned`;
  /// records no event.
  void bist_bnb_work(std::uint64_t states, std::uint64_t pruned);

  /// Copy of the retained events, in record order.
  [[nodiscard]] std::vector<AlgorithmEvent> snapshot() const;

  /// Total records of one kind (maintained even with keep_events off).
  [[nodiscard]] std::uint64_t count(std::string_view kind) const;

  /// One JSON object per line: {"kind": ..., <detail fields>}.
  void write_jsonl(std::ostream& os) const;

 private:
  void push(const char* kind, const char* counter, Json detail);
  void push(const char* kind, const char* counter) {
    push(kind, counter, Json::null());
  }

  MetricsRegistry* metrics_;
  const bool keep_events_;
  mutable std::mutex mutex_;
  std::vector<AlgorithmEvent> events_;
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

/// The register binder's decision log: one line per `assign`,
/// `case_override` and `cbilbo_avoided` event of `events`, in record order,
/// registers numbered from R1:
///   "assign d -> R1 (new register)", "assign h -> R1 (dSD=1)",
///   "case override: b prefers R2 over R3",
///   "CBILBO avoidance: x moved to R2 (R1 would force a CBILBO)".
[[nodiscard]] std::vector<std::string> binder_decision_lines(
    const std::vector<AlgorithmEvent>& events);

}  // namespace lbist
