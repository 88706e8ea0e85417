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
//   bist_greedy_fallback  —  exact BIST DP overflowed; greedy solver used
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

  // ---- BIST allocation --------------------------------------------------
  void bist_role(std::size_t reg, std::string_view role);
  void bist_greedy_fallback();
  /// Work counter of one greedy solve: adds `n` to the
  /// `bist.embeddings_scanned` counter; records no event.
  void bist_embeddings_scanned(std::uint64_t n);

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

}  // namespace lbist
