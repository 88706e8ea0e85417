#pragma once
// Output checker for the benchmark.  It recomputes what it checks from
// the design and the result's own fields instead of calling the passes
// that produced them:
//
//  * lifetimes, from the convention documented in dfg/lifetime.hpp;
//  * register binding, by an interval sweep over each register's members;
//  * the register count, against the largest number of simultaneously
//    live allocatable variables (minimal for interval conflict graphs);
//  * every BIST embedding, against the data path's port connectivity;
//  * register roles, from the chosen embeddings, and the extra area and
//    "% BIST area", from those roles with the public AreaModel.

#include <string>
#include <vector>

#include "core/synthesizer.hpp"

namespace perfbench {

/// Mismatches found so far, each a one-line description.
struct CheckLog {
  std::vector<std::string> mismatches;

  void fail(std::string what) { mismatches.push_back(std::move(what)); }
  [[nodiscard]] std::size_t count() const { return mismatches.size(); }
};

/// Largest number of allocatable variables live at one control step, for
/// the lifetimes the convention gives `dfg` under `sched`.
[[nodiscard]] int live_peak(const lbist::Dfg& dfg, const lbist::Schedule& sched,
                            bool hold_outputs_to_end);

/// Checks one synthesis of `dfg` under `sched` with `opts`.  Appends each
/// mismatch, prefixed with `label`, to `log`; returns true when none was
/// found.  `expect_minimal` asks for registers == live_peak.
bool check_synthesis(const lbist::Dfg& dfg, const lbist::Schedule& sched,
                     const lbist::SynthesisOptions& opts,
                     const lbist::SynthesisResult& result,
                     const std::string& label, bool expect_minimal,
                     CheckLog& log);

}  // namespace perfbench
