#include "dfg/random_dfg.hpp"

#include <algorithm>
#include <random>

#include "support/check.hpp"

namespace lbist {

RandomDfg make_random_dfg(const RandomDfgOptions& opts) {
  LBIST_CHECK(opts.num_steps >= 1, "need at least one step");
  LBIST_CHECK(opts.ops_per_step >= 1, "need at least one op per step");
  LBIST_CHECK(opts.num_inputs >= 2, "need at least two inputs");
  LBIST_CHECK(!opts.kinds.empty(), "need at least one op kind");

  std::mt19937_64 rng(opts.seed);
  Dfg dfg("random_s" + std::to_string(opts.seed));

  std::vector<VarId> inputs;
  for (int i = 0; i < opts.num_inputs; ++i) {
    inputs.push_back(dfg.add_input("in" + std::to_string(i)));
  }

  // Values defined strictly before the step being generated.
  std::vector<VarId> defined;
  IdMap<OpId, int> steps;

  auto pick = [&rng](const std::vector<VarId>& pool) {
    std::uniform_int_distribution<std::size_t> d(0, pool.size() - 1);
    return pool[d(rng)];
  };
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  int var_counter = 0;
  for (int step = 1; step <= opts.num_steps; ++step) {
    std::vector<VarId> produced;
    for (int k = 0; k < opts.ops_per_step; ++k) {
      auto pick_operand = [&]() {
        const bool reuse =
            !defined.empty() && coin(rng) < opts.reuse_probability;
        if (!reuse) return pick(inputs);
        // Chain bias: prefer the freshest value so dependence chains grow.
        if (coin(rng) < opts.chain_probability) return defined.back();
        return pick(defined);
      };
      VarId a = pick_operand();
      VarId b = pick_operand();
      std::uniform_int_distribution<std::size_t> dk(0, opts.kinds.size() - 1);
      VarId r = dfg.add_op(opts.kinds[dk(rng)], a, b,
                           "t" + std::to_string(var_counter++));
      produced.push_back(r);
      steps.push_back(step);
    }
    defined.insert(defined.end(), produced.begin(), produced.end());
  }

  // Anything never consumed becomes a primary output so the DFG validates;
  // unused primary inputs are consumed by an extra final-step op.
  for (const auto& v : dfg.vars()) {
    if (!v.is_input() && v.uses.empty()) dfg.mark_output(v.id);
  }
  // Collect first: add_op appends to dfg.vars() and may reallocate it.
  std::vector<VarId> unused_inputs;
  for (const auto& v : dfg.vars()) {
    if (v.is_input() && v.uses.empty()) unused_inputs.push_back(v.id);
  }
  for (VarId v : unused_inputs) {
    VarId r = dfg.add_op(OpKind::Add, v, v,
                         "t" + std::to_string(var_counter++));
    steps.push_back(opts.num_steps + 1);
    dfg.mark_output(r);
  }
  // Loop-carried ties: feed an output result back into an input whose last
  // read is no later than the carried value's defining step (the loop
  // binder's non-overlap rule: a value read during step s and one written
  // at the end of step s can share a register).
  if (opts.loop_ties > 0) {
    auto last_use_step = [&](VarId v) {
      int last = 0;
      for (OpId use : dfg.var(v).uses) last = std::max(last, steps[use]);
      return last;
    };
    std::vector<VarId> outs;
    for (const auto& v : dfg.vars()) {
      if (v.is_output && !v.is_input()) outs.push_back(v.id);
    }
    std::stable_sort(outs.begin(), outs.end(), [&](VarId a, VarId b) {
      return steps[dfg.var(a).def] > steps[dfg.var(b).def];
    });
    std::vector<bool> tied(dfg.num_vars(), false);
    int placed = 0;
    for (VarId carried : outs) {
      if (placed == opts.loop_ties) break;
      const int def_step = steps[dfg.var(carried).def];
      for (VarId init : inputs) {
        if (tied[init.index()] || last_use_step(init) > def_step) continue;
        dfg.tie_loop(carried, init);
        tied[init.index()] = true;
        ++placed;
        break;
      }
    }
  }
  dfg.validate();

  Schedule sched(dfg, std::move(steps));
  return RandomDfg{std::move(dfg), std::move(sched)};
}

}  // namespace lbist
