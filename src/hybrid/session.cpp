#include "hybrid/session.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "bist/fault_sim.hpp"
#include "bist/sessions.hpp"
#include "gates/gate_fault_sim.hpp"
#include "gates/gate_selftest.hpp"
#include "gates/module_builders.hpp"
#include "hybrid/reseed.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace lbist {

const char* hybrid_mode_name(HybridMode mode) {
  switch (mode) {
    case HybridMode::PseudoRandom:
      return "pseudo-random";
    case HybridMode::Reseed:
      return "reseed";
    case HybridMode::ReseedTopup:
      return "reseed+topup";
    case HybridMode::Evolved:
      return "evolved";
  }
  return "?";
}

std::vector<HybridConfig> default_hybrid_configs(int patterns) {
  if (patterns < 16) patterns = 16;
  const int short_pr = std::max(16, patterns / 4);
  std::vector<HybridConfig> configs;

  HybridConfig pr;
  pr.name = "pr";
  pr.mode = HybridMode::PseudoRandom;
  pr.pr_patterns = patterns;
  configs.push_back(pr);

  HybridConfig pr_short;
  pr_short.name = "pr-short";
  pr_short.mode = HybridMode::PseudoRandom;
  pr_short.pr_patterns = short_pr;
  configs.push_back(pr_short);

  HybridConfig hybrid;
  hybrid.name = "hybrid";
  hybrid.mode = HybridMode::Reseed;
  hybrid.pr_patterns = short_pr;
  hybrid.max_reseeds = 32;
  hybrid.reseed_burst = 16;
  configs.push_back(hybrid);

  HybridConfig topup;
  topup.name = "hybrid+topup";
  topup.mode = HybridMode::ReseedTopup;
  topup.pr_patterns = short_pr;
  topup.max_reseeds = 16;
  topup.reseed_burst = 16;
  configs.push_back(topup);

  HybridConfig evolve;
  evolve.name = "evolve";
  evolve.mode = HybridMode::Evolved;
  evolve.pr_patterns = short_pr;
  configs.push_back(evolve);

  return configs;
}

namespace {

/// Aggregated outcome of testing one module *function* (OpKind) under one
/// configuration — the memoizable unit: it depends only on (kind, width,
/// seeds, config), not on which datapath the module sits in.
struct KindOutcome {
  int total = 0;
  int pr = 0;
  int reseed = 0;
  int topup = 0;
  int hard = 0;
  int reseeds = 0;
  int topups = 0;
  long long clocks = 0;
};

int fault_key(const GateFault& f) {
  return f.node * 2 + (f.stuck_one ? 1 : 0);
}

KindOutcome compute_kind(OpKind kind, int width, std::uint32_t seed_l,
                         std::uint32_t seed_r, const HybridConfig& cfg,
                         TraceRecorder* trace) {
  const ModuleNetlist net = build_module(kind, width);
  KindOutcome out;

  std::uint32_t sa = seed_l;
  std::uint32_t sb = seed_r;
  if (cfg.mode == HybridMode::Evolved) {
    auto span = trace_span(trace, "hybrid_evolve");
    const EvolveOutcome evolved =
        evolve_seed_pair(net, cfg.pr_patterns, cfg.evolve);
    sa = evolved.best.a;
    sb = evolved.best.b;
    if (span.active()) {
      span.arg("detected", static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(evolved.detected)));
    }
  }

  GateBistDetail detail;
  {
    auto span = trace_span(trace, "hybrid_pr");
    detail = simulate_gate_bist_seeded(net, sa, sb, cfg.pr_patterns);
    if (span.active()) {
      span.arg("patterns", static_cast<std::uint64_t>(
                               period_capped(cfg.pr_patterns, width)));
      span.arg("detected", static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(
                                   detail.summary.detected)));
    }
  }
  out.total = detail.summary.total;
  out.pr = detail.summary.detected;
  out.hard = static_cast<int>(detail.undetected.size());
  out.clocks = period_capped(cfg.pr_patterns, width);

  std::vector<GateFault> remaining = detail.undetected;
  // Hard faults deferred past the reseed phase, with any pattern the seed
  // search already found (reused by top-up without re-searching).
  std::vector<std::pair<GateFault, std::optional<SeedPair>>> deferred;

  if (cfg.mode == HybridMode::Reseed ||
      cfg.mode == HybridMode::ReseedTopup) {
    auto span = trace_span(trace, "hybrid_reseed");
    while (!remaining.empty() && out.reseeds < cfg.max_reseeds) {
      const GateFault f = remaining.front();
      remaining.erase(remaining.begin());
      const std::optional<SeedPair> pat = find_detecting_pattern(net, f);
      if (!pat || pat->a == 0 || pat->b == 0) {
        // Redundant fault, or the only tests need an all-zero operand —
        // a state a maximal-length LFSR can never hold, so reseeding
        // cannot apply it.  Top-up (a scan load) still can.
        deferred.emplace_back(f, pat);
        continue;
      }
      ++out.reseeds;
      out.clocks += width + period_capped(cfg.reseed_burst, width);
      const GateBistDetail burst =
          simulate_gate_bist_seeded(net, pat->a, pat->b, cfg.reseed_burst);
      std::set<int> burst_undetected;
      for (const GateFault& g : burst.undetected) {
        burst_undetected.insert(fault_key(g));
      }
      std::vector<GateFault> still;
      for (const GateFault& g : remaining) {
        if (burst_undetected.count(fault_key(g)) != 0) {
          still.push_back(g);
        } else {
          ++out.reseed;
        }
      }
      if (burst_undetected.count(fault_key(f)) != 0) {
        // The target itself survived the burst's MISR check (aliasing or
        // burst too short to re-visit the pattern); defer it rather than
        // retrying forever.
        deferred.emplace_back(f, pat);
      } else {
        ++out.reseed;
      }
      remaining = std::move(still);
    }
    if (span.active()) {
      span.arg("reseeds",
               static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(out.reseeds)));
      span.arg("detected", static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(out.reseed)));
    }
  }
  for (const GateFault& g : remaining) {
    deferred.emplace_back(g, std::nullopt);
  }

  if (cfg.mode == HybridMode::ReseedTopup) {
    auto span = trace_span(trace, "hybrid_topup");
    for (const auto& [fault, known] : deferred) {
      const std::optional<SeedPair> pat =
          known ? known : find_detecting_pattern(net, fault);
      if (!pat) continue;  // redundant: no test exists within the search
      ++out.topups;
      ++out.topup;
      out.clocks += width + 1;  // scan the pattern in, one capture clock
    }
    if (span.active()) {
      span.arg("topups", static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(out.topups)));
    }
  }

  return out;
}

/// Memoized compute_kind: the sweep revisits the same (kind, width, seeds,
/// config) many times across binder arms and specs.  Values are
/// deterministic functions of the key, so a cross-thread race at worst
/// recomputes the identical value.
KindOutcome compute_kind_cached(OpKind kind, int width, std::uint32_t seed_l,
                                std::uint32_t seed_r,
                                const HybridConfig& cfg,
                                TraceRecorder* trace) {
  std::string key = std::string(symbol(kind));
  key += '|';
  key += std::to_string(width) + "|" + std::to_string(seed_l) + "|" +
         std::to_string(seed_r) + "|" +
         std::to_string(static_cast<int>(cfg.mode)) + "|" +
         std::to_string(cfg.pr_patterns) + "|" +
         std::to_string(cfg.max_reseeds) + "|" +
         std::to_string(cfg.reseed_burst) + "|" +
         std::to_string(cfg.evolve.population) + "|" +
         std::to_string(cfg.evolve.generations) + "|" +
         std::to_string(cfg.evolve.seed);

  static std::mutex mu;
  static std::map<std::string, KindOutcome> memo;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }
  const KindOutcome out = compute_kind(kind, width, seed_l, seed_r, cfg,
                                       trace);
  std::lock_guard<std::mutex> lock(mu);
  memo.emplace(key, out);
  return out;
}

}  // namespace

HybridSessionResult run_hybrid_session(const Datapath& dp,
                                       const BistSolution& solution,
                                       const HybridConfig& config, int width,
                                       TraceRecorder* trace) {
  const std::vector<GateGradedModule> modules =
      gate_graded_modules(dp, solution, width, "hybrid");
  const TestSessionPlan plan = schedule_test_sessions(dp, solution);

  HybridSessionResult result;
  result.num_sessions = plan.num_sessions;
  std::vector<long long> session_clocks(
      static_cast<std::size_t>(std::max(plan.num_sessions, 0)), 0);

  for (const GateGradedModule& g : modules) {
    auto span = trace_span(trace, "hybrid_module");
    if (span.active()) {
      span.arg("module", static_cast<std::uint64_t>(g.module));
      span.arg("config", config.name);
    }

    const ModuleProto& proto = dp.modules[g.module].proto;
    ModuleHybridResult report;
    report.module = g.module;
    report.gate_level = g.gate_level;
    if (!g.gate_level) {
      // Port-fault fallback (dividers): pseudo-random only — reseeding
      // needs the gate netlist to target specific faults.
      const CoverageResult cov =
          simulate_module_bist(proto, width, config.pr_patterns);
      report.faults_total = cov.total;
      report.detected_pr = cov.detected;
      report.hard_faults = cov.total - cov.detected;
      report.test_clocks = static_cast<long long>(proto.supports.size()) *
                           period_capped(config.pr_patterns, width);
    } else {
      for (OpKind k : proto.supports) {
        const KindOutcome out = compute_kind_cached(
            k, width, g.tpgs.left, g.tpgs.right, config, trace);
        report.faults_total += out.total;
        report.detected_pr += out.pr;
        report.detected_reseed += out.reseed;
        report.detected_topup += out.topup;
        report.hard_faults += out.hard;
        report.reseeds_used += out.reseeds;
        report.topups_used += out.topups;
        report.test_clocks += out.clocks;
      }
    }

    if (span.active()) {
      span.arg("faults", static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(report.faults_total)));
      span.arg("clocks",
               static_cast<std::uint64_t>(report.test_clocks));
    }

    const int s = plan.session_of[g.module];
    if (s >= 0) {
      session_clocks[static_cast<std::size_t>(s)] =
          std::max(session_clocks[static_cast<std::size_t>(s)],
                   report.test_clocks);
    }
    result.faults_total += report.faults_total;
    result.faults_detected += report.detected();
    result.hard_faults += report.hard_faults;
    result.reseeds_used += report.reseeds_used;
    result.topups_used += report.topups_used;
    result.modules.push_back(report);
  }

  for (long long clocks : session_clocks) result.test_clocks += clocks;
  return result;
}

}  // namespace lbist
