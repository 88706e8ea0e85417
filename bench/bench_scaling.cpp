// Scaling study (ours): BIST overhead reduction and runtime as the design
// grows — random scheduled DFGs from ~10 to ~150 variables, plus FIR
// filters of increasing tap count scheduled with the list scheduler, plus a
// large tier of 1k–100k-op random DFGs that exercises the interval binder
// and the greedy BIST allocator at scale, plus an exact tier of two DSP
// kernels small enough for the exact BIST allocator.
//
// The large and exact tiers are the CI perf gate: they emit one row each into
// BENCH_scaling.json (bench/bench_json.hpp) which tools/check_bench.py
// compares against bench/baselines/BENCH_scaling.json.  Each row's
// wall_ms is the median of kLargeTierRuns syntheses: one sample of the
// 1k row spread wider than the gate's 25 % on a shared 4-vCPU VM.  Each
// row also carries "work", which the gate compares exactly: the binder's
// register fit tests and the greedy BIST allocator's embeddings in the
// large tier, the branch-and-bound states kept and pruned in the exact
// tier.  Large-tier rows also carry peak_rss_mb, the process VmHWM after
// the row, which the gate holds to the wall_ms tolerance: the rows run
// smallest first, so each reads its own peak.
//
// Flags (ours, stripped before google-benchmark sees argv):
//   --scaling-only   run only the large and exact tiers + JSON artifact
//                    (CI gate mode)
//   --xl             add 20k and 100k ops to the large tier's
//                    1k/2k/5k/10k/50k
//
// Timing benchmarks: the full testable pipeline vs design size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "obs/events.hpp"
#include "sched/list_sched.hpp"
#include "service/metrics.hpp"
#include "support/table.hpp"

namespace {

using namespace lbist;

RandomDfgOptions size_opts(int steps, int width, std::uint64_t seed) {
  RandomDfgOptions o;
  o.seed = seed;
  o.num_steps = steps;
  o.ops_per_step = width;
  o.num_inputs = width + 2;
  o.kinds = {OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Sub};
  return o;
}

void print_scaling() {
  TextTable t({"design", "#vars", "#regs", "#mux", "trad %BIST",
               "ours %BIST", "reduction %", "ours runtime ms"});
  t.set_title("Scaling — overhead reduction vs design size");

  auto run_pair = [&](const std::string& label, const Dfg& dfg,
                      const Schedule& sched) {
    auto protos = minimal_module_spec(dfg, sched);
    SynthesisOptions trad;
    trad.binder = BinderKind::Traditional;
    auto rt = Synthesizer(trad).run(dfg, sched, protos);

    SynthesisOptions ours;
    ours.binder = BinderKind::BistAware;
    const auto t0 = std::chrono::steady_clock::now();
    auto ro = Synthesizer(ours).run(dfg, sched, protos);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const double red =
        rt.overhead_percent > 0
            ? 100.0 * (rt.overhead_percent - ro.overhead_percent) /
                  rt.overhead_percent
            : 0.0;
    t.add_row({label, std::to_string(dfg.num_vars()),
               std::to_string(ro.num_registers()),
               std::to_string(ro.num_mux()),
               fmt_double(rt.overhead_percent),
               fmt_double(ro.overhead_percent), fmt_double(red),
               fmt_double(ms, 1)});
  };

  for (auto [steps, width] : {std::pair{4, 2}, {6, 3}, {8, 4}, {10, 5},
                              {12, 6}}) {
    auto rd = make_random_dfg(size_opts(steps, width, 7));
    run_pair("random " + std::to_string(steps) + "x" + std::to_string(width),
             rd.dfg, rd.schedule);
  }
  for (int taps : {4, 8, 16, 32}) {
    Dfg fir = make_fir(taps);
    Schedule sched =
        list_schedule(fir, {{OpKind::Mul, 2}, {OpKind::Add, 2}});
    run_pair("fir" + std::to_string(taps), fir, sched);
  }
  std::cout << t << std::endl;
}

// ---------------------------------------------------------------------------
// Large tier: full BIST-aware synthesis of 1k–100k-op random DFGs.
//
// Outputs are not held to the end of the schedule — with thousands of sinks
// a hold-to-end policy manufactures one giant conflict clique that measures
// the lifetime policy, not the binder.  The generator parameters (high
// reuse, moderate chaining) keep register pressure realistic instead.

RandomDfgOptions large_opts(int ops) {
  RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = ops / o.ops_per_step;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  return o;
}

constexpr int kLargeTierRuns = 5;

/// kLargeTierRuns syntheses of `dfg`: the wall time of each in ms, and the
/// last result in `res`.
std::vector<double> time_syntheses(const SynthesisOptions& so, const Dfg& dfg,
                                   const Schedule& sched,
                                   const std::vector<ModuleProto>& protos,
                                   SynthesisResult& res) {
  std::vector<double> samples;
  for (int run = 0; run < kLargeTierRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    res = Synthesizer(so).run(dfg, sched, protos);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return samples;
}

/// Peak resident set (VmHWM) of this process, in MB; 0 without /proc.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Work counts repeat exactly on any machine, so check_bench.py gates them
/// exactly: one more synthesis of `dfg`, untimed, with a counters-only
/// sink, and the named counters it reached.  Every row also counts the
/// port assignment's IR^LR promotions (`interconnect.promotions`).
Json count_work(const SynthesisOptions& so, const Dfg& dfg,
                const Schedule& sched, const std::vector<ModuleProto>& protos,
                std::initializer_list<const char*> counters) {
  MetricsRegistry metrics;
  AlgorithmEvents sink(&metrics, /*keep_events=*/false);
  SynthesisOptions counted = so;
  counted.events = &sink;
  (void)Synthesizer(counted).run(dfg, sched, protos);
  Json work = Json::object();
  std::vector<const char*> names(counters);
  names.push_back("interconnect.promotions");
  for (const char* counter : names) {
    work.set(counter, Json::number(static_cast<std::int64_t>(
                          metrics.counter(counter).value())));
  }
  return work;
}

void run_large_tier(const std::vector<int>& sizes,
                    benchjson::BenchJson& bj) {
  TextTable t(
      {"ops", "#vars", "#regs", "#mux", "%BIST", "wall ms", "peak MB"});
  t.set_title("Large tier — full BIST-aware synthesis (CI perf gate)");

  for (int ops : sizes) {
    const RandomDfg rd = make_random_dfg(large_opts(ops));
    const auto protos = minimal_module_spec(rd.dfg, rd.schedule);
    SynthesisOptions so;
    so.binder = BinderKind::BistAware;
    so.lifetime.hold_outputs_to_end = false;

    SynthesisResult res;
    const std::vector<double> samples =
        time_syntheses(so, rd.dfg, rd.schedule, protos, res);
    const double ms = median_of(samples);

    Json work =
        count_work(so, rd.dfg, rd.schedule, protos,
                   {"binding.registers_scanned", "bist.embeddings_scanned"});
    const double peak_mb = peak_rss_mb();

    t.add_row({std::to_string(ops), std::to_string(rd.dfg.num_vars()),
               std::to_string(res.num_registers()),
               std::to_string(res.num_mux()),
               fmt_double(res.overhead_percent), fmt_double(ms, 1),
               fmt_double(peak_mb, 1)});
    // Progress to stderr: CI logs show where a slow run is, row by row.
    std::cerr << "large tier: " << ops << " ops -> " << fmt_double(ms, 1)
              << " ms (" << res.num_registers() << " regs)" << std::endl;
    bj.add("random_" + std::to_string(ops),
           std::to_string(ops) + " ops, seed 424242", samples,
           Json::object()
               .set("ops", Json::number(static_cast<std::int64_t>(ops)))
               .set("vars", Json::number(static_cast<std::int64_t>(
                                rd.dfg.num_vars())))
               .set("regs", Json::number(static_cast<std::int64_t>(
                                res.num_registers())))
               .set("mux", Json::number(
                               static_cast<std::int64_t>(res.num_mux())))
               .set("overhead_pct", Json::number(res.overhead_percent))
               .set("wall_ms", Json::number(ms))
               .set("peak_rss_mb", Json::number(peak_mb))
               .set("work", std::move(work)));
  }
  std::cout << t << std::endl;
}

// ---------------------------------------------------------------------------
// Exact tier: every large-tier design is past the exact BIST allocator's
// register gate, so these rows gate its branch-and-bound.  Two DSP kernels
// of perfbench's serve_mix sweep, list-scheduled with 3 multipliers, 2
// adders and 1 subtracter, BIST-aware at width 8: fir12 is the sweep's
// slowest exact solve, and fir19 overflows the frontier cap and falls back
// to greedy.

void run_exact_tier(benchjson::BenchJson& bj) {
  TextTable t({"kernel", "#dp regs", "exact", "%BIST", "wall ms"});
  t.set_title("Exact tier — BIST-aware synthesis, exact allocator (CI gate)");

  for (int taps : {12, 19}) {
    const Dfg fir = make_fir(taps);
    const Schedule sched = list_schedule(
        fir, {{OpKind::Mul, 3}, {OpKind::Add, 2}, {OpKind::Sub, 1}});
    const auto protos = minimal_module_spec(fir, sched);
    SynthesisOptions so;
    so.binder = BinderKind::BistAware;
    so.area.bit_width = 8;

    SynthesisResult res;
    const std::vector<double> samples =
        time_syntheses(so, fir, sched, protos, res);
    const double ms = median_of(samples);
    const std::string name = "exact_fir" + std::to_string(taps) + "_m3";
    // The registers the allocator's states span, input registers included.
    const std::size_t dp_regs = res.datapath.registers.size();
    Json work = count_work(so, fir, sched, protos,
                           {"bist.bnb_states", "bist.bnb_pruned"});

    t.add_row({name, std::to_string(dp_regs),
               res.bist.exact ? "yes" : "no (frontier cap)",
               fmt_double(res.overhead_percent), fmt_double(ms, 1)});
    std::cerr << "exact tier: " << name << " -> " << fmt_double(ms, 1)
              << " ms (" << dp_regs << " data path registers)" << std::endl;
    bj.add(name,
           "fir" + std::to_string(taps) +
               ", list-scheduled 3 mul / 2 add / 1 sub, width 8",
           samples,
           Json::object()
               .set("datapath_regs",
                    Json::number(static_cast<std::int64_t>(dp_regs)))
               .set("exact", Json::boolean(res.bist.exact))
               .set("overhead_pct", Json::number(res.overhead_percent))
               .set("wall_ms", Json::number(ms))
               .set("work", std::move(work)));
  }
  std::cout << t << std::endl;
}

void BM_PipelineVsSize(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  auto rd = make_random_dfg(size_opts(steps, 4, 7));
  auto protos = minimal_module_spec(rd.dfg, rd.schedule);
  SynthesisOptions opts;
  opts.binder = BinderKind::BistAware;
  Synthesizer synth(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth.run(rd.dfg, rd.schedule, protos).overhead_percent);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineVsSize)->Arg(4)->Arg(8)->Arg(12)->Complexity();

void BM_FirPipeline(benchmark::State& state) {
  Dfg fir = make_fir(static_cast<int>(state.range(0)));
  Schedule sched = list_schedule(fir, {{OpKind::Mul, 2}, {OpKind::Add, 2}});
  auto protos = minimal_module_spec(fir, sched);
  SynthesisOptions opts;
  opts.binder = BinderKind::BistAware;
  Synthesizer synth(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth.run(fir, sched, protos).overhead_percent);
  }
}
BENCHMARK(BM_FirPipeline)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  bool scaling_only = false;
  bool xl = false;
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling-only") == 0) {
      scaling_only = true;
    } else if (std::strcmp(argv[i], "--xl") == 0) {
      xl = true;
    } else {
      fwd.push_back(argv[i]);
    }
  }

  const std::vector<int> sizes =
      xl ? std::vector<int>{1000, 2000, 5000, 10000, 20000, 50000, 100000}
         : std::vector<int>{1000, 2000, 5000, 10000, 50000};

  lbist::benchjson::BenchJson bj("scaling");
  if (!scaling_only) print_scaling();
  run_large_tier(sizes, bj);
  run_exact_tier(bj);
  bj.write();
  if (scaling_only) return 0;

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
