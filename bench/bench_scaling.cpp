// Scaling study (ours): BIST overhead reduction and runtime as the design
// grows — random scheduled DFGs from ~10 to ~150 variables, plus FIR
// filters of increasing tap count scheduled with the list scheduler, plus a
// large tier of 1k–100k-op random DFGs that exercises the bitset conflict
// graphs and the incremental-ΔSD binder at scale.
//
// The large tier is the CI perf gate: it emits one row per size into
// BENCH_scaling.json (bench/bench_json.hpp) which tools/check_bench.py
// compares against bench/baselines/BENCH_scaling.json.  Each row's
// wall_ms is the median of kLargeTierRuns syntheses: one sample of the
// 1k row spread wider than the gate's 25 % on a shared 4-vCPU VM.
//
// Flags (ours, stripped before google-benchmark sees argv):
//   --scaling-only   run only the large tier + JSON artifact (CI gate mode)
//   --xl             extend the large tier to 20k/50k/100k ops
//
// Timing benchmarks: the full testable pipeline vs design size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "sched/list_sched.hpp"
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

void run_large_tier(const std::vector<int>& sizes,
                    benchjson::BenchJson& bj) {
  TextTable t({"ops", "#vars", "#regs", "#mux", "%BIST", "wall ms"});
  t.set_title("Large tier — full BIST-aware synthesis (CI perf gate)");

  for (int ops : sizes) {
    const RandomDfg rd = make_random_dfg(large_opts(ops));
    const auto protos = minimal_module_spec(rd.dfg, rd.schedule);
    SynthesisOptions so;
    so.binder = BinderKind::BistAware;
    so.lifetime.hold_outputs_to_end = false;

    std::vector<double> samples;
    SynthesisResult res;
    for (int run = 0; run < kLargeTierRuns; ++run) {
      const auto t0 = std::chrono::steady_clock::now();
      res = Synthesizer(so).run(rd.dfg, rd.schedule, protos);
      const auto t1 = std::chrono::steady_clock::now();
      samples.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const double ms = sorted[sorted.size() / 2];

    t.add_row({std::to_string(ops), std::to_string(rd.dfg.num_vars()),
               std::to_string(res.num_registers()),
               std::to_string(res.num_mux()),
               fmt_double(res.overhead_percent), fmt_double(ms, 1)});
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
               .set("wall_ms", Json::number(ms)));
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

  std::vector<int> sizes = {1000, 2000, 5000, 10000};
  if (xl) {
    sizes.push_back(20000);
    sizes.push_back(50000);
    sizes.push_back(100000);
  }

  lbist::benchjson::BenchJson bj("scaling");
  if (!scaling_only) print_scaling();
  run_large_tier(sizes, bj);
  bj.write();
  if (scaling_only) return 0;

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
