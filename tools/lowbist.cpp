// lowbist — command-line front end to the library.
//
//   lowbist synth <design.dfg> --modules "1+,1*" [options]
//       Synthesize one data path and print the design + BIST report.
//   lowbist compare <design.dfg> --modules "1+,1*" [options]
//       Traditional vs BIST-aware side by side (the Table I experiment).
//   lowbist tables
//       Print the paper's Tables I-III on the built-in benchmarks.
//   lowbist bench <name>
//       Print a built-in benchmark (ex1, ex2, tseng or tseng1, tseng2,
//       paulin, paulin-loop) in the textual DFG format (pipe into a file
//       to start hacking on it).
//   lowbist schedule <design.dfg> [--fu "2*"]... [--latency N]
//       Schedule an unannotated design (resource-constrained list
//       scheduling, or force-directed when --latency is given) and print
//       it back with @step annotations.
//   lowbist optimize <design.dfg>
//       Run common-subexpression elimination + dead-code removal and
//       print the cleaned design (unscheduled).
//   lowbist batch <jobs.jsonl|-> [-j N] [--metrics out.json] [--cache N]
//       Run a JSONL job manifest (one synthesis job per line, "-" reads
//       the manifest from stdin) over a thread pool with a synthesis
//       cache; stream one JSON result line per job in completion order
//       (see docs/service.md).
//   lowbist serve [--port P] [-j N] [--shards N] [--cache N]
//                 [--max-queue N] [--deadline-ms N] [--cache-dir DIR]
//                 [--cache-budget-mb N]
//       Long-running synthesis server on 127.0.0.1 speaking newline-
//       delimited JSON with the batch job schema; bounded admission
//       queue, per-request deadlines, health/metrics requests, graceful
//       shutdown on SIGINT/SIGTERM (see docs/server.md).
//   lowbist client <host:port> <jobs.jsonl|->
//       Send a job manifest to a running server and print one response
//       line per job.
//   lowbist fuzz [--seed N] [--cases N] [-j N] [--width N] [--fixed-width]
//                [--out DIR] [--no-minimize] [--max-reports N]
//                [--progress N] [--large-shapes]
//       Differential fuzzing: random scheduled DFGs through every binder,
//       checked against simulation/Lemma-2/area/report oracles; failures
//       are delta-debugged to minimal corpus reproducers (docs/fuzzing.md).
//   lowbist fuzz --replay <file.corpus>
//       Re-judge one corpus reproducer with the same oracles.
//   lowbist explore <design.dfg> [--modules "S1;S2;..."] [--binder K[,K]]
//       Design-space sweep (module specs for scheduled designs, --fu
//       resource budgets for unscheduled ones) with a Pareto filter.
//   lowbist metrics <dump.json|-> [--prom]
//       Pretty-print a MetricsRegistry dump, or convert it to Prometheus
//       text exposition with --prom.
//   lowbist version [--json]
//       Print the build identity (version, git describe, compiler,
//       sanitizer preset, build type).
//
// Common options:
//   --modules SPEC     module assignment, e.g. "1+,2*" or "1+,3[-*/&|]"
//                      (default: minimal spec derived from the schedule)
//   --binder KIND      trad | bist | ralloc | syntest | clique | loop
//   --width N          datapath bit width for the area model (default 4)
//   --patterns N       BIST patterns per module for the test plan (default
//                      250)
//   --dot              emit Graphviz of the data path
//   --verilog          emit structural Verilog
//   --plan             fault-simulate and print the full test plan
//   --selftest         run the complete BIST plan through the netlist and
//                      report chip-level fault coverage
//   --testbench        emit a self-checking Verilog testbench
//   --bist-verilog     emit the self-testing RTL (BILBO registers + BIST
//                      controller + golden signature checks)
//   --json             machine-readable report instead of text
//   --vcd              dump a VCD waveform of one functional run (synth)
//   --ctrl-verilog     emit the functional-mode controller FSM
//   --coverage N       pick the pattern budget by target coverage (0-1)
//                      instead of --patterns
//   --decisions        print the binder's decision log
//   --trace FILE       write a Chrome trace_event JSON of the pipeline's
//                      phase spans (load in chrome://tracing / Perfetto)
//   --profile FILE     (synth, batch, explore, serve) run the command under
//                      the span-attributed sampling profiler; folded stacks
//                      go to FILE (flamegraph.pl / speedscope ready) and
//                      the JSON report to FILE.json (docs/observability.md)
//   --profile-hz N     profiler sampling rate per thread (default 199)
//   --slow-ms N        (serve) log a "slow_request" line (with span id) for
//                      requests slower than N ms
//   --trace-events FILE
//                      write the algorithm decision-event stream (PVES
//                      order, ΔSD choices, Case overrides, CBILBO checks,
//                      mux merges, BIST roles) as JSONL
//   --dump-ir STAGE    (synth) stop after STAGE (sched, conflict_graph,
//                      binding, interconnect, bist) and print the IR
//                      snapshot as JSON instead of the report
//   --ir-out FILE      (synth) write the --dump-ir snapshot to FILE
//   --resume-from FILE (synth) restore an IR snapshot ("-" reads stdin)
//                      and continue from its recorded stage; replaces the
//                      design-file argument, and the snapshot's recorded
//                      synthesis options win over --binder/--width
//   --checkpoint FILE  (explore) append finished design points to a JSONL
//                      checkpoint and skip points already recorded there

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bist/selftest.hpp"
#include "bist/verilog_bist.hpp"
#include "bist/test_length.hpp"
#include "bist/test_plan.hpp"
#include "core/compare.hpp"
#include "core/explorer.hpp"
#include "core/report.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/optimize.hpp"
#include "fuzz/fuzz.hpp"
#include "hybrid/pareto.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "passes/pipeline.hpp"
#include "support/version.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "rtl/testbench.hpp"
#include "rtl/vcd.hpp"
#include "rtl/verilog.hpp"
#include "rtl/verilog_controller.hpp"
#include "sched/force_directed.hpp"
#include "sched/list_sched.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/batch.hpp"
#include "service/metrics.hpp"
#include "service/thread_pool.hpp"
#include "support/table.hpp"

namespace {

using namespace lbist;

struct CliOptions {
  std::string command;
  std::string target;
  std::string target2;  // client: manifest path (target is host:port)
  std::optional<std::string> modules;
  std::string binder = "bist";
  int width = 4;
  int patterns = 250;
  bool dot = false;
  bool verilog = false;
  bool plan = false;
  bool selftest = false;
  bool testbench = false;
  bool bist_verilog = false;
  bool json = false;
  bool vcd = false;
  bool ctrl_verilog = false;
  std::optional<double> coverage_target;
  bool decisions = false;
  std::optional<std::string> dump_ir;      // synth: stop after this pass
  std::optional<std::string> ir_out;       // synth: snapshot destination
  std::optional<std::string> resume_from;  // synth: snapshot to restore
  std::optional<std::string> checkpoint;   // explore: JSONL sweep checkpoint
  std::optional<std::string> pareto;       // explore: objective set ("bist")
  std::optional<std::string> trace_path;
  std::optional<std::string> trace_events_path;
  std::optional<std::string> profile_path;
  int profile_hz = 199;
  int slow_ms = 0;
  bool prom = false;
  bool binder_given = false;
  std::vector<std::string> fu;
  std::optional<int> latency;
  int jobs = 1;
  std::size_t cache_capacity = 256;
  std::optional<std::string> metrics_path;
  int port = 0;
  std::size_t max_queue = 64;
  int deadline_ms = 0;
  int shards = 1;
  std::string cache_dir;
  int cache_budget_mb = 256;
  // fuzz
  std::uint64_t fuzz_seed = 1;
  int fuzz_cases = 1000;
  bool fuzz_fixed_width = false;
  bool fuzz_no_minimize = false;
  bool fuzz_large_shapes = false;
  int fuzz_max_reports = 10;
  int fuzz_progress = 0;
  std::optional<std::string> fuzz_out;
  std::optional<std::string> fuzz_replay;
  bool fuzz_inject_binding_bug = false;  // hidden mutation self-test
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  lowbist synth <design.dfg> [--modules SPEC] [--binder KIND]\n"
      "                [--width N] [--patterns N] [--dot] [--verilog]\n"
      "                [--plan] [--decisions] [--trace FILE]\n"
      "                [--trace-events FILE]\n"
      "                [--dump-ir STAGE] [--ir-out FILE]\n"
      "  lowbist synth --resume-from <snap.json|-> [--dump-ir STAGE]\n"
      "  lowbist compare <design.dfg> [--modules SPEC] [--width N]\n"
      "  lowbist tables\n"
      "  lowbist bench <ex1|ex2|tseng|tseng1|tseng2|paulin|paulin-loop>\n"
      "  lowbist schedule <design.dfg> [--fu \"2*\"]... [--latency N]\n"
      "  lowbist optimize <design.dfg>\n"
      "  lowbist batch <jobs.jsonl|-> [-j N] [--metrics out.json]\n"
      "                [--cache N]            (\"-\" reads stdin)\n"
      "  lowbist serve [--port P] [-j N] [--shards N] [--cache N]\n"
      "                [--max-queue N] [--deadline-ms N] [--slow-ms N]\n"
      "                [--cache-dir DIR] [--cache-budget-mb N]\n"
      "  lowbist client <host:port> <jobs.jsonl|->\n"
      "  lowbist fuzz [--seed N] [--cases N] [-j N] [--width N]\n"
      "               [--fixed-width] [--out DIR] [--no-minimize]\n"
      "               [--max-reports N] [--progress N] [--large-shapes]\n"
      "  lowbist fuzz --replay <file.corpus>\n"
      "  lowbist explore <design.dfg> [--modules \"S1;S2\"] [--fu \"1+,1*\"]...\n"
      "                  [--binder KIND[,KIND]] [-j N] [--width N] [--json]\n"
      "                  [--checkpoint FILE]\n"
      "  lowbist explore <design.dfg> --pareto bist [--patterns N]\n"
      "                  [--binder KIND[,KIND]] [-j N] [--width N] [--json]\n"
      "                  [--metrics FILE]   hybrid-BIST sweep: area x\n"
      "                  coverage x test-length (docs/hybrid-bist.md)\n"
      "  lowbist metrics <dump.json|-> [--prom]\n"
      "  lowbist version [--json]\n"
      "\n"
      "observability (synth, batch, serve, explore):\n"
      "  --trace FILE         Chrome trace_event JSON of pipeline spans\n"
      "  --trace-events FILE  algorithm decision events as JSONL\n"
      "  --profile FILE       span-attributed sampling profile: folded\n"
      "                       stacks to FILE, JSON report to FILE.json\n"
      "  --profile-hz N       sampling rate per thread (default 199)\n";
  std::exit(error.empty() ? 0 : 2);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opts;
  if (argc < 2) usage("missing command");
  opts.command = argv[1];
  int i = 2;
  if (opts.command == "synth") {
    // The design file is optional here: `synth --resume-from snap.json`
    // carries the design inside the snapshot.  Anything starting with
    // "--" is a flag, not the positional argument.
    if (i < argc && std::string_view(argv[i]).substr(0, 2) != "--") {
      opts.target = argv[i++];
    }
  } else if (opts.command == "compare" || opts.command == "bench" ||
             opts.command == "schedule" || opts.command == "optimize" ||
             opts.command == "batch" || opts.command == "client" ||
             opts.command == "explore" || opts.command == "metrics") {
    if (i >= argc) usage("missing argument for " + opts.command);
    opts.target = argv[i++];
  }
  if (opts.command == "client") {
    if (i >= argc) usage("client needs <host:port> <jobs.jsonl|->");
    opts.target2 = argv[i++];
  }
  auto need_value = [&](const std::string& flag) {
    if (i >= argc) usage("missing value for " + flag);
    return std::string(argv[i++]);
  };
  auto need_int = [&](const std::string& flag) {
    const std::string v = need_value(flag);
    try {
      std::size_t used = 0;
      const int n = std::stoi(v, &used);
      if (used != v.size()) throw std::invalid_argument(v);
      return n;
    } catch (const std::exception&) {
      usage("flag " + flag + " needs an integer, got: " + v);
    }
  };
  auto need_double = [&](const std::string& flag) {
    const std::string v = need_value(flag);
    try {
      std::size_t used = 0;
      const double d = std::stod(v, &used);
      if (used != v.size()) throw std::invalid_argument(v);
      return d;
    } catch (const std::exception&) {
      usage("flag " + flag + " needs a number, got: " + v);
    }
  };
  while (i < argc) {
    const std::string flag = argv[i++];
    if (flag == "--modules") {
      opts.modules = need_value(flag);
    } else if (flag == "--binder") {
      opts.binder = need_value(flag);
      opts.binder_given = true;
    } else if (flag == "--width") {
      opts.width = need_int(flag);
    } else if (flag == "--patterns") {
      opts.patterns = need_int(flag);
    } else if (flag == "--dot") {
      opts.dot = true;
    } else if (flag == "--verilog") {
      opts.verilog = true;
    } else if (flag == "--plan") {
      opts.plan = true;
    } else if (flag == "--selftest") {
      opts.selftest = true;
    } else if (flag == "--testbench") {
      opts.testbench = true;
    } else if (flag == "--bist-verilog") {
      opts.bist_verilog = true;
    } else if (flag == "--json") {
      opts.json = true;
    } else if (flag == "--vcd") {
      opts.vcd = true;
    } else if (flag == "--ctrl-verilog") {
      opts.ctrl_verilog = true;
    } else if (flag == "--coverage") {
      opts.coverage_target = need_double(flag);
    } else if (flag == "--fu") {
      opts.fu.push_back(need_value(flag));
    } else if (flag == "--latency") {
      opts.latency = need_int(flag);
    } else if (flag == "--decisions") {
      opts.decisions = true;
    } else if (flag == "--dump-ir") {
      opts.dump_ir = need_value(flag);
    } else if (flag == "--ir-out") {
      opts.ir_out = need_value(flag);
    } else if (flag == "--resume-from") {
      opts.resume_from = need_value(flag);
    } else if (flag == "--checkpoint") {
      opts.checkpoint = need_value(flag);
    } else if (flag == "--pareto") {
      opts.pareto = need_value(flag);
    } else if (flag == "--trace") {
      opts.trace_path = need_value(flag);
    } else if (flag == "--trace-events") {
      opts.trace_events_path = need_value(flag);
    } else if (flag == "--profile") {
      opts.profile_path = need_value(flag);
    } else if (flag == "--profile-hz") {
      const int n = need_int(flag);
      if (n < 1 || n > 10000) usage("flag --profile-hz needs 1..10000");
      opts.profile_hz = n;
    } else if (flag == "--slow-ms") {
      const int n = need_int(flag);
      if (n < 0) usage("flag --slow-ms needs a non-negative threshold");
      opts.slow_ms = n;
    } else if (flag == "--prom") {
      opts.prom = true;
    } else if (flag == "-j" || flag == "--jobs") {
      opts.jobs = need_int(flag);
    } else if (flag == "--cache") {
      const int n = need_int(flag);
      if (n < 1) usage("flag --cache needs a positive capacity");
      opts.cache_capacity = static_cast<std::size_t>(n);
    } else if (flag == "--metrics") {
      opts.metrics_path = need_value(flag);
    } else if (flag == "--port") {
      const int p = need_int(flag);
      if (p < 0 || p > 65535) usage("flag --port needs 0..65535");
      opts.port = p;
    } else if (flag == "--max-queue") {
      const int n = need_int(flag);
      if (n < 1) usage("flag --max-queue needs a positive bound");
      opts.max_queue = static_cast<std::size_t>(n);
    } else if (flag == "--deadline-ms") {
      const int n = need_int(flag);
      if (n < 0) usage("flag --deadline-ms needs a non-negative value");
      opts.deadline_ms = n;
    } else if (flag == "--shards") {
      const int n = need_int(flag);
      if (n < 1) usage("flag --shards needs a positive count");
      opts.shards = n;
    } else if (flag == "--cache-dir") {
      opts.cache_dir = need_value(flag);
    } else if (flag == "--cache-budget-mb") {
      const int n = need_int(flag);
      if (n < 1) usage("flag --cache-budget-mb needs a positive size");
      opts.cache_budget_mb = n;
    } else if (flag == "--seed") {
      const std::string v = need_value(flag);
      try {
        std::size_t used = 0;
        opts.fuzz_seed = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        usage("flag --seed needs an unsigned integer, got: " + v);
      }
    } else if (flag == "--cases") {
      const int n = need_int(flag);
      if (n < 1) usage("flag --cases needs a positive count");
      opts.fuzz_cases = n;
    } else if (flag == "--fixed-width") {
      opts.fuzz_fixed_width = true;
    } else if (flag == "--no-minimize") {
      opts.fuzz_no_minimize = true;
    } else if (flag == "--large-shapes") {
      opts.fuzz_large_shapes = true;
    } else if (flag == "--max-reports") {
      const int n = need_int(flag);
      if (n < 0) usage("flag --max-reports needs a non-negative count");
      opts.fuzz_max_reports = n;
    } else if (flag == "--progress") {
      const int n = need_int(flag);
      if (n < 0) usage("flag --progress needs a non-negative interval");
      opts.fuzz_progress = n;
    } else if (flag == "--out") {
      opts.fuzz_out = need_value(flag);
    } else if (flag == "--replay") {
      opts.fuzz_replay = need_value(flag);
    } else if (flag == "--inject-binding-bug") {
      // Intentionally undocumented: the fuzzing self-test (CI asserts the
      // harness catches and minimizes a deliberately broken binding).
      opts.fuzz_inject_binding_bug = true;
    } else if (flag == "--help" || flag == "-h") {
      usage();
    } else {
      usage("unknown flag: " + flag);
    }
  }
  if (opts.profile_path.has_value() && opts.command != "synth" &&
      opts.command != "batch" && opts.command != "explore" &&
      opts.command != "serve") {
    usage("--profile is supported on synth|batch|explore|serve");
  }
  return opts;
}

/// --profile: arms the span-attributed sampling profiler around one
/// command; write() (after the command returns) disarms it and emits the
/// folded stacks to FILE plus the JSON report to FILE.json.
class ProfileScope {
 public:
  explicit ProfileScope(const CliOptions& cli) : cli_(cli) {
    if (!cli_.profile_path.has_value()) return;
    // Pools created later (batch workers, server shards + workers, explorer
    // pools) attach their threads through the thread-start hook; the main
    // thread attaches here.
    ThreadPool::set_thread_start_hook(
        [] { obs::Profiler::attach_current_thread(); });
    obs::Profiler::attach_current_thread();
    obs::ProfilerOptions po;
    po.hz = cli_.profile_hz;
    obs::Profiler::instance().start(po);
    active_ = true;
  }

  void write() {
    if (!active_) return;
    active_ = false;
    obs::Profiler& prof = obs::Profiler::instance();
    prof.stop();
    const obs::ProfileReport rep = prof.collect();
    std::ofstream folded(*cli_.profile_path);
    if (!folded) throw Error("cannot write profile: " + *cli_.profile_path);
    rep.write_folded(folded);
    const std::string jpath = *cli_.profile_path + ".json";
    std::ofstream jout(jpath);
    if (!jout) throw Error("cannot write profile: " + jpath);
    jout << rep.to_json().dump() << "\n";
    std::cerr << "profile: " << rep.samples << " samples @ " << rep.hz
              << " Hz across " << rep.threads << " threads (" << rep.dropped
              << " dropped) -> " << *cli_.profile_path << "\n";
  }

 private:
  const CliOptions& cli_;
  bool active_ = false;
};

/// Observability sinks requested via --trace / --trace-events.  Built
/// up-front, threaded through the command, flushed with write() at the end.
struct ObsSinks {
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<AlgorithmEvents> events;

  static ObsSinks from_cli(const CliOptions& cli,
                           MetricsRegistry* metrics = nullptr) {
    ObsSinks obs;
    if (cli.trace_path.has_value()) {
      obs.trace = std::make_unique<TraceRecorder>();
      obs.trace->set_enabled(true);
    }
    if (cli.trace_events_path.has_value()) {
      obs.events =
          std::make_unique<AlgorithmEvents>(metrics, /*keep_events=*/true);
    }
    return obs;
  }

  void write(const CliOptions& cli) const {
    if (trace != nullptr) {
      std::ofstream out(*cli.trace_path);
      if (!out) throw Error("cannot write trace: " + *cli.trace_path);
      trace->write_chrome(out);
    }
    if (events != nullptr) {
      std::ofstream out(*cli.trace_events_path);
      if (!out) {
        throw Error("cannot write events: " + *cli.trace_events_path);
      }
      events->write_jsonl(out);
    }
  }
};

ParsedDfg load_design(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_dfg(buf.str());
}

BinderKind binder_from_name(const std::string& name) {
  const std::optional<BinderKind> kind = binder_from_short_name(name);
  if (!kind.has_value()) usage("unknown binder: " + name);
  return *kind;
}

std::string read_manifest(const std::string& path);

int cmd_synth(const CliOptions& cli) {
  if (cli.target.empty() && !cli.resume_from.has_value()) {
    usage("synth needs a design file or --resume-from");
  }
  ObsSinks obs = ObsSinks::from_cli(cli);
  const PassPipeline& pipeline = PassPipeline::standard();

  // Build the synthesis state: restored from an IR snapshot, or fresh from
  // the design file.
  std::optional<ParsedDfg> design;  // keeps the live path's DFG alive
  std::optional<SynthState> state;
  if (cli.resume_from.has_value()) {
    if (!cli.target.empty()) {
      usage("--resume-from replaces the design file argument");
    }
    // The snapshot's recorded options win over --binder/--width: resumed
    // passes must agree with the ones that produced the snapshot.
    const Json snap = Json::parse(read_manifest(*cli.resume_from));
    state.emplace(pipeline.restore(snap));
  } else {
    design.emplace(load_design(cli.target));
    if (!design->schedule.has_value()) {
      throw Error("design has no @step annotations; schedule it first");
    }
    auto protos = cli.modules.has_value()
                      ? parse_module_spec(*cli.modules)
                      : minimal_module_spec(design->dfg, *design->schedule);
    SynthesisOptions fresh;
    fresh.binder = binder_from_name(cli.binder);
    fresh.area.bit_width = cli.width;
    state.emplace(design->dfg, *design->schedule, std::move(protos), fresh);
  }
  state->options().trace = obs.trace.get();
  state->options().events = obs.events.get();

  const Dfg& dfg = state->dfg();
  const Schedule& sched = state->sched();

  // --decisions renders the binding pass's own events, so it needs a sink
  // that keeps them: the --trace-events one, or a private one.
  const bool decisions =
      cli.decisions && state->options().binder == BinderKind::BistAware;
  AlgorithmEvents decision_events;
  if (decisions && obs.events == nullptr) {
    state->options().events = &decision_events;
  }
  auto print_decisions = [&] {
    if (!decisions) return;
    std::cout << "--- binder trace ---\n";
    for (const std::string& line :
         binder_decision_lines(state->options().events->snapshot())) {
      std::cout << "  " << line << "\n";
    }
  };

  if (cli.dump_ir.has_value()) {
    // Stop after the named pass and emit the snapshot instead of a report.
    const std::size_t end = pipeline.index_of(*cli.dump_ir) + 1;
    LBIST_CHECK(state->completed <= end,
                "snapshot is already past stage " + *cli.dump_ir);
    pipeline.run(*state, end);
    print_decisions();
    const std::string text = pipeline.snapshot(*state).dump() + "\n";
    if (cli.ir_out.has_value()) {
      std::ofstream out(*cli.ir_out);
      if (!out) throw Error("cannot write snapshot: " + *cli.ir_out);
      out << text;
    } else {
      std::cout << text;
    }
    obs.write(cli);
    return 0;
  }

  pipeline.run(*state);
  print_decisions();
  const SynthesisResult result = std::move(state->result);
  auto rtl_span = trace_span(obs.trace.get(), "rtl");
  if (cli.json) {
    std::cout << report_json(dfg, result).dump() << "\n";
  } else {
    std::cout << result.describe(dfg);
  }
  int patterns = cli.patterns;
  if (cli.coverage_target.has_value()) {
    auto budgets = find_test_lengths(result.datapath, cli.width,
                                     *cli.coverage_target);
    patterns = budgets.recommended_patterns;
    std::cout << "pattern budget for " << 100.0 * *cli.coverage_target
              << "% coverage: " << patterns
              << (budgets.all_targets_met ? "" : " (some modules cannot reach the target)")
              << "\n";
  }
  if (cli.plan) {
    TestPlan plan = build_test_plan(result.datapath, result.bist,
                                    patterns, cli.width);
    std::cout << plan.describe(result.datapath);
  }
  if (cli.selftest) {
    auto st = run_self_test(result.datapath, result.bist, patterns,
                            cli.width);
    std::cout << "chip-level self-test: " << st.faults_detected << "/"
              << st.faults_injected << " port faults detected ("
              << fmt_double(100.0 * st.coverage(), 1) << "%)\n";
  }
  if (cli.bist_verilog) {
    auto st = run_self_test(result.datapath, result.bist, cli.patterns,
                            cli.width);
    std::cout << emit_bist_verilog(result.datapath, result.bist, st,
                                   cli.patterns, cli.width);
  }
  if (cli.dot) std::cout << result.datapath.to_dot();
  if (cli.verilog) {
    std::cout << emit_verilog(result.datapath, cli.width);
  }
  // The controller and the deterministic example stimulus (input i gets
  // value i+1) behind --ctrl-verilog, --vcd and --testbench.
  std::optional<Controller> ctl;
  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  if (cli.ctrl_verilog || cli.vcd || cli.testbench) {
    ctl.emplace(Controller::generate(dfg, sched, result.registers,
                                     result.datapath, result.lifetimes));
    std::uint32_t next = 1;
    for (const auto& v : dfg.vars()) {
      if (v.is_input()) inputs[v.id] = next++;
    }
  }
  if (cli.ctrl_verilog) {
    std::cout << emit_controller_verilog(result.datapath, *ctl);
  }
  if (cli.vcd) {
    auto sim = simulate_datapath(dfg, result.datapath, *ctl, inputs,
                                 cli.width);
    std::cout << emit_vcd(result.datapath, sim, cli.width);
  }
  if (cli.testbench) {
    auto sim = simulate_datapath(dfg, result.datapath, *ctl, inputs,
                                 cli.width);
    LBIST_CHECK(sim.ok(), "internal error: simulation mismatch");
    std::cout << emit_testbench(dfg, result.datapath, *ctl, inputs,
                                sim, cli.width);
  }
  rtl_span.finish();
  obs.write(cli);
  return 0;
}

int cmd_optimize(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.target);
  auto cse = eliminate_common_subexpressions(design.dfg);
  auto clean = remove_dead_code(cse.dfg);
  for (const auto& name : cse.removed_ops) {
    std::cerr << "# merged duplicate: " << name << "\n";
  }
  for (const auto& name : clean.removed_ops) {
    std::cerr << "# removed dead op: " << name << "\n";
  }
  std::cout << print_dfg(clean.dfg);
  return 0;
}

int cmd_schedule(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.target);
  if (design.schedule.has_value()) {
    std::cout << print_dfg(design.dfg, &*design.schedule);
    return 0;
  }
  Schedule sched = [&] {
    if (cli.latency.has_value()) {
      return force_directed_schedule(design.dfg, *cli.latency);
    }
    ResourceLimits limits;
    for (const std::string& fu : cli.fu) {
      LBIST_CHECK(fu.size() >= 2, "--fu expects e.g. \"2*\"");
      const int count = std::stoi(fu.substr(0, fu.size() - 1));
      limits[kind_from_symbol(fu.substr(fu.size() - 1))] = count;
    }
    return list_schedule(design.dfg, limits);
  }();
  std::cout << print_dfg(design.dfg, &sched);
  return 0;
}

int cmd_compare(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.target);
  if (!design.schedule.has_value()) {
    throw Error("design has no @step annotations; schedule it first");
  }
  std::string spec;
  if (cli.modules.has_value()) {
    spec = *cli.modules;
  } else {
    for (const auto& p :
         minimal_module_spec(design.dfg, *design.schedule)) {
      if (!spec.empty()) spec += ",";
      spec += "1" + p.label();
    }
  }
  Benchmark bench{cli.target, std::move(design), std::move(spec)};

  AreaModel model;
  model.bit_width = cli.width;
  ComparisonRow row = compare_benchmark(bench, model);
  if (cli.json) {
    std::cout << comparison_json(row).dump() << "\n";
    return 0;
  }
  TextTable t({"arm", "# Reg", "# Mux", "BIST resources", "% BIST area"});
  t.add_row({"traditional", std::to_string(row.traditional.num_registers()),
             std::to_string(row.traditional.num_mux()),
             row.traditional.bist.counts().to_string(),
             fmt_double(row.traditional.overhead_percent)});
  t.add_row({"bist-aware", std::to_string(row.testable.num_registers()),
             std::to_string(row.testable.num_mux()),
             row.testable.bist.counts().to_string(),
             fmt_double(row.testable.overhead_percent)});
  std::cout << t;
  std::cout << "reduction in BIST area: "
            << fmt_double(row.reduction_percent()) << "%\n";
  return 0;
}

int cmd_tables(const CliOptions& cli) {
  AreaModel model;
  model.bit_width = cli.width;
  auto rows = compare_paper_benchmarks(model);
  TextTable t({"DFG", "modules", "#Reg", "#Mux(T)", "%BIST(T)", "#Mux(ours)",
               "%BIST(ours)", "%reduction"});
  t.set_title("Table I reproduction");
  for (const auto& r : rows) {
    t.add_row({r.name, r.module_spec,
               std::to_string(r.testable.num_registers()),
               std::to_string(r.traditional.num_mux()),
               fmt_double(r.traditional.overhead_percent),
               std::to_string(r.testable.num_mux()),
               fmt_double(r.testable.overhead_percent),
               fmt_double(r.reduction_percent())});
  }
  std::cout << t << "\n";
  TextTable t2({"DFG", "traditional", "testable"});
  t2.set_title("Table II reproduction (minimal-area BIST solutions)");
  for (const auto& r : rows) {
    t2.add_row({r.name, r.traditional.bist.counts().to_string(),
                r.testable.bist.counts().to_string()});
  }
  std::cout << t2;
  return 0;
}

/// Reads a job manifest from a path, or from stdin when the path is "-"
/// (so shell pipelines and the server client can feed jobs directly).
std::string read_manifest(const std::string& path) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw Error("cannot open manifest: " + path);
    buf << in.rdbuf();
  }
  return buf.str();
}

int cmd_batch(const CliOptions& cli) {
  const auto entries = parse_manifest(read_manifest(cli.target));
  if (entries.empty()) throw Error("manifest has no jobs: " + cli.target);

  MetricsRegistry metrics;
  ObsSinks obs = ObsSinks::from_cli(cli, &metrics);
  // The decision counters (binding.*, cbilbo.*, ...) belong in the batch
  // metrics dump whether or not the event stream is exported; without
  // --trace-events the sink stays counters-only and never grows.
  AlgorithmEvents counters_only(&metrics, /*keep_events=*/false);
  BatchOptions opts;
  opts.jobs = cli.jobs;
  opts.cache_capacity = cli.cache_capacity;
  opts.metrics = &metrics;
  opts.trace = obs.trace.get();
  opts.events = obs.events != nullptr ? obs.events.get() : &counters_only;
  const BatchSummary summary = run_batch(entries, opts, std::cout);
  obs.write(cli);

  if (cli.metrics_path.has_value()) {
    std::ofstream mout(*cli.metrics_path);
    if (!mout) throw Error("cannot write metrics: " + *cli.metrics_path);
    // Stamp the dump with the writing build so archived metrics stay
    // attributable; prometheus conversion ignores the extra key.
    mout << metrics.to_json().set("build", build_info_json()).dump() << "\n";
  }
  std::cerr << "batch: " << summary.ok << "/" << summary.total << " ok, "
            << summary.errors << " errors, " << summary.cache_hits
            << " cache hits\n";
  return summary.ok > 0 || summary.total == 0 ? 0 : 1;
}

int cmd_serve(const CliOptions& cli) {
  std::unique_ptr<TraceRecorder> trace;
  if (cli.trace_path.has_value()) {
    trace = std::make_unique<TraceRecorder>();
    trace->set_enabled(true);
  }
  ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(cli.port);
  opts.jobs = cli.jobs;
  opts.cache_capacity = cli.cache_capacity;
  opts.max_queue = cli.max_queue;
  opts.deadline_ms = cli.deadline_ms;
  opts.shards = cli.shards;
  opts.cache_dir = cli.cache_dir;
  opts.cache_budget_bytes =
      static_cast<std::uint64_t>(cli.cache_budget_mb) << 20;
  opts.handle_signals = true;
  opts.log = &std::cerr;
  opts.trace = trace.get();
  // The server exports the trace itself as part of wait()'s graceful
  // drain, so a SIGTERM'd serve writes the file before the final shutdown
  // log instead of depending on this frame still running afterwards.
  if (cli.trace_path.has_value()) opts.trace_path = *cli.trace_path;
  opts.slow_request_ms = cli.slow_ms;
  // The server always counts decision events; keep the event objects only
  // when the user asked for the JSONL export.
  opts.keep_events = cli.trace_events_path.has_value();
  Server server(std::move(opts));
  server.start();
  server.wait();  // until SIGINT/SIGTERM; drains in-flight requests
  if (cli.metrics_path.has_value()) {
    std::ofstream mout(*cli.metrics_path);
    if (!mout) throw Error("cannot write metrics: " + *cli.metrics_path);
    mout << server.metrics().to_json().dump() << "\n";
  }
  if (cli.trace_events_path.has_value()) {
    std::ofstream out(*cli.trace_events_path);
    if (!out) throw Error("cannot write events: " + *cli.trace_events_path);
    server.events().write_jsonl(out);
  }
  return 0;
}

int cmd_client(const CliOptions& cli) {
  std::string host;
  std::uint16_t port = 0;
  parse_host_port(cli.target, &host, &port);
  const std::string manifest = read_manifest(cli.target2);
  const ClientSummary summary = run_client(host, port, manifest, std::cout);
  std::cerr << "client: " << summary.responses << " responses, " << summary.ok
            << " ok, " << summary.errors << " errors\n";
  return summary.ok > 0 || summary.responses == 0 ? 0 : 1;
}

int cmd_fuzz(const CliOptions& cli) {
  if (cli.fuzz_replay.has_value()) {
    std::ifstream in(*cli.fuzz_replay);
    if (!in) throw Error("cannot open corpus file: " + *cli.fuzz_replay);
    std::ostringstream buf;
    buf << in.rdbuf();
    const CorpusEntry entry = parse_corpus(buf.str());
    const OracleVerdict verdict =
        replay_corpus_entry(entry, cli.fuzz_inject_binding_bug);
    if (verdict.ok()) {
      std::cout << "replay: all oracles clean (" << entry.design.dfg.num_ops()
                << " ops, width " << entry.width << ")\n";
      if (entry.oracle != "none") {
        std::cout << "note: recorded failure '" << entry.oracle
                  << "' did NOT reproduce\n";
      }
      return 0;
    }
    for (const auto& f : verdict.failures) {
      std::cout << "replay: " << f.oracle << " FAILED: " << f.detail << "\n";
    }
    return 1;
  }

  FuzzOptions fo;
  fo.seed = cli.fuzz_seed;
  fo.cases = cli.fuzz_cases;
  fo.jobs = cli.jobs;
  fo.width = cli.width;
  fo.vary_width = !cli.fuzz_fixed_width;
  fo.minimize = !cli.fuzz_no_minimize;
  fo.large_shapes = cli.fuzz_large_shapes;
  fo.max_reports = cli.fuzz_max_reports;
  fo.progress_interval = cli.fuzz_progress;
  fo.inject_binding_bug = cli.fuzz_inject_binding_bug;
  if (cli.fuzz_out.has_value()) fo.corpus_dir = *cli.fuzz_out;

  const FuzzSummary summary = run_fuzz(fo, &std::cerr);
  // The build record ties a campaign digest (and its reproducers, which
  // carry the same record as a `#! build` directive) to the binary that
  // produced it.
  std::cout << "fuzz: " << summary.cases << " cases, " << summary.failures
            << " failing, digest 0x" << std::hex << summary.digest
            << std::dec << " [" << build_info_line() << "]\n";
  for (const auto& r : summary.reports) {
    std::cout << "  case " << r.case_index << " seed " << r.case_seed << ": "
              << r.oracle << " (" << r.original_ops << " -> "
              << r.minimized_ops << " ops)"
              << (r.corpus_path.empty() ? "" : " " + r.corpus_path) << "\n";
  }
  return summary.ok() ? 0 : 1;
}

std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// `explore --pareto bist`: the hybrid-BIST sweep grading every
/// (module spec, binder, test configuration) point on BIST area, gate-level
/// fault coverage and total test length at once (docs/hybrid-bist.md).
int cmd_explore_hybrid(const CliOptions& cli, const ParsedDfg& design) {
  if (*cli.pareto != "bist") {
    usage("--pareto supports only 'bist', got: " + *cli.pareto);
  }
  if (!design.schedule.has_value()) {
    throw Error(
        "--pareto bist needs a scheduled design (@step annotations)");
  }
  if (!cli.fu.empty()) {
    throw Error("--pareto bist sweeps module specs, not --fu budgets");
  }
  MetricsRegistry metrics;
  ObsSinks obs = ObsSinks::from_cli(cli, &metrics);

  HybridSweepOptions opts;
  opts.area.bit_width = cli.width;
  opts.patterns = cli.patterns;
  opts.jobs = cli.jobs;
  opts.trace = obs.trace.get();
  opts.metrics = cli.metrics_path.has_value() ? &metrics : nullptr;
  if (cli.binder_given) {
    opts.binders.clear();
    for (const std::string& name : split_list(cli.binder, ',')) {
      opts.binders.push_back(binder_from_name(name));
    }
    if (opts.binders.empty()) usage("--binder gave no binders");
  }

  std::vector<std::string> specs;
  if (cli.modules.has_value()) {
    specs = split_list(*cli.modules, ';');
    if (specs.empty()) usage("--modules gave no specs");
  } else {
    std::string spec;
    for (const auto& p :
         minimal_module_spec(design.dfg, *design.schedule)) {
      if (!spec.empty()) spec += ",";
      spec += "1" + p.label();
    }
    specs.push_back(std::move(spec));
  }

  const std::vector<HybridPoint> points =
      explore_hybrid(design.dfg, *design.schedule, specs, opts);

  if (cli.json) {
    Json out = hybrid_points_json(points);
    out.set("design", Json::string(design.dfg.name()))
        .set("width", Json::number(cli.width))
        .set("patterns", Json::number(cli.patterns));
    std::cout << out.dump() << "\n";
  } else {
    std::cout << describe_hybrid_points(points);
  }
  if (cli.metrics_path.has_value()) {
    std::ofstream mout(*cli.metrics_path);
    if (!mout) throw Error("cannot write metrics: " + *cli.metrics_path);
    mout << metrics.to_json().set("build", build_info_json()).dump() << "\n";
  }
  obs.write(cli);
  return 0;
}

int cmd_explore(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.target);
  if (cli.pareto.has_value()) return cmd_explore_hybrid(cli, design);
  ObsSinks obs = ObsSinks::from_cli(cli);
  ExplorerOptions opts;
  opts.area.bit_width = cli.width;
  opts.jobs = cli.jobs;
  opts.trace = obs.trace.get();
  opts.events = obs.events.get();
  if (cli.checkpoint.has_value()) opts.checkpoint = *cli.checkpoint;
  if (cli.binder_given) {
    opts.binders.clear();
    for (const std::string& name : split_list(cli.binder, ',')) {
      opts.binders.push_back(binder_from_name(name));
    }
    if (opts.binders.empty()) usage("--binder gave no binders");
  }

  std::vector<DesignPoint> points;
  if (design.schedule.has_value()) {
    if (!cli.fu.empty()) {
      throw Error(
          "--fu sweeps unscheduled designs; this one has @step annotations"
          " (use --modules \"S1;S2;...\")");
    }
    std::vector<std::string> specs;
    if (cli.modules.has_value()) {
      specs = split_list(*cli.modules, ';');
      if (specs.empty()) usage("--modules gave no specs");
    } else {
      std::string spec;
      for (const auto& p :
           minimal_module_spec(design.dfg, *design.schedule)) {
        if (!spec.empty()) spec += ",";
        spec += "1" + p.label();
      }
      specs.push_back(std::move(spec));
    }
    points = explore_module_specs(design.dfg, *design.schedule, specs, opts);
  } else {
    std::vector<ResourceLimits> budgets;
    for (const std::string& fu : cli.fu) {
      ResourceLimits limits;
      for (const std::string& part : split_list(fu, ',')) {
        LBIST_CHECK(part.size() >= 2, "--fu expects e.g. \"2*\" or \"1+,2*\"");
        const int count = std::stoi(part.substr(0, part.size() - 1));
        limits[kind_from_symbol(part.substr(part.size() - 1))] = count;
      }
      budgets.push_back(std::move(limits));
    }
    if (budgets.empty()) {
      // Default sweep: 1..3 units of every operation kind the design uses.
      std::set<OpKind> used;
      for (const auto& op : design.dfg.ops()) used.insert(op.kind);
      for (int n = 1; n <= 3; ++n) {
        ResourceLimits limits;
        for (OpKind kind : used) limits[kind] = n;
        budgets.push_back(std::move(limits));
      }
    }
    points = explore_resource_budgets(design.dfg, budgets, opts);
  }

  if (cli.json) {
    std::cout << sweep_json(points).dump() << "\n";
  } else {
    std::cout << describe_points(points);
  }
  obs.write(cli);
  return 0;
}

int cmd_metrics(const CliOptions& cli) {
  const Json dump = Json::parse(read_manifest(cli.target));
  if (cli.prom) {
    std::cout << prometheus_exposition(dump);
  } else {
    std::cout << dump.dump() << "\n";
  }
  return 0;
}

int cmd_version(const CliOptions& cli) {
  if (cli.json) {
    std::cout << build_info_json().dump() << "\n";
  } else {
    std::cout << build_info_string();
  }
  return 0;
}

int cmd_bench(const CliOptions& cli) {
  const std::optional<Benchmark> bench = find_benchmark(cli.target);
  if (!bench.has_value()) usage("unknown benchmark: " + cli.target);
  std::cout << "# module spec: " << bench->module_spec << "\n"
            << print_dfg(bench->design.dfg, &*bench->design.schedule);
  return 0;
}

int run_command(const CliOptions& cli) {
  if (cli.command == "synth") return cmd_synth(cli);
  if (cli.command == "compare") return cmd_compare(cli);
  if (cli.command == "tables") return cmd_tables(cli);
  if (cli.command == "bench") return cmd_bench(cli);
  if (cli.command == "schedule") return cmd_schedule(cli);
  if (cli.command == "optimize") return cmd_optimize(cli);
  if (cli.command == "batch") return cmd_batch(cli);
  if (cli.command == "serve") return cmd_serve(cli);
  if (cli.command == "client") return cmd_client(cli);
  if (cli.command == "fuzz") return cmd_fuzz(cli);
  if (cli.command == "explore") return cmd_explore(cli);
  if (cli.command == "metrics") return cmd_metrics(cli);
  if (cli.command == "version") return cmd_version(cli);
  usage("unknown command: " + cli.command);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliOptions cli = parse_args(argc, argv);
    ProfileScope profile(cli);
    const int rc = run_command(cli);
    profile.write();
    return rc;
  } catch (const lbist::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
