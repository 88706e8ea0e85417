#!/usr/bin/env python3
"""lowbist benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload synth_large --seed 424242 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve_mix --repeat 10

Run from the root of a lowbist checkout.  The first run configures and
builds the repository and the driver into .bench_build/.  A run makes
its inputs from --seed, measures for about --seconds, checks every
output, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
--repeat N makes N untraced runs on consecutive seeds plus one traced run
and prints each metric's median and quartiles.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
LOWBIST = os.path.join(BUILD, "lowbist", "tools", "lowbist")

sys.path.insert(0, HERE)
import serve_mix  # noqa: E402


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no lowbist sources beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "lowbist", "perfbench_driver"],
                   check=True, stdout=sys.stderr)


def driver(mode, **flags):
    cmd = [DRIVER, mode]
    for flag, value in flags.items():
        cmd += ["--" + flag, str(value)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def split(metrics, e2e_names):
    e2e = {k: v for k, v in metrics.items() if k in e2e_names}
    layers = {k: v for k, v in metrics.items() if k not in e2e_names}
    return e2e, layers


# Each workload returns (end-to-end metrics, per-layer metrics, attempted,
# failures, note).  Per-layer metrics are only complete in traced runs.

# An untraced synth_large run splits its time over this many driver
# processes.  wall_s and p50_ms pool their syntheses; p99_ms is the median
# of the processes' own p99, so one synthesis the host stalled does not
# set it (over five seeds the slowest of a run's syntheses spread 0.10,
# this median 0.05).
SYNTH_PROCESSES = 5


def synth_large(seed, seconds, trace, run_dir, e2e_names):
    if trace:
        outs = [driver("synth_large", seed=seed, seconds=seconds, trace=1,
                       spans=os.path.join(run_dir, "spans.jsonl"))]
    else:
        outs = [driver("synth_large", seed=seed, trace=0,
                       seconds=seconds / SYNTH_PROCESSES)
                for _ in range(SYNTH_PROCESSES)]
    out = outs[0]
    failures = [m for o in outs for m in o["mismatches"]]
    for o in outs[1:]:
        if any(o["metrics"][k] != out["metrics"][k]
               for k in e2e_names & out["metrics"].keys()
               if k != "peak_rss_mb"):
            failures.append("synth_large results differ between processes")
    e2e, layers = split(out["metrics"], e2e_names)
    wall = [w for o in outs for w in o["wall_s"]]
    e2e.update(setup_s=statistics.median(s for o in outs for s in o["setup_s"]),
               wall_s=statistics.median(wall),
               peak_rss_mb=statistics.median(o["metrics"]["peak_rss_mb"]
                                             for o in outs),
               p50_ms=1000.0 * statistics.median(wall),
               p99_ms=1000.0 * statistics.median(percentile(o["wall_s"], 99)
                                                 for o in outs))
    if trace:
        traced = out["traced_wall_s"]
        layers["trace.wall_s"] = statistics.mean(traced)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(wall) - 1.0)
    attempted = sum(o["attempted"] for o in outs)
    note = f"synth_large: {len(wall)} untraced syntheses in {len(outs)} processes"
    return e2e, layers, attempted, failures, note


def grade_paper(seed, seconds, trace, run_dir, e2e_names):
    # One grading pass per process (run_hybrid_session memoizes per
    # process).  A traced run alternates untraced and traced passes.
    runs = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or
           not any(not t for t, _ in runs) or
           (trace and not any(t for t, _ in runs))):
        traced = trace and len(runs) % 2 == 1
        flags = dict(seed=seed, trace=int(traced), **{"pass": len(runs)})
        if traced:
            flags["spans"] = os.path.join(run_dir, f"spans-{len(runs)}.jsonl")
        runs.append((traced, driver("grade_paper", **flags)))
    plain = [out for t, out in runs if not t]
    failures = [m for _, out in runs for m in out["mismatches"]]
    e2e, _ = split(plain[0]["metrics"], e2e_names)
    for _, out in runs:
        if any(out["metrics"][k] != e2e[k] for k in e2e if k != "peak_rss_mb"):
            failures.append("grading results differ between passes")
    calls = [ms for out in plain for ms in out["call_ms"]]
    # As on synth_large, p99_ms is the median of the passes' own p99.
    e2e.update(setup_s=statistics.median(s for out in plain for s in out["setup_s"]),
               wall_s=statistics.median(out["wall_s"] for out in plain),
               peak_rss_mb=statistics.median(out["metrics"]["peak_rss_mb"]
                                             for out in plain),
               p50_ms=statistics.median(calls),
               p99_ms=statistics.median(percentile(out["call_ms"], 99)
                                        for out in plain))
    layers = {}
    if trace:
        traced = [out for t, out in runs if t]
        for name in traced[0]["metrics"]:
            if name not in e2e_names:
                layers[name] = statistics.mean(out["metrics"][name] for out in traced)
        traced_wall = statistics.median(out["wall_s"] for out in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / e2e["wall_s"] - 1.0)
    attempted = sum(out["attempted"] for _, out in runs)
    note = f"grade_paper: {len(plain)} untraced passes, {len(calls)} grading calls"
    return e2e, layers, attempted, failures, note


def serve_mix_workload(seed, seconds, trace, run_dir, e2e_names):
    inputs = driver("serve_inputs", seed=seed, seconds=seconds, trace=int(trace))
    e2e, layers, windows, checker, note, spans = serve_mix.run(
        LOWBIST, inputs, seed, run_dir, trace)
    graded, graded_layers = split(inputs["metrics"], e2e_names)
    e2e.update(graded)
    e2e.update(p50_ms=statistics.median(percentile(w, 50) for w in windows),
               p99_ms=statistics.median(percentile(w, 99) for w in windows))
    layers["server.overhead_ms"] = (e2e["p50_ms"] - layers["server.job_ms.p50"]
                                    - layers["server.queue_ms.p50"])
    failures = checker.failures + inputs["mismatches"]
    attempted = checker.attempted
    if trace:
        layers.update(graded_layers)
        replay = driver("serve_replay", seed=seed, seconds=seconds,
                        spans=os.path.join(run_dir, "spans-replay.jsonl"))
        layers.update(replay["metrics"])
        failures += replay["mismatches"]
        attempted += replay["attempted"]
        with open(os.path.join(run_dir, "spans-session.jsonl"), "w") as f:
            for i, (name, begin, end, request) in enumerate(spans):
                f.write(json.dumps({"id": i, "name": name, "start": begin,
                                    "end": end, "parent": -1 if i == 0 else 0,
                                    "group": request}) + "\n")
    return e2e, layers, attempted, failures, note


WORKLOADS = {
    "synth_large": synth_large,
    "serve_mix": serve_mix_workload,
    "grade_paper": grade_paper,
}


def run_once(args, spec):
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    run_dir = os.path.join(BUILD, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    e2e, layers, attempted, failures, note = WORKLOADS[args.workload](
        args.seed, args.seconds, args.trace, run_dir, set(e2e_names))
    log(note)
    for failure in failures[:20]:
        log("FAILED: " + failure)
    metrics = {}
    if args.trace:
        idle = []
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                idle.append(m["name"])
            metrics[m["name"]] = {"value": layers.get(m["name"], 0),
                                  "unit": m["unit"]}
        if idle:
            log("idle layers (reported as 0): " + ", ".join(idle))
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    if not failures:
        for name in os.listdir(run_dir):
            if name.endswith(".log"):
                os.remove(os.path.join(run_dir, name))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def repeat(args, spec):
    """N untraced runs on consecutive seeds, then one traced run."""
    def child(seed, trace):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        return json.loads(out.stdout.splitlines()[-1])

    runs = [child(args.seed + i, 0) for i in range(args.repeat)]
    traced = child(args.seed, 1)
    summary = {}
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    print(f"{'metric':22} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{m['name']:22} {m['unit']:7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {m['bound']:6.2f}")
    wall = summary["wall_s"]["median"]
    overhead = 100.0 * (traced["metrics"]["trace.wall_s"]["value"] / wall - 1.0)
    print(f"traced wall_s vs untraced median: {overhead:+.2f}%")
    print("per-layer (traced run, seed %d):" % args.seed)
    for name, m in traced["metrics"].items():
        print(f"  {name:28} {m['value']:14.6g} {m['unit']}")
    failed = sum(r["failed"] for r in runs) + traced["failed"]
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed": failed, "trace_overhead_pct": overhead,
                      "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="N untraced runs plus one traced run")
    args = parser.parse_args()
    # A terminated run still stops the server it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.repeat:
        if args.repeat < 2:
            sys.exit("perfbench: --repeat needs at least 2 runs")
        repeat(args, spec)
        return
    print(json.dumps(run_once(args, spec)))


if __name__ == "__main__":
    main()
