"""serve_mix: a fresh `lowbist serve --shards 2 -j 2`, driven in a closed
loop by one single-threaded client over four connections.

One connection is a design-space sweep: DSP kernels the server has not
seen, each a cache miss that runs the exact BIST allocator.  Three
connections are interactive users re-requesting a hot set that set-up
warmed, so each of their requests is a cache hit.  The session ends when
the sweep's last reply arrives.
"""

import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import time

# EXPERIMENTS.md Table I at width 4: registers, traditional and
# BIST-aware "% BIST area" (two decimals).
TABLE_I = {
    "ex1": (3, 15.07, 9.49),
    "ex2": (5, 10.74, 8.70),
    "tseng1": (5, 11.05, 10.57),
    "tseng2": (5, 9.60, 7.13),
    "paulin": (4, 7.85, 7.28),
}

SETUPS = 20          # server starts per run; setup_s is their median
SESSION_LIMIT_S = 100.0
# Interactive latency is summarized per WINDOW_S window of the session:
# p50_ms and p99_ms are the medians of the windows' own percentiles over
# the windows with the least steal time (none, wherever the hypervisor left
# this VM's CPUs alone for a whole window).  A window counts once it holds
# MIN_SAMPLES requests; if none does, all requests form one window.  On a
# shared VM steal came and went from minute to minute and moved the p99 of
# all requests tenfold between runs.  Over eight runs at 1-16 % steal the
# spread of this p99 was 0.37 with 0.1-s windows and 0.57 with 0.25-s ones.
WINDOW_S = 0.1
MIN_SAMPLES = 500


def cpu_ticks():
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


class Server:
    """One `lowbist serve` process whose log goes to a file, so a chatty
    log can never fill a pipe and stall the server."""

    def __init__(self, binary, log_path):
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [binary, "serve", "--shards", "2", "-j", "2"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log)
        self.port = self._wait_listening()

    def _wait_listening(self):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up")
            with open(self.log_path, "rb") as f:
                for line in f:
                    if b'"listening"' in line:
                        return json.loads(line)["port"]
            time.sleep(0.001)
        raise RuntimeError("server did not report its port")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.sent_at = None
        self.pending = None

    def send(self, line):
        self.sock.sendall(line)

    def lines(self):
        """Complete lines read by one recv; raises when the peer closed."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return done

    def read_line(self, timeout):
        self.sock.settimeout(timeout)
        try:
            while b"\n" not in self.buf:
                data = self.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                self.buf += data
        finally:
            self.sock.settimeout(None)
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def close(self):
        self.sock.close()


def encode(request):
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def body(line):
    """A job reply without its per-connection `job` index."""
    return line.split(b",", 1)[1]


class Checker:
    """Counts requests sent and every mismatch found in their replies."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, what):
        self.failures.append(what)

    def reply(self, line, what):
        """Parses a job reply; a non-ok or malformed one is a failure."""
        try:
            reply = json.loads(line)
        except ValueError:
            self.fail(f"{what}: malformed reply")
            return None
        if reply.get("status") != "ok":
            self.fail(f"{what}: {reply.get('error', reply.get('status'))}")
            return None
        r = reply["result"]
        if abs(r["overhead_percent"] - 100.0 * r["bist_extra"] /
               r["functional_area"]) > 1e-9 * max(1.0, r["overhead_percent"]):
            self.fail(f"{what}: overhead_percent != 100*bist_extra/functional_area")
        return r


def check_hot(request, result, expect, checker):
    what = f"{request['bench']}/{request['binder']}/w{request['width']}"
    if request["width"] == 4 and request["binder"] in ("bist", "trad"):
        regs, trad, bist = TABLE_I[request["bench"]]
        want = bist if request["binder"] == "bist" else trad
        if result["registers"] != regs or abs(result["overhead_percent"] - want) > 0.005:
            checker.fail(f"{what}: {result['registers']} regs, "
                         f"{result['overhead_percent']:.2f}% differs from Table I")
    for key, value in (expect or {}).items():
        if result[key] != value:
            checker.fail(f"{what}: {key} {result[key]} != in-process {value}")


def set_up(binary, log_path, hot):
    """Starts a server, opens the four connections and warms the hot set.
    Returns (server, conns, the warm-up reply lines)."""
    server = Server(binary, log_path)
    try:
        conns = [Conn(server.port) for _ in range(4)]
        conns[0].send(b"".join(encode(h["request"]) for h in hot))
        return server, conns, [conns[0].read_line(timeout=60) for _ in hot]
    except BaseException:
        server.stop()
        raise


def check_warm_up(lines, hot, checker):
    """Checks the warm-up replies; returns the reply bodies by hot index."""
    checker.attempted += len(hot)
    ref = [None] * len(hot)
    for line in lines:
        index = json.loads(line)["job"]
        result = checker.reply(line, "warm-up")
        if result is not None:
            check_hot(hot[index]["request"], result, hot[index].get("expect"), checker)
        ref[index] = body(line)
    return ref


def session(conns, sweep, hot, ref, rng, checker, spans):
    """The measured closed loop.  Returns (wall_s, interactive latencies
    in ms per WINDOW_S window, steal jiffies per window, steal share of
    CPU time, sweep results)."""
    sweep_conn, users = conns[0], conns[1:]
    lines = [encode(h["request"]) for h in hot]
    windows = [[]]
    window_steal = []
    results = []
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)

    def send_hot(c):
        checker.attempted += 1
        c.pending = rng.randrange(len(hot))
        c.sent_at = time.perf_counter()
        c.send(lines[c.pending])

    next_sweep = 0

    def send_sweep():
        nonlocal next_sweep
        checker.attempted += 1
        sweep_conn.pending = next_sweep
        sweep_conn.sent_at = time.perf_counter()
        sweep_conn.send(encode(sweep[next_sweep]["request"]))
        next_sweep += 1

    steal0, total0 = cpu_ticks()
    last_steal = steal0
    start = time.perf_counter()
    window_start = start
    deadline = start + SESSION_LIMIT_S
    send_sweep()
    for c in users:
        send_hot(c)
    end = None
    outstanding = len(conns)
    while outstanding and time.perf_counter() < deadline:
        for key, _ in sel.select(timeout=WINDOW_S):
            c = key.data
            for line in c.lines():
                now = time.perf_counter()
                outstanding -= 1
                if c is sweep_conn:
                    item = sweep[c.pending]
                    name = item["request"]["name"]
                    if spans is not None:
                        spans.append(("serve.sweep", c.sent_at, now, name))
                    result = checker.reply(line, name)
                    if result is not None:
                        results.append((item, result))
                    if next_sweep < len(sweep):
                        send_sweep()
                        outstanding += 1
                    else:
                        end = now
                    continue
                if c.sent_at >= window_start:
                    windows[-1].append(1000.0 * (now - c.sent_at))
                if spans is not None:
                    spans.append(("serve.hit", c.sent_at, now, c.pending))
                if body(line) != ref[c.pending]:
                    if checker.reply(line, "interactive") is not None:
                        checker.fail("interactive reply differs from its warm-up reply")
                if end is None:
                    send_hot(c)
                    outstanding += 1
        now = time.perf_counter()
        if now - window_start >= WINDOW_S:
            steal, _ = cpu_ticks()
            window_steal.append(steal - last_steal)
            last_steal = steal
            window_start = now
            windows.append([])
    sel.close()
    steal, total = cpu_ticks()
    window_steal.append(steal - last_steal)
    checker.failures.extend(["reply missing at the session limit"] * outstanding)
    if end is None:
        end = time.perf_counter()
        unsent = len(sweep) - next_sweep
        checker.attempted += unsent
        checker.failures.extend(["sweep request never sent"] * unsent)
    if spans is not None:
        spans.insert(0, ("serve.session", start, end, None))
    steal_pct = 100.0 * (steal - steal0) / max(1, total - total0)
    return end - start, windows, window_steal, steal_pct, results


def control(conn, kind, checker):
    conn.send(encode({"type": kind}))
    checker.attempted += 1
    reply = json.loads(conn.read_line(timeout=30))
    if reply.get("status") != "ok":
        checker.fail(f"{kind} request failed")
    return reply


def server_layers(metrics, prometheus, checker):
    """Per-layer figures from the server's metrics and Prometheus replies."""
    registry = metrics["metrics"]["registry"]
    hist = registry["histograms"]
    cache = metrics["metrics"]["cache"]
    out = {
        "server.queue_ms.p50": hist["queue_ms"]["p50"],
        "server.queue_ms.p99": hist["queue_ms"]["p99"],
        "server.job_ms.p50": hist["job_ms"]["p50"],
        "shard.loop_iter_ms.p99": max(v["p99"] for k, v in hist.items()
                                      if k.startswith("shard.loop_iter_ms")),
        "server.rejected": registry["counters"].get("requests_rejected", 0),
        "cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
        "cache.lookups": cache["hits"] + cache["misses"],
    }
    for line in prometheus["body"].splitlines():
        if (line.startswith("lowbist_requests_rejected ") and
                float(line.split()[1]) != out["server.rejected"]):
            checker.fail("metrics and prometheus disagree on rejections")
    return out


def run(binary, inputs, seed, run_dir, trace):
    """Runs the workload.  Returns (end-to-end metrics but the latency
    percentiles, per-layer metrics, the interactive latencies in ms of the
    windows the percentiles summarize, checker, note, spans)."""
    sweep, hot = inputs["sweep"], inputs["hot"]
    checker = Checker()
    setup_s = []
    setup_steal = []
    for k in range(SETUPS):
        steal0, _ = cpu_ticks()
        t0 = time.perf_counter()
        server, conns, lines = set_up(binary, os.path.join(run_dir, f"serve-{k}.log"),
                                      hot)
        setup_s.append(time.perf_counter() - t0)
        setup_steal.append(cpu_ticks()[0] - steal0)
        try:
            ref = check_warm_up(lines, hot, checker)
        except BaseException:
            server.stop()
            raise
        if k + 1 < SETUPS:
            for c in conns:
                c.close()
            server.stop()
    # As with the latency windows, set-ups during which the kernel counted
    # steal time are left out, as long as three others remain.
    unstolen = [t for t, stolen in zip(setup_s, setup_steal) if not stolen]
    if len(unstolen) >= 3:
        setup_s = unstolen
    spans = [] if trace else None
    try:
        setup_rss = server.peak_rss_mb()
        wall_s, windows, window_steal, steal_pct, results = session(
            conns, sweep, hot, ref, random.Random(seed), checker, spans)
        metrics_reply = control(conns[0], "metrics", checker)
        prom_reply = control(conns[0], "prometheus", checker)
        rss = server.peak_rss_mb()
    finally:
        for c in conns:
            c.close()
        server.stop()

    bist, trad, mux = [], [], 0
    for item, r in results:
        name = item["request"]["name"]
        if r["registers"] != item["live_peak"]:
            checker.fail(f"{name}: {r['registers']} registers, "
                         f"{item['live_peak']} values live at once")
        if r["binder"] == "bist":
            bist.append(r["overhead_percent"])
            mux += r["muxes"]
        else:
            trad.append(r["overhead_percent"])
    full = [(stolen, w) for w, stolen in zip(windows, window_steal)
            if len(w) >= MIN_SAMPLES]
    if full:
        least = min(stolen for stolen, _ in full)
        chosen = [w for stolen, w in full if stolen == least]
    else:
        chosen = [[ms for w in windows for ms in w]]
    total = sum(len(w) for w in windows)
    if not total or not bist or not trad:
        raise RuntimeError("serve_mix session produced no samples")
    # The session's peak depends on which worker's malloc arena ran the
    # largest branch-and-bound (270-365 MB over ten seeds, spread 0.14), so
    # it is a per-layer figure; end to end counts the warm server's peak.
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "peak_rss_mb": setup_rss,
        "bist_area_pct": statistics.mean(bist),
        "trad_bist_area_pct": statistics.mean(trad),
        "mux": mux,
    }
    layers = server_layers(metrics_reply, prom_reply, checker)
    layers["trace.wall_s"] = wall_s
    layers["host.steal_pct"] = steal_pct
    layers["server.peak_rss_mb"] = rss
    note = (f"serve_mix: {total} interactive samples, "
            f"{sum(len(w) for w in chosen)} in {len(chosen)} least-stolen "
            f"windows; steal {steal_pct:.1f}% of CPU time; {len(results)}/"
            f"{len(sweep)} sweep replies; server VmHWM {rss:.1f} MB")
    return metrics, layers, chosen, checker, note, spans
