"""One workload process: set-up, the timed closed loop and, with
``--trace 1``, a traced loop after it.

Started by ``bench/run.py`` with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  Set-up time runs from the parent's spawn stamp to the end
of the warm-up, so it covers interpreter start, ``import starsplit``,
input generation and the warm-up ops.  Gated times are scaled to a
reference machine speed (see ``REFERENCE_S``).  Prints one JSON object as
the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, Cli, Outcome, Workload, benchmark_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The speed of a shared machine drifts by tens of percent, in user CPU time
# as much as in wall time, and longer runs do not average the drift out.
# So the worker times a fixed pure-Python reference kernel between ops all
# through the run and scales the times of each window of about WINDOW_S by
# REFERENCE_S over the window's mean kernel time: the gated figures read as
# on a machine that runs the kernel in REFERENCE_S.  The kernel is
# benchmark code, so a change to the program cannot move it.  Unscaled
# figures are kept in the record.
REFERENCE_S = 0.005
PROBE_EVERY_S = 0.25
WINDOW_S = 1.0
IMPORT_REPEATS = 3


def reference_kernel() -> int:
    """Integer arithmetic and a dict of complex values keyed by int pairs,
    the kind of interpreter work the program's ``Form`` bookkeeping does."""
    s = 0
    for i in range(30000):
        s += i * i % 7
    d = {}
    for i in range(6000):
        key = (i & 63, i >> 6)
        d[key] = d.get(key, 0j) + 1.5j
    return s + len(d)


class SpeedProbe:
    """Kernel timings (best of ``repeats``) taken at most every
    PROBE_EVERY_S when ``between_ops`` is called, and the time they took."""

    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        self.samples: list = []
        self.spent = 0.0
        self._last = -PROBE_EVERY_S

    def sample(self) -> None:
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(self.repeats):
            k0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - k0)
        self.samples.append(best)
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def factor(self, first: int = 0) -> float:
        """Above 1 when the machine ran faster than the reference, from the
        samples since index ``first`` (the last sample if there are none)."""
        return REFERENCE_S / statistics.fmean(self.samples[first:] or self.samples[-1:])


def run_loop(wl, seconds: float, tracer=None) -> dict:
    """Run whole cycles until ``seconds`` have passed.  Times exclude the
    speed probes.  Cycles are grouped into windows of at least
    WINDOW_S, and each window's times are scaled by the speed factor of
    the probes taken in it, so that the scaling follows the drift."""
    latencies, raw_latencies = [], []
    cycle_rates, raw_rates = [], []
    window_lat, window_rates = [], []
    attempted = failed = 0
    digest_items = []
    errors = 0
    k = 0
    probe = SpeedProbe()
    if tracer is None:
        # inside a traced op the probe would count as the op's own time
        wl.between_ops = probe.between_ops
    t0 = window_t0 = time.perf_counter()
    window_first = 0

    def flush():
        f = probe.factor(window_first)
        latencies.extend(ms * f for ms in window_lat)
        cycle_rates.extend(rate / f for rate in window_rates)
        window_lat.clear()
        window_rates.clear()

    while True:
        passed = attempted - failed
        c0, spent0 = time.perf_counter(), probe.spent
        for j, unit in enumerate(wl.cycle(k)):
            probe.between_ops()
            if tracer is not None:
                tracer.begin_op(k * 1000 + j)
                unit = tracer.op_span(unit)
            try:
                out = unit()
            except Exception:
                # a raising op is a failed op; the loop keeps running
                if errors < 3:
                    traceback.print_exc()
                errors += 1
                out = Outcome([], 1, ["raised"])
            window_lat += out.latencies_ms
            attempted += max(len(out.latencies_ms), out.failed)
            failed += out.failed
            if k == 0:
                digest_items.append(out.digest)
        k += 1
        now = time.perf_counter()
        rate = (attempted - failed - passed) / (now - c0 - (probe.spent - spent0))
        window_rates.append(rate)
        raw_rates.append(rate)
        raw_latencies += window_lat
        if now - window_t0 >= WINDOW_S:
            flush()
            window_t0, window_first = now, len(probe.samples)
        if now - t0 >= seconds:
            break
    if window_rates:
        flush()
    wall = time.perf_counter() - t0
    wl.between_ops = Workload.between_ops
    return {
        "wall_s": wall,
        "cycles": k,
        "attempted": attempted,
        "failed": failed,
        # every cycle holds the same mix, so the median over cycles is the
        # loop's throughput with short bursts of contention left out
        "ops_per_s": statistics.median(cycle_rates),
        "op_p50_ms": statistics.median(latencies) if latencies else None,
        # the 90th percentile only where at least 10 samples lie beyond it
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 100 else None,
        "latency_samples": len(latencies),
        "raw": {"ops_per_s": statistics.median(raw_rates),
                "ops_per_s_overall": (attempted - failed) / wall,
                "op_p50_ms": statistics.median(raw_latencies) if raw_latencies else None},
        "speed_factor": {"run": probe.factor(), "samples": len(probe.samples),
                         "kernel_ms_min": min(probe.samples) * 1e3,
                         "kernel_ms_max": max(probe.samples) * 1e3},
        "digest": hashlib.sha256(json.dumps(digest_items, sort_keys=True).encode()).hexdigest()[:16],
    }


def import_times(env: dict) -> dict:
    """Median ``import starsplit`` and scipy share from ``-X importtime``."""
    total, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import starsplit"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) * 1e-6))
        total.append(sum(c for _, name, c in rows if name == "starsplit"))
        # importtime prints children before parents: walk it backwards to
        # add each outermost scipy module once
        stack, s = [], 0.0
        for level, name, cum in reversed(rows):
            while stack and stack[-1][0] >= level:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(flag for _, flag in stack):
                s += cum
            stack.append((level, is_scipy))
        scipy.append(s)
    return {"cli.import_s": statistics.median(total), "cli.import_scipy_s": statistics.median(scipy)}


def layer_metrics(stats: dict, counters: dict, names) -> dict:
    def stat(span, key):
        return stats.get(span, {}).get(key, 0)

    calls = stat("analysis.classify", "calls")
    objective = counters.get("objective_calls", 0)
    derived = {
        "analysis.classify.d_calls_per_call": stat("analysis.classify", "d_calls") / calls if calls else 0.0,
        "search.objective.calls": objective,
        "search.objective.feasible_ratio":
            counters.get("objective_feasible", 0) / objective if objective else 0.0,
        "search.evaluations_over_budget": counters.get("evaluations_over_budget", 0),
        "search.runtime_warnings": counters.get("runtime_warnings", 0),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif not name.startswith(("cli.import", "trace.")):
            span, key = name.rsplit(".", 1)
            out[name] = stat(span, key)
    return out


def make_workload(name: str, seed: int, env: dict, scratch: str, traced: bool):
    if name != "cli":
        return WORKLOADS[name](seed)
    launcher = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), scratch] if traced else None
    return Cli(seed, ROOT, env, scratch, launcher)


def trace_cli(args, env: dict, seconds: float, spans_out: str):
    """Traced CLI ops: each child runs under ``cli_child.py`` and leaves its
    aggregates and spans in the scratch directory."""
    from tracer import merge_stats
    wl = make_workload("cli", args.seed, env, args.scratch, traced=True)
    loop = run_loop(wl, seconds)
    stats = {}
    with open(spans_out, "w", encoding="utf-8") as out:
        for fname in sorted(os.listdir(args.scratch)):
            path = os.path.join(args.scratch, fname)
            if fname.endswith(".stats.json"):
                with open(path, encoding="utf-8") as fh:
                    merge_stats(stats, json.load(fh))
            elif fname.endswith(".spans.jsonl"):
                with open(path, encoding="utf-8") as fh:
                    shutil.copyfileobj(fh, out)
    return loop, stats, wl.counters, 0


def trace_in_process(wl, seconds: float, spans_out: str):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    wl.counters.clear()
    loop = run_loop(wl, seconds, tracer)
    tracer.write_spans(spans_out)
    return loop, tracer.export_stats(), wl.counters, tracer.dropped


def traced_run(args, wl, env: dict) -> dict:
    """Half of the time untraced, then half traced on the same inputs."""
    half = args.seconds / 2.0
    plain = run_loop(wl, half)
    spans_out = os.path.join(os.path.dirname(args.scratch),
                             f"{args.workload}-seed{args.seed}.spans.jsonl")
    if args.workload == "cli":
        traced, stats, counters, dropped = trace_cli(args, env, half, spans_out)
    else:
        traced, stats, counters, dropped = trace_in_process(wl, half, spans_out)
    layers = layer_metrics(stats, counters, [m["name"] for m in benchmark_spec()["per_layer"]])
    layers.update(import_times(env))
    layers["trace.slowdown"] = plain["ops_per_s"] / traced["ops_per_s"] if traced["ops_per_s"] else 0.0
    return {
        "untraced": plain, "traced": traced, "per_layer": layers,
        "self_s_total": sum(st.get("self_s", 0.0) for st in stats.values()),
        "traced_wall_s": traced["wall_s"],
        "spans_file": os.path.relpath(spans_out, ROOT), "spans_dropped": dropped,
        "counters": counters, "stats": stats,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "digest": plain["digest"],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    os.makedirs(args.scratch, exist_ok=True)
    # set-up is bracketed by two speed probes; their time is not set-up
    probe = SpeedProbe(repeats=5)
    probe.sample()
    try:
        wl = make_workload(args.workload, args.seed, env, args.scratch, traced=False)
        wl.setup()
        raw_setup_s = time.time() - args.spawned_at - probe.spent
        probe.sample()
        factor = probe.factor()
        setup = {"setup_s": raw_setup_s * factor, "raw_setup_s": raw_setup_s,
                 "setup_speed_factor": factor}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        result = dict(setup)
        if args.trace:
            result.update(traced_run(args, wl, env))
        else:
            result.update(run_loop(wl, args.seconds))
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            result["counters"] = wl.counters
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
