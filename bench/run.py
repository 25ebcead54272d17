"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own
single-threaded worker process (``bench/worker.py``) with BLAS pinned to
one thread and ``src`` on ``PYTHONPATH``; nothing is installed.  Set-up is
measured in ``SETUP_REPEATS`` separate processes and reported as their
median.  Times are scaled to a reference machine speed measured during
the run.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced loop (see ``bench/NOTES.md``).  The last line
of standard output is one JSON object; the full record, with the output
digest, the known-defect counts and the environment, is written to
``bench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import benchmark_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, env: dict, deadline: float, setup_only: bool, n: int) -> dict:
    scratch = os.path.join(RESULTS, f"tmp-{args.workload}-{os.getpid()}-{n}")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env: dict) -> dict:
    probe = ("import json, numpy, scipy, platform\n"
             "blas = numpy.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
             " 'scipy': scipy.__version__,"
             " 'blas': '%s %s' % (blas.get('name', '?'), blas.get('version', '?'))}))")
    info = {}
    try:
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60)
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError):
        info = {"python": sys.version.split()[0]}
    info.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": git_commit(),
    })
    return info


def main() -> int:
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "starsplit", "__init__.py")):
        print(f"error: no starsplit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    os.makedirs(RESULTS, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for n in range(SETUP_REPEATS - 1):
                setups.append(spawn_worker(args, env, deadline, True, n))
        res = spawn_worker(args, env, deadline, False, SETUP_REPEATS)
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append({key: res[key] for key in ("setup_s", "raw_setup_s", "setup_speed_factor")})

    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(env),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "setup_s_samples": setups, "worker": res,
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["per_layer"]
        record["self_s_total"] = res["self_s_total"]
        record["traced_wall_s"] = res["traced_wall_s"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"ops_per_s": res["ops_per_s"], "op_p50_ms": res["op_p50_ms"],
                  "setup_s": statistics.median(x["setup_s"] for x in setups), "peak_rss_mb": res["peak_rss_mb"]}
        record["op_p90_ms"] = res["op_p90_ms"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted={attempted} "
          f"failed={failed} failed_ratio={record['failed_ratio']:.4g} "
          f"digest={res['digest']} record={os.path.relpath(path, ROOT)}")
    if not args.trace:
        p90 = record["op_p90_ms"]
        print(f"  op_p90_ms={'n/a (<100 ops)' if p90 is None else format(p90, '.4f')} "
              f"known defects: {json.dumps(res['counters'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
