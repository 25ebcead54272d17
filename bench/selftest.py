"""The benchmark's own tests.

    python3 bench/selftest.py

Run from the repository root; takes a few minutes.  Checks that

1. ``BENCHMARK.json`` keeps the format's limits and names the workloads
   that ``bench/workloads.py`` defines;
2. a short run of every workload exits 0, prints every end-to-end metric
   with its unit and fails no op;
3. two runs of each workload on the same seed give the same output digest;
4. a short traced run of every workload prints every per-layer metric, and
   its self times sum to no more than the traced wall time;
5. ``run.py`` exits non-zero without printing a result in a directory that
   holds only ``BENCHMARK.json`` and ``bench/``;
6. a search that raises, and one whose result fails its check, count as
   failed ops in the timed loop.

The file is not named ``test_*.py`` so that the repository's pytest run
does not collect these multi-minute process-level checks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import types

from workloads import WORKLOADS, benchmark_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = benchmark_spec()
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

failures = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload: str, seed: int, seconds: float, trace: int, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines[-1] if lines else ""


def record(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(BENCH_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_benchmark_json() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    check(os.path.getsize(path) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    check(sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
          "BENCHMARK.json has exactly the contract's keys")
    check(sorted(WORKLOAD_NAMES) == sorted(WORKLOADS), "its workloads are those bench/workloads.py defines")
    check(2 <= len(WORKLOAD_NAMES) <= 8 and 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128,
          "workload and metric counts are within limits")
    check(all(sorted(w) == ["name", "why"] for w in SPEC["workloads"])
          and all(sorted(m) == ["better", "bound", "name", "unit"] for m in END_TO_END)
          and all(sorted(m) == ["better", "name", "unit"] for m in PER_LAYER),
          "every workload and metric has exactly the contract's keys")
    names = WORKLOAD_NAMES + [m["name"] for m in END_TO_END + PER_LAYER]
    check(all(NAME.fullmatch(n) for n in names), "every name matches the name pattern")
    check(len(set(names)) == len(names), "every name is used once")
    check(all(UNIT.fullmatch(m["unit"]) for m in END_TO_END + PER_LAYER),
          "every unit matches the unit pattern")
    check(all(m["better"] in ("higher", "lower") for m in END_TO_END + PER_LAYER),
          "every better is higher or lower")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"]),
          "every why is one line of at most 200 characters")
    check(all(0 < m["bound"] <= 0.25 for m in END_TO_END), "every bound is in (0, 0.25]")
    setup = [m for m in END_TO_END if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")
    check(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in END_TO_END),
          "setup_s has the largest bound")
    check(isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")


def check_runs() -> None:
    for workload in WORKLOAD_NAMES:
        proc, last = run(workload, 0, 1, 0)
        first_digest = record(workload, 0, 0)["worker"]["digest"] if proc.returncode == 0 else None
        check(proc.returncode == 0, f"{workload}: short run exits 0")
        try:
            result = json.loads(last)
        except ValueError:
            check(False, f"{workload}: last line is a JSON result")
            continue
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: every op passes its check")
        want = {m["name"]: m["unit"] for m in END_TO_END}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        check(got == want, f"{workload}: every end-to-end metric with its unit")
        check(all(isinstance(m["value"], (int, float)) and m["value"] > 0
                  for m in result["metrics"].values()), f"{workload}: every end-to-end value is positive")
        run(workload, 0, 1, 0)
        check(record(workload, 0, 0)["worker"]["digest"] == first_digest,
              f"{workload}: two runs on one seed give one digest")


def check_traced() -> None:
    for workload in WORKLOAD_NAMES:
        proc, last = run(workload, 0, 2, 1)
        check(proc.returncode == 0, f"{workload}: traced run exits 0")
        try:
            result = json.loads(last)
        except ValueError:
            check(False, f"{workload}: traced last line is a JSON result")
            continue
        want = {m["name"]: m["unit"] for m in PER_LAYER}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        check(got == want, f"{workload}: every per-layer metric with its unit")
        check(result["failed"] == 0, f"{workload}: traced ops pass their checks")
        rec = record(workload, 0, 1)
        check(rec["self_s_total"] <= rec["traced_wall_s"],
              f"{workload}: self times {rec['self_s_total']:.3f} s <= traced wall {rec['traced_wall_s']:.3f} s")


def check_bare_copy() -> None:
    copy = os.path.join(BENCH_DIR, "results", "selftest-bare")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(copy, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    try:
        proc, last = run("classify_mix", 0, 1, 0, cwd=copy)
        check(proc.returncode != 0 and not last.startswith("{"),
              "without the sources run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def check_failure_accounting() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from worker import run_loop
    from workloads import Search

    wl = Search(0)
    real = wl.search

    def raising(*args, **kwargs):
        raise RuntimeError("injected failure (expected by the selftest)")

    def wrong(*args, **kwargs):
        return dataclasses.replace(real.search_pss(*args, **kwargs), best_defect=float("nan"))

    for what, fake in (("raises", raising), ("fails its check", wrong)):
        wl.search = types.SimpleNamespace(hermitian_family=real.hermitian_family, search_pss=fake)
        loop = run_loop(wl, 0.01)
        check(loop["attempted"] >= 1 and loop["failed"] == loop["attempted"],
              f"a search that {what} counts as failed ops "
              f"(attempted={loop['attempted']}, failed={loop['failed']})")


def main() -> int:
    check_benchmark_json()
    check_failure_accounting()
    check_bare_copy()
    check_runs()
    check_traced()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
