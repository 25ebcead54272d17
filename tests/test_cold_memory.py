"""A cold ``verify --suite all --json`` on a 6-dimensional torus, run in a
fresh interpreter as a user runs it: the per-dimension tables of both
suites are sparse index tables, so the allocations that tracemalloc sees
stay small."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import io, json, sys, tracemalloc
from contextlib import redirect_stdout
tracemalloc.start()
from starsplit import cli
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["verify", "--manifold", sys.argv[1], "--suite", "all", "--json"])
print(json.dumps({"code": code, "all_passed": json.loads(out.getvalue())["all_passed"],
                  "peak": tracemalloc.get_traced_memory()[1]}))
"""


def test_cold_verify_on_a_6_torus_peaks_below_60_mib(tmp_path):
    path = tmp_path / "torus_6.json"
    path.write_text(json.dumps({"name": "torus_6", "dim": 6, "structure": {}}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHECK, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["all_passed"] is True
    assert result["peak"] <= 60 * 2 ** 20, result["peak"] / 2 ** 20
