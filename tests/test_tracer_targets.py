"""The benchmark's traced mode wraps starsplit callables by name from
outside the package (``bench/tracer.py``); a rename under ``src/`` must not
leave one of its targets dangling."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from tracer import COUNTED, TARGETS, Tracer
Tracer().install()
for target in [t[0] for t in TARGETS] + [t[0] for t in COUNTED]:
    mod, _, attr = target.partition(":")
    obj = importlib.import_module("starsplit." + mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert hasattr(obj, "__wrapped__"), target
print(len(TARGETS) + len(COUNTED))
"""


def test_every_tracer_target_resolves():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", CHECK, os.path.join(ROOT, "bench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
