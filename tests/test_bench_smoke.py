"""One cycle of each in-process benchmark workload at seed 101.

Every op of ``bench/workloads.py`` checks its own result: the search's
best defect below the acceptance bar must come with the pluriclosed flag,
the f and star-rho cross residuals must stay within their bounds, and
``f(lambda omega) = f(omega) / lambda``.  A failed check is counted, not
raised, so this test asserts that none was counted.
"""

import importlib.util
import os
import sys

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["classify_mix", "search", "suites"])
def test_bench_cycle_has_no_failed_ops(workloads, name):
    workload = workloads.WORKLOADS[name](101)
    workload.setup()
    outcomes = [unit() for unit in workload.cycle(0)]
    assert outcomes and all(o.latencies_ms for o in outcomes)
    assert sum(o.failed for o in outcomes) == 0, [o.digest for o in outcomes if o.failed]
