"""Generated manifold and metric files through ``starsplit verify --suite
all --json``: every input ends in a passing report (exit 0) or in exit 2
with a message, never in a failed identity (exit 1), an exception or a
traceback, and the report is valid JSON.  Every model these files describe
satisfies the paper's identities, so a failed identity here is a defect of
the program."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, seed, settings, strategies as st

from starsplit.cli import main

COEFFS = st.sampled_from(["1", "-1", "2", "0.5", "i", "-i", "1+i", "1e-8", "3e5"])
BAD_COEFFS = st.sampled_from(["0", "t", "1/0", "1e308*10", "(", ""])
NUMBERS = st.sampled_from([1.0, 2.0, 0.5, 1e-3, 1e3])
BAD_NUMBERS = st.sampled_from([0.0, -1.0, 1e-15, 1e-300, 1e200])
OFF_DIAGONAL = st.sampled_from([0.0, 0.1, -0.25, 0.5])


@st.composite
def manifold_files(draw, bad):
    """d phi_n on phi_1 .. phi_{n-1}, which are closed (a 2-step nilpotent,
    hence valid, model), or d phi_k on any generators; one coefficient is
    ill-formed if ``bad``."""
    n = draw(st.sampled_from([1, 2] + [3] * 4))   # the operator suite needs n = 3
    free = draw(st.integers(0, 3)) == 0
    structure, entries = {}, []
    for k in range(1, n + 1):
        top = n if free else (n - 1 if k == n else 0)
        pairs = [(i, j) for i in range(1, top + 1) for j in range(i + 1, top + 1)]
        mixed = [(i, j) for i in range(1, top + 1) for j in range(1, top + 1)]
        parts = {}
        for slot, col, choices in (("(2,0)", "j", pairs), ("(1,1)", "jbar", mixed)):
            chosen = draw(st.lists(st.sampled_from(choices), max_size=2, unique=True)
                          if choices else st.just([]))
            if chosen:
                parts[slot] = [{"i": i, col: j, "coeff": draw(COEFFS)} for i, j in chosen]
                entries += parts[slot]
        if parts:
            structure[f"phi{k}"] = parts
    if bad and entries:
        draw(st.sampled_from(entries))["coeff"] = draw(BAD_COEFFS)
    return {"name": "fuzz", "dim": n, "structure": structure}


@st.composite
def metric_files(draw, n, bad):
    """A diagonal or a Hermitian metric file; if ``bad``, of the wrong size
    or with an entry or a scale that is not allowed or extreme."""
    size = n + 1 if bad and draw(st.booleans()) else n
    value = BAD_NUMBERS if bad else NUMBERS
    if draw(st.booleans()):
        coeffs = draw(st.lists(NUMBERS, min_size=size, max_size=size))
        coeffs[0] = draw(value)
        data = {"type": "diagonal", "coeffs": coeffs}
    else:
        entries = [[1.0 if i == j else 0.0, 0.0] for i in range(size) for j in range(size)]
        first = draw(value)
        entries[0] = [first, 0.0]
        if size > 1:
            z = [draw(OFF_DIAGONAL) * min(abs(first), 1.0) for _ in range(2)]
            entries[1] = z
            entries[size] = [z[0], -z[1]]
        data = {"type": "hermitian", "matrix": entries}
    if draw(st.booleans()):
        data["scale"] = draw(value)
    return data


def check_verify(manifold, metric):
    """Run ``verify --suite all --json`` on the two files and hold it to the
    contract of this module."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, content in (("manifold.json", manifold), ("metric.json", metric)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as fh:
                json.dump(content, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--manifold", paths[0], "--metric", paths[1],
                         "--suite", "all", "--json"])
    assert code in (0, 2), (code, manifold, metric, out.getvalue())
    assert "Traceback" not in err.getvalue(), (manifold, metric)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().count("\n") == 1 and "error: " in err.getvalue(), (
            err.getvalue(), manifold, metric)


# inputs that once exited 1: b13/b14 on a small metric, a13 on a metric whose
# coefficients span six orders of magnitude, and b15/b16 where the pair
# integrals are about 1e6
@pytest.mark.parametrize("slot,entries,coeffs,scale", [
    ("(1,1)", [(1, 2, "-i")], [0.5, 2.0, 1000.0], 0.001),
    ("(1,1)", [(1, 2, "-1"), (1, 1, "1")], [1.0, 1000.0, 0.001], 1000.0),
    ("(2,0)", [(1, 2, "1")], [0.5, 1.0, 1000.0], 1.0)])
def test_verify_on_inputs_that_once_failed(slot, entries, coeffs, scale):
    col = "jbar" if slot == "(1,1)" else "j"
    structure = {"phi3": {slot: [{"i": i, col: j, "coeff": c} for i, j, c in entries]}}
    check_verify({"name": "fuzz", "dim": 3, "structure": structure},
                 {"type": "diagonal", "coeffs": coeffs, "scale": scale})


# a fixed draw, independent of this file's source and of any example database
@seed(20221118)
@settings(database=None, max_examples=40, deadline=None)
@given(st.data())
def test_verify_ends_in_a_report_or_a_message(data):
    bad = data.draw(st.sampled_from(["none"] * 6 + ["manifold", "metric"]))
    manifold = data.draw(manifold_files(bad == "manifold"))
    check_verify(manifold, data.draw(metric_files(manifold["dim"], bad == "metric")))
