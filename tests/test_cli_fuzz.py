"""Generated manifold, metric and pullback files through ``starsplit verify
--suite all --json`` and ``starsplit classify --json`` with ``--gamma`` and
``--phi``: every input ends in a report (exit 0) or in exit 2 with exactly
one ``error:`` line, never in a failed identity (exit 1), an exception, a
warning or a traceback, and the report is valid JSON.  Every model these
files describe satisfies the paper's identities, so a failed identity here
is a defect of the program."""

import contextlib
import io
import json
import math
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
def manifold_files(draw, bad, dims=(1, 2, 3, 3, 3, 3)):
    """d phi_n on phi_1 .. phi_{n-1}, which are closed (a 2-step nilpotent,
    hence valid, model), or d phi_k on any generators; one coefficient is
    ill-formed if ``bad``.  The dimension is drawn from ``dims``."""
    n = draw(st.sampled_from(dims))
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


@st.composite
def pullback_files(draw, n):
    """A pullback file: an isometry of the standard metric (a permuted
    diagonal of phases) at a tiny, unit or huge scale, a singular matrix, a
    matrix of the wrong size, or one with a NaN or infinite entry (written
    as JSON's ``NaN`` and ``Infinity``)."""
    kind = draw(st.sampled_from(["isometry"] * 4 + ["singular", "size", "nonfinite"]))
    size = n + draw(st.sampled_from([-1, 1])) if kind == "size" else n
    scale = draw(st.sampled_from([1.0, 1.0, 1e-8, 1e-3, 1e3, 1e8, 1e200]))
    A = [[0j] * size for _ in range(size)]
    for i, j in enumerate(draw(st.permutations(range(size)))):
        A[i][j] = scale * complex(*draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0.6, 0.8)])))
    if kind == "singular" and size:
        A[draw(st.integers(0, size - 1))] = [0j] * size
    if kind == "nonfinite" and size:
        A[0][draw(st.integers(0, size - 1))] = draw(st.sampled_from(
            [complex(math.nan, 0), complex(math.inf, 0), complex(0, -math.inf)]))
    return {"matrix": [[z.real, z.imag] for row in A for z in row]}


def check_cli(command, files, *flags):
    """Write ``files`` (option name -> JSON content) to a temporary
    directory, run ``starsplit command --option path ... flags --json`` and
    hold it to the contract of this module."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for option, content in files.items():
            argv += [f"--{option}", os.path.join(tmp, f"{option}.json")]
            with open(argv[-1], "w") as fh:
                json.dump(content, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + list(flags) + ["--json"])
    assert code in (0, 2), (code, files, out.getvalue())
    assert "Traceback" not in err.getvalue(), files
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), (
            err.getvalue(), files)


def check_verify(manifold, metric):
    """``verify --suite all --json`` on the two files."""
    check_cli("verify", {"manifold": manifold, "metric": metric}, "--suite", "all")


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


# pullbacks that once misbehaved: a NaN or an infinite entry passed the
# singularity test, made numpy warn and was blamed on the pulled-back metric;
# 5e-5 times an isometry (condition number 1) was refused as singular; 1e200
# times an isometry overflowed the pulled-back metric with a numpy warning
@pytest.mark.parametrize("entry,scale", [
    ([math.nan, 0.0], 1.0), ([math.inf, 0.0], 1.0), ([1.0, 0.0], 5e-5), ([1.0, 0.0], 1e200)])
def test_classify_on_pullbacks_that_once_misbehaved(entry, scale):
    A = [[scale if i == j else 0.0, 0.0] for i in range(3) for j in range(3)]
    A[1] = entry
    check_cli("classify", {"phi": {"matrix": A}}, "--manifold", "iwasawa3")


@seed(20261019)
@settings(database=None, max_examples=60, deadline=None)
@given(st.data())
def test_classify_ends_in_a_report_or_a_message(data):
    """``classify --json`` with a second metric, a pullback or both."""
    bad = data.draw(st.sampled_from(["none"] * 6 + ["manifold", "metric"]))
    manifold = data.draw(manifold_files(bad == "manifold", dims=(3,)))
    n = manifold["dim"]
    files = {"manifold": manifold, "metric": data.draw(metric_files(n, bad == "metric"))}
    for option in data.draw(st.sampled_from([["gamma"], ["phi"], ["gamma", "phi"]])):
        files[option] = data.draw(pullback_files(n) if option == "phi" else metric_files(n, False))
    check_cli("classify", files)
