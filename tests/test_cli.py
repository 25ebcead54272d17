import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import random_pd_metric
from starsplit import catalog, jsonio
from starsplit.cli import dimension_bound, main
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.errors import StarsplitError


@pytest.fixture
def corrupted_file(tmp_path):
    M = InvariantComplexManifold(
        "corrupt", 3, {3: {"(2,0)": [(1, 2, "1")], "(1,1)": []},
                       2: {"(2,0)": [(2, 3, "1")], "(1,1)": []}})
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(M.to_json_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in catalog.list_names():
        assert name in out


def test_classify_iwasawa(capsys):
    code, out, _ = run(capsys, "classify", "--manifold", "iwasawa3")
    assert code == 0
    assert "f = 1" in out
    assert "balanced                 yes" in out
    assert "spectrum" in out  # the eigenvalue-convention note is surfaced


def test_classify_torus(capsys):
    code, out, _ = run(capsys, "classify", "--manifold", "torus_3")
    assert code == 0
    assert "f = 0" in out
    assert "no " not in out.split("note:")[0]


def test_invariants_json_values(capsys):
    code, out, _ = run(capsys, "invariants", "--manifold", "calabi_eckmann",
                       "--param", "t=0+0.25i", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["f"] == pytest.approx(2.0, abs=1e-10)
    assert data["eigenvalues"] == pytest.approx([-1.0, 1.0, 1.0], abs=1e-10)


def test_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "classify", "--manifold", "iwasawa3", "--json")
    assert code == 0
    text = out.strip()
    assert jsonio.dumps(json.loads(text)) == text
    code, out, _ = run(capsys, "invariants", "--manifold", "nakamura", "--json")
    text = out.strip()
    assert jsonio.dumps(json.loads(text)) == text


@pytest.mark.parametrize("values", ["-0.2,0.1", "-0.2i,0.1"])
def test_scan_json_round_trips_byte_identical(capsys, values):
    # f = 0 and the real or imaginary parts -0.0 and 0.0 print as floats
    code, out, _ = run(capsys, "scan", "--manifold", "calabi_eckmann", "--param", "t",
                       f"--values={values}", "--json")
    assert code == 0
    assert jsonio.dumps(json.loads(out)) + "\n" == out


_SCAN_VALUES = {"calabi_eckmann": ("t", "-0.2,0.1,0,0.5+0.5i"),
                "iwasawa_def": ("sigma12", "-1,0,0.5,1-0.5i")}


@pytest.mark.parametrize("name", catalog.list_names())
def test_every_json_report_round_trips_byte_identical(capsys, tmp_path, rng, name):
    """Every JSON report on a catalog model, with its default metric and
    with dense ones (one report on the pair), parses and re-serialises
    through ``jsonio.dumps`` to the same bytes."""
    dense = []
    for k in range(2):
        dense.append(str(tmp_path / f"g{k}.json"))
        g = random_pd_metric(catalog.dimension(name), rng)
        with open(dense[-1], "w") as fh:
            json.dump(g.to_json_dict(), fh)
    runs = [["search", "--manifold", name, "--family", family, "--budget", "60"]
            for family in ("diagonal", "hermitian")]
    for metric in ([], ["--metric", dense[0]]):
        for command in (["classify"], ["invariants"], ["verify", "--suite", "all"]):
            runs.append(command + ["--manifold", name] + metric)
    runs.append(["classify", "--manifold", name, "--metric", dense[0], "--gamma", dense[1]])
    if name in _SCAN_VALUES:
        param, values = _SCAN_VALUES[name]
        runs.append(["scan", "--manifold", name, "--param", param, f"--values={values}"])
    for argv in runs:
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == "", (argv, err)
        assert jsonio.dumps(json.loads(out)) + "\n" == out, argv


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--manifold", "calabi_eckmann",
                       "--param", "t", "--values", "0.1,0.1+0.1i,-0.2i",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    fs = [float(line.split(",")[1]) for line in lines[1:]]
    assert fs == pytest.approx([0.0, 0.8, -1.6], abs=1e-10)


@pytest.mark.parametrize("values", ["-0.2i,0.1", "0.1,0.1+0.1i,-0.2i", "-0.3-0i,1e-300+1e-5i"])
def test_scan_csv_spells_every_float_as_the_json(capsys, values):
    # the same scan as CSV and as JSON: each CSV float token is the JSON's
    # token for that value, and the parameter is <real><sign><imag>i
    argv = ["scan", "--manifold", "calabi_eckmann", "--param", "t", f"--values={values}"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--json")
    assert code == 0
    rows = json.loads(json_out)["rows"]
    lines = list(csv.reader(out.splitlines()))[1:]
    assert len(lines) == len(rows) == values.count(",") + 1
    for fields, row in zip(lines, rows):
        real, imag = (jsonio.dumps(x) for x in row["param"])
        assert fields[0] == f"{real}{'' if imag.startswith('-') else '+'}{imag}i"
        assert fields[1] == jsonio.dumps(row["f"])
        assert fields[-1].split(";") == [jsonio.dumps(v) for v in row["eigenvalues"]]


@pytest.mark.parametrize("values", ["2,0.5", "0.5,1", "1e300i"])
def test_scan_applies_the_catalog_parameter_check(capsys, values):
    """A scan value that ``classify --param`` refuses is refused by
    ``scan`` too, in the same words, before any row is printed."""
    code, out, err = run(capsys, "scan", "--manifold", "calabi_eckmann", "--param", "t",
                         "--values", values, "--json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: calabi_eckmann parameter must satisfy |t| < 1")


def test_scan_requires_bare_param(capsys):
    code, _, err = run(capsys, "scan", "--manifold", "calabi_eckmann",
                       "--values", "0.1")
    assert code == 2
    assert "scan" in err


def test_verify_commutation_iwasawa3(capsys):
    code, out, _ = run(capsys, "verify", "--manifold", "iwasawa3",
                       "--suite", "commutation")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_all_iwasawa5(capsys):
    code, out, _ = run(capsys, "verify", "--manifold", "iwasawa5", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out


def test_verify_failure_exit_code(capsys, tmp_path):
    # an unreachable tolerance turns honest fp residuals into failures: exit 1,
    # distinct from invalid input (exit 2)
    metric = tmp_path / "offdiag.json"
    H = np.array([[2, 0.3 + 0.1j, 0], [0.3 - 0.1j, 1.5, 0.2j], [0, -0.2j, 1.0]])
    metric.write_text(json.dumps(
        {"type": "hermitian", "matrix": [[z.real, z.imag] for z in H.reshape(-1)]}))
    code, out, _ = run(capsys, "verify", "--manifold", "iwasawa3",
                       "--metric", str(metric), "--suite", "commutation",
                       "--tol", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_commutation_suite_passes_on_a_dense_metric_scaled_by_1e_12(capsys, tmp_path):
    """nakamura with a dense metric scaled by 1e-12 (the leading 3 x 3 block
    of the dense CI metric): the frame values are about 1e6, and a05, a06,
    a14 and a15 round at 1.0e-9 in absolute terms.  Each is relative to the
    largest value it reads, and a07 to a10, decided once per dimension at
    an exact point, read 0.0."""
    path = tmp_path / "small3.json"
    path.write_text(json.dumps({"type": "hermitian", "scale": 1e-12, "matrix": [
        [1, 0], [0.2, 0.1], [0.2, 0.2], [0.2, -0.1], [1, 0], [0.2, 0.1], [0.2, -0.2],
        [0.2, -0.1], [1, 0]]}))
    code, out, _ = run(capsys, "verify", "--manifold", "nakamura", "--metric", str(path),
                       "--suite", "commutation", "--json")
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True, out
    residuals = {e["id"][:3]: e["residual"] for e in data["suites"][0]}
    assert all(residuals[key] == 0.0 for key in ("a07", "a08", "a09", "a10")), residuals


def test_verify_operator_suite_with_gamma(capsys, tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"type": "diagonal", "coeffs": [1.0, 2.0, 3.0]}))
    code, out, _ = run(capsys, "verify", "--manifold", "iwasawa3",
                       "--suite", "operators", "--gamma", str(gamma))
    assert code == 0
    assert "FAIL" not in out


def test_verify_operator_suite_on_a_large_structure_constant(capsys, tmp_path):
    """A coefficient of 3e5 and a metric entry of 1e-3 make Q(omega) and
    P(omega) about 4.5e13: b22 and b25, like b13 to b16, compare relative
    to the size of what they compare, so rounding at 1e-16 of that size
    passes."""
    manifold, metric = tmp_path / "manifold.json", tmp_path / "metric.json"
    manifold.write_text(json.dumps(
        {"dim": 3, "structure": {"phi3": {"(1,1)": [{"i": 2, "jbar": 1, "coeff": "3e5"}]}}}))
    metric.write_text(json.dumps({"type": "hermitian", "matrix": [
        [1e-3, 0], [1e-4, 0], [0, 0], [1e-4, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]}))
    code, out, err = run(capsys, "verify", "--manifold", str(manifold), "--metric", str(metric),
                         "--suite", "operators", "--json")
    report = json.loads(out)
    assert (code, err, report["all_passed"]) == (0, "", True), report
    residuals = {e["id"][:3]: e["residual"] for e in report["suites"][0]}
    assert residuals["b22"] < 1e-14 and residuals["b25"] < 1e-14, residuals


def test_verify_corrupted_manifold(capsys, corrupted_file):
    code, _, err = run(capsys, "verify", "--manifold", corrupted_file)
    assert code == 2
    assert "d²" in err and "≠" in err


def test_classify_with_corrupted_manifold(capsys, corrupted_file):
    code, _, err = run(capsys, "classify", "--manifold", corrupted_file)
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_non_pd_metric_rejected(capsys, tmp_path):
    metric = tmp_path / "bad_metric.json"
    metric.write_text(json.dumps({"type": "diagonal", "coeffs": [1.0, -1.0, 1.0]}))
    code, _, err = run(capsys, "classify", "--manifold", "iwasawa3",
                       "--metric", str(metric))
    assert code == 2
    assert "positive" in err


def test_non_pd_metric_file_blames_the_matrix(capsys, tmp_path):
    # a well-formed file: the message names the matrix, not the file format
    metric = tmp_path / "indefinite.json"
    H = np.diag([1.0, -1.0, 1.0]).astype(complex)
    metric.write_text(json.dumps(
        {"type": "hermitian", "matrix": [[z.real, z.imag] for z in H.reshape(-1)]}))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--metric", str(metric), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "positive definite" in err and "malformed" not in err


_INDEFINITE = [[1, 0], [0, 0], [0, 0], [0, 0], [-1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]
# 8 x 8 diagonal: an array of all eight eigenvalues prints on two lines
_INDEFINITE_8 = [[[-0.123456789, 1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7][i // 9], 0]
                 if i % 9 == 0 else [0, 0] for i in range(64)]


@pytest.mark.parametrize("metric,words", [
    ({"type": "diagonal", "coeffs": [1e200, 1, 1]}, ("ill-conditioned", "1e+200")),
    ({"type": "diagonal", "coeffs": [1e15, 1, 1]}, ("ill-conditioned", "1e+15")),
    ({"type": "hermitian", "matrix": _INDEFINITE},
     ("not positive definite", "smallest eigenvalue -1)")),
    ({"type": "hermitian", "matrix": _INDEFINITE_8},
     ("not positive definite", "smallest eigenvalue -0.123)")),
])
def test_metric_refusal_names_conditioning_or_definiteness(capsys, tmp_path, metric, words):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(metric))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--metric", str(path), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert all(word in err for word in words), err
    assert ("not positive definite" in err) == (words[0] == "not positive definite")


def test_tiny_well_conditioned_metric_refusal_names_the_floor(capsys, tmp_path):
    # 1e-15 I has condition number 1; what refuses it is the absolute floor
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"type": "diagonal", "coeffs": [1, 1, 1], "scale": 1e-15}))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--metric", str(path), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "ill-conditioned" not in err and "condition number" not in err, err
    assert "1e-15" in err and "1e-14 floor" in err, err


_N6_MODELS = {
    "torus_6": {},
    "iwasawa3_x_iwasawa3": {"phi3": {"(2,0)": [{"i": 1, "j": 2, "coeff": "-1"}]},
                            "phi6": {"(2,0)": [{"i": 4, "j": 5, "coeff": "-1"}]}},
}


@pytest.mark.parametrize("name", sorted(_N6_MODELS))
def test_verify_all_in_dimension_6(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "dim": 6, "structure": _N6_MODELS[name]}))
    code, out, _ = run(capsys, "verify", "--suite", "all", "--json", "--manifold", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    ids = {e["id"] for suite in payload["suites"] for e in suite}
    assert {i[:3] for i in ids} == ({f"a{k:02d}" for k in range(1, 16)}
                                    | {f"b{k:02d}" for k in range(1, 27)})


_MANIFOLD_COMMANDS = {"classify": [], "invariants": [], "verify": [], "search": [],
                      "scan": ["--param", "t", "--values", "1"]}


def test_dimension_bounds_keep_dimension_6():
    assert all(dimension_bound(command) >= 6 for command in _MANIFOLD_COMMANDS)


@pytest.mark.parametrize("command", sorted(_MANIFOLD_COMMANDS))
@pytest.mark.parametrize("above", [1, 10 ** 12])
def test_dimension_above_the_bound_refused_by_message(capsys, tmp_path, command, above):
    # refused before any slot, or even the structure table, is built
    n = dimension_bound(command) + above
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": n, "structure": {}}))
    code, out, err = run(capsys, command, "--manifold", str(path), *_MANIFOLD_COMMANDS[command])
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"dimension {n} is above the bound {n - above} for {command}" in err, err


@pytest.mark.parametrize("command", sorted(_MANIFOLD_COMMANDS))
def test_catalog_torus_above_the_bound_refused_by_message(capsys, command):
    # a catalog name is held to the same bound as a file, before it is built
    n = dimension_bound(command) + 1
    code, out, err = run(capsys, command, "--manifold", f"torus_{n}",
                         *_MANIFOLD_COMMANDS[command])
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"dimension {n} is above the bound {n - 1} for {command}" in err, err


@pytest.mark.parametrize("n", [1, 2])
def test_operator_suite_below_dimension_3_refused(capsys, tmp_path, n):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"dim": n, "structure": {}}))
    code, out, err = run(capsys, "verify", "--suite", "all", "--json", "--manifold", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "dimension >= 3" in err, err
    code, out, _ = run(capsys, "verify", "--suite", "commutation", "--json",
                       "--manifold", str(path))
    assert code == 0 and json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("manifold,metric", [
    ("iwasawa3", {"type": "diagonal", "coeffs": [1e150, 1e150, 1e150]}),
    ("iwasawa5", {"type": "diagonal", "coeffs": [1, 1, 1, 1, 1], "scale": 1e80}),
])
def test_metric_with_overflowing_volume_rejected(capsys, tmp_path, manifold, metric):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(metric))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "classify", "--manifold", manifold,
                             "--metric", str(path), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "det H" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("manifold,lam", [("iwasawa3", 1e-13), ("iwasawa5", 1e-3)])
def test_small_metric_classifies_with_scaled_f(capsys, tmp_path, manifold, lam):
    # det H = lam^n is far below every coefficient of the metric; f(lam omega) = f(omega)/lam
    n = catalog.get(manifold)[0].dim
    reports = {}
    for scale in (lam, 1.0):
        path = tmp_path / f"metric-{scale}.json"
        path.write_text(json.dumps({"type": "diagonal", "coeffs": [scale] * n}))
        code, out, err = run(capsys, "classify", "--manifold", manifold,
                             "--metric", str(path), "--json")
        assert code == 0 and err == ""
        reports[scale] = json.loads(out)["report"]
    assert reports[lam]["f"] * lam == pytest.approx(reports[1.0]["f"], rel=1e-9)
    integral_f = reports[lam]["norms"]["integral_f"]
    assert np.isfinite(integral_f) and integral_f != 0


@pytest.mark.parametrize("argv", [
    ("verify", "--manifold", "iwasawa3", "--seed", "-1"),
    ("search", "--manifold", "iwasawa3", "--budget", "5", "--seed", "-1"),
])
def test_negative_seed_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--seed" in err


def test_calabi_eckmann_guard(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "calabi_eckmann",
                       "--param", "t=1")
    assert code == 2
    assert "|t|" in err or "t" in err


def test_pair_report_via_gamma(capsys, tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"type": "diagonal", "coeffs": [1.0, 2.0, 3.0]}))
    code, out, _ = run(capsys, "classify", "--manifold", "iwasawa3",
                       "--gamma", str(gamma), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pair"]["pluriclosed"]["holds"] is True


def test_triple_report_via_phi(capsys, tmp_path):
    u, v = np.exp(0.3j), np.exp(-0.6j)
    mat = np.diag([u, v, u * v])
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(
        {"matrix": [[z.real, z.imag] for z in mat.reshape(-1)]}))
    code, out, _ = run(capsys, "classify", "--manifold", "iwasawa3",
                       "--phi", str(phi), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["triple"]["pluriclosed"]["holds"] is True
    assert data["triple"]["gamma_isometric"] is True
    assert data["triple"]["rho_pullback_residual"] < 1e-10


def test_pullback_of_the_wrong_dimension_refused(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--phi", str(phi), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "dimension" in err, err


def _dense_iwasawa5_metric():
    B = 0.4 * np.random.default_rng(5).standard_normal((5, 5, 2)) @ [1, 1j]
    return B.conj().T @ B + np.eye(5)


@pytest.mark.parametrize("matrix", [np.eye(5), _dense_iwasawa5_metric()],
                         ids=["identity", "dense"])
def test_star_rho_scales_with_the_metric(capsys, tmp_path, matrix):
    # rho(lam omega) = rho(omega) and star rho(lam omega) = lam^(n-2) star rho(omega):
    # the reported monomials are the same at every scale
    reports = {}
    for lam in (1.0, 1e-6, 1e-5, 1e-3, 1e3):
        path = tmp_path / f"metric-{lam}.json"
        path.write_text(json.dumps({"type": "hermitian", "scale": lam,
                                    "matrix": [[z.real, z.imag] for z in matrix.reshape(-1)]}))
        code, out, err = run(capsys, "classify", "--manifold", "iwasawa5",
                             "--metric", str(path), "--json")
        assert code == 0 and err == ""
        reports[lam] = {key: {k: complex(*c) for k, c in json.loads(out)["report"][key].items()}
                        for key in ("rho", "star_rho")}
    base = reports[1.0]
    for lam, rep in reports.items():
        for key, factor in (("rho", 1.0), ("star_rho", lam ** 3)):
            assert rep[key].keys() == base[key].keys(), (lam, key)
            largest = max(map(abs, base[key].values()))
            for k, c in base[key].items():
                assert abs(rep[key][k] - factor * c) <= 1e-12 * factor * largest, (lam, key, k)


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "--manifold", "iwasawa3",
                       "--budget", "150", "--seed", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["best_defect"] < 1e-8
    assert data["report"]["flags"]["pluriclosed_star_split"]["holds"] is True


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_search_over_an_infeasible_simplex_warns_nothing(fmt):
    # at this budget a restart meets a simplex whose values are all inf
    # (no vertex positive definite); the stop test must not subtract inf
    # from inf there, and the points evaluated stay those it always took
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run(
        [sys.executable, "-m", "starsplit.cli", "search", "--manifold", "iwasawa3",
         "--family", "diagonal", "--budget", "2000", "--seed", "0", *fmt],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    if fmt:
        data = json.loads(proc.stdout)
        assert data["evaluations"] == 1057 and data["best_params"] == [1.0, 1.0, 1.0]
    else:
        assert "after 1057 evaluations\nbest params: 1, 1, 1\n" in proc.stdout


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--manifold", "torus_3",
                       "--suite", "commutation", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    entries = data["suites"][0]
    assert all(set(e) >= {"id", "anchor", "residual", "pass"} for e in entries)


def test_scan_file_manifold(capsys, tmp_path):
    M, _, _ = catalog.get("calabi_eckmann")
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(M.to_json_dict()))
    # file manifolds scan against the identity metric: f = 4 Im t there
    code, out, _ = run(capsys, "scan", "--manifold", str(path),
                       "--param", "t", "--values", "0.25i", "--format", "csv")
    assert code == 0
    f = float(out.strip().split("\n")[1].split(",")[1])
    assert f == pytest.approx(1.0, abs=1e-10)


def test_file_manifold_classify(capsys, tmp_path):
    M, _, _ = catalog.get("nakamura")
    path = tmp_path / "nakamura.json"
    path.write_text(json.dumps(M.to_json_dict()))
    code, out, _ = run(capsys, "classify", "--manifold", str(path))
    assert code == 0
    assert "f = 2" in out


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "iwasawa3",
                       "--param", "=3")
    assert code == 2


# ----------------------------------------------------------------------
# bad input ends in exit 2 and one stderr line, never a traceback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_rejected(capsys, tol):
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--tol", tol, "--json")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--tol" in err


@pytest.mark.parametrize("coeff", ["1/0", "1e400", "abs2(1e200)"])
def test_bad_coefficient_expression_rejected(capsys, tmp_path, coeff):
    data = {"name": "bad", "dim": 3,
            "structure": {"phi3": {"(2,0)": [{"i": 1, "j": 2, "coeff": coeff}]}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "classify", "--manifold", str(path))
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_structure_key_out_of_range_rejected(capsys, tmp_path):
    data = {"name": "bad", "dim": 3,
            "structure": {"phi9": {"(2,0)": [{"i": 1, "j": 2, "coeff": "1"}]}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "classify", "--manifold", str(path))
    assert code == 2
    assert "phi9" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_non_finite(value):
    with pytest.raises(StarsplitError):
        jsonio.dumps({"f": [1.0, value]})


@pytest.mark.parametrize("metric", [
    {"type": "diagonal", "coeffs": [1, 1, 1], "scale": float("inf")},
    {"type": "diagonal", "coeffs": [1, 1, 1], "scale": float("nan")},
    {"type": "diagonal", "coeffs": [1, float("nan"), 1]},
    {"type": "hermitian", "matrix": [[1, 0], [0, 0], [0, 0], [0, 0], [float("inf"), 0],
                                     [0, 0], [0, 0], [0, 0], [1, 0]]},
])
def test_non_finite_metric_rejected(capsys, tmp_path, metric):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(metric))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3",
                         "--metric", str(path), "--json")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_non_numeric_metric_scale_rejected(capsys, tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"type": "diagonal", "coeffs": [1, 1, 1], "scale": "abc"}))
    code, _, err = run(capsys, "classify", "--manifold", "iwasawa3", "--metric", str(path))
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def test_scan_honours_metric(capsys, tmp_path):
    path = tmp_path / "d123.json"
    path.write_text(json.dumps({"type": "diagonal", "coeffs": [1, 2, 3]}))
    argv = ["scan", "--manifold", "calabi_eckmann", "--param", "t", "--values", "0.3i",
            "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    f_default = json.loads(out)["rows"][0]["f"]
    code, out, _ = run(capsys, *argv, "--metric", str(path))
    assert code == 0
    f_metric = json.loads(out)["rows"][0]["f"]
    assert f_default == pytest.approx(2.4, abs=1e-10)
    assert abs(f_metric - f_default) > 0.1
    code, out, err = run(capsys, *argv, "--metric", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


def test_iwasawa_def_has_no_parameter_t(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "iwasawa_def", "--param", "t=0.3")
    assert code == 2
    assert "'t'" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["torus_04", "torus_0", "torus_\u0663", "torus_", "torus_4x",
                                  pytest.param("torus_" + "1" * 5000, id="torus_5000_digits")])
def test_torus_names_outside_the_pattern_refused(capsys, name):
    # torus_<k>: k >= 1 in ASCII digits, no leading zero; never renamed
    code, out, err = run(capsys, "classify", "--manifold", name)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, starsplit.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _cold_cli(*args, prefix=()):
    """A CLI call in a fresh interpreter on the checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *prefix, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_catalog_list_imports_no_numpy():
    proc = _cold_cli("-m", "starsplit.cli", "catalog", "list", prefix=("-X", "importtime"))
    assert proc.returncode == 0 and "iwasawa3" in proc.stdout
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "starsplit.catalog" in imported
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


# each command with the starsplit modules it must not import
_MAIN_THEN_MODULES = ("import sys\nfrom starsplit.cli import main\ncode = main(sys.argv[1:])\n"
                      "print(*sorted(sys.modules), file=sys.stderr)\nsys.exit(code)")


@pytest.mark.parametrize("args,unused", [
    (["classify", "--manifold", "iwasawa3", "--json"], {"operators", "search"}),
    (["invariants", "--manifold", "nakamura", "--json"], {"operators", "search"}),
    (["search", "--manifold", "iwasawa3", "--budget", "30", "--json"], {"operators"}),
])
def test_commands_import_only_the_layers_they_use(args, unused):
    proc = _cold_cli("-c", _MAIN_THEN_MODULES, *args)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "starsplit.analysis" in loaded
    assert {f"starsplit.{name}" for name in unused} & loaded == set()


# ----------------------------------------------------------------------
# input files of the wrong shape: exit 2 and one stderr line naming the
# fault, never a traceback and never a silently dropped key
# ----------------------------------------------------------------------
_IWASAWA3_PHI3 = {"(2,0)": [{"i": 1, "j": 2, "coeff": "-1"}]}


@pytest.mark.parametrize("data,word", [
    ({"dim": 3, "parameters": [], "structure": {}}, "parameters"),
    ({"dim": 3, "structure": []}, "structure"),
    ({"dim": 3, "structure": {"phi3": []}}, "phi3"),
    ([1, 2], "manifold"),
    ({"dim": 3, "parameters": {"s": [1, 0]}, "structure": {}}, "'s'"),
    ({"dim": 3, "parameters": {"s": {"default": [1]}}, "structure": {}}, "'s'"),
    ({"dim": 3, "structure": {"phi3": dict(_IWASAWA3_PHI3, **{
        "(0,2)": [{"i": 1, "j": 2, "coeff": "1"}]})}}, "(0,2)"),
    ({"dim": 3, "structure": {"phi3": _IWASAWA3_PHI3, "phi03": {}}}, "phi03"),
    ({"dim": 3, "structur": {"phi3": _IWASAWA3_PHI3}}, "structur"),
    ({"dim": 3, "structure": {"phi3": {"(2,0)": [{"i": 1, "j": 2, "jbar": 3, "coeff": "-1"}]}}},
     "jbar"),
])
def test_malformed_manifold_file_rejected(capsys, tmp_path, data, word):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "classify", "--manifold", str(path), "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and word in err, err


@pytest.mark.parametrize("option,data,word", [
    ("--metric", {"type": "diagonal", "coeffs": "111"}, "coeffs"),
    ("--metric", {"type": "diagonal", "coeffs": [1, 1, 1], "scael": 2}, "scael"),
    ("--metric", {"type": "hermitian", "coeffs": [1, 1, 1],
                  "matrix": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0],
                             [1, 0]]}, "coeffs"),
    ("--gamma", {"type": "diagonal", "coeffs": [1, 2, 3], "matrix": []}, "matrix"),
    ("--phi", {"matrix": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0],
                          [1, 0]], "scale": 2}, "scale"),
])
def test_metric_and_pullback_files_refuse_unknown_keys(capsys, tmp_path, option, data, word):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3", option, str(path),
                         "--json")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and word in err, err


@pytest.mark.parametrize("name", catalog.list_names())
def test_invariants_json_is_the_classify_report_subset(capsys, name):
    code, out, _ = run(capsys, "classify", "--manifold", name, "--json")
    assert code == 0
    report = json.loads(out)["report"]
    code, out, _ = run(capsys, "invariants", "--manifold", name, "--json")
    assert code == 0
    keys = ("manifold", "f", "eigenvalues", "rho", "star_rho", "norms", "notes")
    assert json.loads(out) == {key: report[key] for key in keys}


# ----------------------------------------------------------------------
# input files that parse but would be misread: a repeated key, or a value
# that is not a JSON number where one is needed.  Exit 2 and one stderr
# line, never a silent last-key-wins or a truncating conversion.
# ----------------------------------------------------------------------
_PHI3_TEXT = '{"(2,0)": [{"i": 1, "j": 2, "coeff": "-1"}]}'
_IDENTITY3 = [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]


@pytest.mark.parametrize("option,text,word", [
    ("--manifold", '{"dim": 3, "structure": {"phi3": %s, "phi3": {}}}' % _PHI3_TEXT, "phi3"),
    ("--manifold", '{"dim": 3, "dim": 3, "structure": {"phi3": %s}}' % _PHI3_TEXT, "dim"),
    ("--metric", '{"type": "diagonal", "coeffs": [1, 1, 1], "coeffs": [1, 2, 3]}', "coeffs"),
    ("--phi", '{"matrix": %s, "matrix": %s}' % (_IDENTITY3, _IDENTITY3), "matrix"),
])
def test_repeated_json_key_rejected(capsys, tmp_path, option, text, word):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["classify", "--json", option, str(path)]
    if option != "--manifold":
        argv += ["--manifold", "iwasawa3"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "repeated" in err and word in err, err


@pytest.mark.parametrize("option,data,word", [
    ("--manifold", {"dim": 3.7, "structure": {"phi3": _IWASAWA3_PHI3}}, "dim"),
    ("--manifold", {"dim": "3", "structure": {"phi3": _IWASAWA3_PHI3}}, "dim"),
    ("--manifold", {"dim": True, "structure": {}}, "dim"),
    ("--manifold", {"dim": 3, "structure": {"phi3": {
        "(2,0)": [{"i": 1.9, "j": 2, "coeff": "-1"}]}}}, "phi3"),
    ("--manifold", {"dim": 3, "parameters": {"s": {"default": [True, 0]}},
                    "structure": {"phi3": {"(2,0)": [{"i": 1, "j": 2, "coeff": "s"}]}}}, "'s'"),
    ("--metric", {"type": "diagonal", "coeffs": ["1", True, "2"]}, "coeffs"),
    ("--metric", {"type": "diagonal", "coeffs": [1, True, 2]}, "coeffs"),
    ("--metric", {"type": "hermitian", "matrix": [[True, 0]] + _IDENTITY3[1:]}, "matrix"),
    ("--metric", {"type": "hermitian", "matrix": [[1, False]] + _IDENTITY3[1:]}, "matrix"),
    ("--metric", {"type": "diagonal", "coeffs": [1, 1, 1], "scale": True}, "scale"),
    ("--phi", {"matrix": [[True, 0]] + _IDENTITY3[1:]}, "matrix"),
])
def test_non_number_rejected(capsys, tmp_path, option, data, word):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = ["classify", "--json", option, str(path)]
    if option != "--manifold":
        argv += ["--manifold", "iwasawa3"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and word in err, err


def test_numbers_of_every_json_kind_still_read(capsys, tmp_path):
    """Integers and floats are both numbers wherever a real is expected."""
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"type": "hermitian", "scale": 2,
                                "matrix": [[1, 0.0], [0, 0], [0.0, 0], [0, 0], [2.5, 0],
                                           [0, 0], [0, 0], [0, 0], [1, 0]]}))
    code, out, err = run(capsys, "classify", "--manifold", "iwasawa3", "--metric", str(path),
                         "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["report"]["metric"] == "diagonal(2, 5, 2)"


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["classify", "--manifold", "iwasawa3", "--json"],
    ["verify", "--manifold", "iwasawa3", "--suite", "commutation"],
    ["catalog", "list"],
])
def test_closed_output_pipe_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv):
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(argv)
        monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "pipe" in err, err


# ----------------------------------------------------------------------
# long and deep expressions, --format with --json, argparse refusals
# ----------------------------------------------------------------------
LONG_AND_DEEP = {"sum": "+".join(["0.0001"] * 3000), "parentheses": "(" * 600 + "0.1" + ")" * 600,
                 "minuses": "-" * 3000 + "0.1"}


@pytest.mark.parametrize("kind", sorted(LONG_AND_DEEP))
@pytest.mark.parametrize("route", ["param", "file"])
def test_long_and_deep_expressions_exit_2_with_one_line(capsys, tmp_path, kind, route):
    """Each of these once exited 1 with a RecursionError traceback."""
    text = LONG_AND_DEEP[kind]
    if route == "param":
        argv = ["classify", "--manifold", "calabi_eckmann", f"--param=t={text}"]
    else:
        data = {"name": "deep", "dim": 3,
                "structure": {"phi3": {"(2,0)": [{"i": 1, "j": 2, "coeff": text}]}}}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        argv = ["classify", "--manifold", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err[:200]


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_scan_refuses_a_format_other_than_json_with_json(capsys, fmt):
    code, out, err = run(capsys, "scan", "--manifold", "calabi_eckmann", "--param", "t",
                         "--values", "0.1", "--format", fmt, "--json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "--format" in err


def test_scan_format_json_with_json_is_json(capsys):
    code, out, _ = run(capsys, "scan", "--manifold", "calabi_eckmann", "--param", "t",
                       "--values", "0.1", "--format", "json", "--json")
    assert code == 0 and json.loads(out)["param"] == "t"


@pytest.mark.parametrize("argv,words", [
    (["classify", "--manifold", "iwasawa3", "--bogus"], "--bogus"),
    (["classify"], "--manifold"),
    (["verify", "--manifold", "iwasawa3", "--suite", "nope"], "--suite"),
    (["scan", "--manifold", "calabi_eckmann", "--param", "t", "--values", "-0.2i,0.1"],
     "--values"),
    ([], "command")],
    ids=["unknown-option", "missing-manifold", "bad-suite", "negative-values", "no-command"])
def test_argument_refusals_are_one_line(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and words in err, err


def test_scan_builds_one_model_per_value_and_one_base(capsys, monkeypatch):
    built = []
    init = InvariantComplexManifold.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)
    monkeypatch.setattr(InvariantComplexManifold, "__init__", counting_init)
    code, _, _ = run(capsys, "scan", "--manifold", "calabi_eckmann", "--param", "t",
                     "--values=0.1,0.2,-0.3i", "--json")
    assert code == 0 and len(built) == 3 + 1
