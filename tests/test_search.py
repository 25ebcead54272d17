import numpy as np
import pytest

from conftest import random_pd_metric
from starsplit import catalog, metric, search
from starsplit.analysis import classify, pair_analysis
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.errors import InputError
from starsplit.forms import Form
from starsplit.metric import HermitianMetric
from starsplit.search import (MetricFamily, _simplex_descent, diagonal_family,
                              family_by_name, hermitian_family, pss_defect, scan,
                              scan_rows_to_csv, search_pss)


def non_unimodular():
    return InvariantComplexManifold(
        "solv", 3, {2: {"(2,0)": [(1, 2, "1")], "(1,1)": []}})


# ----------------------------------------------------------------------
# the defect
# ----------------------------------------------------------------------
def test_defect_zero_on_star_split_metrics():
    M, g, _ = catalog.get("iwasawa3")
    assert pss_defect(M, g) < 1e-14
    for t in (0.1, 0.1 + 0.1j, -0.3j):
        M, g, _ = catalog.get("calabi_eckmann", {"t": t})
        assert pss_defect(M, g) < 1e-13


def test_defect_on_deformation_diagonal_metrics_is_zero():
    # invariant metrics on Stokes-valid models are automatically star split;
    # in particular the perturbed diagonal has defect exactly zero
    sig = {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3}
    M, _, _ = catalog.get("iwasawa_def", sig)
    g = HermitianMetric.diagonal([1.0, 1.3, 1.0])
    defect = pss_defect(M, g)
    assert defect < 1e-13
    assert classify(M, g).flags["pluriclosed_star_split"].holds


def test_defect_positive_iff_flag_fails():
    # a non-unimodular model carries genuinely non-star-split metrics
    M = non_unimodular()
    g = HermitianMetric.identity(3)
    defect = pss_defect(M, g)
    assert defect > 0.1
    assert not classify(M, g).flags["pluriclosed_star_split"].holds


def test_defect_flag_equivalence(rng):
    cases = [catalog.get("iwasawa3")[0], catalog.get("calabi_eckmann", {"t": 0.2j})[0],
             non_unimodular()]
    for M in cases:
        for _ in range(3):
            g = HermitianMetric.diagonal(rng.uniform(0.5, 2.0, 3))
            flag = classify(M, g).flags["pluriclosed_star_split"].holds
            assert (pss_defect(M, g) < 1e-10) == flag


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def test_search_iwasawa_diagonal():
    M, _, _ = catalog.get("iwasawa3")
    result = search_pss(M, diagonal_family(3), budget=2000, seed=42)
    assert result.best_defect < 1e-8
    assert result.report.flags["pluriclosed_star_split"].holds
    assert np.all(np.asarray(result.best_params) > 0)
    assert result.f_signs_observed == [1]
    assert not result.f_sign_changed


def test_search_deterministic():
    M, _, _ = catalog.get("iwasawa3")
    a = search_pss(M, diagonal_family(3), budget=300, seed=7)
    b = search_pss(M, diagonal_family(3), budget=300, seed=7)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.best_defect == b.best_defect
    assert a.evaluations == b.evaluations


def test_search_torus_trivial():
    M, _, _ = catalog.get("torus_3")
    result = search_pss(M, diagonal_family(3), budget=50, seed=0)
    assert result.best_defect == 0.0
    assert result.report.f == pytest.approx(0.0, abs=1e-13)
    assert result.f_signs_observed == [0]


def test_search_hermitian_family():
    M, _, _ = catalog.get("iwasawa3")
    result = search_pss(M, hermitian_family(3), budget=400, seed=1)
    assert result.best_defect < 1e-8
    assert result.report.flags["pluriclosed_star_split"].holds


def test_search_descends_on_nontrivial_objective():
    # on the non-unimodular model the defect varies with the metric and the
    # minimiser must do real work
    M = non_unimodular()
    fam = diagonal_family(3)
    start = pss_defect(M, fam.build(fam.start))
    result = search_pss(M, fam, budget=600, seed=5)
    assert result.best_defect <= start + 1e-12


def test_search_runs_the_core_once_per_feasible_evaluation_and_once_to_classify(monkeypatch):
    # the winner's defect is the descent's value there, not a second core run
    M = non_unimodular()
    fam = diagonal_family(3)
    feasible = []

    def build(x):
        g = fam.build(x)
        feasible.append(x)
        return g

    core_runs = []
    real = search.analysis._star_split
    monkeypatch.setattr(search.analysis, "_star_split",
                        lambda *args: core_runs.append(args) or real(*args))
    result = search_pss(M, MetricFamily(3, 3, build, fam.start), budget=600, seed=5)
    # feasible builds: the start check, the feasible evaluations and the winner
    assert len(core_runs) == (len(feasible) - 2) + 1
    monkeypatch.undo()
    assert result.best_defect > 0.0
    assert result.best_defect == pss_defect(M, fam.build(result.best_params))


def test_search_rejects_bad_family():
    M, _, _ = catalog.get("iwasawa3")

    def broken(x):
        raise InputError("never feasible")

    family = MetricFamily(3, 2, broken, np.ones(2))
    with pytest.raises(InputError):
        search_pss(M, family, budget=10, seed=0)
    with pytest.raises(InputError):
        search_pss(M, diagonal_family(3), budget=0, seed=0)
    with pytest.raises(InputError):
        family_by_name("nope", 3)


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------
def test_scan_calabi_eckmann_line():
    M, g, _ = catalog.get("calabi_eckmann")
    rows = scan(M, "t", [0.1, 0.1 + 0.1j, -0.2j], metric=g)
    assert [row.f for row in rows] == pytest.approx([0.0, 0.8, -1.6], abs=1e-10)
    assert rows[0].flags["SKT"] is True
    assert rows[1].flags["SKT"] is False
    assert rows[2].flags["SKT"] is False
    assert rows[1].flags["pluriclosed_star_split"] is True


def test_scan_deformation_sigma():
    M, g, _ = catalog.get("iwasawa_def")
    rows = scan(M, "sigma21b", [0.0, 0.1, 0.5j], metric=g)
    assert [row.f for row in rows] == pytest.approx([1.0, 1.01, 1.25], abs=1e-12)


def test_scan_empty_and_unknown():
    M, g, _ = catalog.get("calabi_eckmann")
    assert scan(M, "t", [], metric=g) == []
    with pytest.raises(InputError):
        scan(M, "missing", [0.1], metric=g)


def test_scan_csv_shape():
    M, g, _ = catalog.get("calabi_eckmann")
    rows = scan(M, "t", [0.1, 0.1 + 0.1j, -0.2j], metric=g)
    text = scan_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("param,f,")
    fs = [float(line.split(",")[1]) for line in lines[1:]]
    assert fs == pytest.approx([0.0, 0.8, -1.6], abs=1e-10)


# ----------------------------------------------------------------------
# i del delbar omega_{n-2} is built once per report and per evaluation
# ----------------------------------------------------------------------
def test_differential_calls_per_construction(monkeypatch):
    # d, del_ and delbar all apply the slot matrices through _differential
    calls = [0]
    apply = InvariantComplexManifold._differential

    def counted(self, u, parts):
        calls[0] += 1
        return apply(self, u, parts)

    monkeypatch.setattr(InvariantComplexManifold, "_differential", counted)
    rng = np.random.default_rng(5)
    M, _, _ = catalog.get("iwasawa5")
    g, gamma = random_pd_metric(5, rng), random_pd_metric(5, rng)

    def count(fn):
        calls[0] = 0
        result = fn()
        return calls[0], result

    assert count(lambda: classify(M, g))[0] <= 11
    assert count(lambda: pair_analysis(M, g, gamma))[0] <= 4
    total, result = count(lambda: search_pss(M, hermitian_family(5), budget=20, seed=0))
    assert total <= 4 * result.evaluations + 15


def test_objective_builds_no_form_and_one_compound_per_rank(monkeypatch):
    # a fresh metric per call, as in the search; the manifold's slot
    # matrices are warm
    rng = np.random.default_rng(8)
    M, _, _ = catalog.get("iwasawa5")
    classify(M, random_pd_metric(5, rng))
    calls = {"form": 0, "compound": 0}
    form_init, compound = Form.__init__, metric.compound

    def counted_form(self, *args, **kwargs):
        calls["form"] += 1
        form_init(self, *args, **kwargs)

    def counted_compound(mat, r):
        calls["compound"] += 1
        return compound(mat, r)

    monkeypatch.setattr(Form, "__init__", counted_form)
    monkeypatch.setattr(metric, "compound", counted_compound)
    search._defect_and_f(M, random_pd_metric(5, rng), 1e-10)
    assert calls["form"] == 0
    assert calls["compound"] <= 4
    calls["compound"] = 0
    classify(M, random_pd_metric(5, rng))
    assert calls["compound"] <= 2 * (5 + 1)


def _star_split_objective(M, family):
    def objective(x):
        try:
            g = family.build(x)
        except InputError:
            return float("inf")
        return pss_defect(M, g)
    return objective


@pytest.mark.parametrize("case", ["rosenbrock", "plateau", "tiny_budget", "solv", "iwasawa5"])
def test_simplex_descent_matches_scipy_nelder_mead(case):
    # scipy.optimize's Nelder-Mead is the reference: the same points are
    # evaluated in the same order and the same vertex wins
    import scipy.optimize
    rng = np.random.default_rng(12)
    maxfev, xatol, fatol = 400, 1e-12, 1e-14
    if case == "rosenbrock":
        fun = lambda x: float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))
        x0 = np.array([-1.2, 1.0, 0.0, 0.5])
    elif case == "plateau":
        # ties between vertices exercise the tie rules and, above 16
        # vertices, the order of the unstable sorts
        fun = lambda x: float(np.floor(np.sum(x ** 2)))
        x0 = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 24)])
    elif case == "tiny_budget":
        fun = lambda x: float(np.sum(x ** 2))
        x0, maxfev = np.array([1.0, 2.0, 3.0, 4.0]), 3
    elif case == "solv":
        family = hermitian_family(3)
        fun = _star_split_objective(non_unimodular(), family)
        x0, maxfev = family.start + 0.1 * rng.standard_normal(family.n_params), 120
    else:
        family = hermitian_family(5)
        fun = _star_split_objective(catalog.get("iwasawa5")[0], family)
        x0, maxfev = family.start + 0.1 * rng.standard_normal(family.n_params), 60

    def recorded(points):
        def objective(x):
            points.append(np.array(x))
            return fun(x)
        return objective

    ours, ref = [], []
    x, val = _simplex_descent(recorded(ours), x0, maxfev, xatol=xatol, fatol=fatol)
    res = scipy.optimize.minimize(recorded(ref), x0, method="Nelder-Mead",
                                  options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    assert len(ours) == len(ref) == res.nfev
    assert all(np.array_equal(a, b) for a, b in zip(ours, ref))
    assert np.array_equal(x, res.x) and val == float(res.fun)
