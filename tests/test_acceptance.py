"""Acceptance gate: the full required behaviour at its stated tolerances.

Each criterion prints one pass/fail line (run with ``pytest -s`` or ``-v``
to see them).  Default tolerance 1e-10 throughout; the search criterion
uses its stated 1e-8.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_pd_metric
from starsplit import catalog
from starsplit.analysis import (classify, conformal_f, pair_analysis, rescale_f,
                                triple_analysis)
from starsplit.cli import main as cli_main
from starsplit.complex_structure import (InvariantComplexManifold, pullback,
                                         total_volume)
from starsplit.metric import HermitianMetric, inner_product, omega_power
from starsplit.operators import (verify_commutation_suite,
                                 verify_operator_identities)
from starsplit.search import diagonal_family, scan, search_pss

TOL = 1e-10

SIGMA_VECTORS = [
    {"sigma12": -1, "sigma21b": 0.1},
    {"sigma12": -1, "sigma11b": 0.2, "sigma22b": 0.3},
    {"sigma12": -0.5, "sigma11b": 0.1 + 0.2j, "sigma12b": 0.3,
     "sigma21b": -0.2j, "sigma22b": 0.25j},
]


def deformation_constant(sig):
    full = {"sigma12": 0j, "sigma11b": 0j, "sigma12b": 0j,
            "sigma21b": 0j, "sigma22b": 0j}
    full.update({k: complex(v) for k, v in sig.items()})
    return (abs(full["sigma12"]) ** 2 + abs(full["sigma21b"]) ** 2
            + abs(full["sigma12b"]) ** 2
            - 2 * (full["sigma11b"] * full["sigma22b"].conjugate()).real)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({label}): FAIL")
        raise
    print(f"\ncriterion {num} ({label}): PASS")


def test_criterion_1_trace_constants():
    with criterion(1, "trace constants"):
        assert abs(classify(*catalog.get("iwasawa3")[:2]).f - 1.0) < TOL
        assert abs(classify(*catalog.get("nakamura")[:2]).f - 2.0) < TOL
        assert abs(classify(*catalog.get("iwasawa5")[:2]).f - 3.0) < TOL
        for t in (0.25j, -0.25j, 0.1, 0.1 + 0.1j):
            rep = classify(*catalog.get("calabi_eckmann", {"t": t})[:2])
            assert abs(rep.f - 8 * t.imag) < TOL
        for sig in SIGMA_VECTORS:
            rep = classify(*catalog.get("iwasawa_def", sig)[:2])
            assert abs(rep.f - deformation_constant(sig)) < TOL
        assert abs(classify(*catalog.get("torus_3")[:2]).f) < TOL


def test_criterion_2_classification_matrix():
    with criterion(2, "classification matrix"):
        for name in ("iwasawa3", "nakamura", "iwasawa5"):
            rep = classify(*catalog.get(name)[:2])
            assert rep.flags["balanced"].holds
            assert rep.flags["closed_star_split"].holds
            assert not rep.flags["kahler"].holds
        for t in (0.25j, -0.25j, 0.1, 0.1 + 0.1j):
            rep = classify(*catalog.get("calabi_eckmann", {"t": t})[:2])
            assert rep.flags["pluriclosed_star_split"].holds
            real_t = abs(t.imag) < 1e-15
            assert rep.flags["SKT"].holds == real_t
            if real_t:
                assert rep.rho.is_zero(TOL)
        sig = {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3}
        assert abs(deformation_constant(sig)) > 0.1
        rep = classify(*catalog.get("iwasawa_def", sig)[:2])
        assert rep.flags["pluriclosed_star_split"].holds
        assert not rep.flags["closed_star_split"].holds


def test_criterion_3_eigenvalue_reports():
    with criterion(3, "eigenvalue reports"):
        rep = classify(*catalog.get("nakamura")[:2])
        assert np.allclose(rep.eigenvalues, [0, 0, 1], atol=TOL)
        rep = classify(*catalog.get("iwasawa5")[:2])
        assert np.allclose(rep.eigenvalues, [-0.25, -0.25, -0.25, 0.75, 0.75], atol=TOL)
        for t in (0.25j, 0.1 + 0.1j):
            rep = classify(*catalog.get("calabi_eckmann", {"t": t})[:2])
            expect = sorted([4 * t.imag, 4 * t.imag, -4 * t.imag])
            assert np.allclose(rep.eigenvalues, expect, atol=TOL)
        # the base entry reports {1/2, 1/2, -1/2} and surfaces the
        # convention discrepancy with the alternate {1, 1, -1} values
        M, g, exp = catalog.get("iwasawa3")
        rep = classify(M, g, notes=exp.get("notes", []))
        assert np.allclose(rep.eigenvalues, [-0.5, 0.5, 0.5], atol=TOL)
        assert any("spectrum" in note for note in rep.notes)
        assert any("{1, 1, -1}" in note for note in rep.notes)


def test_criterion_4_conformal_variation():
    with criterion(4, "conformal variation"):
        def data(x):
            g = math.exp(math.sin(2 * math.pi * x))
            lap = -math.pi ** 2 * g * (math.cos(2 * math.pi * x)
                                       - math.sin(2 * math.pi * x))
            return g, lap

        g0, lap0 = data(0.0)
        assert abs(conformal_f(1.0, g0, lap0) - (1 + 2 * math.pi ** 2)) < TOL
        g4, lap4 = data(0.25)
        assert abs(conformal_f(1.0, g4, lap4) - (1 - 2 * math.pi ** 2) / math.e) < TOL
        M, g, _ = catalog.get("iwasawa3")
        for lam in (2.0, 10.0):
            assert abs(rescale_f(1.0, lam) - 1.0 / lam) < TOL
            assert abs(classify(M, g.scaled(lam)).f - 1.0 / lam) < TOL


def test_criterion_5_commutation_suites():
    with criterion(5, "commutation suites"):
        rng = np.random.default_rng(5050)
        cases = [("torus_3", None), ("iwasawa3", None), ("nakamura", None),
                 ("iwasawa_def", {"sigma11b": 0.2, "sigma21b": 0.1}),
                 ("iwasawa5", None), ("calabi_eckmann", {"t": 0.1 + 0.2j})]
        for name, params in cases:
            M, g, _ = catalog.get(name, params)
            for metric in (g, random_pd_metric(M.dim, rng)):
                rep = verify_commutation_suite(M, metric, tol=TOL)
                assert rep.all_passed, (name, [e.to_json_dict() for e in rep.failures()])
                assert rep.max_residual() < TOL


def test_criterion_6_operator_suites():
    with criterion(6, "operator suites"):
        rng = np.random.default_rng(6060)
        M, g, _ = catalog.get("iwasawa3")
        rep = verify_operator_identities(M, g, HermitianMetric.diagonal([1, 2, 3]),
                                         tol=TOL, samples=20)
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
        ids = {e.identity: e for e in rep.entries}
        for key in ("b05_p_operator_routes", "b06_p_wedge_top_form", "b07_trace_of_p",
                    "b08_division_trace_22", "b09_trace_square_ratio",
                    "b10_star_wedge_22", "b13_f_two_trace_formula", "b14_rho_via_p",
                    "b15_pair_division_integral_link", "b16_q_integral_link",
                    "b18_r_integral_vanishing", "b19_scalar_trace_integral_vanishing",
                    "b20_balanced_first_order_integrals", "b21_q_p_integral_bridge",
                    "b22_q_on_metric_decomposition", "b23_q_equals_p_on_metric_balanced"):
            assert ids[key].passed is True and ids[key].residual < TOL, key

        M5, g5, _ = catalog.get("iwasawa5")
        rep5 = verify_operator_identities(M5, g5, random_pd_metric(5, rng),
                                          tol=TOL, samples=20)
        assert rep5.all_passed, [e.to_json_dict() for e in rep5.failures()]
        ids5 = {e.identity: e for e in rep5.entries}
        for key in ("b11_star_wedge_33", "b12_division_trace_33",
                    "b15_pair_division_integral_link", "b21_q_p_integral_bridge",
                    "b23_q_equals_p_on_metric_balanced", "b25_q_equals_p_on_harmonic"):
            assert ids5[key].passed is True and ids5[key].residual < TOL, key

        Mt, gt, _ = catalog.get("torus_3")
        rept = verify_operator_identities(Mt, gt, HermitianMetric.diagonal([2, 1, 0.5]),
                                          tol=TOL)
        idst = {e.identity: e for e in rept.entries}
        assert idst["b24_q_is_minus_laplacian_kahler"].passed is True
        assert rept.all_passed


def test_criterion_7_theorem_consequences():
    with criterion(7, "theorem-level consequences"):
        # balanced + star split: f non-negative
        for name in ("torus_3", "iwasawa3", "nakamura", "iwasawa5"):
            rep = classify(*catalog.get(name)[:2])
            if rep.flags["balanced"].holds and rep.flags["pluriclosed_star_split"].holds:
                assert rep.f >= -TOL
        # star split + non-balanced + negative constant exists
        rep = classify(*catalog.get("calabi_eckmann", {"t": -0.25j})[:2])
        assert rep.flags["pluriclosed_star_split"].holds
        assert not rep.flags["balanced"].holds
        assert rep.f < -1.0
        # balanced: int f = |del omega|^2
        for name in ("iwasawa3", "nakamura", "iwasawa5"):
            rep = classify(*catalog.get(name)[:2])
            assert abs(rep.integral_f - rep.del_omega_norm_sq) < TOL
        # pair integrals: SKT gamma kills the integral, balanced omega pairs
        # it with <<del gamma, del omega>>
        M, gamma_skt, _ = catalog.get("calabi_eckmann", {"t": 0.1})
        pr = pair_analysis(M, HermitianMetric.diagonal([0.7, 1.3, 0.9]), gamma_skt)
        assert abs(pr.integral_f) < TOL
        M, g, _ = catalog.get("iwasawa3")
        gamma = HermitianMetric.diagonal([1.0, 2.0, 3.0])
        pr = pair_analysis(M, g, gamma)
        rhs = inner_product(g, M.del_(omega_power(gamma, 1)), M.del_(omega_power(g, 1)))
        assert abs(pr.integral_f - rhs * total_volume(M, g)) < TOL
        # pullback identities and group closure
        fac = catalog.isometry_factory("iwasawa3")
        phi = fac(np.exp(0.5j), np.exp(1.1j))
        psi = fac(np.exp(-0.3j), np.exp(0.8j))
        tr_phi = triple_analysis(M, phi, g, g)
        assert tr_phi.pluriclosed.holds and tr_phi.rho_pullback_residual < TOL
        tr_comp = triple_analysis(M, phi.compose(psi), g, g)
        assert (tr_comp.rho - pullback(M, psi, tr_phi.rho)).max_abs() < TOL
        generated = [phi, psi, phi.compose(psi), psi.compose(phi), phi.inverse()]
        assert len(generated) >= 4
        for mp in generated:
            tr = triple_analysis(M, mp, g, g)
            assert tr.gamma_isometric and tr.pluriclosed.holds


def test_criterion_8_search_and_scan():
    with criterion(8, "search and scan"):
        M, _, _ = catalog.get("iwasawa3")
        result = search_pss(M, diagonal_family(3), budget=2000, seed=88)
        assert result.best_defect < 1e-8
        again = search_pss(M, diagonal_family(3), budget=2000, seed=88)
        assert np.array_equal(result.best_params, again.best_params)
        assert result.best_defect == again.best_defect
        M, g, _ = catalog.get("calabi_eckmann")
        rows = scan(M, "t", [0.25j, -0.25j, 0.1, 0.1 + 0.1j], metric=g)
        for row, t in zip(rows, [0.25j, -0.25j, 0.1, 0.1 + 0.1j]):
            assert abs(row.f - 8 * complex(t).imag) < TOL


def test_criterion_9_robustness(tmp_path, capsys):
    with criterion(9, "robustness"):
        corrupt = InvariantComplexManifold(
            "corrupt", 3, {3: {"(2,0)": [(1, 2, "1")], "(1,1)": []},
                           2: {"(2,0)": [(2, 3, "1")], "(1,1)": []}})
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(corrupt.to_json_dict()))
        assert cli_main(["classify", "--manifold", str(path)]) == 2
        err = capsys.readouterr().err
        assert "d²" in err

        metric = tmp_path / "npd.json"
        metric.write_text(json.dumps({"type": "diagonal", "coeffs": [1, -2, 1]}))
        assert cli_main(["classify", "--manifold", "iwasawa3",
                         "--metric", str(metric)]) == 2
        capsys.readouterr()

        assert cli_main(["classify", "--manifold", "calabi_eckmann",
                         "--param", "t=1"]) == 2
        assert cli_main(["classify", "--manifold", "calabi_eckmann",
                         "--param", "t=0.8+0.7i"]) == 2
        capsys.readouterr()
