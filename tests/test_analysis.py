import math

import numpy as np
import pytest

from conftest import approx_equal, random_pd_metric, transformed
from starsplit import catalog
from starsplit.analysis import (_form_json, classify, conformal_f, eigenvalues_of_11,
                                f_scalar, gauduchon_adjoint_on_constant, pair_analysis,
                                rescale_f, rho, star_rho, triple_analysis)
from starsplit.complex_structure import (InvariantComplexManifold, PullbackMap,
                                         pullback, total_volume)
from starsplit.errors import InputError
from starsplit.forms import Form
from starsplit.metric import (HermitianMetric, divide_by_power, form_norm,
                              hodge_star, inner_product, lefschetz_lambda,
                              omega_power)
from starsplit.operators import verify_commutation_suite, verify_operator_identities
from starsplit.search import pss_defect


def ii(n, j, k=None, coeff=1j):
    return Form.monomial(n, (j,), (j if k is None else k,), coeff)


def hat(n, j):
    out = Form.scalar(n, 1.0)
    for k in range(1, n + 1):
        if k != j:
            out = out.wedge(ii(n, k))
    return out


def non_unimodular():
    """d^2 = 0 but the invariant Stokes property fails; invariant metrics on
    it are genuinely non-Gauduchon."""
    return InvariantComplexManifold(
        "solv", 3, {2: {"(2,0)": [(1, 2, "1")], "(1,1)": []}})


# ----------------------------------------------------------------------
# the division form and its dual
# ----------------------------------------------------------------------
def test_iwasawa_rho_and_star_rho_displays():
    M, g, _ = catalog.get("iwasawa3")
    expected_rho = 0.5 * (ii(3, 1) + ii(3, 2) - 1 * ii(3, 3))
    assert approx_equal(rho(M, g), expected_rho, 1e-12)
    expected_sr = 0.5 * (ii(3, 1).wedge(ii(3, 3)) + ii(3, 2).wedge(ii(3, 3))
                         - 1 * ii(3, 1).wedge(ii(3, 2)))
    assert approx_equal(star_rho(M, g), expected_sr, 1e-12)
    # reality of the dual
    assert approx_equal(star_rho(M, g).conjugate(), star_rho(M, g), 1e-12)


def test_form_json_drops_relative_to_the_largest_coefficient():
    u = Form(3, {(1, 1): 1e20, (1, 2): 1e7, (2, 1): 1e5})
    assert _form_json(u) == {"1|1": [1e20, 0.0], "1|2": [1e7, 0.0]}
    assert _form_json(1e-30 * u).keys() == {"1|1", "1|2"}
    assert _form_json(Form.zero(3)) == {}


def test_division_route_examples():
    M, g, _ = catalog.get("iwasawa3")
    src = 1j * M.del_(M.delbar(omega_power(g, 1)))
    assert approx_equal(divide_by_power(g, 1, src),
                        0.5 * (ii(3, 1) + ii(3, 2) - 1 * ii(3, 3)), 1e-12)
    M, g, _ = catalog.get("nakamura")
    src = 1j * M.del_(M.delbar(omega_power(g, 1)))
    assert approx_equal(divide_by_power(g, 1, src), ii(3, 1), 1e-12)


def test_nakamura_star_rho_display():
    M, g, _ = catalog.get("nakamura")
    assert approx_equal(star_rho(M, g), ii(3, 2).wedge(ii(3, 3)), 1e-12)


def test_iwasawa5_star_rho_display():
    M, g, _ = catalog.get("iwasawa5")
    expected = (0.75 * (hat(5, 1) + hat(5, 2))
                - 0.25 * (hat(5, 3) + hat(5, 4) + hat(5, 5)))
    assert approx_equal(star_rho(M, g), expected, 1e-12)


def test_calabi_eckmann_star_rho_display():
    t = 0.1 + 0.2j
    M, g, _ = catalog.get("calabi_eckmann", {"t": t})
    # in the scaled frame: Im(t) (hat1 + hat2 - hat3) with hats of i phi phibar
    expected = t.imag * (hat(3, 1) + hat(3, 2) - 1 * hat(3, 3))
    assert approx_equal(star_rho(M, g), expected, 1e-12)


def test_deformation_dbar_star_rho_display():
    # dbar(star rho) = (A/2)(sigma11b + sigma22b) i alpha alphabar ^ i beta betabar ^ gammabar
    sig = {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3}
    M, g, exp = catalog.get("iwasawa_def", sig)
    A = exp["f"]
    sr = star_rho(M, g)
    lhs = M.delbar(sr)
    expected = (A / 2) * (0.2 + 0.3) * ii(3, 1).wedge(ii(3, 2)).wedge(
        Form.monomial(3, (), (3,)))
    assert approx_equal(lhs, expected, 1e-12)
    assert not lhs.is_zero(1e-12)


def test_f_cross_routes(rng):
    for name, params in [("iwasawa3", None), ("iwasawa5", None),
                         ("calabi_eckmann", {"t": 0.1 + 0.1j})]:
        M, g, _ = catalog.get(name, params)
        f = f_scalar(M, g)
        lam = lefschetz_lambda(g, rho(M, g)).coefficient((), ())
        assert abs(f - (M.dim - 1) * lam) < 1e-11
        g2 = random_pd_metric(M.dim, rng)
        f2 = f_scalar(M, g2)
        lam2 = lefschetz_lambda(g2, rho(M, g2)).coefficient((), ())
        assert abs(f2 - (M.dim - 1) * lam2) < 1e-10


def test_rho_requires_dim_3():
    M, g, _ = catalog.get("torus_2")
    with pytest.raises(InputError):
        rho(M, g)
    with pytest.raises(InputError):
        classify(M, g)


# ----------------------------------------------------------------------
# the Form route of the star-split core: reference for the vector core
# ----------------------------------------------------------------------
def ref_star_split(M, omega_m, gamma_m, tol=1e-10):
    """Divide i del delbar omega_{n-2} by gamma_{n-2}, trace and star with
    gamma, on Forms throughout."""
    n = M.dim
    src = 1j * M.del_(M.delbar(omega_power(omega_m, n - 2)))
    num = M.integrate(omega_power(gamma_m, 1).wedge(src))
    den = M.integrate(omega_power(gamma_m, n))
    f = num / den
    assert abs(f.imag) <= tol * (1.0 + abs(f))
    f = f.real
    rho_form = divide_by_power(gamma_m, n - 2, src, tol=tol)
    f_lambda = (n - 1) * lefschetz_lambda(gamma_m, rho_form).coefficient((), ())
    closed = (f / (n - 1)) * omega_power(gamma_m, n - 1) - src
    resid = (closed - hodge_star(gamma_m, rho_form)).max_abs()
    return {"src": src, "f": f, "rho": rho_form, "f_cross": abs(f - f_lambda),
            "star_rho": closed, "star_rho_cross": resid}


def ref_star_split_flags(M, gamma_m, sr):
    """(defect, scale) of the pluriclosed and closed flags of star rho."""
    n = M.dim
    d_sr = M.d(sr)
    scale = form_norm(gamma_m, sr)
    pluri = form_norm(gamma_m, 1j * M.del_(d_sr.bidegree_component(n - 1, n)))
    return {"pluriclosed_star_split": (pluri, scale),
            "closed_star_split": (form_norm(gamma_m, d_sr), scale)}


def ref_classify(M, g, tol=1e-10):
    """The core, every flag's (defect, scale) and the report's norms."""
    core = ref_star_split(M, g, g, tol)
    n = M.dim
    w, w_nm2, w_nm1 = omega_power(g, 1), omega_power(g, n - 2), omega_power(g, n - 1)
    d_w, d_w_nm1 = M.d(w), M.d(w_nm1)
    scale_w, scale_nm1 = form_norm(g, w), form_norm(g, w_nm1)
    flags = {
        "kahler": (form_norm(g, d_w), scale_w),
        "balanced": (form_norm(g, d_w_nm1), scale_nm1),
        "gauduchon": (form_norm(g, 1j * M.del_(d_w_nm1.bidegree_component(n - 1, n))),
                      scale_nm1),
        "SKT": (form_norm(g, 1j * M.del_(d_w.bidegree_component(1, 2))), scale_w),
        "astheno_kahler": (form_norm(g, core["src"]), form_norm(g, w_nm2)),
        "n2_gauduchon": (form_norm(g, w.wedge(core["src"])), scale_nm1),
    }
    flags.update(ref_star_split_flags(M, g, core["star_rho"]))
    vol = M.integrate(omega_power(g, n)).real
    del_w = d_w.bidegree_component(2, 1)
    norms = {"del_omega_sq": inner_product(g, del_w, del_w).real * vol,
             "integral_f": core["f"] * vol,
             "pss_cross_defect": form_norm(g, 1j * M.del_(M.delbar(core["f"] * w_nm1)))}
    return core, flags, norms


def _assert_close(got, want, rel=1e-13):
    if isinstance(want, Form):
        assert (got - want).max_abs() <= rel * max(1.0, want.max_abs()), (got, want)
    else:
        assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


def _assert_flag(flag, defect_scale, tol=1e-10):
    defect, scale = defect_scale
    _assert_close(flag.defect, defect)
    _assert_close(flag.threshold, tol * (1.0 + scale))
    assert flag.holds == (defect < tol * (1.0 + scale))


_REF_PARAMS = {"calabi_eckmann": {"t": 0.1 + 0.2j},
               "iwasawa_def": {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1,
                               "sigma22b": 0.3}}


def _ref_cases():
    rng = np.random.default_rng(11)
    for name in catalog.list_names():
        M, g, _ = catalog.get(name, _REF_PARAMS.get(name))
        yield M, g, random_pd_metric(M.dim, rng)
    M = non_unimodular()
    yield M, HermitianMetric.identity(3), random_pd_metric(3, rng)


def test_vector_core_matches_form_reference():
    for M, g_default, g_dense in _ref_cases():
        for g in (g_default, g_dense):
            core, flags, norms = ref_classify(M, g)
            rep = classify(M, g)
            _assert_close(rep.f, core["f"])
            _assert_close(rep.rho, core["rho"])
            _assert_close(rep.star_rho, core["star_rho"])
            _assert_close(rep.f_cross_residual, core["f_cross"])
            _assert_close(rep.star_rho_cross_residual, core["star_rho_cross"])
            assert set(rep.flags) == set(flags)
            for key, flag in rep.flags.items():
                _assert_flag(flag, flags[key])
            _assert_close(rep.del_omega_norm_sq, norms["del_omega_sq"])
            _assert_close(rep.integral_f, norms["integral_f"])
            _assert_close(rep.pss_cross_defect, norms["pss_cross_defect"])
            _assert_close(f_scalar(M, g), core["f"])
            _assert_close(rho(M, g), core["rho"])
            ref_defect = form_norm(HermitianMetric.identity(M.dim),
                                   1j * M.del_(M.delbar(core["star_rho"])))
            _assert_close(pss_defect(M, g), ref_defect)
            _assert_close(star_rho(M, g), core["star_rho"])
        # pair with a dense gamma
        core = ref_star_split(M, g_default, g_dense)
        pr = pair_analysis(M, g_default, g_dense)
        _assert_close(pr.f, core["f"])
        _assert_close(pr.rho, core["rho"])
        _assert_close(pr.star_rho, core["star_rho"])
        _assert_close(pr.f_cross_residual, core["f_cross"])
        _assert_close(pr.star_rho_cross_residual, core["star_rho_cross"])
        pair_flags = ref_star_split_flags(M, g_dense, core["star_rho"])
        _assert_flag(pr.pluriclosed, pair_flags["pluriclosed_star_split"])
        _assert_flag(pr.closed, pair_flags["closed_star_split"])
        vol = M.integrate(omega_power(g_dense, M.dim)).real
        _assert_close(pr.integral_f, core["f"] * vol)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def test_classification_matrix():
    for name in ("iwasawa3", "nakamura", "iwasawa5"):
        rep = classify(*catalog.get(name)[:2])
        assert rep.flags["balanced"].holds
        assert rep.flags["closed_star_split"].holds
        assert not rep.flags["kahler"].holds
    for t in (0.25j, -0.25j, 0.1, 0.1 + 0.1j):
        rep = classify(*catalog.get("calabi_eckmann", {"t": t})[:2])
        assert rep.flags["pluriclosed_star_split"].holds
        assert rep.flags["SKT"].holds == (abs(t.imag) < 1e-14)
        if abs(t.imag) < 1e-14:
            assert rep.rho.is_zero(1e-13)
    sig = {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3}
    rep = classify(*catalog.get("iwasawa_def", sig)[:2])
    assert rep.flags["pluriclosed_star_split"].holds
    assert not rep.flags["closed_star_split"].holds


def test_implication_chain(rng):
    cases = [("torus_3", None), ("iwasawa3", None), ("nakamura", None),
             ("iwasawa5", None), ("calabi_eckmann", {"t": 0.1}),
             ("calabi_eckmann", {"t": -0.2j}),
             ("iwasawa_def", {"sigma11b": 0.2, "sigma22b": 0.3})]
    for name, params in cases:
        M, g, _ = catalog.get(name, params)
        for metric in (g, HermitianMetric.diagonal(rng.uniform(0.5, 2.0, M.dim))):
            flags = {k: v.holds for k, v in classify(M, metric).flags.items()}
            assert not flags["astheno_kahler"] or flags["n2_gauduchon"]
            assert not flags["n2_gauduchon"] or flags["closed_star_split"]
            assert not flags["closed_star_split"] or flags["pluriclosed_star_split"]
            # balanced + n2-gauduchon forces kahler
            assert not (flags["balanced"] and flags["n2_gauduchon"]) or flags["kahler"]


def test_balanced_equivalences():
    # balanced: kahler <=> astheno <=> rho = 0 <=> star rho = 0
    for name in ("torus_3", "iwasawa3", "nakamura", "iwasawa5"):
        M, g, _ = catalog.get(name)
        rep = classify(M, g)
        assert rep.flags["balanced"].holds
        states = {rep.flags["kahler"].holds, rep.flags["astheno_kahler"].holds,
                  rep.rho.is_zero(1e-12), rep.star_rho.is_zero(1e-12)}
        assert len(states) == 1


def test_balanced_integral_identity(rng):
    # balanced: int f omega_n = |del omega|^2, and f >= 0 when also pss
    for name in ("iwasawa3", "nakamura", "iwasawa5"):
        M, g, _ = catalog.get(name)
        rep = classify(M, g)
        assert abs(rep.integral_f - rep.del_omega_norm_sq) < 1e-10
        assert rep.f >= -1e-12
        lam = float(rng.uniform(0.5, 3.0))
        rep2 = classify(M, g.scaled(lam))
        assert rep2.flags["balanced"].holds
        assert abs(rep2.integral_f - rep2.del_omega_norm_sq) < 1e-10


def test_negative_f_example():
    # pluriclosed star split, non-balanced, f < 0
    rep = classify(*catalog.get("calabi_eckmann", {"t": -0.25j})[:2])
    assert rep.flags["pluriclosed_star_split"].holds
    assert not rep.flags["balanced"].holds
    assert rep.f < 0


# ----------------------------------------------------------------------
# eigenvalue reports
# ----------------------------------------------------------------------
def test_eigenvalue_reports():
    rep = classify(*catalog.get("nakamura")[:2])
    assert np.allclose(rep.eigenvalues, [0, 0, 1], atol=1e-10)
    rep = classify(*catalog.get("iwasawa5")[:2])
    assert np.allclose(rep.eigenvalues, [-0.25, -0.25, -0.25, 0.75, 0.75], atol=1e-10)
    for t in (0.25j, 0.1 + 0.1j):
        rep = classify(*catalog.get("calabi_eckmann", {"t": t})[:2])
        assert np.allclose(rep.eigenvalues,
                           sorted([4 * t.imag, 4 * t.imag, -4 * t.imag]), atol=1e-10)
    rep = classify(*catalog.get("iwasawa3")[:2])
    assert np.allclose(rep.eigenvalues, [-0.5, 0.5, 0.5], atol=1e-10)


def test_classify_spectrum_is_the_pencil_of_rho(monkeypatch, rng):
    """The spectrum read off rho's frame vector is the generalized spectrum
    of rho's phi-basis matrix against H, and a warm ``classify`` builds no
    ``Form`` but rho and star rho."""
    import scipy.linalg
    for name in ("iwasawa3", "nakamura", "iwasawa5"):
        M = catalog.get(name)[0]
        n = M.dim
        g = random_pd_metric(n, rng)
        rep = classify(M, g)
        R = np.zeros((n, n), dtype=complex)
        for (imask, jmask), c in rep.rho._terms.items():
            R[imask.bit_length() - 1, jmask.bit_length() - 1] = c / 1j
        expected = scipy.linalg.eigh(R, g.H, eigvals_only=True)
        assert np.allclose(rep.eigenvalues, expected, rtol=0, atol=1e-13)

    built = []
    init = Form.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Form, "__init__", counting_init)
    classify(M, g)
    assert len(built) == 2


def test_eigenvalues_rel_omega_oracle():
    # hand-built dual form of the iwasawa metric against a scipy pencil solve
    import scipy.linalg
    M, g, _ = catalog.get("iwasawa3")
    sr = 0.5 * (ii(3, 1).wedge(ii(3, 3)) + ii(3, 2).wedge(ii(3, 3))
                - 1 * ii(3, 1).wedge(ii(3, 2)))
    vals = eigenvalues_of_11(g.to_e_vec(hodge_star(g, sr), 1, 1))
    R = np.diag([0.5, 0.5, -0.5])
    expected = sorted(scipy.linalg.eigh(R, np.eye(3), eigvals_only=True))
    assert np.allclose(vals, expected, atol=1e-12)


def test_eigenvalues_of_11_match_scipy_pencil_dense_metric(rng):
    import scipy.linalg
    for n in (3, 5):
        g = random_pd_metric(n, rng)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = A + A.conj().T
        alpha = Form(n, {((1 << j), (1 << k)): 1j * R[j, k]
                         for j in range(n) for k in range(n)})
        expected = scipy.linalg.eigh(R, g.H, eigvals_only=True)
        assert np.allclose(eigenvalues_of_11(g.to_e_vec(alpha, 1, 1)), expected, atol=1e-12)


def test_eigenvalues_reject_non_real():
    M, g, _ = catalog.get("iwasawa3")
    with pytest.raises(InputError):
        eigenvalues_of_11(g.to_e_vec(hodge_star(g, Form.monomial(3, (1, 2), (1, 3), 1.0)), 1, 1))
    with pytest.raises(InputError):
        eigenvalues_of_11(g.to_e_vec(Form.monomial(3, (1,), (2,), 1.0), 1, 1))
    with pytest.raises(InputError):
        eigenvalues_of_11(np.ones(8))


# ----------------------------------------------------------------------
# pairs
# ----------------------------------------------------------------------
def test_pair_reduces_to_single_metric():
    M, g, _ = catalog.get("iwasawa3")
    pr = pair_analysis(M, g, g)
    rep = classify(M, g)
    assert abs(pr.f - rep.f) < 1e-12
    assert approx_equal(pr.rho, rep.rho, 1e-12)
    assert pr.pluriclosed.holds and pr.closed.holds


def test_pair_skt_gamma_integral_vanishes():
    # gamma SKT: int f(omega,gamma) gamma_n = 0
    M, gamma, _ = catalog.get("calabi_eckmann", {"t": 0.1})
    for omega_m in (HermitianMetric.diagonal([0.7, 1.3, 0.9]),
                    HermitianMetric.identity(3)):
        pr = pair_analysis(M, omega_m, gamma)
        assert abs(pr.integral_f) < 1e-12


def test_pair_balanced_omega_integral_identity(rng):
    # omega balanced: int f(omega,gamma) gamma_n = <<del gamma, del omega>>
    M, g, _ = catalog.get("iwasawa3")
    for gamma in (HermitianMetric.diagonal([1.0, 2.0, 3.0]),
                  random_pd_metric(3, rng)):
        pr = pair_analysis(M, g, gamma)
        dgam = M.del_(omega_power(gamma, 1))
        dw = M.del_(omega_power(g, 1))
        rhs = inner_product(g, dgam, dw) * total_volume(M, g)
        assert abs(pr.integral_f - rhs) < 1e-10


def test_pair_skt_pss_forces_f_zero():
    # SKT gamma + pluriclosed pair: f vanishes identically
    M, gamma, _ = catalog.get("calabi_eckmann", {"t": 0.1})
    pr = pair_analysis(M, gamma, gamma)
    assert pr.pluriclosed.holds
    assert abs(pr.f) < 1e-12


# ----------------------------------------------------------------------
# triples
# ----------------------------------------------------------------------
def test_triple_identity_map_is_pair():
    M, g, _ = catalog.get("iwasawa3")
    tr = triple_analysis(M, PullbackMap.identity(3), g, g)
    pr = pair_analysis(M, g, g)
    assert abs(tr.f - pr.f) < 1e-12
    assert approx_equal(tr.rho, pr.rho, 1e-12)
    assert tr.gamma_isometric and tr.structure_compatible


def test_triple_isometry_pullback_identity():
    M, g, _ = catalog.get("iwasawa3")
    fac = catalog.isometry_factory("iwasawa3")
    phi = fac(np.exp(0.5j), np.exp(1.1j))
    tr = triple_analysis(M, phi, g, g)
    assert tr.pluriclosed.holds
    assert tr.gamma_isometric
    assert tr.rho_pullback_residual is not None
    assert tr.rho_pullback_residual < 1e-11


def test_triple_composition_rule():
    # rho of (phi o psi) = psi-pullback of rho of phi
    M, g, _ = catalog.get("iwasawa3")
    fac = catalog.isometry_factory("iwasawa3")
    phi = fac(np.exp(0.5j), np.exp(1.1j))
    psi = fac(np.exp(-0.3j), np.exp(0.8j))
    tr_phi = triple_analysis(M, phi, g, g)
    tr_comp = triple_analysis(M, phi.compose(psi), g, g)
    assert tr_comp.pluriclosed.holds
    assert approx_equal(tr_comp.rho, pullback(M, psi, tr_phi.rho), 1e-11)


def test_isometry_triples_closed_under_group_ops():
    # composites and inverses of gamma-isometric star-split triples stay star split
    M, g, _ = catalog.get("iwasawa3")
    fac = catalog.isometry_factory("iwasawa3")
    base = [fac(np.exp(0.4j), np.exp(-0.7j)), fac(np.exp(1.2j), np.exp(0.3j))]
    maps = list(base)
    maps.append(base[0].compose(base[1]))
    maps.append(base[1].compose(base[0]))
    maps.append(base[0].inverse())
    maps.append(base[0].compose(base[0]))
    assert len(maps) >= 4
    for phi in maps:
        tr = triple_analysis(M, phi, g, g)
        assert tr.gamma_isometric
        assert tr.pluriclosed.holds


def test_triple_degenerate_pullback_rejected():
    M, g, _ = catalog.get("iwasawa3")
    # nearly singular map: pullback metric fails positivity
    with pytest.raises(InputError):
        PullbackMap(np.diag([1.0, 1.0, 0.0]))


def test_triple_structure_incompatibility_flagged_not_fatal():
    M, g, _ = catalog.get("iwasawa3")
    tr = triple_analysis(M, PullbackMap.diagonal([1.0, 2.0, 3.0]), g, g)
    assert not tr.structure_compatible
    assert tr.rho_pullback_residual is None


# ----------------------------------------------------------------------
# conformal variation and rescaling
# ----------------------------------------------------------------------
def _conformal_data(x: float):
    """g = exp(sin(2 pi x)) and its Laplacian against the standard metric,
    from the closed-form expressions."""
    g = math.exp(math.sin(2 * math.pi * x))
    lap = -math.pi ** 2 * g * (math.cos(2 * math.pi * x) - math.sin(2 * math.pi * x))
    return g, lap


def test_conformal_values():
    g0, lap0 = _conformal_data(0.0)
    assert conformal_f(1.0, g0, lap0) == pytest.approx(1 + 2 * math.pi ** 2, abs=1e-12)
    g4, lap4 = _conformal_data(0.25)
    assert conformal_f(1.0, g4, lap4) == pytest.approx((1 - 2 * math.pi ** 2) / math.e,
                                                       abs=1e-12)


def test_rescaling_law():
    M, g, _ = catalog.get("iwasawa3")
    for lam in (2.0, 10.0):
        assert rescale_f(1.0, lam) == pytest.approx(1.0 / lam)
        assert conformal_f(1.0, lam, 0.0) == pytest.approx(1.0 / lam)
        rep = classify(M, g.scaled(lam))
        assert rep.f == pytest.approx(1.0 / lam, abs=1e-12)


def test_conformal_rejects_nonpositive():
    with pytest.raises(InputError):
        conformal_f(1.0, 0.0, 0.0)
    with pytest.raises(InputError):
        rescale_f(1.0, -2.0)


# ----------------------------------------------------------------------
# the adjoint Laplace operator on constants
# ----------------------------------------------------------------------
def test_gauduchon_adjoint_vanishing_cases():
    M, g, _ = catalog.get("iwasawa3")
    assert gauduchon_adjoint_on_constant(M, g, 0.0).is_zero()
    assert gauduchon_adjoint_on_constant(M, g, 1.0).is_zero(1e-13)
    # every invariant metric on a Stokes-valid model is Gauduchon, so the
    # operator vanishes there for any constant
    sig = {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3}
    Md, gd, _ = catalog.get("iwasawa_def", sig)
    assert gauduchon_adjoint_on_constant(Md, HermitianMetric.diagonal([1, 1.3, 1]),
                                         1.0).is_zero(1e-13)


def test_gauduchon_adjoint_nonzero_on_non_unimodular():
    M = non_unimodular()
    g = HermitianMetric.identity(3)
    out = gauduchon_adjoint_on_constant(M, g, 1.0)
    assert out.max_abs() > 0.5
    rep = classify(M, g)
    assert not rep.flags["gauduchon"].holds


# ----------------------------------------------------------------------
# laws that geometry imposes on the eight flags
# ----------------------------------------------------------------------
def model_free_flag_laws(holds, dim):
    """The laws of the flags ``holds`` (name -> whether it holds) of one
    metric on a model of dimension ``dim`` that name no model:

    - Kahler implies the other seven flags;
    - balanced implies Gauduchon;
    - at n = 3, SKT holds exactly when astheno-Kahler does;
    - SKT and balanced together imply Kahler (Alexandrov and Ivanov,
      "Vanishing theorems on Hermitian manifolds", 2001);
    - Gauduchon and pluriclosed star split hold on every model the CLI
      accepts (Stokes)."""
    broken = []
    if holds["kahler"]:
        broken += [f"kahler without {key}" for key, ok in holds.items() if not ok]
    if holds["balanced"] and not holds["gauduchon"]:
        broken.append("balanced without gauduchon")
    if dim == 3 and holds["SKT"] != holds["astheno_kahler"]:
        broken.append("SKT differs from astheno_kahler at n = 3")
    if holds["SKT"] and holds["balanced"] and not holds["kahler"]:
        broken.append("SKT and balanced without kahler")
    broken += [f"{key} fails" for key in ("gauduchon", "pluriclosed_star_split") if not holds[key]]
    return broken


def flag_laws(report, model):
    """The laws of the flags of one metric that ``report`` breaks, on the
    catalog model named ``model``: those of ``model_free_flag_laws``, and

    - no catalog model but the torus is Kahler (Benson and Gordon 1988,
      Hasegawa 1989, Wang 1954; Calabi-Eckmann manifolds have b_2 = 0);
    - no invariant metric on the complex-parallelisable iwasawa3, iwasawa5
      or nakamura is SKT (there i del dbar omega has coefficient matrix
      A^T H conj(A), zero only with A)."""
    holds = {key: flag.holds for key, flag in report.flags.items()}
    broken = model_free_flag_laws(holds, report.dim)
    if holds["kahler"] and not model.startswith("torus"):
        broken.append("kahler on a non-torus model")
    if holds["SKT"] and model in ("iwasawa3", "iwasawa5", "nakamura"):
        broken.append("SKT on a complex-parallelisable model")
    return broken


@pytest.mark.parametrize("name", catalog.list_names())
def test_flag_laws_hold_at_metric_scales_from_1e_minus_8_to_1e8(name):
    """The laws of ``flag_laws`` on each catalog model, at its default
    metric and at two seeded dense ones, each scaled by 1e-8 to 1e8.  Left
    out: scales of 1e10 and more, where absolute flag thresholds meet
    defects that shrink with the metric, so that SKT holds with balanced
    but not Kahler on iwasawa3, iwasawa5, iwasawa_def and nakamura, and
    from 1e20 on Kahler holds on non-torus models."""
    M, g, _ = catalog.get(name)
    rng = np.random.default_rng(14)
    for metric in (g, random_pd_metric(M.dim, rng), random_pd_metric(M.dim, rng, spread=1.0)):
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            report = classify(M, metric.scaled(scale))
            assert not flag_laws(report, name), (scale, metric, flag_laws(report, name))


def coframe_changes(n, rng):
    """A seeded unitary A, A = 2 I and a dense A = I + 0.4 G."""
    G = lambda: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return {"unitary": np.linalg.qr(G())[0], "2I": 2.0 * np.eye(n), "dense": np.eye(n) + 0.4 * G()}


def suite_outcomes(M, g):
    """Each suite entry's id, pass state and skip reason."""
    reports = [verify_commutation_suite(M, g), verify_operator_identities(M, g, g)]
    return [(e.identity, e.passed, e.skipped_reason) for rep in reports for e in rep.entries]


@pytest.mark.parametrize("name", catalog.list_names())
def test_reports_are_invariant_under_a_change_of_coframe(name):
    """Every invariant is independent of the coframe: in psi = A phi
    (``conftest.transformed``) the flags are identical, f, the spectrum and
    every defect agree to 1e-12 relative to their size (or to 1), and both
    suites give the same ids, pass states and skip reasons.  Left out: A =
    s I with large 1/s, where the constants grow like 1/s and the absolute
    thresholds of validity and flags are no longer in the model's units
    (the ROADMAP's scale-free numerics, item 3)."""
    M, g, _ = catalog.get(name)
    ref, outcomes = classify(M, g), suite_outcomes(M, g)
    close = lambda a, b: abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
    for kind, A in coframe_changes(M.dim, np.random.default_rng(11)).items():
        M2, g2 = transformed(M, A, g)
        rep = classify(M2, g2)
        assert {k: f.holds for k, f in rep.flags.items()} == \
            {k: f.holds for k, f in ref.flags.items()}, kind
        assert all(close(rep.flags[k].defect, f.defect) for k, f in ref.flags.items()), kind
        assert close(rep.f, ref.f), kind
        assert all(map(close, sorted(rep.eigenvalues), sorted(ref.eigenvalues))), kind
        assert suite_outcomes(M2, g2) == outcomes, kind
