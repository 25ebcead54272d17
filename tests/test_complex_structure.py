import numpy as np
import pytest

from conftest import approx_equal, random_form, random_pd_metric
from starsplit import catalog, exprs
from starsplit.complex_structure import (InvariantComplexManifold, IntegrationWarning,
                                         PullbackMap, pullback, pullback_metric,
                                         structure_compatibility, total_volume)
from starsplit.errors import InputError, UnboundParameterError
from starsplit.forms import Form, basis_masks
from starsplit.metric import (DEFAULT_TOL, HermitianMetric, form_to_vec, hodge_star,
                              inner_product, lefschetz_lambda, omega_power)
from starsplit.operators import OperatorTable


def ii(n, j, k=None):
    return Form.monomial(n, (j,), (j if k is None else k,), 1j)


def stokes_violating_manifold():
    """d^2 = 0 holds but a top-degree exact coefficient survives."""
    return InvariantComplexManifold(
        "nonunimodular", 3, {2: {"(2,0)": [(1, 2, "1")], "(1,1)": []}})


def corrupted_manifold():
    """d(d phi_3) = -phi1 ^ phi2 ^ phi3 != 0."""
    return InvariantComplexManifold(
        "corrupt", 3, {3: {"(2,0)": [(1, 2, "1")], "(1,1)": []},
                       2: {"(2,0)": [(2, 3, "1")], "(1,1)": []}})


# ----------------------------------------------------------------------
# the differential on the catalog models
# ----------------------------------------------------------------------
def test_torus_differential_vanishes(rng):
    M, g, _ = catalog.get("torus_3")
    u = random_form(rng, 3, 1, 1) + random_form(rng, 3, 2, 1)
    assert M.d(u).is_zero()


def test_iwasawa_displays():
    M, g, _ = catalog.get("iwasawa3")
    w = omega_power(g, 1)
    dbar_w = M.delbar(w)
    # delbar omega = i gamma ^ alphabar ^ betabar
    expected = Form.monomial(3, (3,), (1, 2), 1j)
    assert approx_equal(dbar_w, expected, 1e-14)
    ddbar = 1j * M.del_(dbar_w)
    assert approx_equal(ddbar, ii(3, 1).wedge(ii(3, 2)), 1e-14)


def test_nakamura_display():
    M, g, _ = catalog.get("nakamura")
    ddbar = 1j * M.del_(M.delbar(omega_power(g, 1)))
    expected = ii(3, 1).wedge(ii(3, 2)) + ii(3, 1).wedge(ii(3, 3))
    assert approx_equal(ddbar, expected, 1e-14)


def test_calabi_eckmann_dbar_omega_display():
    # dbar omega = (i/2)(t-1) i phi1 phibar1 ^ phibar3 + (i/2)(t+1) phi2 phibar2 ^ phibar3
    t = 0.1 + 0.2j
    M, g, _ = catalog.get("calabi_eckmann", {"t": t})
    dbar_w = M.delbar(omega_power(g, 1))
    expected = (Form.monomial(3, (1,), (1,), 1j).wedge(Form.monomial(3, (), (3,), 0.5j * (t - 1)))
                + Form.monomial(3, (2,), (2,), 0.5j * (t + 1)).wedge(Form.monomial(3, (), (3,))))
    assert approx_equal(dbar_w, expected, 1e-14)


def test_calabi_eckmann_structure_component():
    t = 0.3 + 0.2j
    M, g, _ = catalog.get("calabi_eckmann", {"t": t})
    dphi3 = M.d(Form.monomial(3, (3,), ()))
    comp = dphi3.bidegree_component(1, 1)
    expected = Form.monomial(3, (1,), (1,), 1j * (t - 1)) + Form.monomial(3, (2,), (2,), t + 1)
    assert approx_equal(comp, expected, 1e-14)
    assert dphi3.bidegree_component(2, 0).is_zero()


def test_d_equals_del_plus_delbar(rng):
    for name, params in [("iwasawa5", None), ("calabi_eckmann", {"t": 0.1 + 0.2j})]:
        M, g, _ = catalog.get(name, params)
        n = M.dim
        u = random_form(rng, n, 1, 1) + random_form(rng, n, 2, 1)
        assert approx_equal(M.d(u), M.del_(u) + M.delbar(u), 1e-12)


def test_del_delbar_square_and_anticommute(rng):
    for name, params in [("iwasawa3", None), ("nakamura", None),
                         ("calabi_eckmann", {"t": 0.1 + 0.2j})]:
        M, _, _ = catalog.get(name, params)
        n = M.dim
        for _ in range(4):
            p, q = rng.integers(0, n, 2)
            u = random_form(rng, n, int(p), int(q))
            assert M.del_(M.del_(u)).max_abs() < 1e-12
            assert M.delbar(M.delbar(u)).max_abs() < 1e-12
            assert (M.del_(M.delbar(u)) + M.delbar(M.del_(u))).max_abs() < 1e-12


def test_conjugate_intertwines_del_delbar(rng):
    M, _, _ = catalog.get("calabi_eckmann", {"t": 0.2 - 0.1j})
    u = random_form(rng, 3, 1, 1) + random_form(rng, 3, 0, 2)
    assert approx_equal(M.del_(u).conjugate(), M.delbar(u.conjugate()), 1e-12)


# ----------------------------------------------------------------------
# validity residuals
# ----------------------------------------------------------------------
def test_integrability_residuals():
    M, _, _ = catalog.get("iwasawa3")
    assert M.check_integrability() == 0.0
    assert M.check_stokes() == 0.0
    M, _, _ = catalog.get("calabi_eckmann", {"t": 0.1 + 0.2j})
    assert M.check_integrability() < 1e-12
    assert M.check_stokes() < 1e-12


def test_corrupted_structure_flagged():
    M = corrupted_manifold()
    assert M.check_integrability() > 0.5
    with pytest.raises(InputError, match="d"):
        M.validate()


def test_stokes_violation_flagged():
    M = stokes_violating_manifold()
    assert M.check_integrability() < 1e-15
    assert M.check_stokes() > 0.5
    with pytest.raises(InputError):
        M.validate()


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------
def test_integrate_unit_volume():
    M, g, _ = catalog.get("iwasawa3")
    assert M.integrate(omega_power(g, 3)) == pytest.approx(1.0)


def test_integrate_exact_forms_vanish(rng):
    M, _, _ = catalog.get("iwasawa5")
    n = M.dim
    beta = random_form(rng, n, n, n - 1) + random_form(rng, n, n - 1, n)
    assert abs(M.integrate(M.d(beta))) < 1e-13


def test_integrate_warns_on_low_degree():
    M, g, _ = catalog.get("iwasawa3")
    with pytest.warns(IntegrationWarning):
        M.integrate(omega_power(g, 1))


# ----------------------------------------------------------------------
# adjoints
# ----------------------------------------------------------------------
def test_adjoint_vanishes_on_torus(rng):
    M, g, _ = catalog.get("torus_3")
    u = random_form(rng, 3, 2, 1)
    assert OperatorTable(M, g).apply("delstar", u).is_zero(1e-14)
    assert OperatorTable(M, g).apply("dbarstar", u).is_zero(1e-14)


def test_balanced_adjoint_relation():
    # balanced: dbar* omega = 0 and Lambda(del omega) = 0
    M, g, _ = catalog.get("iwasawa3")
    w = omega_power(g, 1)
    assert OperatorTable(M, g).apply("dbarstar", w).max_abs() < 1e-13
    assert lefschetz_lambda(g, M.del_(w)).max_abs() < 1e-13


def test_global_adjointness(rng):
    for name, params in [("iwasawa3", None), ("calabi_eckmann", {"t": 0.15 + 0.1j})]:
        M, _, _ = catalog.get(name, params)
        n = M.dim
        g = random_pd_metric(n, rng)
        table = OperatorTable(M, g)
        for _ in range(4):
            p, q = int(rng.integers(0, n)), int(rng.integers(0, n))
            u = random_form(rng, n, p, q)
            # <<u, v>>: the pointwise product times the total volume
            for d, name, v in ((M.del_, "delstar", random_form(rng, n, p + 1, q)),
                               (M.delbar, "dbarstar", random_form(rng, n, p, q + 1))):
                lhs = inner_product(g, d(u), v) * total_volume(M, g)
                rhs = inner_product(g, u, table.apply(name, v)) * total_volume(M, g)
                assert abs(lhs - rhs) < 1e-10


def test_adjoints_match_star_formula(rng):
    # reference: del* = -star delbar star and delbar* = -star del star, built
    # from Form-level star and d, on every slot with a dense metric
    for name, params in [("iwasawa3", None), ("nakamura", None), ("iwasawa5", None),
                         ("calabi_eckmann", {"t": 0.15 + 0.1j})]:
        M, _, _ = catalog.get(name, params)
        n = M.dim
        g = random_pd_metric(n, rng)
        table = OperatorTable(M, g)
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(rng, n, p, q)
                ref = -hodge_star(g, M.delbar(hodge_star(g, u)))
                assert (table.apply("delstar", u) - ref).max_abs() < 1e-10
                ref = -hodge_star(g, M.del_(hodge_star(g, u)))
                assert (table.apply("dbarstar", u) - ref).max_abs() < 1e-10
        assert table.apply("delstar", Form.zero(n)).is_zero()


def test_laplacian_kernel_characterisation(rng):
    # Lap''(u) = 0 iff dbar u = 0 and dbar* u = 0 on invariant forms
    M, g, _ = catalog.get("iwasawa3")
    n = 3
    table = OperatorTable(M, g)
    seen_harmonic = 0
    for key in basis_masks(n, 1, 1):
        u = Form(n, {key: 1.0})
        lap = table.apply("dbarlap", u)
        in_kernel = lap.max_abs() < 1e-12
        both = (M.delbar(u).max_abs() < 1e-12
                and table.apply("dbarstar", u).max_abs() < 1e-12)
        assert in_kernel == both
        seen_harmonic += in_kernel
    assert seen_harmonic > 0


# ----------------------------------------------------------------------
# pullbacks
# ----------------------------------------------------------------------
def test_pullback_identity(rng):
    M, _, _ = catalog.get("iwasawa3")
    u = random_form(rng, 3, 2, 1)
    assert approx_equal(pullback(M, PullbackMap.identity(3), u), u, 1e-14)


def test_pullback_is_algebra_homomorphism(rng):
    # a complex, non-unitary A: phibar_k goes to sum_j conj(A[k,j]) phibar_j
    for name in ("iwasawa3", "torus_4"):
        M, _, _ = catalog.get(name)
        n = M.dim
        A = np.eye(n) + 0.6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        phi = PullbackMap(A)
        for k in range(1, n + 1):
            image = Form(n, {(1 << j, 0): A[k - 1, j] for j in range(n)})
            assert approx_equal(pullback(M, phi, Form.monomial(n, (k,))), image, 1e-14)
            assert approx_equal(pullback(M, phi, Form.monomial(n, (), (k,))),
                                image.conjugate(), 1e-14)
        for p in range(n + 1):
            for q in range(n + 1):
                a = random_form(rng, n, p, q)
                b = random_form(rng, n, int(p < n), int(q < n))
                assert approx_equal(pullback(M, phi, a.wedge(b)),
                                    pullback(M, phi, a).wedge(pullback(M, phi, b)), 1e-11)
                assert approx_equal(pullback(M, phi, a.conjugate()),
                                    pullback(M, phi, a).conjugate(), 1e-12)


def test_pullback_by_inverse_factor_is_frame_change(rng):
    M, _, _ = catalog.get("iwasawa3")
    g = random_pd_metric(3, rng)
    phi = PullbackMap(g._inv_chol)
    for p in range(4):
        for q in range(4):
            u = random_form(rng, 3, p, q)
            assert np.abs(form_to_vec(pullback(M, phi, u), p, q)
                          - g.to_e_vec(u, p, q)).max() < 1e-13


def test_iwasawa_isometry_commutes_with_d(rng):
    M, g, _ = catalog.get("iwasawa3")
    u = np.exp(1j * 0.7)
    v = np.exp(-1j * 1.3)
    phi = catalog.isometry_factory("iwasawa3")(u, v)
    assert structure_compatibility(M, phi) < 1e-14
    w = omega_power(g, 1)
    assert approx_equal(pullback(M, phi, w), w, 1e-13)
    # commutation with d on a random form
    x = random_form(rng, 3, 1, 1)
    assert approx_equal(pullback(M, phi, M.d(x)), M.d(pullback(M, phi, x)), 1e-12)


def test_non_compatible_pullback_detected():
    M, _, _ = catalog.get("iwasawa3")
    phi = PullbackMap.diagonal([1.0, 2.0, 3.0])
    assert structure_compatibility(M, phi) > DEFAULT_TOL


def test_isometry_star_commutation(rng):
    # phi* gamma = gamma implies star_gamma phi* = phi* star_gamma
    M, g, _ = catalog.get("iwasawa3")
    phi = catalog.isometry_factory("iwasawa3")(np.exp(0.4j), np.exp(-0.9j))
    assert np.abs(pullback_metric(M, phi, g).H - g.H).max() < 1e-13
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        v = random_form(rng, 3, p, q)
        lhs = hodge_star(g, pullback(M, phi, v))
        rhs = pullback(M, phi, hodge_star(g, v))
        assert (lhs - rhs).max_abs() < 1e-11


def test_pullback_rejects_singular():
    with pytest.raises(InputError):
        PullbackMap(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_pullback_refuses_non_finite_entries(bad):
    """Refused up front, by name, before any numpy routine warns about them."""
    A = np.eye(3, dtype=complex)
    A[0, 1] = bad
    with pytest.raises(InputError, match="pullback matrix has non-finite entries"):
        PullbackMap(A)


def test_pullback_refused_by_conditioning_not_by_size():
    """A small multiple of an isometry has condition number 1 and a
    working pulled-back metric; a matrix singular to working precision is
    refused whatever its size."""
    M, g, _ = catalog.get("iwasawa3")
    phi = PullbackMap(5e-5 * np.eye(3))
    assert np.allclose(pullback_metric(M, phi, g).H, 2.5e-9 * g.H, rtol=1e-14, atol=0)
    for A in (np.diag([1.0, 1.0, 1e-13]), 1e6 * np.diag([1.0, 1.0, 1e-13]),
              np.outer([1.0, 2.0, 3.0], [1.0, 1j, 0.5])):
        with pytest.raises(InputError, match="pullback matrix is singular"):
            PullbackMap(A)


def test_pullback_metric_formula():
    M, g, _ = catalog.get("iwasawa3")
    phi = PullbackMap.diagonal([2.0, 1.0, 1.0])
    gt = pullback_metric(M, phi, g)
    assert np.allclose(np.diag(gt.H).real, [4.0, 1.0, 1.0])


# ----------------------------------------------------------------------
# serialization and parameters
# ----------------------------------------------------------------------
def test_manifold_json_round_trip(rng):
    M, _, _ = catalog.get("calabi_eckmann", {"t": 0.1 + 0.2j})
    M2 = InvariantComplexManifold.from_json_dict(M.to_json_dict())
    assert M2.dim == M.dim and M2.name == M.name
    for k in range(1, 4):
        gen = Form.monomial(3, (k,), ())
        assert approx_equal(M.d(gen), M2.d(gen), 1e-15)
    assert M.to_json_dict() == M2.to_json_dict()


def test_manifold_file_errors(tmp_path):
    with pytest.raises(InputError):
        InvariantComplexManifold.from_json_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        InvariantComplexManifold.from_json_file(str(bad))


def test_unbound_parameter_raises():
    M = InvariantComplexManifold(
        "param", 3, {3: {"(2,0)": [(1, 2, "sigma")], "(1,1)": []}})
    with pytest.raises(UnboundParameterError):
        M.check_integrability()
    bound = M.bind(sigma=-1)
    assert bound.check_integrability() == 0.0
    with pytest.raises(UnboundParameterError):
        M.bind(nonexistent=1.0)


@pytest.mark.parametrize("name", ["iwasawa_def", "calabi_eckmann"])
def test_bind_of_known_names_walks_no_coefficient_tree(monkeypatch, name):
    # every catalog key already carries a bound value, so bind() looks no
    # further than params; an unknown name is still refused
    M, _, _ = catalog.get(name)
    walks = []
    real = exprs.parameter_names
    monkeypatch.setattr(exprs, "parameter_names", lambda node: walks.append(node) or real(node))
    for k in range(100):
        M = M.bind(**{key: 0.001 * k for key in M.params})
    assert walks == []
    with pytest.raises(UnboundParameterError, match="'nonexistent'"):
        M.bind(nonexistent=1.0)
    assert walks


def test_structure_format_rejects_bad_entries():
    with pytest.raises(InputError):
        InvariantComplexManifold("bad", 3, {3: {"(2,0)": [(2, 1, "1")], "(1,1)": []}})
    with pytest.raises(InputError):
        InvariantComplexManifold("bad", 3, {3: {"(2,0)": [(1, 9, "1")], "(1,1)": []}})


def test_structure_key_outside_dimension_rejected():
    for key in ("phi0", "phi4", "phi9"):
        data = {"dim": 3, "structure": {key: {"(2,0)": [{"i": 1, "j": 2, "coeff": "1"}]}}}
        with pytest.raises(InputError, match=key):
            InvariantComplexManifold.from_json_dict(data)


def test_pullback_metric_matches_pulled_back_form(rng):
    # omega of the pulled-back metric equals the pullback of omega
    M, g, _ = catalog.get("iwasawa3")
    phi = PullbackMap(np.array([[1, 0.5j, 0], [0, 2.0, 0.1], [0.3, 0, 1.5]]))
    lhs = omega_power(pullback_metric(M, phi, g), 1)
    rhs = pullback(M, phi, omega_power(g, 1))
    assert approx_equal(lhs, rhs, 1e-12)


# ----------------------------------------------------------------------
# the slot matrices of d against the Leibniz rule they are built from
# ----------------------------------------------------------------------
SLOT_CASES = [
    ("torus_3", None), ("iwasawa3", None), ("nakamura", None), ("iwasawa5", None),
    ("calabi_eckmann", {"t": 0.3 - 0.2j}),
    ("iwasawa_def", {"sigma12": -0.5, "sigma11b": 0.1 + 0.2j, "sigma12b": 0.3,
                     "sigma21b": -0.2j, "sigma22b": 0.25j}),
]


def slot_models():
    return [catalog.get(name, params)[0] for name, params in SLOT_CASES]


def leibniz_stokes(M):
    n = M.dim
    res = 0.0
    for p, q in ((n, n - 1), (n - 1, n)):
        for key in basis_masks(n, p, q):
            top = M._leibniz_d(Form(n, {key: 1.0})).bidegree_component(n, n)
            res = max(res, top.max_abs())
    return res


def leibniz_integrability(M):
    """``check_integrability`` on Forms: the largest coefficient of d(d phi_k)
    and of d(d phibar_k), with d the Leibniz rule."""
    dgen, dgen_bar = M._generators()
    return max(M._leibniz_d(f).max_abs() for f in dgen[1:] + dgen_bar[1:])


def form_structure_compatibility(M, phi):
    """``structure_compatibility`` on Forms: the largest coefficient of
    phi* d phi_k - d phi* phi_k."""
    n = M.dim
    gens = (Form.monomial(n, (k,), (), 1.0) for k in range(1, n + 1))
    return max((pullback(M, phi, M.d(u)) - M.d(pullback(M, phi, u))).max_abs() for u in gens)


def test_validity_residuals_match_the_form_route(rng):
    """d d composed from the slot matrices, and the commutation of the
    pullback with d on the (1,0)-slot, read what the Form route reads."""
    models = slot_models() + [stokes_violating_manifold(), corrupted_manifold()]
    for M in models:
        ref = leibniz_integrability(M)
        assert abs(M.check_integrability() - ref) <= 1e-14 * (1.0 + ref), M.name
        n = M.dim
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for phi in (PullbackMap.identity(n), PullbackMap.diagonal(range(1, n + 1)),
                    PullbackMap(A)):
            ref = form_structure_compatibility(M, phi)
            assert abs(structure_compatibility(M, phi) - ref) <= 1e-13 * (1.0 + ref), M.name
    assert leibniz_integrability(corrupted_manifold()) > 0.5


def test_matrix_d_matches_leibniz_rule(rng):
    for M in slot_models():
        n = M.dim
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(rng, n, p, q)
                ref = M._leibniz_d(u)
                assert approx_equal(M.d(u), ref, 1e-13), (M.name, p, q)
                assert approx_equal(M.del_(u) + M.delbar(u), ref, 1e-13)
                assert M.del_(u).bidegrees() in ([], [(p + 1, q)])
                assert M.delbar(u).bidegrees() in ([], [(p, q + 1)])


def test_consecutive_slot_matrices_compose_to_zero():
    for M in slot_models():
        n = M.dim
        for p in range(n + 1):
            for q in range(n + 1):
                de, db = M.d_matrices(p, q)
                blocks = (M.d_matrices(p + 1, q)[0] @ de,
                          M.d_matrices(p + 1, q)[1] @ de + M.d_matrices(p, q + 1)[0] @ db,
                          M.d_matrices(p, q + 1)[1] @ db)
                for block in blocks:
                    assert np.abs(block).max(initial=0.0) < 1e-12, (M.name, p, q)


def test_check_stokes_matches_leibniz_rule():
    for M in slot_models() + [stokes_violating_manifold()]:
        assert M.check_stokes() == leibniz_stokes(M)
    assert leibniz_stokes(stokes_violating_manifold()) > 0.5


def test_slot_matrices_cached_read_only_per_instance():
    M, _, _ = catalog.get("calabi_eckmann", {"t": 0.2j})
    de, db = M.d_matrices(1, 0)
    assert M.d_matrices(1, 0)[0] is de
    assert not de.flags.writeable and not db.flags.writeable
    other = M.bind(t=0.1)
    assert np.abs(other.d_matrices(1, 0)[1] - db).max() > 0.1
    assert M.d_matrices(1, 0)[1] is db
