import numpy as np
import pytest

from conftest import approx_equal, random_form, random_pd_metric
from starsplit import catalog, operators
from starsplit.analysis import rho
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.errors import InputError
from starsplit.forms import Form, basis_masks, space_dim
from starsplit.metric import (_SHIFTS, HermitianMetric, _scatter, _units, _wedge_scatter,
                              divide_by_power, hodge_star, lefschetz_lambda, omega_power)
from starsplit.operators import (_D_SQUARED_REASON, _STOKES_REASON, IdentityReport,
                                 OperatorTable, P, Q, R, S, T, verify_commutation_suite,
                                 verify_operator_identities)


def stokes_violating():
    return InvariantComplexManifold(
        "solv", 3, {2: {"(2,0)": [(1, 2, "1")], "(1,1)": []}})


# ----------------------------------------------------------------------
# Form-formula references for the slot-matrix routes of T, S, P, R, Q
# ----------------------------------------------------------------------
def _scalar(u):
    return u.coefficient((), ())


def ref_T(g, alpha):
    lam = _scalar(lefschetz_lambda(g, alpha))
    return -alpha + (lam / (g.dim - 1)) * omega_power(g, 1)


def ref_S(g, Omega):
    n = g.dim
    lam = _scalar(lefschetz_lambda(g, hodge_star(g, Omega)))
    return -Omega + (lam / (n - 1)) * omega_power(g, n - 1)


def ref_P(M, g, alpha):
    n = g.dim
    src = (1j * M.del_(M.delbar(alpha))).wedge(omega_power(g, n - 3))
    return divide_by_power(g, n - 2, src)


def ref_P_trace_form(M, g, alpha):
    n = g.dim
    lam1 = lefschetz_lambda(g, 1j * M.del_(M.delbar(alpha)))
    lam2 = _scalar(lefschetz_lambda(g, lam1))
    return lam1 - (lam2 / (2 * (n - 1))) * omega_power(g, 1)


def ref_R(M, g, alpha):
    apply = OperatorTable(M, g).apply
    return (1j * _scalar(apply("delstar", apply("dbarstar", alpha)))) * omega_power(g, 1)


def ref_Q(M, g, alpha):
    n = g.dim
    w = omega_power(g, 1)
    apply = OperatorTable(M, g).apply
    lam_dbar = lefschetz_lambda(g, M.delbar(alpha))
    out = ref_P(M, g, alpha) + ref_R(M, g, alpha)
    out = out - 1j * M.del_(lam_dbar)
    out = out - 1j * apply("delstar", w.wedge(apply("dbarstar", alpha)))
    return out - (_scalar(apply("dbarstar", lam_dbar)) / (n - 1)) * w


def ref_laplacian(M, g, u):
    apply = OperatorTable(M, g).apply
    return M.delbar(apply("dbarstar", u)) + apply("dbarstar", M.delbar(u))


def _close(a, b, tol=1e-10):
    return (a - b).max_abs() < tol * (1.0 + b.max_abs())


@pytest.mark.parametrize("name,params", [
    ("iwasawa3", None), ("nakamura", None),
    ("iwasawa_def", {"sigma11b": 0.2, "sigma21b": 0.1}), ("iwasawa5", None),
    ("calabi_eckmann", {"t": 0.1 + 0.2j}), ("solv", None)])
def test_operators_match_form_references_on_every_monomial(name, params, rng):
    # R and the scalar term of Q vanish wherever Stokes holds, so only the
    # Stokes-violating model "solv" tests them
    M = stokes_violating() if name == "solv" else catalog.get(name, params)[0]
    n = M.dim
    g = random_pd_metric(n, rng)
    for key in basis_masks(n, 1, 1):
        a = Form(n, {key: 1.0})
        assert _close(T(g, a), ref_T(g, a))
        assert _close(P(M, g, a), ref_P(M, g, a))
        assert _close(P(M, g, a), ref_P_trace_form(M, g, a))
        assert _close(R(M, g, a), ref_R(M, g, a))
        assert _close(Q(M, g, a), ref_Q(M, g, a))
        assert _close(OperatorTable(M, g).apply("dbarlap", a), ref_laplacian(M, g, a))
    for key in basis_masks(n, n - 1, n - 1):
        Om = Form(n, {key: 1.0})
        assert _close(S(g, Om), ref_S(g, Om))


# ----------------------------------------------------------------------
# pointwise operators
# ----------------------------------------------------------------------
def test_t_on_omega(rng):
    for n in (3, 5):
        g = random_pd_metric(n, rng)
        w = omega_power(g, 1)
        assert approx_equal(T(g, w), w / (n - 1), 1e-11)


def test_t_on_primitive():
    n = 3
    g = HermitianMetric.identity(n)
    alpha = Form.monomial(n, (1,), (2,), 1.0)
    assert approx_equal(T(g, alpha), -1 * alpha, 1e-13)


def test_s_on_omega_power(rng):
    for n in (3, 4):
        g = random_pd_metric(n, rng)
        assert approx_equal(S(g, omega_power(g, n - 1)),
                            omega_power(g, n - 1) / (n - 1), 1e-11)


def test_bidegree_guards(rng):
    g = HermitianMetric.identity(3)
    with pytest.raises(InputError):
        T(g, random_form(rng, 3, 2, 1))
    with pytest.raises(InputError):
        S(g, random_form(rng, 3, 1, 1))


def test_p_vanishes_on_torus(rng):
    M, g, _ = catalog.get("torus_3")
    assert P(M, g, random_form(rng, 3, 1, 1)).is_zero(1e-14)


def test_p_of_omega_is_rho_in_dim_3():
    M, g, _ = catalog.get("iwasawa3")
    assert approx_equal(P(M, g, omega_power(g, 1)), rho(M, g), 1e-12)


def test_p_routes_agree_dim5(rng):
    M, g, _ = catalog.get("iwasawa5")
    for _ in range(5):
        a = random_form(rng, 5, 1, 1)
        assert (P(M, g, a) - ref_P_trace_form(M, g, a)).max_abs() < 1e-10


def test_r_q_tau_vanish_on_torus(rng):
    M, g, _ = catalog.get("torus_3")
    a = random_form(rng, 3, 1, 1)
    assert R(M, g, a).is_zero(1e-14)
    assert Q(M, g, a).is_zero(1e-14)
    assert OperatorTable(M, g).apply("tau", random_form(rng, 3, 2, 1)).is_zero(1e-14)


def test_q_is_minus_laplacian_on_kahler(rng):
    # constant metric on the torus is kahler
    M, _, _ = catalog.get("torus_3")
    g = random_pd_metric(3, rng)
    for _ in range(4):
        a = random_form(rng, 3, 1, 1)
        assert (Q(M, g, a) + OperatorTable(M, g).apply("dbarlap", a)).max_abs() < 1e-11


def test_q_equals_p_on_balanced_metric_form():
    for name in ("iwasawa3", "iwasawa5"):
        M, g, _ = catalog.get(name)
        w = omega_power(g, 1)
        assert (Q(M, g, w) - P(M, g, w)).max_abs() < 1e-11


def test_tau_bar_is_conjugate_of_tau(rng):
    M, g, _ = catalog.get("iwasawa3")
    u = random_form(rng, 3, 1, 1)
    lhs = OperatorTable(M, g).apply("taubar", u)
    rhs = OperatorTable(M, g).apply("tau", u.conjugate()).conjugate()
    assert (lhs - rhs).max_abs() < 1e-12


def test_torsion_matches_lambda_commutator(rng):
    # reference: tau = Lam(del omega ^ u) - del omega ^ Lam(u), and likewise
    # for taubar, from Form-level wedges on every slot with a dense metric
    for name, params in [("iwasawa3", None), ("iwasawa5", None),
                         ("calabi_eckmann", {"t": 0.15 + 0.1j})]:
        M, _, _ = catalog.get(name, params)
        n = M.dim
        g = random_pd_metric(n, rng)
        w = omega_power(g, 1)
        for name, dw in (("tau", M.del_(w)), ("taubar", M.delbar(w))):
            for p in range(n + 1):
                for q in range(n + 1):
                    u = random_form(rng, n, p, q)
                    ref = lefschetz_lambda(g, dw.wedge(u)) - dw.wedge(lefschetz_lambda(g, u))
                    assert (OperatorTable(M, g).apply(name, u) - ref).max_abs() < 1e-10


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
CATALOG_CASES = [("torus_3", None), ("iwasawa3", None), ("nakamura", None),
                 ("iwasawa_def", {"sigma11b": 0.2, "sigma21b": 0.1}),
                 ("iwasawa5", None), ("calabi_eckmann", {"t": 0.1 + 0.2j})]


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_commutation_suite_on_catalog(name, params, rng):
    M, g, _ = catalog.get(name, params)
    for metric in (g, random_pd_metric(M.dim, rng)):
        rep = verify_commutation_suite(M, metric)
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
        assert rep.max_residual() < 1e-10
        assert len(rep.entries) == 16
        assert all(e.skipped_reason is None for e in rep.entries)


def test_operator_suite_iwasawa3():
    M, g, _ = catalog.get("iwasawa3")
    rep = verify_operator_identities(M, g, HermitianMetric.diagonal([1, 2, 3]))
    assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
    ids = {e.identity: e for e in rep.entries}
    # balanced entries are evaluated, dimension-4 entries are skipped with a reason
    assert ids["b21_q_p_integral_bridge"].passed is True
    assert ids["b23_q_equals_p_on_metric_balanced"].passed is True
    assert ids["b11_star_wedge_33"].skipped_reason == "needs n >= 4"
    assert ids["b24_q_is_minus_laplacian_kahler"].skipped_reason == "omega is not kahler"
    assert ids["b15_pair_division_integral_link"].residual < 1e-10


def test_operator_suite_iwasawa5(rng):
    M, g, _ = catalog.get("iwasawa5")
    rep = verify_operator_identities(M, g, random_pd_metric(5, rng))
    assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
    ids = {e.identity: e for e in rep.entries}
    assert ids["b11_star_wedge_33"].passed is True
    assert ids["b12_division_trace_33"].passed is True
    assert ids["b25_q_equals_p_on_harmonic"].passed is True


def test_operator_suite_kahler_entry():
    M, g, _ = catalog.get("torus_3")
    rep = verify_operator_identities(M, g, HermitianMetric.diagonal([2, 1, 0.5]))
    ids = {e.identity: e for e in rep.entries}
    assert ids["b24_q_is_minus_laplacian_kahler"].passed is True
    assert rep.all_passed


def test_suite_refuses_integral_links_without_stokes():
    M = stokes_violating()
    g = HermitianMetric.identity(3)
    rep = verify_operator_identities(M, g, g)
    ids = {e.identity: e for e in rep.entries}
    assert ids["b15_pair_division_integral_link"].passed is None
    assert "Stokes" in ids["b15_pair_division_integral_link"].skipped_reason
    # every identity that integrates by parts is skipped for the same reason
    for ident in ("b15_pair_division_integral_link", "b16_q_integral_link",
                  "b18_r_integral_vanishing", "b19_scalar_trace_integral_vanishing",
                  "b20_balanced_first_order_integrals", "b21_q_p_integral_bridge",
                  "b25_q_equals_p_on_harmonic"):
        assert ids[ident].passed is None
        assert "Stokes" in ids[ident].skipped_reason
    # pointwise identities still hold there
    assert ids["b05_p_operator_routes"].passed is True
    assert ids["b08_division_trace_22"].passed is True
    assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


# d phi1 = phi2 ^ phi3 and d phi2 = phi1 ^ phibar1 (or phi1 ^ phibar2): Stokes
# holds, but d d phi1 = d phi2 ^ phi3 is not zero
NON_JACOBI = [{1: {"(2,0)": [(2, 3, "1")]}, 2: {"(1,1)": [(1, 1, "1")]}},
              {1: {"(2,0)": [(2, 3, "1")]}, 2: {"(1,1)": [(1, 2, "1")]}}]


@pytest.mark.parametrize("structure", NON_JACOBI)
def test_pair_integral_links_are_skipped_where_d_squared_fails(rng, structure):
    """b15 and b16 need d^2 = 0 as well as Stokes: asserted on these models,
    b15 reads 0.5 at the identity metric (b16 too on the second).  Both are
    skipped with its reason, and every other entry holds."""
    M = InvariantComplexManifold("non_jacobi", 3, structure)
    assert M.check_stokes() <= 1e-15 and M.check_integrability() >= 1.0
    for g in (HermitianMetric.identity(3), random_pd_metric(3, rng)):
        rep = verify_operator_identities(M, g, random_pd_metric(3, rng))
        ids = {e.identity[:3]: e for e in rep.entries}
        for key in ("b15", "b16"):
            assert ids[key].passed is None
            assert ids[key].skipped_reason == _D_SQUARED_REASON
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


def random_stokes_model(n, seed):
    """A model with seeded random complex (2,0) and (1,1) structure
    constants, projected onto the real kernel of the Stokes map: the top
    coefficients of del from the (n-1,n)-slot and of dbar from the
    (n,n-1)-slot, read off the models of one constant, 1 or i.  Stokes
    holds; d^2 = 0 does not."""
    index = range(1, n + 1)
    slots = [(k, "(2,0)", i, j) for k in index for i in index for j in index if i < j]
    slots += [(k, "(1,1)", i, j) for k in index for i in index for j in index]
    columns = []
    for k, slot, i, j in slots:
        for c in ("1", "i"):
            M = InvariantComplexManifold("probe", n, {k: {slot: [(i, j, c)]}})
            top = np.concatenate([M.d_matrices(n - 1, n)[0].ravel(),
                                  M.d_matrices(n, n - 1)[1].ravel()])
            columns.append(np.concatenate([top.real, top.imag]))
    stokes = np.array(columns).T
    c = np.random.default_rng(seed).standard_normal(2 * len(slots))
    c = c - np.linalg.pinv(stokes) @ (stokes @ c)
    structure = {}
    for (k, slot, i, j), v in zip(slots, (c[0::2] + 1j * c[1::2]).tolist()):
        structure.setdefault(k, {}).setdefault(slot, []).append((i, j, f"{v.real!r}+{v.imag!r}i"))
    return InvariantComplexManifold(f"stokes_{n}_{seed}", n, structure)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_both_suites_pass_on_random_stokes_models(n):
    """Models that satisfy Stokes but not Jacobi, each with two seeded
    dense metrics: the commutation suite passes with a05, a06, a14 and a15
    evaluated, and the operator suite passes every entry that runs, b15 and
    b16 skipped by their d^2 hypothesis."""
    M = random_stokes_model(n, seed=n)
    assert M.check_stokes() <= 1e-13 and M.check_integrability() > 1.0
    rng = np.random.default_rng(n)
    g, gamma = random_pd_metric(n, rng), random_pd_metric(n, rng)
    for metric in (g, gamma):
        rep = verify_commutation_suite(M, metric)
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
        assert all(e.residual is not None for e in rep.entries), rep.to_json_list()
        rep = verify_operator_identities(M, metric, gamma if metric is g else g)
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]
        ids = {e.identity[:3]: e for e in rep.entries}
        assert ids["b15"].skipped_reason == ids["b16"].skipped_reason == _D_SQUARED_REASON
        # b11 and b12 need n >= 4, b20, b21, b23 and b24 a balanced or kahler
        # metric, b25 a harmonic form
        skipped = {key for key, e in ids.items() if e.residual is None}
        assert {"b15", "b16"} <= skipped <= {"b11", "b12", "b15", "b16", "b20", "b21", "b23",
                                              "b24", "b25"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commutation_suite_skips_adjoint_identities_without_stokes(seed):
    M = stokes_violating()
    rep = verify_commutation_suite(M, HermitianMetric.identity(3), seed=seed)
    ids = {e.identity[:3]: e for e in rep.entries}
    for key in ("a05", "a06", "a14", "a15"):
        assert ids[key].passed is None
        assert ids[key].skipped_reason == _STOKES_REASON
    assert len(rep.entries) == 16
    assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


def test_operator_suite_builds_one_table_per_metric(monkeypatch, rng):
    built = []
    init = OperatorTable.__init__

    def counting_init(self, M, g):
        built.append(g)
        init(self, M, g)

    monkeypatch.setattr(OperatorTable, "__init__", counting_init)
    M, g, _ = catalog.get("iwasawa5")
    rep = verify_operator_identities(M, g, random_pd_metric(5, rng))
    assert rep.all_passed
    assert len(built) <= 2


def test_commutation_report_does_not_depend_on_the_seed(rng):
    M = catalog.get("iwasawa5")[0]
    g = random_pd_metric(5, rng)
    assert verify_commutation_suite(M, g, seed=0) == verify_commutation_suite(M, g, seed=12345)


def test_operator_report_does_not_depend_on_the_seed(rng):
    M = catalog.get("iwasawa5")[0]
    g, gamma = random_pd_metric(5, rng), random_pd_metric(5, rng)
    assert (verify_operator_identities(M, g, gamma, seed=0)
            == verify_operator_identities(M, g, gamma, seed=12345))


@pytest.mark.parametrize("name,params", CATALOG_CASES + [("torus_4", None), ("solv", None)])
def test_b26_is_evaluated_on_every_model(name, params, rng):
    """int theta ^ omega_(n-1) / vol = Lam theta holds on every monomial,
    with no hypothesis: Stokes-violating models included."""
    M, g = ((stokes_violating(), HermitianMetric.identity(3)) if name == "solv"
            else catalog.get(name, params)[:2])
    for metric in (g, random_pd_metric(M.dim, rng)):
        rep = verify_operator_identities(M, metric, random_pd_metric(M.dim, rng))
        b26 = {e.identity: e for e in rep.entries}["b26_semidefinite_zero_trace"]
        assert b26.skipped_reason is None and b26.passed is True
        assert b26.residual < 1e-14, (name, b26.residual)


@pytest.mark.parametrize("n", range(3, 7))
def test_lambda_on_11_is_the_frame_trace(n):
    """Lam of theta = i sum R[j,k] e_j ^ ebar_k is trace R: the row of Lam on
    the (1,1)-slot is -i at each e_j ^ ebar_j and 0 elsewhere, exactly."""
    M = InvariantComplexManifold(f"torus_{n}", n, {})
    lam = OperatorTable(M, HermitianMetric.identity(n)).mat("Lam", 1, 1)
    trace = np.zeros((1, n * n), dtype=complex)
    trace[0, [basis_masks(n, 1, 1).index((1 << j, 1 << j)) for j in range(n)]] = -1j
    assert np.array_equal(lam, trace)


def test_warm_suites_build_no_form_and_split_once(monkeypatch, rng):
    """Once the manifold's and the dimension's tables exist, both suites
    work on frame matrices alone, and the operator suite runs the star-split
    core once."""
    M = catalog.get("iwasawa5")[0]
    g, gamma = random_pd_metric(5, rng), random_pd_metric(5, rng)
    verify_commutation_suite(M, g)
    verify_operator_identities(M, g, gamma)
    built, splits = [], []
    init, split = Form.__init__, operators._star_split

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_split(*args):
        splits.append(1)
        return split(*args)

    monkeypatch.setattr(Form, "__init__", counting_init)
    monkeypatch.setattr(operators, "_star_split", counting_split)
    assert verify_commutation_suite(M, g).all_passed
    assert not built
    assert verify_operator_identities(M, g, gamma).all_passed
    assert not built
    assert len(splits) == 1


@pytest.mark.parametrize("structure,coeffs,scale", [
    ([(1, 2, "-i")], [0.5, 2.0, 1000.0], 0.001),
    ([(1, 2, "-1"), (1, 1, "1")], [1.0, 1000.0, 0.001], 1000.0)])
def test_suites_pass_where_f_and_the_metric_scale_are_far_from_one(structure, coeffs, scale):
    """Metrics whose coefficients span three or six orders of magnitude.  On
    the first, f is 1e6 and either route of f and rho rounds at about 1e-10
    in absolute terms, so b13 and b14 compare relative to the size of f and
    rho; on the second, seeded forms of the metric's size round at about
    5e-10, so the wedge pairings a12 and a13 do not depend on the metric."""
    M = InvariantComplexManifold("fuzz", 3, {3: {"(2,0)": [], "(1,1)": structure}})
    g = HermitianMetric.diagonal(coeffs).scaled(scale)
    rep = verify_operator_identities(M, g, g)
    ids = {e.identity[:3]: e for e in rep.entries}
    assert ids["b13"].residual < 1e-14 and ids["b14"].residual < 1e-14
    for rep in (rep, verify_commutation_suite(M, g)):
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


@pytest.mark.parametrize("name,coeffs,scale", [pytest.param(
    name, coeffs, scale, id="-".join(map(str, (name, *(coeffs if coeffs != (1, 2, 3) else ()),
                                               scale))))
    for name, coeffs, scale in (
        ("nakamura", (1, 2, 3), 1000.0), ("calabi_eckmann", (1, 2, 3), 1000.0),
        ("nakamura", (1, 2, 3), 1e-6), ("calabi_eckmann", (1, 10, 100), 1000.0),
        ("calabi_eckmann", (1, 2, 3), 1e-6), ("iwasawa5", (1, 2, 3, 4, 5), 1e-6),
        ("calabi_eckmann", (1, 2, 3), 1e9))])
def test_operator_suite_passes_at_metric_scales_far_from_one(name, coeffs, scale):
    """diagonal(1, 2, 3) scaled by 1000: the vanishing integrals b18, b19
    and b21 grow with the metric's scale and read up to 1.6e-8 absolute;
    scaled by 1e-6, Q(omega) and P(omega) of b23 are of size 1e6 and differ
    by 1.8e-9.  On calabi_eckmann, where f, rho and the integral of star
    rho vanish, b13 and b14 round at 1e-9 against terms of size 7e5 at
    1e-6, and b15 at 5e-10 and 1e-5 against integrals of 9e-10 and 2e-5 at
    1000 and 1e9; at 1e9 the dbar-Laplacian's largest singular value is
    4e-9, and b25 must not take every form for harmonic.  On iwasawa5 at
    1e-6, b05 rounds at 1e-10 against P of size 1.4e6.  Each is relative to
    the size of what enters it."""
    M, _, _ = catalog.get(name)
    g = HermitianMetric.diagonal(list(coeffs)).scaled(scale)
    rep = verify_operator_identities(M, g, g)
    assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


@pytest.mark.parametrize("scale", [1e-6, 1e-8])
def test_operator_suite_passes_on_small_dense_metrics(scale):
    """iwasawa5 with eight seeded dense metrics scaled by 1e-6 (1e-8): P and
    i del delbar are of size 1e6 (1e8), and the top-form and trace routes
    of P, b06 and b07, round at up to 2.3e-10 (3.0e-8) in absolute terms.
    Each is relative to the largest entry of P and of i del delbar, as
    b05 is."""
    M = catalog.get("iwasawa5")[0]
    rng = np.random.default_rng(0)
    for _ in range(8):
        g = random_pd_metric(5, rng).scaled(scale)
        rep = verify_operator_identities(M, g, g)
        assert rep.all_passed, [e.to_json_dict() for e in rep.failures()]


@pytest.mark.parametrize("name", ["iwasawa5", "nakamura"])
def test_commutation_suite_passes_at_dense_metric_scales_from_1e_12_to_1e12(name):
    """Three seeded dense metrics, each scaled by 1e-12, 1e-9, ..., 1e12:
    the frame values scale like the square root of 1/scale, and so does
    the rounding of a05, a06, a14 and a15, which at 1e-12 read 1e-9 in
    absolute terms.  Each is relative to the largest value it reads."""
    M = catalog.get(name)[0]
    rng = np.random.default_rng(1)
    for _ in range(3):
        g = random_pd_metric(M.dim, rng)
        for scale in 10.0 ** np.arange(-12, 13, 3):
            rep = verify_commutation_suite(M, g.scaled(scale))
            assert rep.all_passed, (scale, [e.to_json_dict() for e in rep.failures()])
            assert all(e.skipped_reason is None for e in rep.entries)


def test_report_json_shape():
    M, g, _ = catalog.get("iwasawa3")
    rep = verify_commutation_suite(M, g)
    payload = rep.to_json_list()
    assert all(set(d) >= {"id", "anchor", "residual", "pass"} for d in payload)
    assert payload == sorted(payload, key=lambda d: d["id"])


# ----------------------------------------------------------------------
# the identity harness both suites report through
# ----------------------------------------------------------------------
def _entry(*args, **kwargs):
    rep = IdentityReport("M", "g", 1e-10)
    rep.check(*args, **kwargs)
    return rep.entries[0]


def test_check_skips_with_first_failed_hypothesis():
    def never():
        raise AssertionError("residuals of a skipped entry are not computed")

    e = _entry("x01", "anchor", never, (True, "ok"), (False, "first"), (False, "second"))
    assert (e.residual, e.passed, e.skipped_reason) == (None, None, "first")


def test_check_skip_anchor_applies_only_to_skipped_entries():
    e = _entry("x01", "full anchor", lambda: [np.zeros(2)], (False, "no"), skip_anchor="short")
    assert e.anchor == "short"
    e = _entry("x01", "full anchor", lambda: [np.zeros(2)], (True, "no"), skip_anchor="short")
    assert e.anchor == "full anchor" and e.passed is True


def test_check_takes_largest_absolute_entry():
    # a scalar counts as a 0-d array, an empty array as residual 0
    e = _entry("x01", "a", lambda: iter([np.array([[1e-12, -3e-9j]]), np.zeros((0, 4)),
                                         np.float64(-2e-9)]))
    assert e.residual == 3e-9 and e.passed is False


def test_check_empty_residuals_pass():
    e = _entry("x01", "a", lambda: iter(()))
    assert e.residual == 0.0 and e.passed is True and e.skipped_reason is None


# ----------------------------------------------------------------------
# ellipticity at the principal symbol
# ----------------------------------------------------------------------
class SymbolTable(OperatorTable):
    """The principal symbols at the real covector xi whose (1,0)-part is
    ``sum_k c_k e_k`` (so its (0,1)-part is ``sum_k conj(c_k) ebar_k``), on
    the n-torus with the identity metric: del is ``i xi^(1,0) ^ .``, dbar
    ``i xi^(0,1) ^ .`` and each adjoint the conjugate transpose of its
    operator's symbol.  L, Lambda, the star and T are the table's own, and
    every composite ("P", "Q", "dbarlap") is its ``_terms`` and ``chain``,
    so each chain of two first-order operators gives its principal part."""

    def __init__(self, c):
        n = len(c)
        super().__init__(InvariantComplexManifold(f"torus_{n}", n, {}),
                         HermitianMetric.identity(n))
        self.xi = {(1, 0): np.asarray(c), (0, 1): np.conj(c)}

    def mat(self, name, p, q):
        if name in ("delstar", "dbarstar"):
            d = "del" if name == "delstar" else "dbar"
            return self.mat(d, *self.target(name, p, q)).conj().T
        if name not in ("del", "dbar"):
            return super().mat(name, p, q)
        a, b = _SHIFTS[name]
        shape = (space_dim(self.n, p + a, q + b), space_dim(self.n, p, q))
        return _scatter(shape, _wedge_scatter(self.n, a, b, p, q), _units(1j * self.xi[a, b]))


def polarisation_covectors(n):
    """The (1,0)-parts of the n(2n+1) real covectors e_a and e_a + e_b
    (a < b) of R^2n = C^n: a quadratic form in xi that vanishes on them
    vanishes everywhere."""
    basis = np.concatenate([np.eye(n), 1j * np.eye(n)])
    return list(basis) + [basis[a] + basis[b] for a in range(2 * n) for b in range(a + 1, 2 * n)]


@pytest.mark.parametrize("n", range(3, 7))
def test_q_is_elliptic_at_the_principal_symbol(n):
    """sigma_xi(Q) = -|xi^(1,0)|^2 Id on (1,1)-forms, the symbol of minus the
    dbar-Laplacian (itself |xi^(1,0)|^2 Id), while sigma_xi(P) is singular:
    P alone is not elliptic, the other four terms of Q make it so."""
    covectors = polarisation_covectors(n)
    assert len(covectors) == n * (2 * n + 1)
    eye = np.eye(space_dim(n, 1, 1))
    for c in covectors:
        table, size = SymbolTable(c), np.vdot(c, c).real
        assert np.abs(table.mat("Q", 1, 1) + size * eye).max() <= 1e-14, c
        assert np.abs(table.mat("dbarlap", 1, 1) - size * eye).max() <= 1e-14, c
        svals = np.linalg.svd(table.mat("P", 1, 1), compute_uv=False)
        assert svals[-1] <= 1e-14 * svals[0], c
