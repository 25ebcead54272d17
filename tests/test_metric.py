from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from conftest import approx_equal, random_form, random_pd_metric
from starsplit import metric
from starsplit.errors import AlgebraError, InputError
from starsplit.forms import Form, basis_masks, space_dim
from starsplit.metric import (HermitianMetric, _slot_mat, _star_mat, _top_pairing,
                              _volume_coeff, _wedge_power_mat, compound,
                              divide_by_power, form_norm, form_to_vec, hodge_star,
                              inner_product, lefschetz_L, lefschetz_decompose,
                              lefschetz_lambda, omega_power)


def ii(n, j, k=None):
    return Form.monomial(n, (j,), (j if k is None else k,), 1j)


def hat(n, j):
    """Wedge of all i phi_k phibar_k with k != j."""
    out = Form.scalar(n, 1.0)
    for k in range(1, n + 1):
        if k != j:
            out = out.wedge(ii(n, k))
    return out


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_rejects_non_hermitian_and_non_pd():
    with pytest.raises(InputError):
        HermitianMetric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        HermitianMetric(np.array([[1.0, 0], [0, -2.0]]))
    with pytest.raises(InputError):
        HermitianMetric.diagonal([1.0, 0.0, 2.0])


@pytest.mark.parametrize("lo", [1e-16, 1e-15, 1e-14, 1.0000000000000002e-14, 2e-14, 1e-13, 1e-3])
@pytest.mark.parametrize("hi", [1e-3, 0.5, 1.0, 2.0, 1e3, 1e14, 1e15])
def test_metric_refusals_accept_what_the_single_check_accepted(lo, hi):
    """Refused exactly where ``lo <= 1e-14 max(1, hi)`` (the one check that
    the two refusals replace): on the condition number where ``lo <= 1e-14
    hi``, otherwise on the floor."""
    lo, hi = min(lo, hi), max(lo, hi)
    eigs = np.linalg.eigvalsh(np.diag([lo, hi, hi]).astype(complex))
    refused = eigs.min() <= 1e-14 * max(1.0, eigs.max())
    try:
        HermitianMetric.diagonal([lo, hi, hi])
    except InputError as exc:
        assert refused
        assert ("ill-conditioned" in str(exc)) == (eigs.min() <= 1e-14 * eigs.max()), str(exc)
    else:
        assert not refused


def test_compound_matches_minor_loop(rng):
    # out[t, s] = det(mat[rows(s), cols(t)]) over r-subsets in combinations order
    for n in (3, 5):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for r in range(n + 1):
            subsets = [list(c) for c in combinations(range(n), r)]
            ref = np.array([[np.linalg.det(A[np.ix_(rows, cols)]) if r else 1.0
                             for rows in subsets] for cols in subsets])
            assert np.abs(compound(A, r) - ref).max() < 1e-12


def test_json_round_trip(rng):
    g = random_pd_metric(3, rng)
    g2 = HermitianMetric.from_json_dict(g.to_json_dict())
    assert np.abs(g.H - g2.H).max() < 1e-15
    d = HermitianMetric.from_json_dict({"type": "diagonal", "coeffs": [1, 2, 3], "scale": 0.5})
    assert np.allclose(np.diag(d.H).real, [0.5, 1.0, 1.5])
    with pytest.raises(InputError):
        HermitianMetric.from_json_dict({"type": "nope"})


# ----------------------------------------------------------------------
# omega powers
# ----------------------------------------------------------------------
def test_omega_power_edges():
    g = HermitianMetric.identity(3)
    assert approx_equal(omega_power(g, 0), Form.scalar(3, 1.0), 1e-15)
    with pytest.raises(InputError):
        omega_power(g, 4)


def test_omega_power_matches_wedge_recursion(rng):
    # reference: omega_k = omega ^ ... ^ omega / k!, built from phi-basis wedges
    for n in (3, 4, 5, 6):
        for g in (HermitianMetric.identity(n), random_pd_metric(n, rng)):
            w = omega_power(g, 1)
            ref = Form.scalar(n, 1.0)
            for k in range(n + 1):
                if k:
                    ref = ref.wedge(w) / k
                got = omega_power(g, k)
                assert (got - ref).max_abs() < 1e-12 * max(1.0, ref.max_abs())


def test_omega2_three_term_display():
    g = HermitianMetric.identity(3)
    expected = (ii(3, 1).wedge(ii(3, 2)) + ii(3, 1).wedge(ii(3, 3))
                + ii(3, 2).wedge(ii(3, 3)))
    assert approx_equal(omega_power(g, 2), expected, 1e-14)


def test_omega4_is_sum_of_hats_in_dim_5():
    g = HermitianMetric.identity(5)
    expected = Form.zero(5)
    for j in range(1, 6):
        expected = expected + hat(5, j)
    assert approx_equal(omega_power(g, 4), expected, 1e-13)


# ----------------------------------------------------------------------
# inner product and star anchors
# ----------------------------------------------------------------------
def test_inner_product_anchors(rng):
    for n in (3, 4):
        for g in (HermitianMetric.identity(n), random_pd_metric(n, rng)):
            w = omega_power(g, 1)
            assert inner_product(g, w, w) == pytest.approx(n, abs=1e-12)
    g = HermitianMetric.identity(3)
    assert inner_product(g, Form.monomial(3, (1,), ()), Form.monomial(3, (2,), ())) == 0


def test_inner_product_rejects_mixed_degree():
    g = HermitianMetric.identity(3)
    w = omega_power(g, 1)
    with pytest.raises(InputError):
        inner_product(g, w + Form.scalar(3, 1.0), w)
    with pytest.raises(InputError):
        inner_product(g, Form.monomial(3, (1,), ()), Form.monomial(3, (), (1,)))


def test_star_anchors(rng):
    for n in (3, 4, 5):
        for g in (HermitianMetric.identity(n), random_pd_metric(n, rng)):
            assert approx_equal(hodge_star(g, Form.scalar(n, 1.0)), omega_power(g, n), 1e-11)
            assert approx_equal(hodge_star(g, omega_power(g, 1)), omega_power(g, n - 1), 1e-11)


def test_star_involution_and_isometry(rng):
    n = 4
    g = random_pd_metric(n, rng)
    for p in range(n + 1):
        for q in range(n + 1):
            u = random_form(rng, n, p, q)
            if u.is_zero():
                continue
            sign = -1 if (p + q) % 2 else 1
            assert approx_equal(hodge_star(g, hodge_star(g, u)), sign * u, 1e-10)
            assert form_norm(g, hodge_star(g, u)) == pytest.approx(form_norm(g, u), abs=1e-10)


def test_star_rejects_inhomogeneous():
    g = HermitianMetric.identity(3)
    with pytest.raises(InputError):
        hodge_star(g, Form.scalar(3, 1.0) + omega_power(g, 1))


def test_primitive_star_formula(rng):
    # star v = (-1)^(k(k+1)/2) i^(p-q) omega_(n-p-q) ^ v on primitive v
    for n in (3, 5):
        g = random_pd_metric(n, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                if p + q > n:
                    continue
                u = random_form(rng, n, p, q)
                if u.is_zero():
                    continue
                prim = dict(lefschetz_decompose(g, u)).get(0, Form.zero(n))
                if prim.max_abs() < 1e-8:
                    continue
                k = p + q
                sign = (-1) ** ((k * (k + 1)) // 2) * (1j ** (p - q))
                rhs = sign * omega_power(g, n - p - q).wedge(prim)
                assert (hodge_star(g, prim) - rhs).max_abs() < 1e-10


def test_primitive_11_star_is_minus_wedge():
    n = 3
    g = HermitianMetric.identity(n)
    v = Form.monomial(n, (1,), (2,), 1.0)  # Lambda v = 0
    assert lefschetz_lambda(g, v).is_zero(1e-14)
    assert approx_equal(hodge_star(g, v), -1 * omega_power(g, n - 2).wedge(v), 1e-12)


# ----------------------------------------------------------------------
# Lefschetz pair
# ----------------------------------------------------------------------
def test_lambda_l_commutator(rng):
    for n in (3, 4, 5):
        g = random_pd_metric(n, rng)
        w = omega_power(g, 1)
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(rng, n, p, q)
                if u.is_zero():
                    continue
                diff = (lefschetz_lambda(g, lefschetz_L(g, u))
                        - lefschetz_L(g, lefschetz_lambda(g, u)) - (n - p - q) * u)
                assert diff.max_abs() < 1e-10


def test_lefschetz_l_matches_wedge_with_omega(rng):
    # reference: L is the phi-basis wedge with omega, on every slot and on a
    # form spread over several bidegrees
    for n in (3, 4):
        g = random_pd_metric(n, rng)
        w = omega_power(g, 1)
        mixed = Form.zero(n)
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(rng, n, p, q)
                mixed = mixed + u
                assert (lefschetz_L(g, u) - w.wedge(u)).max_abs() < 1e-12
        assert (lefschetz_L(g, mixed) - w.wedge(mixed)).max_abs() < 1e-11
    assert lefschetz_L(g, Form.zero(n)).is_zero()


def test_lambda_of_omega_is_n():
    for n in (3, 5):
        g = HermitianMetric.identity(n)
        lam = lefschetz_lambda(g, omega_power(g, 1))
        assert lam.coefficient((), ()) == pytest.approx(n)


def test_l_power_lambda_commutator(rng):
    # [L^r, Lambda] = r (k - n + r - 1) L^(r-1) on k-forms
    n = 4
    g = random_pd_metric(n, rng)
    def L(u):
        return lefschetz_L(g, u)
    for r in (2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_form(rng, n, p, q)
                if u.is_zero():
                    continue
                k = p + q
                # [L^r, Lam] u = L^r(Lam u) - Lam(L^r u)
                term1 = lefschetz_lambda(g, u)
                for _ in range(r):
                    term1 = L(term1)
                lr_u = u
                for _ in range(r):
                    lr_u = L(lr_u)
                term2 = lefschetz_lambda(g, lr_u)
                rhs = u
                for _ in range(r - 1):
                    rhs = L(rhs)
                rhs = r * (k - n + r - 1) * rhs
                assert (term1 - term2 - rhs).max_abs() < 1e-9


def test_complementary_star_pairing(rng):
    # alpha ^ beta = star alpha ^ star beta when degrees add to 2n
    n = 4
    g = random_pd_metric(n, rng)
    for _ in range(8):
        p, q = rng.integers(0, n + 1, 2)
        r = int(rng.integers(0, n + 1))
        s = 2 * n - p - q - r
        if not 0 <= s <= n:
            continue
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, r, s)
        lhs = a.wedge(b)
        rhs = hodge_star(g, a).wedge(hodge_star(g, b))
        assert (lhs - rhs).max_abs() < 1e-10


def test_trace_pairing_top(rng):
    # gamma ^ Gamma = star(Gamma) ^ gamma_(n-1) for real (n-1,n-1) Gamma
    for n in (3, 4):
        g = random_pd_metric(n, rng)
        Gam = random_form(rng, n, n - 1, n - 1, real=True)
        lhs = omega_power(g, 1).wedge(Gam)
        rhs = hodge_star(g, Gam).wedge(omega_power(g, n - 1))
        assert (lhs - rhs).max_abs() < 1e-10


# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------
def test_divide_omega_power_identity(rng):
    for n in (3, 4, 5):
        g = random_pd_metric(n, rng)
        x = divide_by_power(g, n - 2, omega_power(g, n - 1))
        assert approx_equal(x, omega_power(g, 1) / (n - 1), 1e-10)


def test_divide_inverts_multiplication(rng):
    n = 4
    g = random_pd_metric(n, rng)
    for _ in range(5):
        x = random_form(rng, n, 1, 1)
        y = omega_power(g, n - 2).wedge(x)
        assert approx_equal(divide_by_power(g, n - 2, y), x, 1e-9)


def test_divide_rejects_out_of_range_input(rng):
    n = 4
    g = HermitianMetric.identity(n)
    # dim (2,2) = 36 > dim (1,1) = 16: a generic (2,2)-form is not omega_1 ^ (1,1)
    y = random_form(rng, n, 2, 2)
    with pytest.raises(InputError):
        divide_by_power(g, 1, y)
    with pytest.raises(InputError):
        divide_by_power(g, n - 2, random_form(rng, n, 2, 1))


# ----------------------------------------------------------------------
# primitive decomposition
# ----------------------------------------------------------------------
def test_decompose_11_form(rng):
    n = 3
    g = random_pd_metric(n, rng)
    u = random_form(rng, n, 1, 1)
    parts = dict(lefschetz_decompose(g, u))
    prim, trace = parts[0], parts[1]
    assert lefschetz_lambda(g, prim).max_abs() < 1e-10
    lam = lefschetz_lambda(g, u).coefficient((), ())
    assert approx_equal(trace, (lam / n) * Form.scalar(n, 1.0), 1e-10)
    assert approx_equal(prim + omega_power(g, 1) * (lam / n), u, 1e-10)


def test_decompose_omega_is_pure_trace():
    g = HermitianMetric.identity(4)
    parts = dict(lefschetz_decompose(g, omega_power(g, 1)))
    assert parts[0].is_zero(1e-12)
    assert approx_equal(omega_power(g, 1).wedge(parts[1]), omega_power(g, 1), 1e-12)


def test_decompose_22_form_dim5(rng):
    n = 5
    g = random_pd_metric(n, rng)
    u = random_form(rng, n, 2, 2)
    parts = lefschetz_decompose(g, u)
    recon = Form.zero(n)
    for r, comp in parts:
        assert lefschetz_lambda(g, comp).max_abs() < 1e-9
        recon = recon + omega_power(g, r).wedge(comp)
    assert approx_equal(recon, u, 1e-9)


def test_decompose_rejects_above_middle_degree(rng):
    g = HermitianMetric.identity(3)
    with pytest.raises(InputError):
        lefschetz_decompose(g, random_form(rng, 3, 2, 2))


# ----------------------------------------------------------------------
# references for the mask-built frame tables and the cached solve
# matrices: Form-wedge builders, the solve of the star pairing, and the
# least-squares bodies of the division and the primitive decomposition
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def ref_std_omega_power(n, r):
    """omega_r of the standard frame by the recursion omega_(r-1) ^ omega / r."""
    if r == 0:
        return Form.scalar(n, 1.0)
    omega = Form(n, {(1 << k, 1 << k): 1j for k in range(n)})
    return ref_std_omega_power(n, r - 1).wedge(omega) / r


def ref_volume_coeff(n):
    full = (1 << n) - 1
    return ref_std_omega_power(n, n)._terms[(full, full)]


def ref_wedge_power_mat(n, r, p, q):
    """Column s: the (p+r,q+r)-part of omega_r ^ (s-th basis monomial)."""
    cols = [form_to_vec(ref_std_omega_power(n, r).wedge(Form(n, {key: 1.0})), p + r, q + r)
            for key in basis_masks(n, p, q)]
    return np.array(cols, dtype=complex).reshape(len(cols), space_dim(n, p + r, q + r)).T


@lru_cache(maxsize=None)
def ref_top_pairing(n, p, q):
    """Top coefficient of a ^ b, one Form wedge per pair of monomials."""
    full = (1 << n) - 1
    cols = [Form(n, {key: 1.0}) for key in basis_masks(n, n - p, n - q)]
    rows = [[Form(n, {key: 1.0}).wedge(b)._terms.get((full, full), 0j) for b in cols]
            for key in basis_masks(n, p, q)]
    return np.array(rows, dtype=complex).reshape(len(rows), len(cols))


def ref_star_mat(n, p, q):
    """Solve the defining pairing u ^ star(w) = <u, conj(w)> dV over the
    monomial bases."""
    src = basis_masks(n, p, q)
    pair_index = {key: k for k, key in enumerate(basis_masks(n, q, p))}
    rhs = np.zeros((space_dim(n, q, p), len(src)), dtype=complex)
    sign = -1.0 if (p * q) & 1 else 1.0
    for b, (imask, jmask) in enumerate(src):
        rhs[pair_index[(jmask, imask)], b] = sign * ref_volume_coeff(n)
    return np.linalg.solve(ref_top_pairing(n, q, p), rhs)


def ref_divide_by_power(g, k, y, tol=1e-10):
    n = g.dim
    W = _wedge_power_mat(n, k, 1, 1)
    ye = g.to_e_vec(y, k + 1, k + 1)
    xe, *_ = np.linalg.lstsq(W, ye, rcond=None)
    resid = float(np.abs(W @ xe - ye).max())
    if resid > tol * (1.0 + float(np.abs(ye).max())):
        raise InputError(f"form is not in the image of multiplication by omega_{k} "
                         f"(residual {resid:.3e})")
    return g.from_e_vec(xe, 1, 1)


def ref_lefschetz_decompose(g, u, tol=1e-10):
    n = g.dim
    p, q = u.bidegree()
    if p + q > n:
        raise InputError(f"decomposition not supported above middle degree (k={p + q} > n={n})")
    rmax = min(p, q)
    ue = g.to_e_vec(u, p, q)
    dims = [space_dim(n, p - r, q - r) for r in range(rmax + 1)]
    top = np.hstack([_wedge_power_mat(n, r, p - r, q - r) for r in range(rmax + 1)])
    constraint_rows = []
    offset = 0
    total = sum(dims)
    for r in range(rmax + 1):
        lam = _slot_mat(n, "Lam", p - r, q - r)[0]
        block = np.zeros((lam.shape[0], total), dtype=complex)
        block[:, offset:offset + dims[r]] = lam
        constraint_rows.append(block)
        offset += dims[r]
    system = np.vstack([top] + constraint_rows)
    rhs = np.concatenate([ue, np.zeros(system.shape[0] - len(ue), dtype=complex)])
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    resid = float(np.abs(top @ sol[:total] - ue).max())
    if resid > tol * (1.0 + float(np.abs(ue).max())):
        raise AlgebraError(f"primitive decomposition failed (residual {resid:.3e})")
    offsets = np.cumsum([0] + dims)
    return [(r, g.from_e_vec(sol[offsets[r]:offsets[r + 1]], p - r, q - r))
            for r in range(rmax + 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_frame_tables_match_form_references(n):
    # the mask-built tables hold exactly the signed units of the Form-wedge
    # builders, and the solve of the signed-permutation pairing is exact
    assert _volume_coeff(n) == ref_volume_coeff(n)
    g = HermitianMetric.identity(n)
    for r in range(n + 1):
        assert omega_power(g, r)._terms == ref_std_omega_power(n, r)._terms
    for p in range(n + 1):
        for q in range(n + 1):
            assert np.array_equal(_top_pairing(n, p, q), ref_top_pairing(n, p, q))
            assert np.array_equal(_star_mat(n, p, q), ref_star_mat(n, p, q))
            for r in range(n + 1 - max(p, q)):
                assert np.array_equal(_wedge_power_mat(n, r, p, q),
                                      ref_wedge_power_mat(n, r, p, q))


def _assert_same_forms(got, ref, tol=1e-13):
    assert (got - ref).max_abs() <= tol * max(1.0, ref.max_abs())


@pytest.mark.parametrize("n", range(1, 7))
def test_solve_matrices_match_least_squares_references(n, rng):
    g = random_pd_metric(n, rng)
    for k in range(n - 1):
        y = omega_power(g, k).wedge(random_form(rng, n, 1, 1))
        _assert_same_forms(divide_by_power(g, k, y), ref_divide_by_power(g, k, y))
        if space_dim(n, k + 1, k + 1) > space_dim(n, 1, 1):
            bad = random_form(rng, n, k + 1, k + 1)
            for route in (divide_by_power, ref_divide_by_power):
                with pytest.raises(InputError, match="not in the image"):
                    route(g, k, bad)
    for p in range(n + 1):
        for q in range(n + 1):
            u = random_form(rng, n, p, q)
            if p + q > n:
                for route in (lefschetz_decompose, ref_lefschetz_decompose):
                    with pytest.raises(InputError, match="above middle degree"):
                        route(g, u)
                continue
            parts, ref = lefschetz_decompose(g, u), ref_lefschetz_decompose(g, u)
            assert [r for r, _ in parts] == [r for r, _ in ref]
            for (_, got), (_, want) in zip(parts, ref):
                _assert_same_forms(got, want)


def test_frame_tables_build_no_form(monkeypatch):
    caches = (metric._basis, metric._index, metric._wedge_power_mat, metric._top_pairing,
              metric._star_mat, metric._division_mat, metric._division_solve,
              metric._primitive_part)
    for cache in caches:
        cache.cache_clear()
    built = []
    init = Form.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Form, "__init__", counting_init)
    n = 6
    for p in range(n + 1):
        for q in range(n + 1):
            for name in ("L", "Lam", "star"):
                _slot_mat(n, name, p, q)
            _top_pairing(n, p, q)
            for r in range(n + 1 - max(p, q)):
                _wedge_power_mat(n, r, p, q)
            if p + q <= n:
                for r in range(min(p, q) + 1):
                    metric._primitive_part(n, p, q, r)
    _slot_mat(n, "T", 1, 1)
    _slot_mat(n, "S", n - 1, n - 1)
    for k in range(n - 1):
        metric._division_solve(n, k)
    assert not built


@pytest.mark.parametrize("scale,off,expected", [
    (1.0, 0.0, "diagonal(1, 1, 1)"), (1.0, 1e-16, "diagonal(1, 1, 1)"),
    (1e-12, 5e-16, "hermitian(n=3)"), (1e-12, 1e-28, "diagonal(1e-12, 1e-12, 1e-12)"),
    (1e6, 1e-12, "diagonal(1e+06, 1e+06, 1e+06)"), (1.0, 1e-6, "hermitian(n=3)")])
def test_describe_reads_off_diagonal_entries_relative_to_the_diagonal(scale, off, expected):
    """A metric is "diagonal" when its off-diagonal entries are negligible
    next to its largest diagonal entry, whatever its overall scale."""
    H = scale * np.eye(3)
    H[0, 1] = H[1, 0] = off
    assert HermitianMetric(H).describe() == expected
