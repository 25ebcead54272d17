from itertools import combinations

import numpy as np
import pytest

from conftest import random_pd_metric
from starsplit.errors import InputError
from starsplit.forms import Form, approx_equal, basis_masks
from starsplit.metric import (HermitianMetric, compound, divide_by_power, form_norm,
                              hodge_star, inner_product, lefschetz_L,
                              lefschetz_decompose, lefschetz_lambda, omega_form,
                              omega_power)
from starsplit.operators import random_form


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
            w = omega_form(g)
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
            w = omega_form(g)
            assert inner_product(g, w, w) == pytest.approx(n, abs=1e-12)
    g = HermitianMetric.identity(3)
    assert inner_product(g, Form.monomial(3, (1,), ()), Form.monomial(3, (2,), ())) == 0


def test_inner_product_rejects_mixed_degree():
    g = HermitianMetric.identity(3)
    w = omega_form(g)
    with pytest.raises(InputError):
        inner_product(g, w + Form.scalar(3, 1.0), w)
    with pytest.raises(InputError):
        inner_product(g, Form.monomial(3, (1,), ()), Form.monomial(3, (), (1,)))


def test_star_anchors(rng):
    for n in (3, 4, 5):
        for g in (HermitianMetric.identity(n), random_pd_metric(n, rng)):
            assert approx_equal(hodge_star(g, Form.scalar(n, 1.0)), omega_power(g, n), 1e-11)
            assert approx_equal(hodge_star(g, omega_form(g)), omega_power(g, n - 1), 1e-11)


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
        hodge_star(g, Form.scalar(3, 1.0) + omega_form(g))


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
        w = omega_form(g)
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
        w = omega_form(g)
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
        lam = lefschetz_lambda(g, omega_form(g))
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
        lhs = omega_form(g).wedge(Gam)
        rhs = hodge_star(g, Gam).wedge(omega_power(g, n - 1))
        assert (lhs - rhs).max_abs() < 1e-10


# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------
def test_divide_omega_power_identity(rng):
    for n in (3, 4, 5):
        g = random_pd_metric(n, rng)
        x = divide_by_power(g, n - 2, omega_power(g, n - 1))
        assert approx_equal(x, omega_form(g) / (n - 1), 1e-10)


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
    assert approx_equal(prim + omega_form(g) * (lam / n), u, 1e-10)


def test_decompose_omega_is_pure_trace():
    g = HermitianMetric.identity(4)
    parts = dict(lefschetz_decompose(g, omega_form(g)))
    assert parts[0].is_zero(1e-12)
    assert approx_equal(omega_form(g).wedge(parts[1]), omega_form(g), 1e-12)


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
