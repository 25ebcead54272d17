import pytest
from hypothesis import given, settings, strategies as st

from conftest import approx_equal
from starsplit.errors import DimensionMismatchError, InputError
from starsplit.forms import Form, basis_masks


def phi(n, *holo):
    return Form.monomial(n, holo, ())


def ii(n, j, k):
    """i phi_j ^ phibar_k"""
    return Form.monomial(n, (j,), (k,), 1j)


# ----------------------------------------------------------------------
# wedge
# ----------------------------------------------------------------------
def test_wedge_anticommutes_on_one_forms():
    n = 3
    a = phi(n, 1).wedge(phi(n, 2))
    b = phi(n, 2).wedge(phi(n, 1))
    assert approx_equal(a, -1 * b, 1e-15)


def test_wedge_self_vanishes_for_odd_degree():
    n = 4
    x = phi(n, 1) + 2 * Form.monomial(n, (), (3,)) + Form.monomial(n, (2,), ())
    assert x.wedge(x).is_zero(1e-15)


def test_wedge_reorders_mixed_monomials():
    n = 3
    prod = ii(n, 1, 1).wedge(ii(n, 2, 2))
    # i^2 * phi1 phibar1 phi2 phibar2 = + phi1 phi2 phibar1 phibar2
    assert prod.coefficient((1, 2), (1, 2)) == pytest.approx(1.0)
    assert len(list(prod.terms())) == 1


def test_omega_squared_is_twice_omega2_three_term_sum():
    n = 3
    omega = ii(n, 1, 1) + ii(n, 2, 2) + ii(n, 3, 3)
    expected2 = (ii(n, 1, 1).wedge(ii(n, 2, 2)) + ii(n, 1, 1).wedge(ii(n, 3, 3))
                 + ii(n, 2, 2).wedge(ii(n, 3, 3)))
    assert approx_equal(omega.wedge(omega), 2 * expected2, 1e-14)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        phi(3, 1).wedge(phi(4, 1))


# ----------------------------------------------------------------------
# scaled sums / conjugate / components
# ----------------------------------------------------------------------
def test_linear_combine_cancels():
    # a linear combination is a sum of scaled forms
    a = phi(3, 1).wedge(Form.monomial(3, (), (2,)))
    assert (1 * a + -1 * a).is_zero()


def test_linear_combine_merges():
    x = ii(3, 1, 1)
    assert approx_equal(2 * x + 3 * x, 5 * x, 1e-15)


def test_scaled_sum_assembles_division_form():
    # the displayed (1,1)-form of the standard 3-dim nilmanifold metric,
    # assembled from monomials, equals the computed one
    from starsplit import analysis, catalog
    M, g, _ = catalog.get("iwasawa3")
    assembled = 0.5 * ii(3, 1, 1) + 0.5 * ii(3, 2, 2) - 0.5 * ii(3, 3, 3)
    assert approx_equal(assembled, analysis.rho(M, g), 1e-12)


def test_conjugate_examples():
    n = 3
    assert approx_equal(phi(n, 1).conjugate(), Form.monomial(n, (), (1,)), 1e-15)
    real_mono = ii(n, 1, 1)
    assert approx_equal(real_mono.conjugate(), real_mono, 1e-15)
    mixed = Form.monomial(n, (1, 2), (3,), 2 - 1j)
    assert approx_equal(mixed.conjugate().conjugate(), mixed, 1e-15)


def test_bidegree_component_projects():
    n = 3
    omega = ii(n, 1, 1) + ii(n, 2, 2)
    junk = Form.monomial(n, (1, 2), (3,), 0.7)
    total = omega + junk
    assert approx_equal(total.bidegree_component(1, 1), omega, 1e-15)
    assert approx_equal(total.bidegree_component(2, 1), junk, 1e-15)
    assert total.bidegree_component(0, 0).is_zero()
    with pytest.raises(InputError):
        total.bidegree_component(4, 0)


def test_approx_equal_tolerance():
    n = 3
    a = ii(n, 1, 2)
    assert approx_equal(a, a + 1e-15 * phi(n, 1), 1e-12)
    assert not approx_equal(a, a + 1e-6 * phi(n, 1), 1e-12)
    with pytest.raises(InputError):
        approx_equal(a, a, 0.0)


def test_monomial_normalisation_and_coefficient():
    n = 3
    a = Form.monomial(n, (2, 1), (), 1.0)   # phi2 ^ phi1 = -phi1 ^ phi2
    assert a.coefficient((1, 2), ()) == pytest.approx(-1.0)
    assert a.coefficient((2, 1), ()) == pytest.approx(1.0)
    assert Form.monomial(n, (1, 1), ()).is_zero()


def test_zero_drop_threshold():
    n = 3
    assert Form(n, {(1, 1): 0.0, (2, 2): 0j})._terms == {}
    tiny = Form(n, {(1, 1): 1e-16})
    assert not tiny.is_zero()
    assert tiny.coefficient((1,), (1,)) == 1e-16
    assert Form(n, {(1, 1): 1e-300}).coefficient((1,), (1,)) == 1e-300


# ----------------------------------------------------------------------
# randomized algebra laws
# ----------------------------------------------------------------------
@st.composite
def sparse_form(draw, homogeneous=False):
    n = draw(st.integers(3, 5))
    if homogeneous:
        p = draw(st.integers(0, n))
        q = draw(st.integers(0, n))
        degrees = [(p, q)]
    else:
        degrees = draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=2))
    terms = {}
    coeff_vals = st.sampled_from([1.0, -1.0, 2.0, 1j, -0.5j, 1 + 1j])
    for p, q in degrees:
        basis = basis_masks(n, min(p, n), min(q, n))
        if not basis:
            continue
        picks = draw(st.lists(st.sampled_from(basis), min_size=1,
                              max_size=min(3, len(basis)), unique=True))
        for key in picks:
            terms[key] = draw(coeff_vals)
    return Form(n, terms)


@st.composite
def form_pair(draw, homogeneous=False):
    a = draw(sparse_form(homogeneous=homogeneous))
    b = draw(sparse_form(homogeneous=homogeneous))
    while b.dim != a.dim:
        b = draw(sparse_form(homogeneous=homogeneous))
    return a, b


@settings(max_examples=60, deadline=None)
@given(form_pair(homogeneous=True))
def test_wedge_graded_commutative(pair):
    a, b = pair
    if a.is_zero() or b.is_zero():
        return
    ka = sum(a.bidegree())
    kb = sum(b.bidegree())
    sign = -1 if (ka * kb) % 2 else 1
    assert approx_equal(a.wedge(b), sign * b.wedge(a), 1e-12)


@settings(max_examples=40, deadline=None)
@given(form_pair(), sparse_form())
def test_wedge_associative(pair, c):
    a, b = pair
    if c.dim != a.dim:
        return
    lhs = a.wedge(b).wedge(c)
    rhs = a.wedge(b.wedge(c))
    assert approx_equal(lhs, rhs, 1e-10)


@settings(max_examples=60, deadline=None)
@given(form_pair())
def test_conjugate_distributes_over_wedge(pair):
    a, b = pair
    assert approx_equal(a.wedge(b).conjugate(), a.conjugate().wedge(b.conjugate()), 1e-12)


@settings(max_examples=40, deadline=None)
@given(form_pair())
def test_bidegree_components_of_product(pair):
    a, b = pair
    prod = a.wedge(b)
    n = a.dim
    for p, q in prod.bidegrees():
        expected = Form.zero(n)
        for r, s in a.bidegrees():
            if 0 <= p - r <= n and 0 <= q - s <= n:
                expected = expected + a.bidegree_component(r, s).wedge(
                    b.bidegree_component(p - r, q - s))
        assert approx_equal(prod.bidegree_component(p, q), expected, 1e-12)
