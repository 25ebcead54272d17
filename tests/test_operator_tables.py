"""The per-dimension tables behind ``OperatorTable``: the Hodge star, a
dense slot matrix with one unit entry per row and column; chains, the
dense products of the table's matrices, which hand out either a fresh
array or, for one name, the table's read-only matrix, so that no caller
can change what a later call gets; and each first-order slot (del, dbar,
``del omega ^ .`` and ``dbar omega ^ .``) one scatter of its values,
checked against the congruence and the Leibniz commutator they replace.
Also the per-dimension shortcuts of the suites: the cached entries of
the identities of n alone, which check the division that rho applies;
the adjoints and the torsion against the pairing-route star and the
per-slot wedge and Lambda; the kernel that reads the tables against
``np.add.at`` and, bit for bit, against the bincount kernel it replaced
(``ref_scatter``, over the layout with separate signs); and the
deduplicated tables of a05 to a08, a14 and a15: exactly the distinct
rows, up to a unit, of
their residuals composed slot by slot from per-slot tables (the adjoint
ones renumbered through the star), with the same residuals as the
evaluation slot by slot, a07 and a08 the zero map once theta is written
through the generators, and a05, a06, a14 and a15 exact multiples of the
Stokes map.

The tables read off the monomial masks are checked against the routes
they replace, kept here: the per-slot wedge, derivation and bracket
tables, and the identities of n alone evaluated slot by slot over dense
chains."""

import math
from functools import lru_cache, partial

import numpy as np
import pytest

from conftest import random_form, random_pd_metric
from starsplit import catalog, metric, operators
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.errors import DEFAULT_TOL
from starsplit.forms import space_dim
from starsplit.metric import (_ADJOINT_OF, _SHIFTS, HermitianMetric, _adjoint_base, _basis,
                              _fold, _index, _join, _operator_scatter, _primitive_part,
                              _scatter, _slot_mat, _slot_starts, _star_conjugate, _top_pairing,
                              _units, _volume_coeff, _wedge_power_mat, _wedge_scatter,
                              omega_power)
from starsplit.operators import (IdentityReport, OperatorTable,
                                 verify_commutation_suite, verify_operator_identities)
from test_cli import _N6_MODELS
from test_complex_structure import slot_models, stokes_violating_manifold
from test_operators import stokes_violating


# ----------------------------------------------------------------------
# the per-slot routes that the mask-built tables replace
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def ref_merge_table(n, a, p):
    """Every a-subset mask A (rows) against every p-subset mask B (columns),
    both in basis order: whether they are disjoint, the sign of merging A
    before B, and the position of ``A | B`` among the (a+p)-subsets."""
    A, B = (np.array([m for m, _ in _basis(n, r, 0)], dtype=np.intp).reshape(shape)
            for r, shape in ((a, (-1, 1)), (p, (1, -1))))
    masks = np.arange(1 << n)
    count = sum((masks >> k) & 1 for k in range(n))
    pairs = sum(((B >> k) & 1) * count[A >> (k + 1)] for k in range(n))
    rank = np.zeros(1 << n, dtype=np.intp)
    rank[[m for m, _ in _basis(n, a + p, 0)]] = np.arange(space_dim(n, a + p, 0))
    return (A & B) == 0, 1 - 2 * (pairs & 1), rank[A | B]


def ref_wedge_scatter(n, a, b, p, q):
    """``theta ^ .`` from the (p,q)-slot as ``(rows, cols, terms, signs)``,
    from the merge tables of the holomorphic and antiholomorphic masks."""
    free_i, sign_i, rank_i = ref_merge_table(n, a, p)
    free_j, sign_j, rank_j = ref_merge_table(n, b, q)
    ia, ip, jb, jq = np.nonzero(free_i[:, :, None, None] & free_j[None, None, :, :])
    signs = sign_i[ia, ip] * sign_j[jb, jq] * (1 - 2 * (p * b & 1))
    rows = rank_i[ia, ip] * space_dim(n, 0, q + b) + rank_j[jb, jq]
    return rows, ip * free_j.shape[1] + jq, ia * free_j.shape[0] + jb, signs


def ref_scatter_table(pieces):
    """``(pos, terms, signs)`` from pieces of the same form: repeated
    (position, term) pairs merged, zero sums dropped, ordered by position
    and then term, as int32 and int8."""
    pos, terms, signs = (np.concatenate([piece[m] for piece in pieces] or [np.zeros(0, int)])
                         for m in range(3))
    width = int(terms.max(initial=0)) + 1
    keys, inverse = np.unique(pos.astype(np.int64) * width + terms, return_inverse=True)
    summed = np.bincount(inverse.reshape(-1), signs, len(keys)).astype(np.int64)
    keep = summed != 0
    return ((keys[keep] // width).astype(np.int32), (keys[keep] % width).astype(np.int32),
            summed[keep].astype(np.int8))


def ref_scatter(shape, table, values):
    """The kernel that ``metric._scatter`` replaced, over the unfolded
    layout ``(pos, terms, signs)``: the entry at flat position ``pos[k]``
    collects ``signs[k] * values[terms[k]]``, a bincount of the gathered
    real and of the imaginary parts."""
    pos, terms, signs = table
    flat = np.empty(math.prod(shape), dtype=complex)
    work = np.empty(len(terms))
    for part, dest in ((values.real, flat.real), (values.imag, flat.imag)):
        part.take(terms, out=work, mode="clip")
        work *= signs
        dest[...] = np.bincount(pos, work, len(flat))
    return flat.reshape(shape)


def unfold(table, size):
    """A table ``(pos, terms)`` over ``size`` values v as ``(pos, terms,
    signs)`` over ``[v, 1j v]``: the unit ``i^k`` of term ``k size + j`` is
    term ``j`` or ``size + j`` (k odd), negated for k >= 2."""
    pos, terms = table
    unit, j = np.divmod(terms.astype(np.int64), size)
    return pos, (unit & 1) * size + j, (1 - (unit & 2)).astype(np.int8)


def fold(table, size):
    """A table ``(pos, terms, signs)`` over ``size`` values, units +-1, in
    the package's layout ``(pos, terms)``."""
    pos, terms, signs = table
    return pos.astype(np.int32), _fold(terms, signs, size)


def value_count(n, op):
    """The number of values of X = ``op``'s tables: the generator
    differentials of del or dbar, or theta's coefficients."""
    return space_dim(n, *_SHIFTS[op]) if op[0] == "w" else (math.comb(n, 2) + n * n) * n


def ref_dense(shape, rows, cols, vals):
    """The matrix of these entries, repeated positions summing."""
    mat = np.zeros(shape, dtype=complex)
    np.add.at(mat, (rows, cols), vals)
    return mat


def ref_lambda(n, p, q):
    """Lambda from the (p,q)-slot, from ``ref_lefschetz_nonzeros``."""
    rows, cols, signs = ref_lefschetz_nonzeros(n, "Lam", p, q)
    return ref_dense((space_dim(n, p - 1, q - 1), space_dim(n, p, q)), rows, cols, 1j * signs)


def ref_theta_wedge(n, a, b, p, q, theta):
    """``theta ^ .`` from the (p,q)-slot for theta's coefficients on the
    (a,b)-slot, from ``ref_wedge_scatter``."""
    shape = (space_dim(n, p + a, q + b), space_dim(n, p, q))
    if not all(shape):
        return np.zeros(shape, dtype=complex)
    rows, cols, terms, signs = ref_wedge_scatter(n, a, b, p, q)
    return ref_dense(shape, rows, cols, signs * theta[terms])


def ref_adjoint(table, name, p, q):
    """del* or dbar* from the (p,q)-slot as ``-star D star``, the stars
    those of the pairing route (``ref_star_mat``)."""
    n, d = table.n, _ADJOINT_OF[name]
    shape = (space_dim(n, *table.target(name, p, q)), space_dim(n, p, q))
    if not all(shape):
        return np.zeros(shape, dtype=complex)
    tp, tq = table.target(d, n - q, n - p)
    return -ref_star_mat(n, tp, tq) @ table.mat(d, n - q, n - p) @ ref_star_mat(n, p, q)


def ref_derivation_scatter(n, part, p, q):
    """del or dbar from the (p,q)-slot by the Leibniz rule, each generator
    removed through a merge table and each wedge read off
    ``ref_wedge_scatter``."""
    tp, tq = (p + 1, q) if part == 0 else (p, q + 1)
    ncols = space_dim(n, p, q)
    pieces, offset = [], 0
    for side, (a, b) in enumerate(metric._GENERATOR_SLOTS[part]):
        rp, rq = (p - 1, q) if side == 0 else (p, q - 1)
        if space_dim(n, rp, rq) and space_dim(n, tp, tq):
            free, sign, rank = ref_merge_table(n, 1, (rp, rq)[side])
            k, rest = np.nonzero(free)
            other = np.arange(space_dim(n, (q, p)[side], 0))
            k, rest, other = (np.repeat(k, len(other)), np.repeat(rest, len(other)),
                              np.tile(other, len(k)))
            ksign = sign[k, rest] * (1 - 2 * (p * side & 1))
            if side == 0:
                col = rank[k, rest] * space_dim(n, 0, q) + other
                sub = rest * space_dim(n, 0, q) + other
            else:
                col = other * space_dim(n, 0, q) + rank[k, rest]
                sub = other * space_dim(n, 0, rq) + rest
            rows, cols, terms, signs = ref_wedge_scatter(n, a, b, rp, rq)
            i, j = _join(sub, cols)
            pieces.append((rows[j] * ncols + col[i], offset + terms[j] * n + k[i],
                           ksign[i] * signs[j]))
        offset += space_dim(n, a, b) * n
    return ref_scatter_table(pieces)


def ref_top_pairing(n, p, q):
    """The top pairing of the (p,q)-slot as the table of ``a ^ .`` into the
    top slot, a running over the slot's monomials."""
    _, cols, terms, signs = ref_wedge_scatter(n, p, q, n - p, n - q)
    mat = np.zeros((space_dim(n, p, q), space_dim(n, n - p, n - q)), dtype=complex)
    mat[terms, cols] = signs
    return mat


def ref_star_mat(n, p, q):
    """The star as the transposed pairing of the (q,p)-slot, read at the
    conjugate monomial ``e_J ^ ebar_I`` of each ``e_I ^ ebar_J`` and scaled
    by ``(-1)^(pq) _volume_coeff(n)``."""
    conj = [_index(n, q, p)[(j, i)] for i, j in _basis(n, p, q)]
    return (-1) ** (p * q) * _volume_coeff(n) * ref_top_pairing(n, q, p).T[:, conj]


def ref_lefschetz_nonzeros(n, name, p, q):
    """``(rows, cols, signs)``: the nonzeros ``i * signs`` of L or Lambda,
    read off the dense slot matrix."""
    mat = _slot_mat(n, name, p, q)[0]
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols].imag.astype(np.int8)


def ref_operator_table(n, lef, op, p, q, lookup):
    """X = ``op`` from the (p,q)-slot, or ``-i [F, X]`` with F = ``lef``,
    as a table over the values of X: a commutator joins X's entries (from
    ``lookup``) with the nonzeros of F on either side."""
    (fp, fq), (xp, xq) = _SHIFTS.get(lef, (0, 0)), _SHIFTS[op]
    ncols, tp, tq = space_dim(n, p, q), p + fp + xp, q + fq + xq
    if not (ncols and space_dim(n, tp, tq)):
        return ref_scatter_table([])
    if op in ("del", "dbar") and not lef:
        return ref_derivation_scatter(n, op == "dbar", p, q)

    def entries(p, q):
        if op in ("wdel", "wdbar"):
            return ref_wedge_scatter(n, xp, xq, p, q)
        pos, terms, signs = lookup(n, "", op, p, q)
        return (*np.divmod(pos, space_dim(n, p, q)), terms, signs)

    pieces = []
    if space_dim(n, p + xp, q + xq):
        rows, cols, terms, signs = entries(p, q)
        fr, fc, fv = ref_lefschetz_nonzeros(n, lef, p + xp, q + xq)
        i, j = _join(rows, fc)
        pieces.append((fr[j] * ncols + cols[i], terms[i], signs[i] * fv[j]))
    if space_dim(n, p + fp, q + fq):
        rows, cols, terms, signs = entries(p + fp, q + fq)
        fr, fc, fv = ref_lefschetz_nonzeros(n, lef, p, q)
        i, j = _join(cols, fr)
        pieces.append((rows[i] * ncols + fc[j], terms[i], -signs[i] * fv[j]))
    return ref_scatter_table(pieces)


ref_operator_scatter = lru_cache(maxsize=None)(
    lambda *key: ref_operator_table(*key, ref_operator_scatter))


def dense_pointwise_entries(table):
    """The identities of n alone evaluated slot by slot over the chains of
    ``table`` (a01 to a04 and a11 to a13, from n = 3 on b01 to b04 and b08
    to b12), with their largest residuals."""
    n = table.n
    m, ch, slots = table.mat, table.chain, table.bidegrees
    rep = IdentityReport("", "", math.inf)
    eye = lambda p, q: np.eye(space_dim(n, p, q))
    bracket = lambda a, b, p, q: ch([a, b], p, q) - ch([b, a], p, q)

    rep.check("a01_lambda_l_commutator", "[Lam,L] = (n-k) Id on k-forms", lambda: (
        bracket("Lam", "L", p, q) - (n - p - q) * eye(p, q) for p, q in slots()))
    for r in (2, 3):
        rep.check(f"a02_l_power_lambda_commutator_r{r}",
                  f"[L^{r},Lam] = {r}(k-n+{r - 1}) L^{r - 1} on k-forms", lambda: (
                      ch(["L"] * r + ["Lam"], p, q) - ch(["Lam"] + ["L"] * r, p, q)
                      - r * (p + q - n + r - 1) * ch(["L"] * (r - 1), p, q) for p, q in slots()))
    rep.check("a03_star_intertwines_l_lambda", "star L = Lam star, star Lam = L star", lambda: (
        ch(["star", a], p, q) - ch([b, "star"], p, q)
        for p, q in slots() for a, b in (("L", "Lam"), ("Lam", "L"))))
    rep.check("a04_star_involution", "star star = (-1)^deg Id", lambda: (
        ch(["star", "star"], p, q) - (-1.0 if (p + q) % 2 else 1.0) * eye(p, q)
        for p, q in slots()))

    def primitive_star(p, q):
        k, prim = p + q, _primitive_part(n, p, q, 0)
        sign = (-1) ** ((k * (k + 1)) // 2) * (1j ** (p - q))
        return m("star", p, q) @ prim - sign * _wedge_power_mat(n, n - k, p, q) @ prim

    rep.check("a11_primitive_star_formula",
              "star v = (-1)^(k(k+1)/2) i^(p-q) omega_(n-p-q) ^ v for primitive v",
              lambda: (primitive_star(p, q) for p, q in slots() if p + q <= n))
    rep.check("a12_complementary_star_pairing",
              "alpha ^ beta = star alpha ^ star beta when degrees sum to 2n", lambda: (
                  _top_pairing(n, p, q)
                  - m("star", p, q).T @ _top_pairing(n, n - q, n - p) @ m("star", n - p, n - q)
                  for p, q in slots()))
    w, w_top = m("L", 0, 0)[:, 0], _wedge_power_mat(n, n - 1, 0, 0)[:, 0]
    rep.check("a13_trace_pairing_top",
              "omega ^ Gamma = star(Gamma) ^ omega_(n-1) for real (n-1,n-1) Gamma", lambda: [
                  w @ _top_pairing(n, 1, 1)
                  - w_top @ _top_pairing(n, 1, 1).T @ m("star", n - 1, n - 1)])
    if n < 3:
        return tuple(rep.entries)

    lam = lambda k: m("Lam", k, k)
    wedge = lambda r, k: _wedge_power_mat(n, r, k, k)
    div = np.linalg.inv(wedge(n - 2, 1))
    Lw, star1, star_top = m("L", 0, 0), m("star", 1, 1), m("star", n - 1, n - 1)
    Tm, Sm = m("T", 1, 1), m("S", n - 1, n - 1)
    trace22 = lam(2) - Lw @ lam(1) @ lam(2) / (2 * (n - 1))
    dim4 = (n >= 4, "needs n >= 4")

    rep.check("b01_t_operator_routes", "T = (omega_(n-2)^.)^-1 star = -Id + Lam(.) omega/(n-1)",
              lambda: [Tm - div @ star1])
    rep.check("b02_s_operator_routes",
              "S = star (omega_(n-2)^.)^-1 = -Id + Lam(star .) omega_(n-1)/(n-1)",
              lambda: [Sm - star1 @ div])
    rep.check("b03_s_star_t_intertwine", "S star = star T on (1,1)-forms",
              lambda: [Sm @ star1 - star1 @ Tm])
    rep.check("b04_star_s_division", "star S = T star = (omega_(n-2)^.)^-1",
              lambda: [star_top @ Sm - div, Tm @ star_top - div])
    rep.check("b08_division_trace_22",
              "(omega_(n-2)^.)^-1(G ^ omega_(n-3)) = Lam G - Lam^2(G) omega/(2(n-1)) on (2,2)",
              lambda: [div @ wedge(n - 3, 2) - trace22])
    rep.check("b09_trace_square_ratio", "Lam^2(G)/2 = (G ^ omega_(n-2))/omega_n on (2,2)",
              lambda: [wedge(n - 2, 2) / _volume_coeff(n) - 0.5 * lam(1) @ lam(2)])
    rep.check("b10_star_wedge_22", "star(G ^ omega_(n-3)) = -Lam G + Lam^2(G) omega/2 on (2,2)",
              lambda: [star_top @ wedge(n - 3, 2) + lam(2) - 0.5 * Lw @ lam(1) @ lam(2)])
    lam3 = lambda: lam(1) @ lam(2) @ lam(3)
    rep.check("b11_star_wedge_33",
              "star(O ^ omega_(n-4)) = -Lam^2 O/2 + Lam^3(O) omega/6 on (3,3)",
              lambda: [star_top @ wedge(n - 4, 3) + 0.5 * lam(2) @ lam(3) - Lw @ lam3() / 6.0],
              dim4, skip_anchor="star(O ^ omega_(n-4)) = ... on (3,3)")
    rep.check("b12_division_trace_33",
              "(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = Lam^2(O)/2 - Lam^3(O) omega/(3(n-1))",
              lambda: [div @ wedge(n - 4, 3) - 0.5 * lam(2) @ lam(3)
                       + Lw @ lam3() / (3 * (n - 1))],
              dim4, skip_anchor="(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = ...")
    return tuple(rep.entries)


def _bracket_table(n, lef, op, p, q):
    """The per-slot table of X, or of ``-i [F, X]`` for F = ``lef``, from
    the (p,q)-slot over the values of X, or, for an adjoint X = ``-star D
    star``, over those of D: the table of D or of ``-i [F', D]`` (``star L
    = Lam star``) on the star of the slot, renumbered through
    ``metric._star_conjugate``."""
    if op not in _ADJOINT_OF:
        return ref_operator_scatter(n, lef, op, p, q)
    (fp, fq), (xp, xq) = _SHIFTS.get(lef, (0, 0)), OperatorTable._SHIFTS[op]
    tp, tq, ncols = p + fp + xp, q + fq + xq, space_dim(n, p, q)
    if not (ncols and space_dim(n, tp, tq)):
        return ref_scatter_table([])
    pos, terms, signs = ref_operator_scatter(n, *_adjoint_base(lef, op), n - q, n - p)
    start = _slot_starts(n)[1]
    row, col = np.divmod(pos, ncols)
    row, col, sign = _star_conjugate(n, start[n - tq, n - tp] + row, start[n - q, n - p] + col)
    return ref_scatter_table([((row - start[tp, tq]) * ncols + col - start[p, q], terms,
                               signs * sign)])


def _scaled_bracket(table, a, b, p, q, factor):
    """``factor [a, b]`` from the (p,q)-slot, one scatter whose values the
    factor scales."""
    # factor [a, b] is scale (-i [F, X]) with F the one of a and b that is L or Lam
    lef, op, scale = (a, b, factor * 1j) if a in ("L", "Lam") else (b, a, factor * -1j)
    shape = (space_dim(table.n, *table.target(op, *table.target(lef, p, q))),
             space_dim(table.n, p, q))
    return ref_scatter(shape, _bracket_table(table.n, lef, op, p, q),
                       scale * table._values(_ADJOINT_OF.get(op, op)))


def per_slot_torsion_residuals(table):
    """a05 to a08, a14 and a15 evaluated slot by slot, as dense slot
    matrices: for each identity, the ``lhs - rhs`` matrix of every slot.
    The adjoints are the table's chains; the torsion and the brackets are
    scattered from per-slot tables."""
    m, slots = table.mat, table.bidegrees()
    br = partial(_scaled_bracket, table)
    plus = lambda d, p, q: m(d, p, q) + br("Lam", "w" + d, p, q, 1)
    return {
        "a05_adjoint_of_del_plus_torsion": [
            plus("del", p - 1, q).conj().T - br("Lam", "dbar", p, q, 1j) for p, q in slots],
        "a06_adjoint_of_delbar_plus_torsion": [
            plus("dbar", p, q - 1).conj().T - br("Lam", "del", p, q, -1j) for p, q in slots],
        "a07_del_plus_torsion_bracket": [
            plus("del", p, q) - br("dbarstar", "L", p, q, -1j) for p, q in slots],
        "a08_delbar_plus_torsion_bracket": [
            plus("dbar", p, q) - br("delstar", "L", p, q, 1j) for p, q in slots],
        "a14_global_adjointness_del": [
            m("del", p, q).conj().T - m("delstar", p + 1, q) for p, q in slots],
        "a15_global_adjointness_delbar": [
            m("dbar", p, q).conj().T - m("dbarstar", p, q + 1) for p, q in slots],
    }


def torsion_residuals(table):
    """Per identity, the residual of each row of its ``_torsion_tables``
    table on the values of ``table``."""
    values = _units(operators._torsion_values(table))
    return {identity: _scatter((count, ), residual, values)
            for identity, (count, residual) in operators._torsion_tables(table.n).items()}


def assert_torsion_residuals_equal_the_per_slot_ones(table, fresh):
    """The residuals of the tables on ``fresh`` against the per-slot
    evaluation on ``table``, both over the same manifold, metric and
    generators, to 1e-14 times the larger of 1 and the largest modulus:
    the reported residual (the largest modulus), and the distinct moduli
    above that bound, each of the per-slot entries near one of the table
    rows and the other way round.  Each row sums its terms in one pass where the per-slot
    route sums per operator, so they agree to rounding, not bit for bit."""
    ref, got = per_slot_torsion_residuals(table), torsion_residuals(fresh)
    assert set(got) == set(ref)
    for identity, mats in ref.items():
        dense = np.abs(np.concatenate([r.ravel() for r in mats]))
        rows = np.abs(got[identity])
        bound = 1e-14 * max(1.0, dense.max(initial=0.0))
        assert abs(rows.max(initial=0.0) - dense.max(initial=0.0)) <= bound, identity
        dense, rows = dense[dense > bound], rows[rows > bound]
        for a, b in ((dense, rows), (rows, dense)):
            if len(a):
                b = np.sort(b)
                at = np.searchsorted(b, a)
                gap = np.minimum(np.abs(a - b[np.maximum(at - 1, 0)]),
                                 np.abs(a - b[np.minimum(at, len(b) - 1)]))
                assert gap.max() <= bound, identity


def torsion_half(n):
    """The length of x in ``_torsion_values``: the values of del and dbar
    and the two columns theta."""
    return 2 * (math.comb(n, 2) + n * n) * n + 2 * math.comb(n, 2) * n


def per_slot_torsion_rows(n, identity):
    """The residual of an identity composed slot by slot from the per-slot
    tables of its operators (``_bracket_table``), as ``(pos, terms,
    signs)`` over the values of ``_torsion_values``: positions numbered slot
    after slot, a term of an operator's entry ``sign i^k x[j]``, conjugated
    and transposed for the summands of an adjoint identity, negated for
    the right-hand side."""
    _, summands, adjoint, rhs = operators._TORSION_IDENTITIES[identity]
    half = torsion_half(n)
    sizes = [(math.comb(n, 2) + n * n) * n] * 2 + [math.comb(n, 2) * n] * 2
    offset = dict(zip(("del", "dbar", "wdel", "wdbar"), np.cumsum([0] + sizes)))
    out, base = [], 0
    for p in range(n + 1):
        for q in range(n + 1):
            lef, op, _ = operators._TORSION_OPERATORS[rhs]
            (fp, fq), (xp, xq) = _SHIFTS.get(lef, (0, 0)), OperatorTable._SHIFTS[op]
            tp, tq = p + fp + xp, q + fq + xq
            ncols = space_dim(n, p, q)
            if not (0 <= tp <= n and 0 <= tq <= n and ncols and space_dim(n, tp, tq)):
                continue
            for name in summands + (rhs,):
                flip = adjoint and name != rhs
                lef, op, scale = operators._TORSION_OPERATORS[name]
                pos, terms, signs = _bracket_table(n, lef, op, *((tp, tq) if flip else (p, q)))
                row, col = np.divmod(pos, space_dim(n, tp, tq) if flip else ncols)
                turns = {1: 0, 1j: 1, -1: 2, -1j: 3}[scale]
                turns = (-turns if flip else turns) + 2 * (name == rhs)
                out.append((base + (col * ncols + row if flip else row * ncols + col),
                            terms + offset[_ADJOINT_OF.get(op, op)] + half * flip
                            + 2 * half * (turns & 1), signs * (1 - (turns & 2))))
            base += space_dim(n, tp, tq) * ncols
    return tuple(np.concatenate([part[k] for part in out] or [np.zeros(0, int)]) for k in range(3))


def canonical_rows(pos, terms, signs, half):
    """Each row of a table over the values ``[x, 1j x]`` (x of length 2
    ``half``) as its Gaussian-integer coefficients of x, repeated terms
    summed, turned by the unit that brings its first coefficient to re >
    0, im >= 0: one line of packed ``(j, re, im)`` per nonzero row, in the
    order of the positions, padded with -1."""
    part, j = np.divmod(terms.astype(np.int64), 2 * half)
    keys, inverse = np.unique(pos.astype(np.int64) * 2 * half + j, return_inverse=True)
    coeff = (np.bincount(inverse, signs * (part == 0), len(keys))
             + 1j * np.bincount(inverse, signs * (part == 1), len(keys)))
    keys, coeff = keys[coeff != 0], coeff[coeff != 0]
    row, j = np.divmod(keys, 2 * half)
    first = np.flatnonzero(np.diff(row, prepend=-1))
    counts = np.diff(np.append(first, len(row)))
    lead = coeff[first]
    turn = np.select([(lead.real > 0) & (lead.imag >= 0), (lead.real <= 0) & (lead.imag > 0),
                      (lead.real < 0) & (lead.imag <= 0)], [1, -1j, -1], 1j)
    coeff = coeff * np.repeat(turn, counts)
    re, im = coeff.real.astype(np.int64), coeff.imag.astype(np.int64)
    assert np.abs(re).max(initial=0) <= 2 and np.abs(im).max(initial=0) <= 2
    out = np.full((len(first), counts.max(initial=0)), -1, dtype=np.int64)
    out[np.repeat(np.arange(len(first)), counts), np.arange(len(row)) - np.repeat(first, counts)] \
        = (j * 5 + re + 2) * 5 + im + 2
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_star_perm_reproduces_star_matrix(n):
    """The top pairing and the star, both read off the one sign formula of
    ``metric._top_all``, equal the pairing route of the merge-table wedge
    tables, and the star's slot matrix is a signed permutation: one entry
    +-1 or +-i in each row and column."""
    for p in range(n + 1):
        for q in range(n + 1):
            assert np.array_equal(_top_pairing(n, p, q), ref_top_pairing(n, p, q)), (p, q)
            star = _slot_mat(n, "star", p, q)[0]
            rows, cols = np.nonzero(star)
            assert sorted(rows) == sorted(cols) == list(range(len(star)))
            assert set(star[rows, cols].tolist()) <= {1, -1, 1j, -1j}
            assert np.array_equal(star, ref_star_mat(n, p, q)), (p, q)


@pytest.mark.parametrize("names,p,q", [
    (["Lam", "L"], 2, 1), (["L", "L", "Lam"], 1, 1), (["star", "star"], 2, 3),
    (["star", "del", "star"], 2, 2)])
def test_chain_returns_an_array_the_caller_owns(rng, names, p, q):
    M = catalog.get("iwasawa5")[0]
    g = random_pd_metric(5, rng)
    first = OperatorTable(M, g).chain(names, p, q)
    expected = first.copy()
    first += 1.0
    assert np.array_equal(OperatorTable(M, g).chain(names, p, q), expected)


def test_per_dimension_slot_matrices_are_shared_and_read_only():
    for name, p, q in (("L", 1, 2), ("Lam", 2, 3), ("star", 1, 1), ("Lam", 0, 0)):
        mat = _slot_mat(5, name, p, q)[0]
        assert mat is _slot_mat(5, name, p, q)[0]
        assert not mat.flags.writeable


@pytest.mark.parametrize("name", ["del", "delstar", "tau", "L", "star"])
def test_table_matrices_are_read_only(rng, name):
    """A caller cannot change what the table hands out to later callers: a
    chain of one name is the table's read-only matrix."""
    M = catalog.get("iwasawa3")[0]
    table = OperatorTable(M, random_pd_metric(3, rng))
    mat = table.chain([name], 1, 1)
    assert mat is table.mat(name, 1, 1)
    with pytest.raises(ValueError):
        mat += 1.0


def _models_of_dimension(n):
    """A model of each dimension with structure where the catalog has one."""
    named = {3: "iwasawa3", 4: "torus_4", 5: "iwasawa5"}
    if n in named:
        return catalog.get(named[n])[0]
    return InvariantComplexManifold(f"torus_{n}", n, {})


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_entries_equal_a_fresh_dense_evaluation(rng, n):
    """The cached entries of the identities of n alone, sums of products on
    all slots at once, report what a per-slot evaluation over dense chains
    on another manifold and metric reports: the same ids, anchors, pass
    states and skip reasons, and no residual above the dense one by more
    than 1e-14 (those of L, Lambda and star alone are exact)."""
    operators._dimension_entries.cache_clear()
    cached = operators._dimension_entries(n)
    fresh = dense_pointwise_entries(OperatorTable(_models_of_dimension(n),
                                                  random_pd_metric(n, rng)))
    assert ([(e.identity, e.anchor, e.passed, e.skipped_reason) for e in cached]
            == [(e.identity, e.anchor, e.passed, e.skipped_reason) for e in fresh])
    for got, ref in zip(cached, fresh):
        assert (got.residual is None) == (ref.residual is None), got.identity
        assert got.residual is None or got.residual <= ref.residual + 1e-14, (got, ref)
    exact = {"a01", "a02", "a03", "a04", "a12", "a13", "b03", "b09", "b10"}
    assert all(e.residual == 0.0 for e in cached if e.identity[:3] in exact)
    expected = {"a01", "a02", "a03", "a04", "a11", "a12", "a13"}
    if n >= 3:
        expected |= {"b01", "b02", "b03", "b04", "b08", "b09", "b10", "b11", "b12"}
    assert {e.identity[:3] for e in cached} == expected
    assert all(e.residual < 1e-12 for e in cached if e.skipped_reason is None)
    skipped = [e.identity[:3] for e in cached if e.skipped_reason]
    assert skipped == (["b11", "b12"] if n == 3 else [])
    assert operators._dimension_entries(n) is cached


def test_dimension_entries_check_the_division_that_rho_applies():
    """b01, b02, b04, b08 and b12 read the division by omega_{n-2} that
    rho applies (``metric._division_solve``, through ``metric._divide_e``):
    perturbed, it moves the division of rho and fails each of them."""
    n, caches = 4, (metric._division_solve, operators._dimension_entries)
    ye = np.arange(space_dim(n, n - 1, n - 1)) + 1j
    exact = metric._divide_e(n, n - 2, ye, DEFAULT_TOL)
    for cache in caches:
        cache.cache_clear()
    try:
        div = metric._division_solve(n, n - 2)
        div.setflags(write=True)
        div += 1e-6
        moved = metric._divide_e(n, n - 2, ye, math.inf) - exact
        rep = IdentityReport("", "", DEFAULT_TOL)
        rep.reuse(operators._dimension_entries(n))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert np.abs(moved).max() > 1e-6
    assert {e.identity[:3] for e in rep.failures()} == {"b01", "b02", "b04", "b08", "b12"}
    assert not {e.identity[:3] for e in operators._dimension_entries(n)
                if e.residual is not None and e.residual >= DEFAULT_TOL}


@pytest.mark.parametrize("dense_metric", [False, True])
def test_theta_wedge_equals_the_commutator_with_l(rng, dense_metric):
    """del omega ^ . and dbar omega ^ . as scattered wedges agree with the
    Leibniz commutators [del, L] and [dbar, L] on every slot."""
    for M in slot_models() + [stokes_violating_manifold()]:
        n = M.dim
        g = random_pd_metric(n, rng) if dense_metric else HermitianMetric.identity(n)
        table = OperatorTable(M, g)
        for d in ("del", "dbar"):
            for p, q in table.bidegrees():
                ref = table.chain([d, "L"], p, q) - table.chain(["L", d], p, q)
                got = table.mat("w" + d, p, q)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max(initial=0.0) < 1e-13, (M.name, d, p, q)


def test_theta_wedge_equals_form_wedge(rng):
    for M in (catalog.get("iwasawa5")[0], stokes_violating_manifold()):
        n = M.dim
        g = random_pd_metric(n, rng)
        table, w = OperatorTable(M, g), omega_power(g, 1)
        for name, theta in (("wdel", M.del_(w)), ("wdbar", M.delbar(w))):
            for p, q in ((0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1)):
                u = random_form(rng, n, p, q)
                diff = table.apply(name, u) - theta.wedge(u)
                assert diff.max_abs() < 1e-12 * max(1.0, theta.max_abs()), (M.name, name, p, q)


# ----------------------------------------------------------------------
# del, dbar, tau and taubar scattered from per-dimension tables
# ----------------------------------------------------------------------
def _reference_models():
    """The slot models, the Stokes-violating one and a 6-dimensional one,
    each with the metrics to run it on (the n = 6 model on one only)."""
    n6 = InvariantComplexManifold.from_json_dict(
        {"name": "iwasawa3_x_iwasawa3", "dim": 6,
         "structure": _N6_MODELS["iwasawa3_x_iwasawa3"]})
    for M in slot_models() + [stokes_violating_manifold()]:
        yield M, (False, True)
    yield n6, (True,)


def _old_construction(table, name, p, q):
    """del/dbar as the manifold's phi-basis matrix moved into the frame by
    congruence, tau/taubar as the commutator of Lambda with the wedge by
    theta = ``del omega`` (``dbar omega``) of the ``Form`` route, both of
    the per-slot routes (``ref_lambda``, ``ref_theta_wedge``)."""
    M, g, n = table.M, table.g, table.n
    if name in ("del", "dbar"):
        tp, tq = table.target(name, p, q)
        phi_mat = M.d_matrices(p, q)[("del", "dbar").index(name)]
        if not phi_mat.size:
            return phi_mat
        return g.to_e_matrix(tp, tq) @ phi_mat @ g.from_e_matrix(p, q)
    a, b = _SHIFTS["wdel" if name == "tau" else "wdbar"]
    theta = g.to_e_vec((M.del_ if name == "tau" else M.delbar)(omega_power(g, 1)), a, b)
    mat = ref_lambda(n, p + a, q + b) @ ref_theta_wedge(n, a, b, p, q, theta)
    if min(p, q) > 0:
        mat = mat - ref_theta_wedge(n, a, b, p - 1, q - 1, theta) @ ref_lambda(n, p, q)
    return mat


def test_first_order_slot_matrices_equal_the_old_construction(rng):
    for M, dense_metrics in _reference_models():
        n = M.dim
        for dense_metric in dense_metrics:
            g = random_pd_metric(n, rng) if dense_metric else HermitianMetric.identity(n)
            table = OperatorTable(M, g)
            for name in ("del", "dbar", "tau", "taubar"):
                for p, q in table.bidegrees():
                    ref, got = _old_construction(table, name, p, q), table.mat(name, p, q)
                    assert got.shape == ref.shape, (M.name, name, p, q)
                    bound = 1e-13 * max(1.0, np.abs(ref).max(initial=0.0))
                    assert np.abs(got - ref).max(initial=0.0) <= bound, (M.name, name, p, q)


def test_derivation_table_reproduces_the_phi_basis_d_matrices():
    """Fed with the generator differentials in the phi coframe, the
    derivation table is the Leibniz rule: every slot matrix of
    ``d_matrices``."""
    for M, _ in _reference_models():
        n = M.dim
        for part in (0, 1):
            gens = np.concatenate([M.d_matrices(p, q)[part].ravel()
                                   for p, q in ((1, 0), (0, 1))])
            for p in range(n + 1):
                for q in range(n + 1):
                    ref = M.d_matrices(p, q)[part]
                    got = _scatter(ref.shape, _operator_scatter(n, part, p, q), _units(gens))
                    bound = 1e-13 * max(1.0, np.abs(ref).max(initial=0.0))
                    assert np.abs(got - ref).max(initial=0.0) <= bound, (M.name, part, p, q)


def test_first_order_tables_stay_small():
    """The per-slot tables that a table's del, dbar and theta wedges read,
    over every slot of dimension 5, hold at most 0.58 MiB (0.53 MiB in
    the two-array layout)."""
    held = sum(arr.nbytes
               for p in range(6) for q in range(6) for part in (0, 1)
               for table in (_operator_scatter(5, part, p, q),
                             _wedge_scatter(5, *_SHIFTS[("wdel", "wdbar")[part]], p, q))
               for arr in table)
    assert held <= 0.58 * 2 ** 20, held


def _scatter_tables(n, brackets=True):
    """``(shape, table, size)`` of every ``_operator_scatter`` table of
    dimension n, of every per-slot bracket table of the reference route
    (folded; unless not ``brackets``), of the theta wedge tables and of
    every table of ``_torsion_tables`` (a column of its rows), with the
    number of values each reads."""
    for p in range(n + 1):
        for q in range(n + 1):
            ncols = space_dim(n, p, q)
            for part, op in enumerate(("del", "dbar")):
                tp, tq = (p + 1, q) if part == 0 else (p, q + 1)
                yield ((space_dim(n, tp, tq), ncols), _operator_scatter(n, part, p, q),
                       value_count(n, op))
            for lef in ("L", "Lam") if brackets else ():
                for op in ("del", "dbar", "wdel", "wdbar"):
                    fp, fq = _SHIFTS[lef]
                    tp, tq = p + fp + _SHIFTS[op][0], q + fq + _SHIFTS[op][1]
                    yield ((space_dim(n, tp, tq), ncols),
                           fold(ref_operator_scatter(n, lef, op, p, q), value_count(n, op)),
                           value_count(n, op))
            for op in ("wdel", "wdbar"):
                a, b = _SHIFTS[op]
                yield ((space_dim(n, p + a, q + b), ncols), _wedge_scatter(n, a, b, p, q),
                       value_count(n, op))
    for count, table in operators._torsion_tables(n).values():
        yield (count, 1), table, 2 * torsion_half(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_scatter_equals_add_at_bit_for_bit(rng, n):
    """``_scatter`` on every table of dimension n equals the plain
    ``np.add.at`` accumulation of ``(1, i, -1, -i)[k // V] * v[k % V]``
    bit for bit, for values given as a contiguous array and as a strided
    column view (as theta reaches the torsion brackets)."""
    tables = list(_scatter_tables(n))
    assert sum(len(table[0]) for _, table, _ in tables)
    units = np.array([1, 1j, -1, -1j])
    for shape, (pos, terms), size in tables:
        assert terms.max(initial=-1) < 4 * size
        block = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
        for values in (np.ascontiguousarray(block[:, 0]), block[:, 1]):
            ref = np.zeros(shape[0] * shape[1], dtype=complex)
            np.add.at(ref, pos, units[terms // size] * values[terms % size])
            got = _scatter(shape, (pos, terms), _units(values))
            assert got.shape == shape
            assert np.array_equal(got.ravel(), ref), (n, shape)


@pytest.mark.parametrize("n", range(1, 7))
def test_scatter_equals_the_bincount_kernel_bit_for_bit(rng, n):
    """Every slot del and dbar table, every theta wedge table and the six
    torsion tables of dimension n give the same arrays, bit for bit,
    through ``_scatter`` over ``_units(v)`` as through the real and
    imaginary bincounts of ``ref_scatter`` over the unfolded layout and
    ``[v, 1j v]``: folding the units into the terms changes no sum."""
    for shape, table, size in _scatter_tables(n, brackets=False):
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = _scatter(shape, table, _units(values))
        ref = ref_scatter(shape, unfold(table, size), np.concatenate([values, 1j * values]))
        assert got.tobytes() == ref.tobytes(), (n, shape)


# ----------------------------------------------------------------------
# the adjoints and the torsion as chains, the brackets as scatters
# ----------------------------------------------------------------------
def _dense_first_order(table, name, p, q):
    """A first-order operator as a dense matrix: an adjoint as the dense
    product ``-star D star`` with the stars of the pairing route
    (``ref_adjoint``), any other name as the table's matrix."""
    if name in ("delstar", "dbarstar"):
        return ref_adjoint(table, name, p, q)
    return table.mat(name, p, q)


def _random_generator_tables(n, rng):
    """An ``OperatorTable`` of dimension n reading random complex generator
    differentials and theta columns, so that every entry of every table is
    exercised (the tables do not need d^2 = 0, nor theta = del omega, with
    which a07 and a08 vanish)."""
    M, g = InvariantComplexManifold(f"torus_{n}", n, {}), HermitianMetric.identity(n)
    table = OperatorTable(M, g)
    for name in ("del", "dbar", "wdel", "wdbar"):
        size = (table._values(name).size if name[0] == "d"
                else space_dim(n, *table.target(name, 0, 0)))
        table._gens[name] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return table


def _relative_gap(got, ref):
    assert got.shape == ref.shape
    return np.abs(got - ref).max(initial=0.0) / max(np.abs(ref).max(initial=0.0), 1e-300)


@pytest.mark.parametrize("n", range(1, 7))
def test_scattered_adjoints_and_brackets_equal_the_dense_products(rng, n):
    """On every slot, to 1e-15 relative: the table's del* and dbar* equal
    ``-star D star`` with the stars of the pairing route, tau and taubar
    the commutator ``[Lam, theta ^ .]`` joined from the per-slot wedge
    tables and the nonzeros of Lambda (``_scaled_bracket``), and the
    scattered [Lam, del], [Lam, dbar], [dbar*, L], [del*, L], [Lam, wdel]
    and [Lam, wdbar] that the per-slot evaluation of a05 to a08 reads
    equal the dense products of their operators."""
    table = _random_generator_tables(n, rng)
    for p, q in table.bidegrees():
        for name in ("delstar", "dbarstar"):
            ref = _dense_first_order(table, name, p, q)
            assert _relative_gap(table.mat(name, p, q), ref) <= 1e-15, (name, p, q)
        for name, wedge in (("tau", "wdel"), ("taubar", "wdbar")):
            ref = _scaled_bracket(table, "Lam", wedge, p, q, 1)
            assert _relative_gap(table.mat(name, p, q), ref) <= 1e-15, (name, p, q)
        for lef, op in (("Lam", "del"), ("Lam", "dbar"), ("L", "dbarstar"), ("L", "delstar"),
                        ("Lam", "wdel"), ("Lam", "wdbar")):
            tp, tq = table.target(op, p, q)
            fp, fq = table.target(lef, p, q)
            ref = (table.mat(lef, tp, tq) @ _dense_first_order(table, op, p, q)
                   - _dense_first_order(table, op, fp, fq) @ table.mat(lef, p, q))
            got = _scaled_bracket(table, lef, op, p, q, 1)
            assert _relative_gap(got, ref) <= 1e-15, (lef, op, p, q)
            assert np.array_equal(_scaled_bracket(table, op, lef, p, q, 1), -got)


def test_a_warm_commutation_suite_chains_only_for_a09_and_a10(monkeypatch, rng):
    """A warm suite reads a05 to a08, a14 and a15 from its all-slot tables;
    its only chains are taubar on the (1,0)-slot (a09) and dbar* on the
    (1,1)-slot (a09, a10)."""
    M = catalog.get("iwasawa5")[0]
    verify_commutation_suite(M, random_pd_metric(5, rng))
    calls = []
    chain = OperatorTable.chain
    monkeypatch.setattr(OperatorTable, "chain", lambda self, names, p, q: (
        calls.append((tuple(names), p, q)) or chain(self, names, p, q)))
    rep = verify_commutation_suite(M, random_pd_metric(5, rng))
    assert rep.all_passed
    assert sorted(calls) == [(("Lam", "wdbar"), 1, 0), (("star", "del", "star"), 1, 1),
                             (("wdbar", "Lam"), 1, 0)]


def test_both_suites_keep_only_del_and_dbar_slot_tables(monkeypatch, rng):
    """The per-slot adjoints and torsion are chains, so after both suites
    ``_operator_scatter`` holds exactly the del (part 0) and dbar (part 1)
    tables of the slots whose matrices the suites read, and nothing else."""
    _operator_scatter.cache_clear()
    read = set()
    mat = OperatorTable.mat

    def recording(self, name, p, q):
        out = mat(self, name, p, q)
        if name in ("del", "dbar") and out.size:
            read.add((self.n, ("del", "dbar").index(name), p, q))
        return out

    monkeypatch.setattr(OperatorTable, "mat", recording)
    M = catalog.get("iwasawa5")[0]
    g = random_pd_metric(5, rng)
    verify_commutation_suite(M, g)
    verify_operator_identities(M, g, random_pd_metric(5, rng))
    info = _operator_scatter.cache_info()
    assert read and info.currsize == len(read)
    for key in read:   # every one a hit: these are the keys the cache holds
        _operator_scatter(*key)
    assert _operator_scatter.cache_info().hits == info.hits + len(read)


@pytest.mark.parametrize("n", range(1, 7))
def test_slot_tables_equal_the_merge_table_route(n):
    """Per slot, the derivation tables read off the monomial masks equal
    those of the merge-table route byte for byte, and the wedge tables hold
    the same entries."""
    for p in range(n + 1):
        for q in range(n + 1):
            for part, op in enumerate(("del", "dbar")):
                ref = fold(ref_derivation_scatter(n, part, p, q), value_count(n, op))
                for a, b in zip(_operator_scatter(n, part, p, q), ref):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (part, p, q)
            for a, b in ((2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2), (n - p, n - q)):
                rows, cols, terms, signs = ref_wedge_scatter(n, a, b, p, q)
                ref = sorted(zip((rows * space_dim(n, p, q) + cols).tolist(),
                                 _fold(terms, signs, space_dim(n, a, b)).tolist()))
                table = _wedge_scatter(n, a, b, p, q)
                assert [arr.dtype for arr in table] == [np.int32, np.int32]
                assert sorted(zip(*(arr.tolist() for arr in table))) == ref, (a, b, p, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_torsion_layout_equals_the_per_slot_route(n):
    """The tables hold one row per distinct entry, up to a unit, of each
    identity's residual composed slot by slot from the per-slot tables:
    their rows, turned to a canonical unit, are exactly the distinct rows of
    that composition, each once.  This certifies the hash of the build for
    every n the suites run."""
    operators._torsion_tables.cache_clear()
    half = torsion_half(n)
    for identity, (count, table) in operators._torsion_tables(n).items():
        got = canonical_rows(*unfold(table, 2 * half), half)
        ref = np.unique(canonical_rows(*per_slot_torsion_rows(n, identity), half), axis=0)
        assert len(got) == count == len(ref), identity
        width = max(got.shape[1], ref.shape[1])
        got, ref = (np.pad(a, ((0, 0), (0, width - a.shape[1])), constant_values=-1)
                    for a in (got, ref))
        assert np.array_equal(np.unique(got, axis=0), ref), identity


@pytest.mark.parametrize("n", range(1, 7))
def test_torsion_layout_indices_stay_in_bounds(n):
    """``_scatter`` gathers with ``mode="clip"``, which would turn an index
    out of range into a wrong value: each table is two read-only int32
    arrays ``(pos, terms)``, every position lies in its rows, each row
    holds a term, and every term lies in the ``4 V`` units of the V values
    x (``_units``)."""
    size = 4 * 2 * torsion_half(n)
    for identity, (count, table) in operators._torsion_tables(n).items():
        pos, terms = table
        assert np.array_equal(np.unique(pos), np.arange(count)), identity
        assert 0 <= terms.min(initial=0) and terms.max(initial=-1) < size, identity
        assert [arr.dtype for arr in table] == [np.int32, np.int32]
        assert not (pos.flags.writeable or terms.flags.writeable)


def composed_with_theta(sparse, n, identity):
    """The table of an identity as a map of the generator values, exact:
    theta = del omega and dbar omega written through them (theta = Theta
    v, Theta the (1,1)-slot table of del or dbar on omega's frame column),
    as a ``scipy.sparse`` matrix over ``(v_del, v_dbar)`` and their
    conjugates.  Every entry is a Gaussian integer, so the products are
    exact."""
    half, gens = torsion_half(n), (math.comb(n, 2) + n * n) * n
    w = _slot_mat(n, "L", 0, 0)[0][:, 0]
    blocks = [[None] * 4 for _ in range(8)]   # x and its conjugate from v, dbar v and theirs
    for part in (0, 1):
        pos, terms, signs = unfold(_operator_scatter(n, part, 1, 1), gens)
        rows, cols = np.divmod(pos, n * n)
        theta = sparse.coo_matrix((signs * w[cols], (rows, terms)),
                                  shape=(n * math.comb(n, 2), gens))
        for conj in (0, 1):
            blocks[4 * conj + part][2 * conj + part] = sparse.identity(gens, format="coo")
            blocks[4 * conj + 2 + part][2 * conj + part] = theta.conj() if conj else theta
    substitution = sparse.bmat(blocks, format="csr")
    assert substitution.shape == (2 * half, 4 * gens)
    count, table = operators._torsion_tables(n)[identity]
    pos, terms, signs = unfold(table, 2 * half)
    part, j = np.divmod(terms, 2 * half)
    table = sparse.coo_matrix((signs * 1j ** part, (pos, j)), shape=(count, 2 * half))
    composed = (table.tocsr() @ substitution).tocsr()
    composed.eliminate_zeros()
    return composed


@pytest.mark.parametrize("n", range(2, 7))
def test_a07_and_a08_are_identities_of_the_tables(n):
    """a07 and a08 hold for every generator differentials: each table,
    composed with theta written through the generators, is the zero map."""
    sparse = pytest.importorskip("scipy.sparse")
    for identity in ("a07_del_plus_torsion_bracket", "a08_delbar_plus_torsion_bracket"):
        composed = composed_with_theta(sparse, n, identity)
        assert composed.shape[0] and composed.nnz == 0, identity


def gaussian_integer_model(n, rng):
    """A model of dimension n with every structure constant a seeded
    Gaussian integer, d^2 = 0 or not."""
    c = lambda: "%d+%di" % tuple(rng.integers(-3, 4, 2))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return InvariantComplexManifold(f"gaussian_{n}", n, {k: {
        "(2,0)": [(i, j, c()) for i, j in pairs if i < j], "(1,1)": [(i, j, c()) for i, j in pairs]}
        for k in range(1, n + 1)})


def reality(sparse, n):
    """Pi with dbar's generator values ``Pi conj(v)`` for del's v, as on
    every real Lie algebra (d ebar_k = conj(d e_k)): the (1,1) terms of
    d e_k are those of d ebar_k conjugated, negated and transposed, the
    (0,2) terms of d ebar_k those (2,0) of d e_k conjugated."""
    pure, mixed = math.comb(n, 2) * n, n ** 3
    swap = np.arange(mixed).reshape(n, n, n).transpose(1, 0, 2).ravel()
    return sparse.coo_matrix((np.repeat([-1.0, 1.0], [mixed, pure]), (
        np.arange(mixed + pure), np.concatenate([pure + swap, np.arange(pure)]))))


@pytest.mark.parametrize("n", range(2, 7))
def test_a05_a06_a14_and_a15_are_multiples_of_the_stokes_map(rng, n):
    """a05, a06, a14 and a15 hold wherever Stokes does: over del's
    generator values v and their conjugates, dbar's being ``Pi conj(v)``,
    each table composed with theta written through the generators is K s,
    s the Stokes map (the top rows of del from the (n-1,n)-slot and of dbar
    from the (n,n-1)-slot, and their conjugates).  The Stokes map has 2n
    distinct rows up to sign, each with a pivot (a column no other row
    uses) of entry +-1; K is read off the pivots, and the table equals K s
    exactly.  K is not 0: the identities need Stokes.  Over independent
    del and dbar values the rows leave the Stokes row space; the reality
    of the Lie algebra is what puts them in it."""
    sparse = pytest.importorskip("scipy.sparse")
    gens = (math.comb(n, 2) + n * n) * n
    pi, eye = reality(sparse, n), sparse.identity(gens)
    table = OperatorTable(gaussian_integer_model(n, rng), HermitianMetric.identity(n))
    assert np.array_equal(pi @ table._values("del").conj(), table._values("dbar"))
    real = sparse.bmat([[eye, None], [None, pi], [None, eye], [pi, None]], format="csr")
    stokes = []
    for conj in (0, 1):
        for part in (0, 1):
            pos, terms, signs = unfold(_operator_scatter(n, part, n - 1 + part, n - part), gens)
            stokes.append(sparse.coo_matrix((signs.astype(float), (pos, terms)), shape=(n, gens)))
    stokes = (sparse.block_diag(stokes, format="csr") @ real).tocsr()
    distinct = {}
    for k, row in enumerate(stokes):
        row.sort_indices()
        distinct.setdefault(row.indices.tobytes() + (row.data / row.data[0]).tobytes(), k)
    stokes = stokes[sorted(distinct.values())]
    assert stokes.shape == (2 * n, 2 * gens)
    column_rows = np.asarray((stokes != 0).sum(axis=0)).ravel()
    pivots = [row.indices[column_rows[row.indices] == 1][0] for row in stokes]
    pivot_values = np.asarray(stokes[np.arange(2 * n), pivots]).ravel()
    assert set(pivot_values.tolist()) <= {1, -1}
    for identity in ("a05_adjoint_of_del_plus_torsion", "a06_adjoint_of_delbar_plus_torsion",
                     "a14_global_adjointness_del", "a15_global_adjointness_delbar"):
        composed = (composed_with_theta(sparse, n, identity) @ real).tocsr()
        K = composed[:, pivots] @ sparse.diags(pivot_values)
        gap = (composed - K @ stokes).tocsr()
        gap.eliminate_zeros()
        assert K.nnz and gap.nnz == 0, identity


# ----------------------------------------------------------------------
# a05 to a08, a14 and a15 on all slots at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", catalog.list_names() + ["solv"])
def test_torsion_residuals_equal_the_per_slot_evaluation(rng, name):
    """On each catalog model and on the Stokes-violating one, at the
    default metric and two dense ones."""
    M, g = (stokes_violating(), HermitianMetric.identity(3)) if name == "solv" \
        else catalog.get(name)[:2]
    for metric in (g, random_pd_metric(M.dim, rng), random_pd_metric(M.dim, rng, spread=1.0)):
        assert_torsion_residuals_equal_the_per_slot_ones(OperatorTable(M, metric),
                                                         OperatorTable(M, metric))


@pytest.mark.parametrize("n", range(1, 7))
def test_torsion_residuals_equal_the_per_slot_evaluation_on_random_generators(rng, n):
    """Random complex generator differentials and theta columns reach every
    entry of every table, and make every residual of size one; the
    identities need not hold for them."""
    table = _random_generator_tables(n, rng)
    fresh = OperatorTable(table.M, table.g)
    fresh._gens.update(table._gens)
    residuals = torsion_residuals(fresh)
    assert all(np.abs(r).max(initial=1.0) > 0.1 for r in residuals.values())
    assert_torsion_residuals_equal_the_per_slot_ones(table, fresh)


def test_torsion_layout_stays_small_and_makes_no_slot_table(rng):
    """At n = 5 the tables of a05 to a08, a14 and a15 hold at most 0.99
    MiB (0.91 MiB in the two-array layout), one row per distinct residual
    entry.  Building them leaves no
    ``_operator_scatter`` entry, and a warm commutation suite adds none."""
    operators._torsion_tables.cache_clear()
    _operator_scatter.cache_clear()
    tables = operators._torsion_tables(5)
    assert _operator_scatter.cache_info().currsize == 0
    held = sum(arr.nbytes for _, table in tables.values() for arr in table)
    assert held <= 0.99 * 2 ** 20, held
    assert {identity[:3]: count for identity, (count, _) in tables.items()} == {
        "a05": 2690, "a06": 2690, "a07": 230, "a08": 230, "a14": 2690, "a15": 2690}
    M = catalog.get("iwasawa5")[0]
    verify_commutation_suite(M, random_pd_metric(5, rng))
    warm = _operator_scatter.cache_info().currsize
    assert warm <= 6   # the slots of a09 and a10
    verify_commutation_suite(M, random_pd_metric(5, rng))
    assert _operator_scatter.cache_info().currsize == warm
    assert operators._torsion_tables(5) is tables
