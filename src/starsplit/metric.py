"""Hermitian metrics in the coframe and the pointwise operator toolkit.

A metric is a positive definite Hermitian matrix ``H`` with
``omega = i * sum_jk H[j,k] phi_j ^ phibar_k``.  All pointwise constructions
(inner product, Hodge star, Lefschetz L and its adjoint, division by powers
of omega, primitive decomposition) are computed in the orthonormal coframe
``e = C * phi`` obtained from a Cholesky-type factor of ``H``: the monomials
``e_I ^ ebar_J`` are declared an orthonormal basis and the volume form is
``omega_n = omega^n / n!``.

That normalisation is the one convention under which all of the classical
anchors hold simultaneously: ``star 1 = omega_n``, ``star omega =
omega_{n-1}``, ``[Lambda, L] = (n-k) Id`` on k-forms, and the primitive-form
star formula.  The per-bidegree operators are small dense matrices (at most
``C(n,p) * C(n,q)`` with n <= 6), cached per dimension in the orthonormal
frame where they do not depend on the metric and read off the monomial
bitmasks (``_monomials``): the wedge with the monomials of one slot
(``_wedge_masks``), hence ``omega_r ^ .`` (``_wedge_power_entries``);
the top pairing and from it the star, one unit entry per row and column
(``_top_all``, ``_star_all``); del and dbar, the Leibniz rule over the
differentials of the generators in any coframe (``_operator_entries``).
The first-order operators of one slot, del, dbar and the wedge with a
fixed form, are each a table of ``_scatter`` over their values
(``_operator_scatter``, ``_wedge_scatter``); on all slots at once their
entries are the leaves of ``operators``' expressions for a05 to a08, a14
and a15.  A table is two read-only int32 arrays ``(pos, terms)``, the unit
folded into the term: over values v of length V, term k is ``(1, i, -1,
-i)[k // V] * v[k % V]``, gathered from ``_units(v)``.  L, Lambda, star and the
divisions T and S of ``operators`` are dense slot matrices (``_slot_mat``),
with the pseudo-inverse behind ``divide_by_power`` and the sl(2) closed
form behind ``lefschetz_decompose``.  ``HermitianMetric.apply`` is the one
routine that applies frame slot matrices to a ``Form``; ``hodge_star``,
``lefschetz_L``, ``lefschetz_lambda``, ``operators.T``/``S`` and
``OperatorTable.apply`` use it.

Substituting ``phi_k -> sum_j mat[k,j] phi_j`` acts on coefficients
through compound matrices: ``compound(mat, r)`` holds all r x r minors,
``out[t, s] = det(mat[rows(s), cols(t)])`` with rows and cols running over
the r-subsets in basis order, and the (p,q)-slot transforms by
``kron(compound(mat, p), compound(mat, q).conj())``.  Conversion to the
frame ``e`` is this substitution with ``mat = C^{-1}``, conversion back
with ``C``, and ``complex_structure.pullback`` with its own matrix.  A
metric caches ``compound(C^{-1}, r)`` and ``compound(C, r)`` once per rank
r and builds each slot's frame matrix from them: at most 2(n+1) batched
determinants per metric.  ``Form`` is what the public functions take and
return; ``analysis`` uses the vector-level helpers (``_omega_vec``,
``_omega_power_vec``, ``_frame_norm``, ``_divide_e``) directly.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DEFAULT_TOL, AlgebraError, DimensionMismatchError, InputError
from .forms import Form, MaskKey, basis_masks, space_dim
from .jsonio import json_array, json_complex, json_number, json_object

_LOG_MAX_DOUBLE = math.log(sys.float_info.max)


# ----------------------------------------------------------------------
# orthonormal-frame combinatorics (metric independent, cached per dimension)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _basis(n: int, p: int, q: int) -> Tuple[MaskKey, ...]:
    return tuple(basis_masks(n, p, q))


@lru_cache(maxsize=None)
def _index(n: int, p: int, q: int) -> Dict[MaskKey, int]:
    return {key: k for k, key in enumerate(_basis(n, p, q))}


def form_to_vec(u: Form, p: int, q: int) -> np.ndarray:
    """Coefficient vector of the (p,q)-component of ``u`` in basis order."""
    idx = _index(u.dim, p, q)
    vec = np.zeros(len(idx), dtype=complex)
    for key, c in u._terms.items():
        if key[0].bit_count() == p and key[1].bit_count() == q:
            vec[idx[key]] = c
    return vec


def vec_to_form(n: int, p: int, q: int, vec: np.ndarray) -> Form:
    return Form(n, dict(zip(_basis(n, p, q), vec.tolist())))


def _volume_coeff(n: int) -> complex:
    """Top coefficient of ``omega_n`` in the standard frame."""
    return 1j ** n * (-1) ** (n * (n - 1) // 2)


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _join(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, j)`` with ``left[i] == right[j]`` (non-negative ints)."""
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=int(left.max(initial=0)) + 1)
    count = counts[left]
    start = (np.cumsum(counts) - counts)[left]
    i = np.repeat(np.arange(len(left)), count)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    return i, order[np.repeat(start, count) + offset]


def _units(values: np.ndarray) -> np.ndarray:
    """``[v, 1j v, -v, -(1j v)]``: what a table over the values v gathers."""
    return np.concatenate([values, 1j * values, -values, -(1j * values)])


def _fold(terms: np.ndarray, signs: np.ndarray, size: int) -> np.ndarray:
    """The terms ``signs[k] * v[terms[k]]``, v of length ``size``, as terms of ``_units(v)``."""
    return (terms + 2 * size * (signs < 0)).astype(np.int32)


def _scatter(shape: Tuple[int, ...], table: Tuple[np.ndarray, np.ndarray],
             units: np.ndarray) -> np.ndarray:
    """The array of a table ``(pos, terms)`` over ``units = _units(v)``, its
    entry at flat position ``pos[k]`` collecting ``units[terms[k]]`` in
    table order: one gather and one ``np.add.at``."""
    pos, terms = table
    flat = np.zeros(math.prod(shape), dtype=complex)
    np.add.at(flat, pos, units.take(terms, mode="clip"))
    return flat.reshape(shape)


# the slots of d e_k and of d ebar_k, for del (part 0) and for dbar (part 1)
_GENERATOR_SLOTS = (((2, 0), (1, 1)), ((1, 1), (0, 2)))


# slot shifts of L, Lambda and the first-order operators of ``_operator_entries``
_SHIFTS = {"L": (1, 1), "Lam": (-1, -1), "del": (1, 0), "dbar": (0, 1), "wdel": (2, 1),
           "wdbar": (1, 2)}


@lru_cache(maxsize=None)
def _slot_starts(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The monomials of all slots numbered slot after slot: ``(dims,
    start)``, each slot's size and the number of its first monomial."""
    dims = np.array([[space_dim(n, p, q) for q in range(n + 1)] for p in range(n + 1)],
                    dtype=np.int32)
    return _frozen(dims, (np.cumsum(dims, dtype=np.int32) - dims.ravel()).reshape(dims.shape))


@lru_cache(maxsize=None)
def _monomials(n: int) -> Tuple[np.ndarray, ...]:
    """The monomials ``e_I ^ ebar_J`` of all slots as ``_slot_starts``
    numbers them: ``(hol, anti, number, count, merge)``, the masks of each,
    ``number[I << n | J]``, each mask's popcount, and ``merge[A << n | B]``
    with ``e_A ^ e_B = merge e_{A|B}`` (-1 per bit of A above one of B)."""
    dims, start = _slot_starts(n)
    masks = np.arange(1 << n)
    count = sum((masks >> k) & 1 for k in range(n))
    rank = np.zeros(1 << n, dtype=np.intp)
    for r in range(n + 1):
        rank[[m for m, _ in _basis(n, r, 0)]] = np.arange(math.comb(n, r))
    I, J = masks[:, None], masks[None, :]
    number = start[count[I], count[J]] + rank[I] * dims[0, count[J]] + rank[J]
    hol, anti = np.empty((2, 4 ** n), dtype=np.intp)
    hol[number], anti[number] = I, J
    pairs = sum(((J >> k) & 1) * count[I >> (k + 1)] for k in range(n))
    return _frozen(hol, anti, number.ravel(), count, (1 - 2 * (pairs & 1)).astype(np.int8).ravel())


def _set_bits(masks: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, k)`` for every bit k set in ``masks[item]``."""
    items = [np.flatnonzero(masks & (1 << k)) for k in range(n)]
    return np.concatenate(items), np.repeat(np.arange(n), [len(item) for item in items])


def _wedge_masks(n: int, a: int, b: int, I: np.ndarray, J: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``e_A ^ ebar_B ^ e_I ^ ebar_J`` for every monomial (A, B) of the
    (a,b)-slot, at ``terms`` in basis order, and every mask pair ``(I,
    J)``: ``(item, number, terms, signs, theta)`` of each nonzero product,
    with ``theta = A | B`` and the signs of ``Form.wedge``."""
    _, _, number, count, merge = _monomials(n)
    A, B = (np.array([m for m, _ in _basis(n, r, 0)], dtype=np.intp) for r in (a, b))
    masks = np.arange(1 << n)[:, None]
    free = ((masks & A) == 0)[I][:, :, None] & ((masks & B) == 0)[J][:, None, :]
    item, terms = np.divmod(np.flatnonzero(free), len(A) * len(B))
    I, J, A, B = I[item], J[item], np.repeat(A, len(B))[terms], np.tile(B, len(A))[terms]
    signs = merge[A << n | I] * merge[B << n | J] * (1 - 2 * (count[I] * b & 1))
    return item, number[(A | I) << n | B | J], terms, signs, A | B


def _wedge_power_entries(n: int, r: int, I: np.ndarray, J: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``omega_r ^ .`` on the mask pairs ``(I, J)``, standard frame, as
    ``(item, number, vals)``: the products of ``_wedge_masks`` with the
    terms ``e_K ^ ebar_K`` of ``omega_r = i^r (-1)^(r(r-1)/2) sum_K e_K ^
    ebar_K`` over r-subsets K, which are its only nonzero coefficients."""
    item, number, _, signs, theta = _wedge_masks(n, r, r, I, J)
    diagonal = _monomials(n)[3][theta] == r
    return item[diagonal], number[diagonal], 1j ** r * (-1) ** (r * (r - 1) // 2) * signs[diagonal]


def _operator_entries(n: int, op: str, I: np.ndarray, J: np.ndarray
                      ) -> List[Tuple[np.ndarray, ...]]:
    """X = ``op`` (del, dbar, "wdel" or "wdbar") on the mask pairs ``(I,
    J)`` over the values of ``_operator_scatter`` or ``_wedge_scatter``,
    in pieces ``(rows, cols, terms, signs, theta)``: the wedge with the
    monomial of masks ``theta`` after a contraction.  del and dbar are the
    Leibniz rule, with ``e_I = (-1)^#(I below k) e_k ^ e_{I-k}``,

        d(e_I ^ ebar_J) = sum_{k in I} (-1)^#(I below k) d e_k ^ e_{I-k} ^ ebar_J
                        + sum_{k in J} (-1)^(p + #(J below k)) d ebar_k ^ e_I ^ ebar_{J-k}.
    """
    count, merge = _monomials(n)[3:]
    if op in ("wdel", "wdbar"):
        cols, rows, *rest = _wedge_masks(n, *_SHIFTS[op], I, J)
        return [(rows, cols, *rest)]
    pieces, offset = [], 0
    for side, (a, b) in enumerate(_GENERATOR_SLOTS[op == "dbar"]):
        cols, k = _set_bits((I, J)[side], n)
        bit, hol, anti = 1 << k, I[cols], J[cols]
        rest = (hol, anti)[side] ^ bit
        ksign = merge[bit << n | rest] * (1 - 2 * (count[hol] * side & 1))
        at, rows, terms, signs, theta = _wedge_masks(
            n, a, b, *((rest, anti) if side == 0 else (hol, rest)))
        pieces.append((rows, cols[at], offset + terms * n + k[at], ksign[at] * signs, theta))
        offset += space_dim(n, a, b) * n
    return pieces


def _sort_entries(pieces: Iterable[Tuple[np.ndarray, ...]], bits: int, size: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms ``(rows, cols, terms, signs)`` of the pieces by row, column
    (below ``2^bits = 4^n``), term (below ``8 n^3``) and sign, none repeating,
    as ``(rows, cols, terms)``, the terms folded over ``size`` values."""
    tb = (bits ** 3).bit_length()
    keys = np.concatenate([(((rows << bits | cols) << tb | terms) << 1) | (signs > 0)
                           for rows, cols, terms, signs, *_ in pieces])
    keys.sort()
    return (keys >> (tb + 1 + bits), (keys >> (tb + 1)) & ((1 << bits) - 1),
            _fold((keys >> 1) & ((1 << tb) - 1), 2 * (keys & 1) - 1, size))


def _slot_monomials(n: int, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """The masks ``(I, J)`` of the (p,q)-slot's monomials in basis order."""
    dims, start = _slot_starts(n)
    return tuple(masks[start[p, q]:start[p, q] + dims[p, q]] for masks in _monomials(n)[:2])


@lru_cache(maxsize=None)
def _wedge_scatter(n: int, a: int, b: int, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """``theta ^ .`` for a form theta of the (a,b)-slot, from the (p,q)-slot
    to the (p+a,q+b)-slot (``_wedge_masks``), as a table ``(pos, terms)``
    of ``_scatter`` over theta's coefficients, each term's sign its unit."""
    cols, rows, terms, signs, _ = _wedge_masks(n, a, b, *_slot_monomials(n, p, q))
    pos = (rows - _slot_starts(n)[1][min(p + a, n), min(q + b, n)]) * space_dim(n, p, q) + cols
    return _frozen(pos.astype(np.int32), _fold(terms, signs, space_dim(n, a, b)))


@lru_cache(maxsize=None)
def _operator_scatter(n: int, part: int, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """del (part 0) or dbar (part 1) from the (p,q)-slot as a table of
    ``_scatter`` over the generator differentials in any coframe, units
    +-1: ``concatenate([Dh.ravel(), Da.ravel()])``, column k of ``Dh``
    (``Da``) the part's ``d e_k`` (``d ebar_k``) on ``_GENERATOR_SLOTS``."""
    entries = _operator_entries(n, ("del", "dbar")[part], *_slot_monomials(n, p, q))
    rows, cols, terms = _sort_entries(entries, 2 * n, (math.comb(n, 2) + n * n) * n)
    pos = (rows - _slot_starts(n)[1][min(p + 1 - part, n), min(q + part, n)]) * space_dim(n, p, q)
    return _frozen((pos + cols).astype(np.int32), terms)


@lru_cache(maxsize=None)
def _top_all(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The top pairing on all slots (``_slot_starts``) at once: ``e_I ^
    ebar_J ^ e_{I^c} ^ ebar_{J^c} = sign e_full ^ ebar_full``, and no other
    monomial pairs with it; per monomial ``(partner, sign)``."""
    hol, anti, number, count, merge = _monomials(n)
    full = (1 << n) - 1
    return _frozen(number[(full ^ hol) << n | full ^ anti], merge[hol << n | full ^ hol]
                   * merge[anti << n | full ^ anti] * (1 - 2 * ((n - count[hol]) * count[anti] & 1)))


@lru_cache(maxsize=None)
def _star_all(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hodge star on all slots (``_slot_starts``) at once.  The defining
    pairing ``u ^ star(w) = <u, conj(w)> dV`` over monomials gives
    ``star(e_I ^ ebar_J) = (-1)^(pq) _volume_coeff(n) t e_{J^c} ^
    ebar_{I^c}``, t the ``_top_all`` sign of the conjugate monomial ``e_J ^
    ebar_I``; as ``(perm, inverse, phase)``, ``star @ x == phase * x[perm]``."""
    hol, anti, number, count, _ = _monomials(n)
    partner, sign = _top_all(n)
    conj = number[anti << n | hol]
    inverse = partner[conj]
    perm = np.argsort(inverse)
    return _frozen(perm, inverse, ((1 - 2 * (count[hol] * count[anti] & 1)) * _volume_coeff(n)
                                   * (sign[conj] + 0j))[perm])


@lru_cache(maxsize=None)
def _wedge_power_mat(n: int, r: int, p: int, q: int) -> np.ndarray:
    """Matrix of ``omega_r ^ .`` from the (p,q)-slot to the (p+r,q+r)-slot,
    standard frame: ``_wedge_power_entries`` on the slot's monomials."""
    cols, rows, vals = _wedge_power_entries(n, r, *_slot_monomials(n, p, q))
    mat = np.zeros((space_dim(n, p + r, q + r), space_dim(n, p, q)), dtype=complex)
    mat[rows - _slot_starts(n)[1][min(p + r, n), min(q + r, n)], cols] = vals
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _slot_mat(n: int, name: str, p: int, q: int) -> Tuple[np.ndarray, int, int]:
    """Orthonormal-frame matrix of a pointwise operator on the (p,q)-slot
    and its target slot: "L" is ``omega ^ .``, "Lam" its adjoint, "star"
    the Hodge star (the target slot's rows of ``_star_all``, one unit
    entry per row and column), "T" and "S" the divisions of
    ``_division_mat``.  Built once per dimension and read-only."""
    if name in ("T", "S"):
        k = 1 if name == "T" else n - 1
        if (p, q) != (k, k):
            raise InputError(f"{name} expects a ({k},{k})-form, got bidegree ({p},{q})")
        return _division_mat(n, name), p, q
    tp, tq = {"star": (n - q, n - p), "L": (p + 1, q + 1)}.get(name, (p - 1, q - 1))
    if not (space_dim(n, p, q) and space_dim(n, tp, tq)):
        mat = np.zeros((space_dim(n, tp, tq), space_dim(n, p, q)), dtype=complex)
    elif name == "star":
        dims, start = _slot_starts(n)
        perm, _, phase = (arr[start[tp, tq]:start[tp, tq] + dims[tp, tq]] for arr in _star_all(n))
        mat = np.zeros((dims[tp, tq], dims[p, q]), dtype=complex)
        mat[np.arange(dims[tp, tq]), perm - start[p, q]] = phase
    elif name == "L":
        mat = _wedge_power_mat(n, 1, p, q)
    else:
        mat = _wedge_power_mat(n, 1, tp, tq).conj().T
    mat.setflags(write=False)
    return mat, tp, tq


@lru_cache(maxsize=None)
def _division_mat(n: int, name: str) -> np.ndarray:
    """T = ``(omega_{n-2} ^ .)^{-1} star = -Id + L Lam / (n-1)`` on the
    (1,1)-slot, or its star partner S = ``star T star`` on the
    (n-1,n-1)-slot."""
    if n < 2:
        raise InputError("T and S need dimension >= 2")
    L = _wedge_power_mat(n, 1, 0, 0)
    mat = -np.eye(n * n) + L @ L.conj().T / (n - 1)
    if name == "S":
        mat = _slot_mat(n, "star", 1, 1)[0] @ mat @ _slot_mat(n, "star", n - 1, n - 1)[0]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _top_pairing(n: int, p: int, q: int) -> np.ndarray:
    """Top coefficient of ``a ^ b`` for the monomials a of the (p,q)-slot
    (rows) and b of the (n-p,n-q)-slot (columns); the same in every
    coframe, so ``integral(u ^ v) = u @ _top_pairing @ v / _volume_coeff(n)``
    on phi-basis coefficient vectors: the slot's rows of ``_top_all``."""
    dims, start = _slot_starts(n)
    partner, sign = (arr[start[p, q]:start[p, q] + dims[p, q]] for arr in _top_all(n))
    mat = np.zeros((dims[p, q], dims[n - p, n - q]), dtype=complex)
    mat[np.arange(dims[p, q]), partner - start[n - p, n - q]] = sign
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _subsets(n: int, r: int) -> np.ndarray:
    idx = np.array(list(combinations(range(n), r)), dtype=int)
    idx.setflags(write=False)
    return idx


def compound(mat: np.ndarray, r: int) -> np.ndarray:
    """All r x r minors of ``mat``, indexed by r-subsets in basis order."""
    idx = _subsets(mat.shape[0], r)
    return np.linalg.det(mat[idx[None, :, :, None], idx[:, None, None, :]])


def substitution_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(p,q)-slot matrix of ``phi_k -> sum_j mat[k,j] phi_j`` from
    ``a = compound(mat, p)`` and ``b = compound(mat, q)``:
    ``np.kron(a, b.conj())``, without its generic-shape overhead."""
    b = b.conj()
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


# ----------------------------------------------------------------------
# the metric itself
# ----------------------------------------------------------------------
class HermitianMetric:
    """Positive definite Hermitian coefficient matrix in the coframe.

    Immutable after construction; the orthonormal-frame factor, the
    compounds of it and its inverse per rank, and the per-bidegree
    conversion matrices are cached on the instance.
    """

    __slots__ = ("dim", "H", "chol", "_inv_chol", "_compounds", "_frames")

    def __init__(self, H):
        H = np.array(H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise InputError(f"metric matrix must be square, got shape {H.shape}")
        if not np.isfinite(H).all():
            raise InputError("metric matrix has non-finite entries")
        n = H.shape[0]
        scale = max(1.0, float(np.abs(H).max()))
        if np.abs(H - H.conj().T).max() > DEFAULT_TOL * scale:
            raise InputError("metric matrix is not Hermitian to tolerance")
        H = 0.5 * (H + H.conj().T)
        eigs = np.linalg.eigvalsh(H)
        lo, hi = eigs.min(), eigs.max()
        if lo <= 0:
            raise InputError(f"metric matrix is not positive definite (smallest eigenvalue {lo:.3g})")
        if lo <= 1e-14 * hi:
            raise InputError(f"metric matrix is too ill-conditioned (condition number "
                             f"{hi / lo:.3g} is not below 1e14)")
        if lo <= 1e-14:
            raise InputError(f"metric matrix is too small (smallest eigenvalue {lo:.3g} "
                             f"is at or below the 1e-14 floor)")
        log_det = float(np.log(eigs).sum())
        if log_det >= _LOG_MAX_DOUBLE:
            raise InputError(f"metric volume density det H = exp({log_det:.6g}) "
                             f"is not a finite double")
        L = np.linalg.cholesky(H)
        self.dim = n
        self.H = H
        self.chol = L.T.copy()            # upper triangular; e = chol * phi
        self._inv_chol = np.linalg.inv(self.chol)
        self.H.setflags(write=False)
        self.chol.setflags(write=False)
        # keyed by (inverse, r) and (inverse, p, q); inverse: phi -> e
        self._compounds: Dict[Tuple[bool, int], np.ndarray] = {}
        self._frames: Dict[Tuple[bool, int, int], np.ndarray] = {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, coeffs: Sequence[float]) -> "HermitianMetric":
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or np.any(arr <= 0):
            raise InputError("diagonal metric needs a list of positive reals")
        return cls(np.diag(arr.astype(complex)))

    def scaled(self, s: float) -> "HermitianMetric":
        if not 0 < s < math.inf:
            raise InputError(f"metric scale must be a positive finite number, got {s}")
        return HermitianMetric(self.H * s)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianMetric":
        try:
            kind = json_object(data, "metric description")["type"]
            if kind not in ("diagonal", "hermitian"):
                raise InputError(f"unknown metric type {kind!r}")
            body = "coeffs" if kind == "diagonal" else "matrix"
            json_object(data, f"{kind} metric description", ("type", body, "scale"))
            entries = json_array(data[body], f"metric {body!r}")
            if kind == "diagonal":
                g = cls.diagonal([json_number(c, "an entry of metric 'coeffs'") for c in entries])
            else:
                n = round(len(entries) ** 0.5)
                if n * n != len(entries):
                    raise InputError("hermitian matrix needs n^2 [re,im] entries")
                flat = [json_complex(z, "an entry of metric 'matrix'") for z in entries]
                g = cls(np.array(flat, dtype=complex).reshape(n, n))
            scale = data.get("scale")
            return g if scale is None else g.scaled(json_number(scale, "metric 'scale'"))
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed metric description: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {
            "type": "hermitian",
            "matrix": [[z.real, z.imag] for z in self.H.reshape(-1)],
        }

    def describe(self) -> str:
        """"diagonal(...)" when every off-diagonal entry is below 1e-15 times
        the largest diagonal entry, else "hermitian(n=...)"."""
        diag = np.diag(self.H)
        if np.abs(self.H - np.diag(diag)).max() < 1e-15 * diag.real.max():
            vals = ", ".join(f"{v.real:g}" for v in np.diag(self.H))
            return f"diagonal({vals})"
        return f"hermitian(n={self.dim})"

    # -- frame conversions ----------------------------------------------
    def _compound(self, inverse: bool, r: int) -> np.ndarray:
        if (inverse, r) not in self._compounds:
            self._compounds[(inverse, r)] = compound(
                self._inv_chol if inverse else self.chol, r)
        return self._compounds[(inverse, r)]

    def _frame_matrix(self, inverse: bool, p: int, q: int) -> np.ndarray:
        if (inverse, p, q) not in self._frames:
            out = substitution_matrix(self._compound(inverse, p), self._compound(inverse, q))
            out.setflags(write=False)
            self._frames[(inverse, p, q)] = out
        return self._frames[(inverse, p, q)]

    def to_e_matrix(self, p: int, q: int) -> np.ndarray:
        """Coefficients in the orthonormal frame from coefficients in phi."""
        return self._frame_matrix(True, p, q)

    def from_e_matrix(self, p: int, q: int) -> np.ndarray:
        return self._frame_matrix(False, p, q)

    def to_e_vec(self, u: Form, p: int, q: int) -> np.ndarray:
        return self.to_e_matrix(p, q) @ form_to_vec(u, p, q)

    def from_e_vec(self, vec: np.ndarray, p: int, q: int) -> Form:
        return vec_to_form(self.dim, p, q, self.from_e_matrix(p, q) @ vec)

    def apply(self, u: Form, slot: Callable[[int, int], Tuple[np.ndarray, int, int]]) -> Form:
        """Per bidegree of ``u``: to the frame, through the matrix that
        ``slot(p, q)`` returns with its target slot, back to phi; summed."""
        if u.dim != self.dim:
            raise DimensionMismatchError("form/metric dimension mismatch")
        terms: Dict[MaskKey, complex] = {}
        for p, q in u.bidegrees():
            mat, tp, tq = slot(p, q)
            if mat.shape[0]:
                vec = self.from_e_matrix(tp, tq) @ (mat @ self.to_e_vec(u, p, q))
                for key, c in zip(_basis(self.dim, tp, tq), vec.tolist()):
                    terms[key] = terms.get(key, 0j) + c
        return Form(self.dim, terms)

    def __repr__(self) -> str:
        return f"HermitianMetric({self.describe()})"


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def _omega_vec(g: HermitianMetric) -> np.ndarray:
    """phi-basis coefficients of omega on the (1,1)-slot."""
    return 1j * g.H.reshape(-1)


def _omega_power_vec(g: HermitianMetric, p: int) -> np.ndarray:
    """phi-basis coefficients of ``omega_p`` on the (p,p)-slot: the standard
    ``omega_p`` moved out of the orthonormal frame."""
    return g.from_e_matrix(p, p) @ _wedge_power_mat(g.dim, p, 0, 0)[:, 0]


def omega_power(g: HermitianMetric, p: int) -> Form:
    """``omega^p / p!``; p = 0 gives the scalar 1, p = n the volume form."""
    if not 0 <= p <= g.dim:
        raise InputError(f"power {p} outside 0..{g.dim}")
    return vec_to_form(g.dim, p, p, _omega_power_vec(g, p))


def inner_product(g: HermitianMetric, u: Form, v: Form) -> complex:
    """Pointwise sesquilinear inner product of forms of equal bidegree."""
    if u.dim != g.dim or v.dim != g.dim:
        raise DimensionMismatchError("form/metric dimension mismatch")
    if u.is_zero() or v.is_zero():
        return 0j
    pu, qu = u.bidegree()
    pv, qv = v.bidegree()
    if (pu, qu) != (pv, qv):
        raise InputError(f"inner product of mixed bidegrees ({pu},{qu}) vs ({pv},{qv})")
    return complex(np.vdot(g.to_e_vec(v, pv, qv), g.to_e_vec(u, pu, qu)))


def _frame_norm(g: HermitianMetric, *parts: Tuple[np.ndarray, int, int]) -> float:
    """Pointwise norm of the form whose (p,q)-components have the phi-basis
    coefficients of ``parts``: the Euclidean norm of its frame vectors."""
    total = 0.0
    for v, p, q in parts:
        e = g.to_e_matrix(p, q) @ v
        total += float(np.vdot(e, e).real)
    return total ** 0.5


def form_norm(g: HermitianMetric, u: Form) -> float:
    """Pointwise norm; inhomogeneous forms are summed over components."""
    return _frame_norm(g, *((form_to_vec(u, p, q), p, q) for p, q in u.bidegrees()))


def _pointwise(g: HermitianMetric, name: str, u: Form) -> Form:
    if not u.is_homogeneous():
        raise InputError(f"operation needs a homogeneous form, got bidegrees {u.bidegrees()}")
    return g.apply(u, partial(_slot_mat, g.dim, name))


def hodge_star(g: HermitianMetric, u: Form) -> Form:
    """The unique (n-q,n-p)-form with ``w ^ star(conj u) = <w,u> omega_n``."""
    return _pointwise(g, "star", u)


def lefschetz_L(g: HermitianMetric, u: Form) -> Form:
    """``omega ^ .``, per bidegree."""
    return g.apply(u, partial(_slot_mat, g.dim, "L"))


def lefschetz_lambda(g: HermitianMetric, u: Form) -> Form:
    """Pointwise adjoint of ``omega ^ .`` (contraction with omega)."""
    return _pointwise(g, "Lam", u)


@lru_cache(maxsize=None)
def _division_solve(n: int, k: int) -> np.ndarray:
    """Pseudo-inverse of ``omega_k ^ .`` on the (1,1)-slot, which is
    injective for k <= n-2."""
    mat = np.linalg.pinv(_wedge_power_mat(n, k, 1, 1))
    mat.setflags(write=False)
    return mat


def divide_by_power(g: HermitianMetric, k: int, y: Form, *, tol: float = DEFAULT_TOL) -> Form:
    """Solve ``omega_k ^ x = y`` for a (1,1)-form ``x``.

    For k = n-2 the multiplication map is bijective and the solve is exact;
    for other k the input must lie in the image, otherwise the residual
    check rejects it.
    """
    n = g.dim
    if not 0 <= k <= n - 2:
        raise InputError(f"power {k} outside 0..{n - 2}")
    if y.is_zero():
        return Form.zero(n)
    p, q = y.bidegree()
    if (p, q) != (k + 1, k + 1):
        raise InputError(f"divide_by_power({k}) expects bidegree ({k + 1},{k + 1}), got ({p},{q})")
    return g.from_e_vec(_divide_e(n, k, g.to_e_vec(y, p, q), tol), 1, 1)


def _divide_e(n: int, k: int, ye: np.ndarray, tol: float) -> np.ndarray:
    """Frame vector x of the (1,1)-slot with ``omega_k ^ x = y``, for the
    frame vector ``ye`` of the (k+1,k+1)-slot; raises unless ``ye`` lies in
    the image to ``tol``."""
    xe = _division_solve(n, k) @ ye
    resid = float(np.abs(_wedge_power_mat(n, k, 1, 1) @ xe - ye).max())
    if resid > tol * (1.0 + float(np.abs(ye).max())):
        raise InputError(
            f"form is not in the image of multiplication by omega_{k} "
            f"(residual {resid:.3e})")
    return xe


@lru_cache(maxsize=None)
def _primitive_part(n: int, p: int, q: int, r: int) -> np.ndarray:
    """Matrix taking a (p,q)-form u of degree p+q <= n to the primitive
    (s,t) = (p-r,q-r)-form ``u_r`` of ``u = sum_r omega_r ^ u_r``, by the
    sl(2) closed form ``u_r = (n-j-r)!/(n-j)! pi(Lam^r u)`` with j = s+t.
    On j-forms the primitive projector is ``pi = sum_i (-1)^i (n-j+1)! /
    (i! (n-j+i+1)!) L^i Lam^i``, where ``L^i = i! omega_i ^ .`` and
    ``Lam^i`` is its adjoint.  ``r = 0`` gives ``pi`` on the (p,q)-slot."""
    f = math.factorial
    s, t = p - r, q - r
    j = s + t
    proj = np.zeros((space_dim(n, s, t),) * 2, dtype=complex)
    for i in range(min(s, t) + 1):
        W = _wedge_power_mat(n, i, s - i, t - i)
        proj += (-1) ** i * f(i) * f(n - j + 1) / f(n - j + i + 1) * (W @ W.conj().T)
    mat = f(r) * f(n - j - r) / f(n - j) * (proj @ _wedge_power_mat(n, r, s, t).conj().T)
    mat.setflags(write=False)
    return mat


def lefschetz_decompose(g: HermitianMetric, u: Form, *, tol: float = DEFAULT_TOL
                        ) -> List[Tuple[int, Form]]:
    """Primitive decomposition ``u = sum_r omega_r ^ u_r`` with every ``u_r``
    annihilated by the Lefschetz adjoint.  Degree must not exceed n."""
    n = g.dim
    if u.is_zero():
        return []
    p, q = u.bidegree()
    k = p + q
    if k > n:
        raise InputError(f"decomposition not supported above middle degree (k={k} > n={n})")
    ue = g.to_e_vec(u, p, q)
    parts = [_primitive_part(n, p, q, r) @ ue for r in range(min(p, q) + 1)]
    recon = sum(_wedge_power_mat(n, r, p - r, q - r) @ x for r, x in enumerate(parts))
    resid = float(np.abs(recon - ue).max())
    if resid > tol * (1.0 + float(np.abs(ue).max())):
        raise AlgebraError(f"primitive decomposition failed (residual {resid:.3e})")
    return [(r, g.from_e_vec(x, p - r, q - r)) for r, x in enumerate(parts)]
