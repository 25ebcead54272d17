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
frame where they do not depend on the metric, and built from the monomial
bitmasks alone: the wedge with any form of one slot as a scatter of its
coefficients (``_wedge_scatter``, signed by ``_merge_table``), and from it
``omega_r ^ .`` (``_wedge_power_mat``, whose (0,0) column is the standard
``omega_r`` that ``omega_power`` moves to phi) and the ``del omega ^ .``
of ``OperatorTable``; the top pairing and the star (both signed
permutations).  More tables give ``OperatorTable`` del and dbar as one
complex gather (``take``) and a bincount of its real and of its imaginary
parts per slot (``_scatter``): the Leibniz rule as a derivation, which
builds del or dbar of any slot from the differentials of the generators
in any coframe (``_derivation_scatter``).  The adjoints and the torsion
of one slot are the chains that define them (``OperatorTable._terms``).
The commutators of L or Lambda with del, dbar or ``del omega ^ .``, the
torsion among them (``_operator_scatter``), are read on all slots at once
as one table of the operator's nonzero entries (``_whole_scatter``), the
adjoints as these relabelled by the star (``_star_conjugate``): they
serve a05 to a08, a14 and a15 of ``operators``.  All are stored as int32
positions and int8 signs; the int32 tables are never fancy-indexed,
which would cast them to intp on every call.  From these come L,
Lambda, star and the divisions T and S of ``operators`` (``_slot_mat``,
each built once per dimension and read-only), the pseudo-inverse behind
``divide_by_power`` and the sl(2) closed form behind
``lefschetz_decompose``.  ``OperatorTable.chain`` applies the star as the
signed permutation ``(perm, phase)`` it is (``_star_perm``), a gather and a
factor of +-1 or +-i per entry.
``HermitianMetric.apply`` is the one routine that applies frame slot
matrices to a ``Form``; ``hodge_star``,
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
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import AlgebraError, DimensionMismatchError, InputError
from .forms import Form, MaskKey, basis_masks, space_dim
from .jsonio import json_array, json_complex, json_number, json_object

# the default tolerance of every residual check and flag, shared by the package
DEFAULT_TOL = 1e-10
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


@lru_cache(maxsize=None)
def _merge_table(n: int, a: int, p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every a-subset mask A (rows) against every p-subset mask B (columns),
    both in basis order: whether they are disjoint, ``forms._merge_sign(A,
    B)`` (-1 to the number of pairs of a bit of A above a bit of B), and
    the position of ``A | B`` among the (a+p)-subsets in basis order."""
    A, B = (np.array([m for m, _ in _basis(n, r, 0)], dtype=np.intp).reshape(shape)
            for r, shape in ((a, (-1, 1)), (p, (1, -1))))
    masks = np.arange(1 << n)
    count = sum((masks >> k) & 1 for k in range(n))
    pairs = sum(((B >> k) & 1) * count[A >> (k + 1)] for k in range(n))
    rank = np.zeros(1 << n, dtype=np.intp)
    rank[[m for m, _ in _basis(n, a + p, 0)]] = np.arange(space_dim(n, a + p, 0))
    out = ((A & B) == 0, 1 - 2 * (pairs & 1), rank[A | B])
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _wedge_scatter(n: int, a: int, b: int, p: int, q: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``theta ^ .`` for a form theta of the (a,b)-slot, from the (p,q)-slot
    to the (p+a,q+b)-slot, as ``(rows, cols, terms, signs)``: its matrix has
    ``signs[k] * theta[terms[k]]`` at ``(rows[k], cols[k])`` and zeros
    elsewhere, no position repeating.  The signs are ``Form.wedge``'s: the
    merges of the holomorphic and of the antiholomorphic masks
    (``_merge_table``), and (-1)^(pb) for moving ``ebar_J`` of theta past
    ``e_I`` of the argument."""
    free_i, sign_i, rank_i = _merge_table(n, a, p)   # holomorphic masks
    free_j, sign_j, rank_j = _merge_table(n, b, q)   # antiholomorphic masks
    ia, ip, jb, jq = np.nonzero(free_i[:, :, None, None] & free_j[None, None, :, :])
    terms = ia * free_j.shape[0] + jb
    cols = ip * free_j.shape[1] + jq
    signs = sign_i[ia, ip] * sign_j[jb, jq] * (1 - 2 * (p * b & 1))
    rows = rank_i[ia, ip] * space_dim(n, 0, q + b) + rank_j[jb, jq]
    for arr in (rows, cols, terms, signs):
        arr.setflags(write=False)
    return rows, cols, terms, signs


def _join(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, j)`` with ``left[i] == right[j]`` (non-negative ints)."""
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=int(left.max(initial=0)) + 1)
    count = counts[left]
    start = (np.cumsum(counts) - counts)[left]
    i = np.repeat(np.arange(len(left)), count)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    return i, order[np.repeat(start, count) + offset]


def _scatter_table(pieces: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pos, terms, signs)`` of a matrix whose entry at flat position
    ``pos[k]`` collects ``signs[k] * values[terms[k]]``, from pieces of the
    same form with integer signs: repeated (position, term) pairs merged,
    zero sums dropped, ordered by position and then term, stored as int32
    and int8."""
    pos, terms, signs = (np.concatenate([piece[m] for piece in pieces] or [np.zeros(0, int)])
                         for m in range(3))
    width = int(terms.max(initial=0)) + 1
    keys, inverse = np.unique(pos.astype(np.int64) * width + terms, return_inverse=True)
    summed = np.bincount(inverse.reshape(-1), signs, len(keys)).astype(np.int64)
    keep = summed != 0
    out = ((keys[keep] // width).astype(np.int32), (keys[keep] % width).astype(np.int32),
           summed[keep].astype(np.int8))
    for arr in out:
        arr.setflags(write=False)
    return out


def _scatter(shape: Tuple[int, ...], table: Tuple[np.ndarray, np.ndarray, np.ndarray],
             values: np.ndarray) -> np.ndarray:
    """The array of a ``_scatter_table`` for these values: one complex
    gather (``take``) and a bincount of its real and of its imaginary parts.
    The int32 ``terms`` are never fancy-indexed: numpy casts such an index
    array to intp on every call, which costs more than the gather."""
    pos, terms, signs = table
    size = math.prod(shape)
    gathered = values.take(terms)
    flat = np.empty(size, dtype=complex)
    flat.real = np.bincount(pos, signs * gathered.real, size)
    flat.imag = np.bincount(pos, signs * gathered.imag, size)
    return flat.reshape(shape)


# the slots of d e_k and of d ebar_k, for del (part 0) and for dbar (part 1)
_GENERATOR_SLOTS = (((2, 0), (1, 1)), ((1, 1), (0, 2)))


def _derivation_scatter(n: int, part: int, p: int, q: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """del (part 0) or dbar (part 1) from the (p,q)-slot as a
    ``_scatter_table`` over the generator differentials: ``values`` is
    ``concatenate([Dh.ravel(), Da.ravel()])``, where column k of ``Dh``
    holds the coefficients of ``d e_k`` and column k of ``Da`` those of
    ``d ebar_k`` (the part's component, on the slots of
    ``_GENERATOR_SLOTS``), in any coframe.  It is the Leibniz rule as a
    derivation: with ``e_I = (-1)^#(I below k) e_k ^ e_{I-k}``,

        d(e_I ^ ebar_J) = sum_{k in I} (-1)^#(I below k) d e_k ^ e_{I-k} ^ ebar_J
                        + sum_{k in J} (-1)^(p + #(J below k)) d ebar_k ^ e_I ^ ebar_{J-k},

    each wedge read off ``_wedge_scatter``."""
    tp, tq = (p + 1, q) if part == 0 else (p, q + 1)
    ncols = space_dim(n, p, q)
    pieces, offset = [], 0
    for side, (a, b) in enumerate(_GENERATOR_SLOTS[part]):
        # (p,q) -> (rp,rq): remove one generator from the holomorphic (side
        # 0) or the antiholomorphic (side 1) mask
        rp, rq = (p - 1, q) if side == 0 else (p, q - 1)
        if space_dim(n, rp, rq) and space_dim(n, tp, tq):
            free, sign, rank = _merge_table(n, 1, (rp, rq)[side])
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
            rows, cols, terms, signs = _wedge_scatter(n, a, b, rp, rq)
            i, j = _join(sub, cols)
            pieces.append((rows[j] * ncols + col[i], offset + terms[j] * n + k[i],
                           ksign[i] * signs[j]))
        offset += space_dim(n, a, b) * n
    return _scatter_table(pieces)


# slot shifts of L, Lambda and the operators X of ``_operator_scatter``
_SHIFTS = {"L": (1, 1), "Lam": (-1, -1), "del": (1, 0), "dbar": (0, 1), "wdel": (2, 1),
           "wdbar": (1, 2)}
_ADJOINT_OF = {"delstar": "dbar", "dbarstar": "del"}   # D of each adjoint -star D star


@lru_cache(maxsize=None)
def _operator_scatter(n: int, lef: str, op: str, p: int, q: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_operator_table`` of one slot, kept, as are the tables it reads."""
    return _operator_table(n, lef, op, p, q, _operator_scatter)


def _operator_table(n: int, lef: str, op: str, p: int, q: int, lookup: Callable
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = ``op`` (del, dbar, "wdel" or "wdbar") from the (p,q)-slot, or
    with ``lef`` (F = L or Lambda) ``-i [F, X] = -i (F X - X F)``, as a
    ``_scatter_table`` over the values of X.  del and dbar are
    ``_derivation_scatter``.  A commutator joins X's entries with the
    nonzeros of F, all +-i, to integer signs: the torsion ``tau = [Lam, del
    omega ^ .]`` is the one with "wdel".  The tables of X come from
    ``lookup``, called with this function's first five arguments."""
    (fp, fq), (xp, xq) = _SHIFTS.get(lef, (0, 0)), _SHIFTS[op]
    ncols, tp, tq = space_dim(n, p, q), p + fp + xp, q + fq + xq
    if not (ncols and space_dim(n, tp, tq)):
        return _scatter_table([])
    if op in ("del", "dbar") and not lef:
        return _derivation_scatter(n, op == "dbar", p, q)

    def entries(p, q):   # X from the (p,q)-slot as (rows, cols, terms, signs)
        if op in ("wdel", "wdbar"):
            return _wedge_scatter(n, xp, xq, p, q)
        pos, terms, signs = lookup(n, "", op, p, q)
        return (*np.divmod(pos, space_dim(n, p, q)), terms, signs)

    pieces = []
    if space_dim(n, p + xp, q + xq):
        # F after X: F on the target slot of X
        rows, cols, terms, signs = entries(p, q)
        fr, fc, fv = _lefschetz_nonzeros(n, lef, p + xp, q + xq)
        i, j = _join(rows, fc)
        pieces.append((fr[j] * ncols + cols[i], terms[i], signs[i] * fv[j]))
    if space_dim(n, p + fp, q + fq):
        # X after F: X on the target slot of F
        rows, cols, terms, signs = entries(p + fp, q + fq)
        fr, fc, fv = _lefschetz_nonzeros(n, lef, p, q)
        i, j = _join(cols, fr)
        pieces.append((rows[i] * ncols + fc[j], terms[i], -signs[i] * fv[j]))
    return _scatter_table(pieces)


def _adjoint_base(lef: str, op: str) -> Tuple[str, str]:
    """What an adjoint ``-star D star``, or ``-i [F, X]`` of one, is
    relabelled from: D, or ``-i [F', D]`` (``star L = Lam star``)."""
    return {"L": "Lam", "Lam": "L"}.get(lef, ""), _ADJOINT_OF[op]


@lru_cache(maxsize=None)
def _slot_starts(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The monomials of all slots numbered slot after slot: ``(dims,
    start)``, each slot's size and the number of its first monomial."""
    dims = np.array([[space_dim(n, p, q) for q in range(n + 1)] for p in range(n + 1)],
                    dtype=np.int32)
    start = (np.cumsum(dims, dtype=np.int32) - dims.ravel()).reshape(dims.shape)
    for arr in (dims, start):
        arr.setflags(write=False)
    return dims, start


@lru_cache(maxsize=None)
def _star_all(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_star_perm`` on all slots (``_slot_starts``) at once, with the
    inverse permutation: ``(perm, inverse, phase)``."""
    dims, start = _slot_starts(n)
    perm = np.empty(4 ** n, dtype=np.intp)
    phase = np.empty(4 ** n, dtype=complex)
    for p in range(n + 1):
        for q in range(n + 1):
            rows = start[n - q, n - p] + np.arange(dims[p, q])
            slot_perm, slot_phase = _star_perm(n, p, q)
            perm[rows], phase[rows] = start[p, q] + slot_perm, slot_phase
    out = (perm, np.argsort(perm), phase)
    for arr in out:
        arr.setflags(write=False)
    return out


def _star_conjugate(n: int, rows: np.ndarray, cols: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries at ``(rows, cols)`` of a matrix D over all slots
    (``_slot_starts``) as entries of ``-star D star``: rows, columns and
    the real sign (+-1) of each."""
    perm, inverse, phase = _star_all(n)
    rows = inverse[rows]
    return rows, perm[cols], -(phase[rows] * phase[cols]).real.astype(np.int8)


def _whole_scatter(n: int, lef: str, op: str, lookup: Callable
                   ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """``_operator_table`` on all slots (``_slot_starts``) at once: a
    ``_scatter_table`` whose positions number X's nonzero entries, with
    their rows and columns.  It is the slot tables read through ``lookup``,
    concatenated with positions renumbered: each entry sums its terms in its
    slot table's order, as the scatter of the slot's matrix does."""
    (fp, fq), (xp, xq) = _SHIFTS.get(lef, (0, 0)), _SHIFTS[op]
    dims, start = _slot_starts(n)
    tables, rows, cols, count = [], [], [], 0
    for p in range(n + 1):
        for q in range(n + 1):
            pos, terms, signs = lookup(n, lef, op, p, q)
            if not len(pos):
                continue
            # a slot table is ordered by position: an entry starts where it changes
            first = np.ones(len(pos), dtype=bool)
            first[1:] = pos[1:] != pos[:-1]
            tables.append((count - 1 + np.cumsum(first), terms, signs))
            row, col = np.divmod(pos[first], dims[p, q])
            rows.append(start[p + fp + xp, q + fq + xq] + row)
            cols.append(start[p, q] + col)
            count += len(row)
    out = tuple(np.concatenate([t[m] for t in tables] or [np.zeros(0, dtype)]).astype(dtype)
                for m, dtype in enumerate((np.int32, np.int32, np.int8)))
    for arr in out:
        arr.setflags(write=False)
    empty = [np.zeros(0, np.int32)]
    return out, np.concatenate(rows or empty), np.concatenate(cols or empty)


@lru_cache(maxsize=None)
def _lefschetz_nonzeros(n: int, name: str, p: int, q: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, signs)``: the nonzeros ``i * signs`` of L or Lambda."""
    mat = _slot_mat(n, name, p, q)[0]
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols].imag.astype(np.int8)


@lru_cache(maxsize=None)
def _wedge_power_mat(n: int, r: int, p: int, q: int) -> np.ndarray:
    """Matrix of ``omega_r ^ .`` from the (p,q)-slot to the (p+r,q+r)-slot,
    standard frame: the entries of ``_wedge_scatter`` at the terms
    ``e_K ^ ebar_K`` of ``omega_r = i^r (-1)^(r(r-1)/2) sum_K e_K ^ ebar_K``
    over r-subsets K, which are its only nonzero coefficients.  The table
    is not kept: the matrix is."""
    rows, cols, terms, signs = _wedge_scatter.__wrapped__(n, r, r, p, q)
    diagonal = np.isin(terms, [_index(n, r, r)[(k, k)] for k, _ in _basis(n, r, 0)])
    mat = np.zeros((space_dim(n, p + r, q + r), space_dim(n, p, q)), dtype=complex)
    mat[rows[diagonal], cols[diagonal]] = 1j ** r * (-1) ** (r * (r - 1) // 2) * signs[diagonal]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _slot_mat(n: int, name: str, p: int, q: int) -> Tuple[np.ndarray, int, int]:
    """Orthonormal-frame matrix of a pointwise operator on the (p,q)-slot
    and its target slot: "L" is ``omega ^ .``, "Lam" its adjoint, "star"
    the Hodge star, "T" and "S" the divisions of ``_division_mat``.
    Built once per dimension and read-only."""
    if name == "star":
        return _star_mat(n, p, q), n - q, n - p
    if name in ("T", "S"):
        k = 1 if name == "T" else n - 1
        if (p, q) != (k, k):
            raise InputError(f"{name} expects a ({k},{k})-form, got bidegree ({p},{q})")
        return _division_mat(n, name), p, q
    tp, tq = (p + 1, q + 1) if name == "L" else (p - 1, q - 1)
    if not (space_dim(n, p, q) and space_dim(n, tp, tq)):
        mat = np.zeros((space_dim(n, tp, tq), space_dim(n, p, q)), dtype=complex)
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
        mat = _star_mat(n, 1, 1) @ mat @ _star_mat(n, n - 1, n - 1)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _top_pairing(n: int, p: int, q: int) -> np.ndarray:
    """Top coefficient of ``a ^ b`` for the monomials a of the (p,q)-slot
    (rows) and b of the (n-p,n-q)-slot (columns); the same in every
    coframe, so ``integral(u ^ v) = u @ _top_pairing @ v / _volume_coeff(n)``
    on phi-basis coefficient vectors.  It is ``_wedge_scatter``'s table of
    ``a ^ .`` into the one-dimensional top slot: ``e_I ^ ebar_J`` pairs
    only with its complement."""
    _, cols, terms, signs = _wedge_scatter.__wrapped__(n, p, q, n - p, n - q)
    mat = np.zeros((space_dim(n, p, q), space_dim(n, n - p, n - q)), dtype=complex)
    mat[terms, cols] = signs
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _star_mat(n: int, p: int, q: int) -> np.ndarray:
    """Matrix of the Hodge star from the (p,q)-slot to the (n-q,n-p)-slot
    in the orthonormal frame.  The defining pairing ``u ^ star(w) = <u,
    conj(w)> dV`` over monomials makes it the transposed (signed
    permutation) pairing of the (q,p)-slot, read at the conjugate monomial
    ``e_J ^ ebar_I`` of each ``e_I ^ ebar_J`` and scaled by
    ``(-1)^(pq) _volume_coeff(n)``."""
    conj = [_index(n, q, p)[(j, i)] for i, j in _basis(n, p, q)]
    mat = (-1) ** (p * q) * _volume_coeff(n) * _top_pairing(n, q, p).T[:, conj]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _star_perm(n: int, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """``_star_mat(n, p, q)`` as the signed permutation it is: ``(perm,
    phase)`` with ``_star_mat @ x == phase * x[perm]``, each phase one of
    1, -1, i, -i."""
    mat = _star_mat(n, p, q)
    perm = np.abs(mat).argmax(axis=1)
    phase = mat[np.arange(len(perm)), perm]
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


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
            raise InputError(
                f"metric matrix is not positive definite (eigenvalues {eigs})")
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
