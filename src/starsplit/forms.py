"""Sparse complexified exterior algebra over a fixed coframe.

Forms live in the algebra generated by a coframe ``phi_1, ..., phi_n`` of
(1,0)-forms together with the conjugate coframe ``phibar_1, ..., phibar_n``.
A form is a sparse map from monomials ``phi_I ^ phibar_J`` (``I``, ``J``
strictly increasing multi-indices) to complex coefficients.

The canonical monomial order puts the holomorphic block first, each block
ascending.  Every product and conjugation is sign-normalised to that order
on insertion, so comparing two forms reduces to comparing coefficients.
Multi-indices are stored as bitmasks (bit ``k-1`` set means index ``k`` is
present), which keeps the wedge-sign bookkeeping to a few integer ops.

Forms are immutable values: every operation returns a new ``Form``.
Exact zeros are not stored and every other coefficient is kept, however
small, so a form and its nonzero multiples have the same monomials.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatchError, InputError

MaskKey = Tuple[int, int]


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint increasing index
    sets ``(A..., B...)`` into one increasing sequence."""
    sign = 1
    while b:
        low = b & -b
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def _mask_and_sign(indices: Sequence[int], n: int) -> Tuple[int, int]:
    """Bitmask and sorting sign of a 1-based index sequence.

    Returns ``(0, 0)`` when an index repeats (the monomial vanishes).
    """
    mask = 0
    sign = 1
    for idx in indices:
        if not 1 <= idx <= n:
            raise InputError(f"index {idx} outside 1..{n}")
        bit = 1 << (idx - 1)
        if mask & bit:
            return 0, 0
        if (mask >> idx).bit_count() & 1:
            sign = -sign
        mask |= bit
    return mask, sign


def mask_to_indices(mask: int) -> Tuple[int, ...]:
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


class Form:
    """Sparse element of the complexified exterior algebra, possibly
    inhomogeneous."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Dict[MaskKey, complex] | None = None):
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        clean: Dict[MaskKey, complex] = {}
        if terms:
            for key, coeff in terms.items():
                c = complex(coeff)
                if c:
                    clean[key] = c
        self._terms = clean

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "Form":
        return cls(dim)

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "Form":
        return cls(dim, {(0, 0): complex(value)})

    @classmethod
    def monomial(cls, dim: int, holo: Sequence[int] = (), anti: Sequence[int] = (),
                 coeff: complex = 1.0) -> "Form":
        """``coeff * phi_holo ^ phibar_anti``; unsorted indices are
        sign-normalised, repeated indices give the zero form."""
        imask, isign = _mask_and_sign(holo, dim)
        jmask, jsign = _mask_and_sign(anti, dim)
        if isign == 0 or jsign == 0:
            return cls(dim)
        return cls(dim, {(imask, jmask): complex(coeff) * isign * jsign})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def terms(self) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], complex]]:
        """Decoded terms in a deterministic order."""
        def sort_key(key: MaskKey):
            i, j = key
            return (i.bit_count() + j.bit_count(), i.bit_count(), i, j)
        for i, j in sorted(self._terms, key=sort_key):
            yield mask_to_indices(i), mask_to_indices(j), self._terms[(i, j)]

    def coefficient(self, holo: Sequence[int] = (), anti: Sequence[int] = ()) -> complex:
        imask, isign = _mask_and_sign(holo, self.dim)
        jmask, jsign = _mask_and_sign(anti, self.dim)
        if isign == 0 or jsign == 0:
            return 0j
        return self._terms.get((imask, jmask), 0j) * isign * jsign

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self._terms.values())

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def bidegrees(self) -> List[Tuple[int, int]]:
        seen = {(i.bit_count(), j.bit_count()) for i, j in self._terms}
        return sorted(seen)

    def is_homogeneous(self) -> bool:
        return len(self.bidegrees()) <= 1

    def bidegree(self) -> Tuple[int, int]:
        degs = self.bidegrees()
        if len(degs) != 1:
            raise InputError(f"form is not homogeneous (bidegrees {degs})")
        return degs[0]

    def bidegree_component(self, p: int, q: int) -> "Form":
        n = self.dim
        if not (0 <= p <= n and 0 <= q <= n):
            raise InputError(f"bidegree ({p},{q}) outside 0..{n}")
        terms = {k: c for k, c in self._terms.items()
                 if k[0].bit_count() == p and k[1].bit_count() == q}
        return Form(n, terms)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def wedge(self, other: "Form") -> "Form":
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot wedge forms of dimension {self.dim} and {other.dim}")
        out: Dict[MaskKey, complex] = {}
        for (i1, j1), c1 in self._terms.items():
            q1 = j1.bit_count()
            for (i2, j2), c2 in other._terms.items():
                if i1 & i2 or j1 & j2:
                    continue
                sign = _merge_sign(i1, i2) * _merge_sign(j1, j2)
                if (i2.bit_count() * q1) & 1:
                    sign = -sign
                key = (i1 | i2, j1 | j2)
                out[key] = out.get(key, 0j) + sign * c1 * c2
        return Form(self.dim, out)

    def conjugate(self) -> "Form":
        out: Dict[MaskKey, complex] = {}
        for (i, j), c in self._terms.items():
            sign = -1 if (i.bit_count() * j.bit_count()) & 1 else 1
            out[(j, i)] = sign * c.conjugate()
        return Form(self.dim, out)

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot add forms of dimension {self.dim} and {other.dim}")
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return Form(self.dim, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.dim, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            return NotImplemented
        s = complex(scalar)
        return Form(self.dim, {k: s * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        return self * (1.0 / complex(scalar))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Form({self.dim}, 0)"
        parts = []
        for holo, anti, c in self.terms():
            h = "".join(f"p{k}" for k in holo) or ""
            a = "".join(f"q{k}" for k in anti) or ""
            parts.append(f"({c:.6g})*{h}{a}" if (h or a) else f"({c:.6g})")
        return f"Form({self.dim}, " + " + ".join(parts) + ")"


def basis_masks(n: int, p: int, q: int) -> List[MaskKey]:
    """Monomial basis of the (p,q)-slot, holomorphic-major lexicographic order."""
    if p < 0 or q < 0 or p > n or q > n:
        return []
    hol = [sum(1 << (k - 1) for k in comb) for comb in combinations(range(1, n + 1), p)]
    ant = [sum(1 << (k - 1) for k in comb) for comb in combinations(range(1, n + 1), q)]
    return [(i, j) for i in hol for j in ant]


def space_dim(n: int, p: int, q: int) -> int:
    if p < 0 or q < 0 or p > n or q > n:
        return 0
    return comb(n, p) * comb(n, q)
