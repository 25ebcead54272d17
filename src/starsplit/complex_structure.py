"""Invariant complex manifold models given by structure constants.

A model is the complexified exterior algebra of a fixed coframe together
with a differential determined by the values of ``d`` on the generators:

    d phi_k = sum_{i<j} c2[k,i,j] phi_i ^ phi_j  +  sum_{i,j} c11[k,i,j] phi_i ^ phibar_j

(the (0,2)-part of ``d phi_k`` is excluded by integrability of the complex
structure, and the storage format cannot express one).  ``d`` extends by
C-linearity, the graded Leibniz rule and ``d phibar_k = conj(d phi_k)``;
``del`` and ``delbar`` are its bidegree components.

Every form is constant-coefficient, so on each (p,q)-slot ``del`` and
``delbar`` are fixed phi-basis matrices.  ``d_matrices`` builds them from
the Leibniz rule when a slot is first used and caches them read-only;
``d``, ``del_`` and ``delbar`` only apply them.

Coefficients may be expressions over named complex parameters (see
``exprs``); binding parameters produces a new, immutable instance whose
generator differentials and slot matrices are built afresh.

Validity of a model is quantified, not assumed: ``check_integrability``
composes the slot matrices into ``d d`` on the generators, and
``check_stokes`` reads the top-degree rows of the slot matrices on the
(2n-1)-forms.  When both vanish, integration of invariant top forms
against the canonical orientation form ``i phi_1 phibar_1 ^ ... ^ i phi_n
phibar_n`` (total volume normalised to 1) satisfies ``integral(d beta) =
0``, which is what makes the formal adjoints of ``operators.OperatorTable``
genuine L2 adjoints on invariant forms.

A ``PullbackMap`` is a linear coframe substitution with finite entries,
refused when it is singular to working precision (condition number 1e12
or more): ``pullback`` applies it to forms through compound matrices,
``structure_compatibility`` measures its commutation with the slot
matrices of ``d``, and ``pullback_metric`` moves a metric along it.  The
metric enters only there and in ``total_volume``; every metric-dependent
operator is a slot matrix of ``operators.OperatorTable``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import exprs
from .errors import DimensionMismatchError, InputError, UnboundParameterError
from .forms import Form, basis_masks, mask_to_indices, space_dim
from .jsonio import json_array, json_complex, json_number, json_object, read_file
from .metric import (DEFAULT_TOL, HermitianMetric, _volume_coeff, compound, form_to_vec,
                     substitution_matrix, vec_to_form)


class IntegrationWarning(UserWarning):
    """Integrand had components below top degree; they were ignored."""


# structure entry: (i, j, coefficient-expression-string)
StructureTable = Dict[int, Dict[str, List[Tuple[int, int, str]]]]
# the slots of d(phi_k) and the JSON name of each entry's second index
_SLOT_COLUMNS = {"(2,0)": "j", "(1,1)": "jbar"}


class InvariantComplexManifold:
    """Coframe model with parameterised constant structure coefficients."""

    __slots__ = ("name", "dim", "structure", "params", "_d_gen", "_d_gen_bar",
                 "_d_mats")

    def __init__(self, name: str, dim: int, structure: StructureTable,
                 params: Optional[Mapping[str, complex]] = None):
        if dim < 1:
            raise InputError("dimension must be positive")
        for k in structure:
            if not 1 <= k <= dim:
                raise InputError(f"structure key phi{k} outside phi1..phi{dim}")
        self.name = name
        self.dim = dim
        self.structure = {k: {"(2,0)": list(structure.get(k, {}).get("(2,0)", ())),
                              "(1,1)": list(structure.get(k, {}).get("(1,1)", ()))}
                          for k in range(1, dim + 1)}
        for k, parts in self.structure.items():
            for slot, entries in parts.items():
                for (i, j, _) in entries:
                    if not (1 <= i <= dim and 1 <= j <= dim):
                        raise InputError(f"structure index out of range in d(phi_{k})")
                    if slot == "(2,0)" and i >= j:
                        raise InputError(f"(2,0) entries need i < j, got ({i},{j})")
        self.params: Dict[str, complex] = dict(params or {})
        self._d_gen: Optional[List[Form]] = None
        self._d_gen_bar: Optional[List[Form]] = None
        self._d_mats: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def parameter_names(self) -> set:
        """Names usable in bind(): those appearing in coefficient
        expressions plus any already carrying a bound value."""
        names = set(self.params)
        for parts in self.structure.values():
            for entries in parts.values():
                for (_, _, expr) in entries:
                    names |= exprs.parameter_names(expr)
        return names

    def bind(self, **values: complex) -> "InvariantComplexManifold":
        known = self.parameter_names()
        for key in values:
            if key not in known:
                raise UnboundParameterError(
                    f"manifold {self.name!r} has no parameter {key!r}")
        merged = dict(self.params)
        merged.update({k: complex(v) for k, v in values.items()})
        return InvariantComplexManifold(self.name, self.dim, self.structure, merged)

    def _generators(self) -> Tuple[List[Form], List[Form]]:
        if self._d_gen is None:
            n = self.dim
            gens = [Form.zero(n)]  # 1-based padding
            for k in range(1, n + 1):
                total = Form.zero(n)
                for (i, j, expr) in self.structure[k]["(2,0)"]:
                    c = exprs.evaluate(expr, self.params)
                    total = total + Form.monomial(n, (i, j), (), c)
                for (i, j, expr) in self.structure[k]["(1,1)"]:
                    c = exprs.evaluate(expr, self.params)
                    total = total + Form.monomial(n, (i,), (j,), c)
                gens.append(total)
            self._d_gen = gens
            self._d_gen_bar = [f.conjugate() for f in gens]
        return self._d_gen, self._d_gen_bar

    # ------------------------------------------------------------------
    # the differential and its bidegree parts
    # ------------------------------------------------------------------
    def _leibniz_d(self, u: Form) -> Form:
        """d extended from the generators by the graded Leibniz rule; the
        builder of the slot matrices and the reference they are tested
        against."""
        dgen, dgen_bar = self._generators()
        n = self.dim
        out = Form.zero(n)
        for (imask, jmask), c in u._terms.items():
            factors = ([(k, False) for k in mask_to_indices(imask)]
                       + [(k, True) for k in mask_to_indices(jmask)])
            for t, (k, barred) in enumerate(factors):
                dg = dgen_bar[k] if barred else dgen[k]
                if not dg._terms:
                    continue
                coeff = -c if t & 1 else c
                pre_h = tuple(kk for kk, b in factors[:t] if not b)
                pre_a = tuple(kk for kk, b in factors[:t] if b)
                suf_h = tuple(kk for kk, b in factors[t + 1:] if not b)
                suf_a = tuple(kk for kk, b in factors[t + 1:] if b)
                piece = Form.monomial(n, pre_h, pre_a, coeff).wedge(dg).wedge(
                    Form.monomial(n, suf_h, suf_a, 1.0))
                out = out + piece
        return out

    def d_matrices(self, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
        """phi-basis matrices of del and delbar on the (p,q)-slot, built
        from the Leibniz rule on first use and cached read-only."""
        if (p, q) not in self._d_mats:
            n = self.dim
            images = [self._leibniz_d(Form(n, {key: 1.0})) for key in basis_masks(n, p, q)]
            mats = tuple(np.array([form_to_vec(im, tp, tq) for im in images], dtype=complex)
                         .reshape(len(images), space_dim(n, tp, tq)).T
                         for tp, tq in ((p + 1, q), (p, q + 1)))
            for mat in mats:
                mat.setflags(write=False)
            self._d_mats[(p, q)] = mats
        return self._d_mats[(p, q)]

    def _differential(self, u: Form, parts: Tuple[int, ...]) -> Form:
        """Sum over the bidegrees of ``u`` of the chosen slot matrices
        (0: del, 1: delbar) applied to its coefficient vectors."""
        if u.dim != self.dim:
            raise DimensionMismatchError("form/manifold dimension mismatch")
        out = Form.zero(self.dim)
        for p, q in u.bidegrees():
            vec, mats = form_to_vec(u, p, q), self.d_matrices(p, q)
            for part in parts:
                out = out + vec_to_form(self.dim, p + 1 - part, q + part, mats[part] @ vec)
        return out

    def d(self, u: Form) -> Form:
        """Exterior differential, through the slot matrices."""
        return self._differential(u, (0, 1))

    def del_(self, u: Form) -> Form:
        """(1,0)-part of d."""
        return self._differential(u, (0,))

    def delbar(self, u: Form) -> Form:
        """(0,1)-part of d."""
        return self._differential(u, (1,))

    # ------------------------------------------------------------------
    # sanity residuals
    # ------------------------------------------------------------------
    def check_integrability(self) -> float:
        """max over the (1,0)- and (0,1)-slots, that is over the generators
        and their conjugates, of the entries of d d: its three bidegree
        parts composed from the slot matrices."""
        out = 0.0
        for p, q in ((1, 0), (0, 1)):
            del_, dbar = self.d_matrices(p, q)
            (del_1, dbar_1), (del_2, dbar_2) = self.d_matrices(p + 1, q), self.d_matrices(p, q + 1)
            for part in (del_1 @ del_, dbar_1 @ del_ + del_2 @ dbar, dbar_2 @ dbar):
                out = max(out, float(np.abs(part).max(initial=0.0)))
        return out

    def check_stokes(self) -> float:
        """max over (2n-1)-monomials of the top-degree coefficient of d:
        the (n,n) rows of the slot matrices below it."""
        n = self.dim
        tops = (self.d_matrices(n - 1, n)[0], self.d_matrices(n, n - 1)[1])
        return max(float(np.abs(m).max(initial=0.0)) for m in tops)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        r = self.check_integrability()
        if r > tol:
            raise InputError(
                f"invalid structure constants: d² ≠ 0 (residual {r:.3e})")
        r = self.check_stokes()
        if r > tol:
            raise InputError(
                f"invalid structure constants: a top-degree exact form has "
                f"nonzero integral (residual {r:.3e})")

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def integrate(self, u: Form) -> complex:
        """Integral of the (n,n)-part of ``u`` against the canonical
        orientation form ``prod_k (i phi_k ^ phibar_k)``, total volume 1."""
        n = self.dim
        if any((p, q) != (n, n) for (p, q) in u.bidegrees()):
            warnings.warn("integrand has components below top degree; ignored",
                          IntegrationWarning, stacklevel=2)
        full = (1 << n) - 1
        return u._terms.get((full, full), 0j) / _volume_coeff(n)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        struct = {}
        for k in range(1, self.dim + 1):
            struct[f"phi{k}"] = {
                slot: [{"i": i, col: j, "coeff": c} for (i, j, c) in self.structure[k][slot]]
                for slot, col in _SLOT_COLUMNS.items() if self.structure[k][slot]}
        params = {name: {"default": [v.real, v.imag]} for name, v in self.params.items()}
        return {"name": self.name, "dim": self.dim, "parameters": params,
                "structure": struct}

    @classmethod
    def from_json_dict(cls, data: dict) -> "InvariantComplexManifold":
        try:
            data = json_object(data, "the top level", ("name", "dim", "parameters", "structure"))
            name = data.get("name", "unnamed")
            dim = json_number(data["dim"], "'dim'", integer=True)
            params = {}
            for pname, spec in json_object(data.get("parameters", {}), "parameters").items():
                default = json_object(spec, f"parameter {pname!r}", ("default",)).get("default")
                if default is not None:
                    params[pname] = json_complex(default, f"default of parameter {pname!r}")
            structure: StructureTable = {}
            for key, parts in json_object(data.get("structure", {}), "structure").items():
                k = int(key[3:]) if key.startswith("phi") and key[3:].isdecimal() else None
                if k is None or key != f"phi{k}":
                    raise InputError(f"bad structure key {key!r}")
                parts = json_object(parts, key, _SLOT_COLUMNS)
                entry = {}
                for slot, col in _SLOT_COLUMNS.items():
                    entry[slot] = []
                    for item in json_array(parts.get(slot, []), f"{key} {slot}"):
                        where = f"an entry of {key} {slot}"
                        item = json_object(item, where, ("i", col, "coeff"))
                        i, j = (json_number(item[c], f"{c!r} of {where}", integer=True)
                                for c in ("i", col))
                        entry[slot].append((i, j, str(item["coeff"])))
                structure[k] = entry
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed manifold description: {exc}") from exc
        return cls(name, dim, structure, params)

    @classmethod
    def from_json_file(cls, path: str) -> "InvariantComplexManifold":
        return cls.from_json_dict(read_file(path, "manifold file"))

    def __repr__(self) -> str:
        return f"InvariantComplexManifold({self.name!r}, n={self.dim})"


# ----------------------------------------------------------------------
# total volume of a metric
# ----------------------------------------------------------------------
def total_volume(M: InvariantComplexManifold, g: HermitianMetric) -> float:
    """Integral of ``omega_n``: the (n,n) entry det H of the conversion out
    of the frame, where its top coefficient is the standard one."""
    return float(g.from_e_matrix(g.dim, g.dim)[0, 0].real)


# ----------------------------------------------------------------------
# linear pullback maps of the model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PullbackMap:
    """Linear coframe substitution phi*_k = sum_j A[k,j] phi_j."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.array(self.matrix, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("pullback matrix must be square")
        if not np.isfinite(A).all():
            raise InputError("pullback matrix has non-finite entries")
        # singular values, largest first; refused by conditioning, not size
        s = np.linalg.svd(A, compute_uv=False)
        if s.size and s[-1] <= 1e-12 * s[0]:
            raise InputError(f"pullback matrix is singular to working precision (condition "
                             f"number {s[0] / s[-1] if s[-1] else math.inf:.3g} is not below 1e12)")
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PullbackMap":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, coeffs: Sequence[complex]) -> "PullbackMap":
        return cls(np.diag(np.asarray(coeffs, dtype=complex)))

    def compose(self, other: "PullbackMap") -> "PullbackMap":
        """Pullback of the composition: (self o other)* = other* o self*."""
        return PullbackMap(self.matrix @ other.matrix)

    def inverse(self) -> "PullbackMap":
        return PullbackMap(np.linalg.inv(self.matrix))

    @classmethod
    def from_json_dict(cls, data: dict) -> "PullbackMap":
        try:
            data = json_object(data, "pullback description", ("matrix",))
            entries = json_array(data["matrix"], "pullback 'matrix'")
            n = round(len(entries) ** 0.5)
            if n * n != len(entries):
                raise InputError("pullback matrix needs n^2 [re,im] entries")
            flat = [json_complex(z, "an entry of pullback 'matrix'") for z in entries]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed pullback description: {exc}") from exc
        return cls(np.array(flat, dtype=complex).reshape(n, n))

    def to_json_dict(self) -> dict:
        return {"matrix": [[z.real, z.imag] for z in self.matrix.reshape(-1)]}


def _pullback_matrix(phi: PullbackMap, p: int, q: int) -> np.ndarray:
    """phi-basis matrix of the pullback on the (p,q)-slot, through compound
    matrices (convention in ``metric``)."""
    return substitution_matrix(compound(phi.matrix, p), compound(phi.matrix, q))


def pullback(M: InvariantComplexManifold, phi: PullbackMap, u: Form) -> Form:
    """Algebra homomorphism determined by the coframe substitution, applied
    per bidegree."""
    n = M.dim
    if phi.dim != n or u.dim != n:
        raise DimensionMismatchError("pullback dimension mismatch")
    out = Form.zero(n)
    for p, q in u.bidegrees():
        out = out + vec_to_form(n, p, q, _pullback_matrix(phi, p, q) @ form_to_vec(u, p, q))
    return out


def structure_compatibility(M: InvariantComplexManifold, phi: PullbackMap) -> float:
    """Residual of commutation of the pullback with d on the generators:
    the largest entry of phi* del - del phi* and of phi* dbar - dbar phi*
    on the (1,0)-slot."""
    if phi.dim != M.dim:
        raise DimensionMismatchError("pullback dimension mismatch")
    source = _pullback_matrix(phi, 1, 0)
    return max(float(np.abs(_pullback_matrix(phi, *target) @ mat - mat @ source).max(initial=0.0))
               for target, mat in zip(((2, 0), (1, 1)), M.d_matrices(1, 0)))


def pullback_metric(M: InvariantComplexManifold, phi: PullbackMap,
                    g: HermitianMetric) -> HermitianMetric:
    """Metric of the pulled-back form phi* omega; rejects degenerate results."""
    if phi.dim != M.dim or g.dim != M.dim:
        raise DimensionMismatchError("pullback dimension mismatch")
    A = phi.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        Ht = A.T @ g.H @ A.conj()
    if not np.isfinite(Ht).all():
        raise InputError("pullback metric overflows: its entries are not finite doubles")
    try:
        return HermitianMetric(Ht)
    except InputError as exc:
        raise InputError(f"pullback metric is degenerate: {exc}") from exc
