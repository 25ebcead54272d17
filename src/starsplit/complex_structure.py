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

``OperatorTable`` (re-exported by ``operators``) holds every metric-dependent
operator as orthonormal-frame slot matrices.  del/dbar, the wedges ``del
omega ^ .`` and ``delbar omega ^ .`` and the torsion ``tau = [Lambda, del
omega ^ .]`` and its conjugate are scattered from per-dimension tables of
``metric``: del/dbar from the frame differentials of the generators
(the matrices on the (1,0)- and (0,1)-slots moved into the frame, the
only congruences left), the rest from the frame 3-form ``del omega``
(``delbar omega``).  L, Lambda, star, T and S are per dimension; every
other operator is a sum of chains of these: ``del* = -star delbar
star``, ``delbar* = -star del star``, the delbar-Laplacian and the
(1,1)-operators P, R and Q of ``operators``.  The adjoints and the
Laplacian below, and the operators of ``operators``, only apply its
matrices.

Validity of a model is quantified, not assumed: ``check_integrability``
measures ``d(d phi_k)`` and ``check_stokes`` reads the top-degree rows of
the slot matrices on the (2n-1)-forms.  When both vanish, integration of
invariant top forms against the canonical orientation form
``i phi_1 phibar_1 ^ ... ^ i phi_n phibar_n`` (total volume normalised
to 1) satisfies ``integral(d beta) = 0``, which is what makes the formal
adjoints below genuine L2 adjoints on invariant forms.
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
from .metric import (DEFAULT_TOL, HermitianMetric, _derivation_scatter, _lefschetz_chain,
                     _scatter, _slot_mat, _star_perm, _torsion_scatter, _volume_coeff,
                     _wedge_scatter, compound, form_to_vec, inner_product, substitution_matrix,
                     vec_to_form)


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
        """max over generators of the coefficients of d(d phi_k)."""
        dgen, dgen_bar = self._generators()
        return max(self.d(f).max_abs() for f in dgen[1:] + dgen_bar[1:])

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
# metric-dependent operators
# ----------------------------------------------------------------------
def total_volume(M: InvariantComplexManifold, g: HermitianMetric) -> float:
    """Integral of ``omega_n``: the (n,n) entry det H of the conversion out
    of the frame, where its top coefficient is the standard one."""
    return float(g.from_e_matrix(g.dim, g.dim)[0, 0].real)


def l2_pairing(M: InvariantComplexManifold, g: HermitianMetric, u: Form, v: Form) -> complex:
    """Global pairing <<u, v>> = integral of <u, v> against the volume form.

    On invariant forms the pointwise product is constant, so this is the
    pointwise inner product times the total volume, summed over matching
    bidegree components.
    """
    vol = total_volume(M, g)
    out = 0j
    common = set(u.bidegrees()) & set(v.bidegrees())
    for p, q in common:
        out += inner_product(g, u.bidegree_component(p, q), v.bidegree_component(p, q))
    return out * vol


class OperatorTable:
    """First-order and pointwise operators of a (manifold, metric) pair as
    matrices over the orthonormal monomial bases, built per slot on first
    use and kept, read-only, for the life of the table.

    "del"/"dbar" on every slot are one scatter (``metric._scatter``) of
    the frame differentials of the generators through the Leibniz rule's
    per-dimension table ``metric._derivation_scatter``; those
    differentials are the manifold's (1,0)- and (0,1)-slot matrices moved
    into the frame, four small congruences per table (``_generators``).
    "L", "Lam", "star", "T" and "S" are the per-dimension matrices of
    ``metric._slot_mat``.  "wdel"/"wdbar" are the wedge with the frame
    3-form ``theta = del omega`` (``delbar omega``), which is one mat-vec
    of the table, kept as the (0,0)-slot column and scattered into every
    other slot by ``metric._wedge_scatter``; "tau"/"taubar", the
    commutators of Lambda with them, are one scatter of the same theta
    through ``metric._torsion_scatter``.  Every other name is a sum of
    scaled chains of these (``_terms``).  "P", "R" and "Q" act on the
    (1,1)-slot only.
    ``chain`` applies "star" as the signed permutation it is, and takes a
    chain of "L" and "Lam" alone from a per-dimension table; the slot
    list ``bidegrees()`` is computed once per table."""

    _SHIFTS = {"del": (1, 0), "dbar": (0, 1), "L": (1, 1), "Lam": (-1, -1),
               "tau": (1, 0), "taubar": (0, 1), "delstar": (-1, 0), "dbarstar": (0, -1),
               "wdel": (2, 1), "wdbar": (1, 2), "T": (0, 0), "S": (0, 0),
               "P": (0, 0), "R": (0, 0), "Q": (0, 0), "dbarlap": (0, 0)}

    def __init__(self, M: InvariantComplexManifold, g: HermitianMetric):
        if M.dim != g.dim:
            raise InputError("manifold/metric dimension mismatch")
        self.M = M
        self.g = g
        self.n = n = M.dim
        self._mats: Dict[Tuple[str, int, int], np.ndarray] = {}
        self._gens: Dict[str, np.ndarray] = {}
        self._bidegrees = tuple((p, q) for p in range(n + 1) for q in range(n + 1)
                                if space_dim(n, p, q))

    def target(self, name: str, p: int, q: int) -> Tuple[int, int]:
        if name == "star":
            return (self.n - q, self.n - p)
        dp, dq = self._SHIFTS[name]
        return (p + dp, q + dq)

    def _terms(self, name: str) -> List[Tuple[complex, List[str]]]:
        """(coefficient, chain) pairs summing to a composite operator."""
        n = self.n
        if name in ("delstar", "dbarstar"):
            return [(-1, ["star", "dbar" if name == "delstar" else "del", "star"])]
        if name == "dbarlap":
            return [(1, ["dbar", "dbarstar"]), (1, ["dbarstar", "dbar"])]
        if name == "R":
            return [(1j, ["L", "delstar", "dbarstar"])]
        if name in ("P", "Q") and n < 3:
            raise InputError(f"{name} needs dimension >= 3")
        if name == "P":
            # (omega_{n-2} ^ .)^{-1} = T star on the (n-1,n-1)-slot
            return [(1j / math.factorial(n - 3),
                     ["T", "star"] + ["L"] * (n - 3) + ["del", "dbar"])]
        if name == "Q":
            return [(1, ["P"]), (1, ["R"]), (-1j, ["del", "Lam", "dbar"]),
                    (-1j, ["delstar", "L", "dbarstar"]),
                    (-1 / (n - 1), ["L", "dbarstar", "Lam", "dbar"])]
        raise InputError(f"unknown operator {name!r}")

    def _generators(self, name: str) -> np.ndarray:
        """The frame differentials ``del e_k`` and ``del ebar_k`` ("del"), or
        ``dbar e_k`` and ``dbar ebar_k`` ("dbar"), in the layout that
        ``metric._derivation_scatter`` reads: the manifold's matrices on the
        (1,0)- and (0,1)-slots moved into the frame, flattened."""
        if name not in self._gens:
            part, g = name == "dbar", self.g
            self._gens[name] = np.concatenate([
                (g.to_e_matrix(*self.target(name, p, q)) @ self.M.d_matrices(p, q)[part]
                 @ g.from_e_matrix(p, q)).ravel()
                for p, q in ((1, 0), (0, 1)) if space_dim(self.n, *self.target(name, p, q))])
        return self._gens[name]

    def mat(self, name: str, p: int, q: int) -> np.ndarray:
        key = (name, p, q)
        if key in self._mats:
            return self._mats[key]
        if name in ("P", "R", "Q") and (p, q) != (1, 1):
            raise InputError(f"{name} expects a (1,1)-form, got bidegree ({p},{q})")
        n = self.n
        tp, tq = self.target(name, p, q)
        shape = (space_dim(n, tp, tq), space_dim(n, p, q))
        if not all(shape):
            return np.zeros(shape, dtype=complex)
        if name in ("del", "dbar"):
            mat = _scatter(shape, _derivation_scatter(n, ("del", "dbar").index(name), p, q),
                           self._generators(name))
        elif name in ("tau", "taubar"):
            bar = name == "taubar"
            theta = self.mat("wdbar" if bar else "wdel", 0, 0)[:, 0]
            mat = 1j * _scatter(shape, _torsion_scatter(n, bar, p, q), theta)
        elif name in ("L", "Lam", "star", "T", "S"):
            mat = _slot_mat(n, name, p, q)[0]
        elif name in ("wdel", "wdbar"):
            # theta ^ . for theta = del omega (dbar omega): one mat-vec, kept
            # as the (0,0)-slot column, scattered into every other slot
            theta = (self.mat(name[1:], 1, 1) @ self.mat("L", 0, 0) if (p, q) == (0, 0)
                     else self.mat(name, 0, 0))[:, 0]
            rows, cols, terms, signs = _wedge_scatter(n, *self._SHIFTS[name], p, q)
            mat = np.zeros(shape, dtype=complex)
            mat[rows, cols] = signs * theta[terms]
        else:
            mat = sum(c * self.chain(names, p, q) for c, names in self._terms(name))
        mat.setflags(write=False)
        self._mats[key] = mat
        return mat

    def chain(self, names: Sequence[str], p: int, q: int) -> np.ndarray:
        """Composition, rightmost name applied first: exactly the dense
        product of the ``mat`` entries, composed in that order, but a chain
        of "L" and "Lam" alone is scattered from its per-dimension sparse
        table and a "star" step is a signed-permutation gather.  A chain of
        one name other than "star" is the table's read-only matrix; any
        other chain is a fresh array."""
        n = self.n
        if len(names) > 1 and all(name in ("L", "Lam") for name in names):
            shape, idx, vals = _lefschetz_chain(n, tuple(names), p, q)
            mat = np.zeros(shape, dtype=complex)
            mat.reshape(-1)[idx] = vals
            return mat
        # mat: a dense matrix, or (perm, phase) while only stars have acted
        mat, cur = None, (p, q)
        for name in reversed(names):
            if name == "star" and space_dim(n, *cur):
                perm, phase = _star_perm(n, *cur)
                if mat is None:
                    mat = (perm, phase)
                elif isinstance(mat, tuple):
                    mat = (mat[0][perm], phase * mat[1][perm])
                else:
                    mat = phase[:, None] * mat[perm]
            else:
                step = self.mat(name, *cur)
                if isinstance(mat, tuple):
                    # step @ star: column k of the product is a scaled
                    # column of step
                    perm, phase = mat
                    mat = np.empty_like(step)
                    mat[:, perm] = step * phase
                else:
                    mat = step if mat is None else step @ mat
            cur = self.target(name, *cur)
        if isinstance(mat, tuple):
            perm, phase = mat
            mat = np.zeros((len(perm),) * 2, dtype=complex)
            mat[np.arange(len(perm)), perm] = phase
        return mat

    def apply(self, name: str, u: Form) -> Form:
        """The operator ``name`` on every bidegree of ``u``."""
        return self.g.apply(u, lambda p, q: (self.mat(name, p, q), *self.target(name, p, q)))

    def bidegrees(self) -> Tuple[Tuple[int, int], ...]:
        return self._bidegrees


def adjoint_del(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """del* = -star delbar star; the L2 adjoint of del when Stokes holds."""
    return OperatorTable(M, g).apply("delstar", u)


def adjoint_delbar(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """delbar* = -star del star."""
    return OperatorTable(M, g).apply("dbarstar", u)


def laplacian_delbar(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """delbar-Laplacian: delbar delbar* + delbar* delbar."""
    return OperatorTable(M, g).apply("dbarlap", u)


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
        if abs(np.linalg.det(A)) < 1e-12:
            raise InputError("pullback matrix is singular")
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


def pullback(M: InvariantComplexManifold, phi: PullbackMap, u: Form) -> Form:
    """Algebra homomorphism determined by the coframe substitution, applied
    per bidegree through compound matrices (convention in ``metric``)."""
    n = M.dim
    if phi.dim != n or u.dim != n:
        raise DimensionMismatchError("pullback dimension mismatch")
    out = Form.zero(n)
    for p, q in u.bidegrees():
        mat = substitution_matrix(compound(phi.matrix, p), compound(phi.matrix, q))
        out = out + vec_to_form(n, p, q, mat @ form_to_vec(u, p, q))
    return out


def structure_compatibility(M: InvariantComplexManifold, phi: PullbackMap) -> float:
    """Residual of commutation of the pullback with d on the generators."""
    n = M.dim
    res = 0.0
    for k in range(1, n + 1):
        gen = Form.monomial(n, (k,), (), 1.0)
        diff = pullback(M, phi, M.d(gen)) - M.d(pullback(M, phi, gen))
        res = max(res, diff.max_abs())
    return res


def is_structure_compatible(M: InvariantComplexManifold, phi: PullbackMap,
                            tol: float = DEFAULT_TOL) -> bool:
    return structure_compatibility(M, phi) <= tol


def pullback_metric(M: InvariantComplexManifold, phi: PullbackMap,
                    g: HermitianMetric) -> HermitianMetric:
    """Metric of the pulled-back form phi* omega; rejects degenerate results."""
    if phi.dim != M.dim or g.dim != M.dim:
        raise DimensionMismatchError("pullback dimension mismatch")
    A = phi.matrix
    Ht = A.T @ g.H @ A.conj()
    try:
        return HermitianMetric(Ht)
    except InputError as exc:
        raise InputError(f"pullback metric is degenerate: {exc}") from exc
