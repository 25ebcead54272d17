"""The operator layer: every metric-dependent operator as frame slot
matrices of one ``OperatorTable``, the second-order operators on
(1,1)-forms, and the two identity suites.

Operators (omega a fixed metric, alpha a (1,1)-form, Omega an
(n-1,n-1)-form):

    T(alpha)  = (omega_{n-2} ^ .)^{-1} (star alpha)   = -alpha + (Lam alpha) omega / (n-1)
    S(Omega)  = star (omega_{n-2} ^ .)^{-1} (Omega)   = -Omega + Lam(star Omega) omega_{n-1} / (n-1)
    P(alpha)  = (omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3})
    R(alpha)  = (i del* delbar* alpha) omega
    Q(alpha)  = P + R - i del Lam(delbar alpha) - i del*(omega ^ delbar* alpha)
                - (delbar* Lam(delbar alpha)) omega / (n-1)
    tau       = [Lam, del omega ^ .]        (torsion, type (1,0))

All of them are slot matrices of one ``OperatorTable`` over the
orthonormal frame.  Per dimension, independent of manifold and metric, are
L, Lam, star (a dense slot matrix with one unit entry per row and column),
T (``-Id + L Lam / (n-1)``) and S (``star T star``).  Per table, built on
first use and kept, are the first-order operators, each slot one scatter
of values computed once per table through a per-dimension table ``(pos,
terms)``, term k reading ``(1, i, -1, -i)[k // V] * v[k % V]`` of the V
values v (``metric._units``): del and dbar of the frame differentials of
the generators, ``del omega ^ .`` and ``dbar omega ^ .`` of the 3-form
``theta = del omega`` (``dbar omega``).
Every other operator is a sum of chains, the dense products of these: the
adjoints ``del* = -star dbar star`` and ``dbar* = -star del star``, the
torsion ``tau = Lam (del omega ^ .) - (del omega ^ .) Lam``, the
dbar-Laplacian and P, R and Q on the (1,1)-slot; chains also serve the
operator suite.  ``OperatorTable.apply`` is the ``Form`` entry point to
every operator of the table; T, S, P, R and Q, the paper's constructions,
have their own functions below.

Each suite builds one table per run and evaluates both sides of every
identity that is linear in its input on every monomial of its slot at
once, as matrices over the frame (where the L2 adjoint of an operator
between invariant forms is its conjugate transpose, the total volume
cancelling on both sides of the pairing); the identities on the metric
form (a09, a10, b13, b14 and the omega-columns of b22 and b23) on omega's
frame column, and b26 (the integral of ``theta ^ omega_{n-1}`` is ``Lam
theta`` times the volume) on every (1,1)-monomial.  The identities of n
alone (a01 to a04, a11 to a13, b01 to b04 and b08 to b12) are evaluated
once per dimension and cached (``_dimension_entries``).  An entry of a05
to a08, a14 or a15 is a fixed linear form in x, the values of del, dbar
and theta and their conjugates: per identity and dimension, its residual
is one expression in the sparse algebra of a01 to a04 (``_Sparse``, whose
entries may read x) over del, dbar, ``theta ^ .``, ``-i [Lam, .]`` and the
star, and a table holds each distinct entry once, up to a unit
(``_torsion_tables``); a07 to a10 hold for all structure constants, and
are decided once per dimension at one Gaussian-integer point
(``_generic_entries``).  The others are evaluated afresh, slot by slot.
The operator suite takes f, rho and ``i del delbar omega_{n-2}`` from one
call of the star-split core ``analysis._star_split``.  No identity needs particular inputs, so
neither suite draws random forms: the ``seed`` of both is unused.

Both suites report through one harness, ``IdentityReport.check``.  An
identity is its id, its anchor, a callable yielding residual arrays (the
``lhs - rhs`` matrix of each slot, the distinct residual entries of a05
to a08, a14 or a15, or a scalar residual as a 0-d array) and its ``(holds,
reason)`` hypotheses (balanced-only, n >= 4 only, Stokes or d^2 = 0).  The
report records the largest absolute residual entry, or, when a hypothesis
fails, a skip with the first failed reason; every identity is listed,
none is dropped.  ``IdentityReport.reuse`` passes the cached entries of
the identities of n alone through ``check`` again, so that each report
judges them by its own tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import _star_split
from .complex_structure import InvariantComplexManifold, total_volume
from .errors import DEFAULT_TOL, InputError
from .forms import Form, space_dim
from .metric import (_SHIFTS, HermitianMetric, _division_solve, _fold, _frozen, _join,
                     _monomials, _omega_power_vec, _operator_entries, _operator_scatter,
                     _scatter, _set_bits, _slot_mat, _star_all, _top_all, _top_pairing, _units,
                     _volume_coeff, _wedge_power_entries, _wedge_power_mat, _wedge_scatter)


# ----------------------------------------------------------------------
# the operator table
# ----------------------------------------------------------------------
class OperatorTable:
    """The operators of a (manifold, metric) pair as matrices over the
    orthonormal monomial bases, built per slot on first use and kept,
    read-only, for the life of the table.

    "del", "dbar", "wdel" and "wdbar" are each one ``metric._scatter`` of
    their values (``_values``: the frame differentials of the generators,
    or theta) through ``metric._operator_scatter`` or
    ``metric._wedge_scatter``; "L", "Lam", "star", "T" and "S" are
    ``metric._slot_mat``.  Every other name is a sum of scaled chains,
    dense products of these (``_terms``): the adjoints
    "delstar"/"dbarstar" and the torsion "tau"/"taubar" are the chains
    that define them; "P", "R" and "Q" act on the (1,1)-slot only.  a05 to
    a08, a14 and a15 read the values through per-dimension tables instead
    (``_torsion_tables``)."""

    _SHIFTS = {**_SHIFTS, "delstar": (-1, 0), "dbarstar": (0, -1), "tau": (1, 0),
               "taubar": (0, 1), "T": (0, 0), "S": (0, 0), "P": (0, 0), "R": (0, 0),
               "Q": (0, 0), "dbarlap": (0, 0)}

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
        if name in ("tau", "taubar"):
            wedge = "wdel" if name == "tau" else "wdbar"
            return [(1, ["Lam", wedge]), (-1, [wedge, "Lam"])]
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

    def _values(self, name: str) -> np.ndarray:
        """What the table of ``name`` scatters, computed once: for "del"/"dbar"
        the generator differentials, the manifold's (1,0)- and (0,1)-slot
        matrices moved into the frame, flattened; for "wdel"/"wdbar" theta
        = del omega (dbar omega) as a frame column."""
        if name in ("wdel", "wdbar") and name not in self._gens:
            self._gens[name] = (self.mat(name[1:], 1, 1) @ self.mat("L", 0, 0))[:, 0]
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
        if name in ("del", "dbar", "wdel", "wdbar"):
            table = (_operator_scatter(n, int(name == "dbar"), p, q) if name[0] == "d"
                     else _wedge_scatter(n, *self._SHIFTS[name], p, q))
            mat = _scatter(shape, table, _units(self._values(name)))
        elif name in ("L", "Lam", "star", "T", "S"):
            mat = _slot_mat(n, name, p, q)[0]
        else:
            mat = sum(c * self.chain(names, p, q) for c, names in self._terms(name))
        mat.setflags(write=False)
        self._mats[key] = mat
        return mat

    def chain(self, names: Sequence[str], p: int, q: int) -> np.ndarray:
        """Composition, rightmost name applied first: the dense product of
        the ``mat`` entries.  A chain of one name is the table's read-only
        matrix; any other chain is a fresh array."""
        mat, cur = None, (p, q)
        for name in reversed(names):
            step = self.mat(name, *cur)
            mat = step if mat is None else step @ mat
            cur = self.target(name, *cur)
        return mat

    def apply(self, name: str, u: Form) -> Form:
        """The operator ``name`` on every bidegree of ``u``."""
        return self.g.apply(u, lambda p, q: (self.mat(name, p, q), *self.target(name, p, q)))

    def bidegrees(self) -> Tuple[Tuple[int, int], ...]:
        return self._bidegrees


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def T(g: HermitianMetric, alpha: Form) -> Form:
    """Division of star(alpha) by omega_{n-2}, on (1,1)-forms: the
    operator that carries the pair constructions (the abstract's "links with
    the pluriclosed star split metrics and pairs") into P and Q."""
    return g.apply(alpha, partial(_slot_mat, g.dim, "T"))


def S(g: HermitianMetric, Omega: Form) -> Form:
    """star after division by omega_{n-2}, on (n-1,n-1)-forms: for a pair
    (omega, gamma), S_gamma(i del delbar omega_{n-2}) is star_gamma rho, the
    other side of the abstract's "links with the pluriclosed star split
    metrics and pairs"."""
    return g.apply(Omega, partial(_slot_mat, g.dim, "S"))


def P(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3}), the
    second-order part of the abstract's "Laplace-like differential
    operator of order two"; the division is exact.  P is not elliptic by
    itself: its principal symbol, division after ``xi^(1,0) ^ xi^(0,1) ^
    .``, is singular at every covector xi (it kills ``xi^(1,0) ^
    xi^(0,1)``); the other four terms of Q make Q elliptic."""
    return OperatorTable(M, g).apply("P", alpha)


def R(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(i del* delbar* alpha) omega, the adjoint term of the abstract's
    "Laplace-like differential operator of order two"."""
    return OperatorTable(M, g).apply("R", alpha)


def Q(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """The abstract's "Laplace-like differential operator of order two
    acting on the smooth (1,1)-forms", proved "elliptic": P + R corrected by
    three first-order pieces, equal to minus the dbar-Laplacian ("dbarlap")
    plus lower-order torsion terms; its principal symbol is
    ``-|xi^(1,0)|^2 Id``, that of minus the dbar-Laplacian."""
    return OperatorTable(M, g).apply("Q", alpha)


# ----------------------------------------------------------------------
# identity reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IdentityResult:
    identity: str
    anchor: str
    residual: Optional[float]
    passed: Optional[bool]
    skipped_reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {"id": self.identity, "anchor": self.anchor,
               "residual": self.residual, "pass": self.passed}
        if self.skipped_reason is not None:
            out["skipped_reason"] = self.skipped_reason
        return out


@dataclass
class IdentityReport:
    manifold: str
    metric: str
    tolerance: float
    entries: List[IdentityResult] = field(default_factory=list)

    def check(self, identity: str, anchor: str, residuals: Callable[[], Iterable],
              *hypotheses: Tuple[bool, str], skip_anchor: Optional[str] = None) -> None:
        """Skip with the reason of the first failed ``(holds, reason)``
        hypothesis, under ``skip_anchor`` if given; otherwise add the largest
        absolute entry of the arrays ``residuals()`` yields (a scalar is a 0-d
        array; nothing yielded is residual 0).  ``residuals`` is not called
        for a skipped entry."""
        reason = next((why for ok, why in hypotheses if not ok), None)
        if reason is not None:
            entry = IdentityResult(identity, skip_anchor or anchor, None, None, reason)
        else:
            residual = max((float(np.abs(r).max(initial=0.0)) for r in residuals()), default=0.0)
            entry = IdentityResult(identity, anchor, residual, residual < self.tolerance)
        self.entries.append(entry)

    def reuse(self, entries: Iterable[IdentityResult]) -> None:
        """Add entries that ``check`` made in another report: a residual is
        judged by this report's tolerance, a skip is kept."""
        for e in entries:
            self.check(e.identity, e.anchor, lambda e=e: [e.residual],
                       (e.residual is not None, e.skipped_reason))

    def finalize(self) -> "IdentityReport":
        self.entries.sort(key=lambda e: e.identity)
        return self

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.passed is not None)

    def failures(self) -> List[IdentityResult]:
        return [e for e in self.entries if e.passed is False]

    def max_residual(self) -> float:
        vals = [e.residual for e in self.entries if e.residual is not None]
        return max(vals, default=0.0)

    def to_json_list(self) -> list:
        return [e.to_json_dict() for e in self.entries]


_STOKES_REASON = "invariant Stokes residual exceeds tolerance; identity not asserted"
_D_SQUARED_REASON = "d^2 residual exceeds tolerance; identity not asserted"


def _relative(residual: np.ndarray, *terms) -> np.ndarray:
    """``residual`` over the largest entry of the ``terms`` entering it (as is if all are 0)."""
    size = max(float(np.abs(t).max(initial=0.0)) for t in terms)
    return residual / size if size else residual


class _Sparse:
    """A matrix over the monomials of all slots (``metric._slot_starts``)
    as its entries ``(rows, cols, vals)``, repeated positions summing; with
    ``terms``, a matrix of linear forms in values v, entry k ``vals[k] *
    v[terms[k]]``, a term ``~j`` reading ``conj(v[j])``.  Sums and products
    of L, Lambda and star (entries +-1 and +-i) are exact.  A product takes
    the terms of its factor with terms (at most one has them); only a
    product without terms is summed by position."""

    __array_ufunc__ = None   # an array times a _Sparse scales its columns (__rmul__)

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 terms: Optional[np.ndarray] = None):
        self.rows, self.cols, self.vals, self.terms = rows, cols, vals, terms

    def __matmul__(self, other: "_Sparse") -> "_Sparse":
        i, j = _join(other.rows, self.cols)
        rows, cols, vals = self.rows[j], other.cols[i], self.vals[j] * other.vals[i]
        if other.terms is not None:
            return _Sparse(rows, cols, vals, other.terms[i])
        if self.terms is not None:
            return _Sparse(rows, cols, vals, self.terms[j])
        return _Sparse(rows, cols, vals).summed()

    def __add__(self, other: "_Sparse") -> "_Sparse":
        return _Sparse(*(None if a is None else np.concatenate((a, b))
                         for a, b in zip(self._arrays(), other._arrays())))

    def __sub__(self, other: "_Sparse") -> "_Sparse":
        return self + -1 * other

    def __rmul__(self, factor) -> "_Sparse":   # a scalar, or one factor per column
        return _Sparse(self.rows, self.cols, self.vals * (
            factor[self.cols] if isinstance(factor, np.ndarray) else factor), self.terms)

    @property
    def H(self) -> "_Sparse":
        """The conjugate transpose."""
        return _Sparse(self.cols, self.rows, self.vals.conj(),
                       None if self.terms is None else ~self.terms)

    def _arrays(self) -> Tuple[Optional[np.ndarray], ...]:
        return self.rows, self.cols, self.vals, self.terms

    def where(self, keep: np.ndarray) -> "_Sparse":   # the columns where keep holds
        return _Sparse(*(None if arr is None else arr[keep[self.cols]] for arr in self._arrays()))

    def summed(self) -> "_Sparse":
        """One entry per position, ordered by row, then column."""
        key = (self.rows.astype(np.int64) << 32) + self.cols
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        key = key[order[first]]
        return _Sparse(key >> 32, key & 0xFFFFFFFF, np.add.reduceat(self.vals[order], first))


@lru_cache(maxsize=None)
def _dimension_entries(n: int) -> Tuple[IdentityResult, ...]:
    """The entries whose matrices depend on n alone, with their largest
    residuals: a01 to a04 and a11 to a13 as sums of products of L, Lambda,
    star and the top pairing on all slots at once (``_Sparse``; ``omega_r ^
    .`` is ``L^r / r!``), from n = 3 on b01 to b04 and b08 to b12 on the
    slot matrices the operators apply, the division by ``omega_{n-2}`` the
    one ``rho`` applies (``metric._division_solve``).  Each suite judges
    them by its own tolerance."""
    hol, anti, _, count, _ = _monomials(n)
    every, deg_p, deg_q = np.arange(4 ** n), count[hol], count[anti]
    deg = deg_p + deg_q
    eye = lambda factor: _Sparse(every, every, factor * np.ones(4 ** n, dtype=complex))
    cols, rows, vals = _wedge_power_entries(n, 1, hol, anti)
    L, transpose = _Sparse(rows, cols, vals), lambda x: _Sparse(x.cols, x.rows, x.vals)
    Lam, star = -1 * transpose(L), _Sparse(every, _star_all(n)[0], _star_all(n)[2])
    top = _Sparse(every, _top_all(n)[0], _top_all(n)[1] + 0j)
    W = [eye(1.0)]   # omega_r ^ .
    for r in range(1, max(n, 3) + 1):
        x = L @ W[-1]
        W.append(_Sparse(x.rows, x.cols, x.vals / r))
    residual = lambda *mats: [m.summed().vals for m in mats]
    rep = IdentityReport("", "", math.inf)

    rep.check("a01_lambda_l_commutator", "[Lam,L] = (n-k) Id on k-forms",
              lambda: residual(Lam @ L - L @ Lam - eye(n - deg)))
    for r in (2, 3):
        rep.check(f"a02_l_power_lambda_commutator_r{r}",
                  f"[L^{r},Lam] = {r}(k-n+{r - 1}) L^{r - 1} on k-forms", lambda: residual(
                      math.factorial(r) * (W[r] @ Lam - Lam @ W[r])
                      - math.factorial(r - 1) * (r * (deg - n + r - 1) + 0j) * W[r - 1]))
    rep.check("a03_star_intertwines_l_lambda", "star L = Lam star, star Lam = L star",
              lambda: residual(star @ L - Lam @ star, star @ Lam - L @ star))
    rep.check("a04_star_involution", "star star = (-1)^deg Id",
              lambda: residual(star @ star - eye(1.0 - 2 * (deg & 1))))

    def primitive_star():
        """a11 on the image of the primitive projector of each slot of degree
        k <= n, ``sum_i (-1)^i (n-k+1)! / (i! (n-k+i+1)!) L^i Lam^i``."""
        f = np.array([math.factorial(k) for k in range(2 * n + 2)], dtype=float)
        lam_i, proj = eye(1.0).where(deg <= n), eye(0.0).where(deg < 0)
        for i in range(n // 2 + 1):
            proj = proj + (-1) ** i * f[n - deg + 1] / f[n - deg + i + 1] * (W[i] @ lam_i)
            lam_i = Lam @ lam_i
        sign = np.array([1, 1j, -1, -1j])[(deg_p - deg_q) % 4] * (-1) ** (deg * (deg + 1) // 2)
        wedge = sum((W[r].where(deg == n - r) for r in range(1, n + 1)), W[0].where(deg == n))
        return residual(star @ proj - sign * (wedge @ proj))

    rep.check("a11_primitive_star_formula",
              "star v = (-1)^(k(k+1)/2) i^(p-q) omega_(n-p-q) ^ v for primitive v", primitive_star)
    rep.check("a12_complementary_star_pairing",
              "alpha ^ beta = star alpha ^ star beta when degrees sum to 2n",
              lambda: residual(top - transpose(star) @ top @ star))
    rep.check("a13_trace_pairing_top",   # on the columns of the (0,0)-monomial
              "omega ^ Gamma = star(Gamma) ^ omega_(n-1) for real (n-1,n-1) Gamma",
              lambda: residual(transpose(top) @ L.where(deg == 0)
                               - transpose(star) @ (top @ W[n - 1].where(deg == 0))))
    if n < 3:
        return tuple(rep.entries)

    # the frame matrices the operators apply, and the division by omega_{n-2}
    # that rho applies (``metric._divide_e``)
    m = lambda name, k: _slot_mat(n, name, k, k)[0]
    lam = partial(m, "Lam")
    wedge = lambda r, k: _wedge_power_mat(n, r, k, k)
    div = _division_solve(n, n - 2)
    Lw, star1, star_top = m("L", 0), m("star", 1), m("star", n - 1)
    Tm, Sm = m("T", 1), m("S", n - 1)
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


# ----------------------------------------------------------------------
# commutation / frame identity suite
# ----------------------------------------------------------------------
# id: (anchor, adjoint); the frame conjugate transpose is the L2 adjoint
# only where Stokes holds.  Each identity is followed by its complex
# conjugate (``_torsion_tables``).
_TORSION_IDENTITIES = {
    "a05_adjoint_of_del_plus_torsion": ("(del+tau)* = i [Lam, dbar]", True),
    "a06_adjoint_of_delbar_plus_torsion": ("(dbar+taubar)* = -i [Lam, del]", True),
    "a07_del_plus_torsion_bracket": ("del + tau = -i [dbar*, L]", False),
    "a08_delbar_plus_torsion_bracket": ("dbar + taubar = i [del*, L]", False),
    "a14_global_adjointness_del": ("<<del u, v>> = <<u, del* v>>", True),
    "a15_global_adjointness_delbar": ("<<dbar u, v>> = <<u, dbar* v>>", True),
}


def _torsion_values(table: OperatorTable) -> np.ndarray:
    """The values x that ``_torsion_tables`` read: those of "del", "dbar",
    "wdel" and "wdbar" (``OperatorTable._values``), then their conjugates."""
    x = np.concatenate([table._values(name) for name in ("del", "dbar", "wdel", "wdbar")])
    return np.concatenate([x, x.conj()])


def _brackets(n: int, pieces: List[Tuple[np.ndarray, ...]]) -> Iterable[Tuple[np.ndarray, ...]]:
    """``B(X) = -i [Lam, X]`` for X the pieces of ``metric._operator_entries``
    on every monomial, as pieces ``(rows, cols, terms, signs)`` over X's
    values, units +-1.  Lambda commutes with X's contractions, and ``Lam
    (theta ^ u) - theta ^ Lam u`` is the terms that contract theta."""
    hol, anti, number, count, merge = _monomials(n)
    # Lambda's entry -i * sign from (I | k, J | k) to (I, J)
    contract = lambda I, J, k: -merge[k << n | I] * merge[k << n | J] * (1 - 2 * (count[I] & 1))
    for rows, cols, terms, signs, theta in pieces:
        # Lam X: Lam removes an index k of theta from both masks of the row
        I, J = hol[rows], anti[rows]
        at, k = _set_bits(I & J & theta, n)
        I, J, k = I[at] ^ (1 << k), J[at] ^ (1 << k), 1 << k
        yield number[I << n | J], cols[at], terms[at], signs[at] * contract(I, J, k)
        # X Lam: Lam removed an index k of theta from both masks of the column
        I, J = hol[cols], anti[cols]
        at, k = _set_bits(theta & ~(I | J), n)
        I, J, k = I[at], J[at], 1 << k
        yield rows[at], number[(I | k) << n | J | k], terms[at], -signs[at] * contract(I, J, k)


@lru_cache(maxsize=None)
def _torsion_tables(n: int) -> Dict[str, Tuple[int, Tuple[np.ndarray, ...]]]:
    """Per identity of a05 to a08, a14 and a15, its residual on all slots
    as a row count and one table ``(rows, terms)`` of ``_scatter`` over the
    x of ``_torsion_values``, a row per distinct entry up to a factor of
    +-1 or +-i.  Each residual is one ``_Sparse`` expression of linear
    forms in x over D and Db (del and dbar), ``B(X) = -i [Lam, X]``
    (``_brackets``) of them and of ``theta ^ .`` (the leaves read off
    ``metric._operator_entries``), and the star:

        a05 = D^H + tau^H + B(Db)            tau = [Lam, theta ^ .] = i B(theta ^ .)
        a07 = D + tau - star B(D) star       -i [dbar*, L] = star B(D) star
        a14 = D^H + star Db star             del* = -star Db star

    reduced by position and term: term ``k len(x) + j`` is ``i^k x[j]``, the
    rows in order of position, the terms of a row in order of their ``j``
    over ``[x, i x]``.  Rows are told apart by a hash exact in doubles: each
    value a seeded pseudo-random Gaussian integer below 2^44, an entry's
    hash the sum of its terms'.  Units turn hashes by quarter turns; the
    turn into re > 0, im >= 0 is one for entries that differ by a unit.  An
    entry of hash 0 is zero."""
    hol, anti = _monomials(n)[:2]
    pure, mixed = math.comb(n, 2) * n, n ** 3   # del: (2,0), (1,1); dbar: (1,1), (0,2)
    sizes = {"del": pure + mixed, "dbar": pure + mixed, "wdel": pure, "wdbar": pure}
    offset = dict(zip(sizes, np.cumsum([0, *sizes.values()])))
    theta, half = offset["wdel"], sum(sizes.values())
    z = np.frombuffer(random.Random(0).randbytes(32 * half), dtype=np.int64) >> 19
    hashes = _units(z[:2 * half] + 1j * z[2 * half:])
    # complex conjugation, e_I ^ ebar_J -> (-1)^(|I||J|) e_J ^ ebar_I: for term t of a05, a07
    # or a14, a06, a08 or a15 read term mirror[t]: del and dbar swapped (negated on the
    # (1,1)-slot), the columns theta swapped, and the unit i^u turned to i^-u
    swap = np.arange(mixed).reshape(n, n, n).transpose(1, 0, 2).ravel()   # on (1,1)
    turn = np.arange(pure).reshape(n, -1).T.ravel()   # from (2,1) to (1,2)
    mirror = np.concatenate([theta - pure + np.arange(pure), pure + mixed + swap, pure + swap,
                             np.arange(pure), theta + pure + turn, theta + np.argsort(turn)])
    negated = np.repeat([0, 1, 0], [pure, 2 * mixed, 3 * pure])
    unit, conj, j = np.unravel_index(np.arange(8 * half), (4, 2, half))   # term i^unit x[j]
    mirror = (((2 * negated[j] - unit) % 4 * 2 + conj) * half + mirror[j]).astype(np.int32)

    def leaf(op: str, bracket: bool = False) -> _Sparse:
        """X = ``op`` on every monomial, or B(X), compacted piece by piece."""
        pieces = _operator_entries(n, op, hol, anti)
        pieces = [(rows.astype(np.int32), cols.astype(np.int32), signs.astype(np.complex64),
                   (offset[op] + terms).astype(np.int32)) for rows, cols, terms, signs, *_
                  in (_brackets(n, pieces) if bracket else pieces)]
        return _Sparse(*(np.concatenate(arrs) for arrs in zip(*pieces)))

    every = np.arange(4 ** n, dtype=np.int32)
    star = _Sparse(every, _star_all(n)[0], _star_all(n)[2].astype(np.complex64))
    D, tau = leaf("del"), 1j * leaf("wdel", bracket=True)
    residuals = (lambda: D.H + tau.H + leaf("dbar", bracket=True),
                 lambda: D + tau - star @ leaf("del", bracket=True) @ star,
                 lambda: D.H + star @ leaf("dbar") @ star)

    def table(residual: Callable[[], _Sparse]) -> Tuple[int, Tuple[np.ndarray, np.ndarray]]:
        """The row count and table ``(rows, terms)`` of the distinct entries
        of the residual."""
        m = residual()
        # key: position (row, column), the term over [x, i x] in ``bits`` bits, the sign
        bits = (4 * half).bit_length()
        terms = np.where(m.terms < 0, half + ~m.terms, m.terms)   # over x = [v, conj v]
        terms[m.vals.imag != 0] += 2 * half
        key = m.rows.astype(np.int64) << 2 * n
        key |= m.cols
        key <<= bits
        key |= terms
        key <<= 1
        key |= m.vals.real + m.vals.imag < 0
        del m, terms
        key.sort()
        # each (position, term) once, with its net count of +1 and -1
        first = np.flatnonzero(np.diff(key >> 1, prepend=-1))
        summed = np.add.reduceat(1 - 2 * (key & 1), first)
        nonzero = summed != 0
        key, summed = key[first[nonzero]] >> 1, summed[nonzero]
        pos, terms = key >> bits, key & ((1 << bits) - 1)
        del key, first
        first = np.flatnonzero(np.diff(pos, prepend=-1))
        width = np.diff(first, append=len(pos))   # the terms of each position
        h = np.add.reduceat(summed * hashes[terms], first)
        held = np.flatnonzero(h)
        re, im = h.real[held], h.imag[held]
        # the quarter turn into re > 0, im >= 0: (|re|, |im|), swapped off quadrants 1 and 3
        swap = (re * im < 0) | (re == 0)
        re, im = np.where(swap, abs(im), abs(re)), np.where(swap, abs(re), abs(im))
        order = np.lexsort((im, re))
        new = (np.diff(re[order], prepend=-1) != 0) | (np.diff(im[order], prepend=-1) != 0)
        kept = np.zeros(len(first), dtype=bool)
        kept[held[order[new]]] = True
        keep = np.repeat(kept, width)
        rows = np.repeat(np.cumsum(kept, dtype=np.int32) - 1, width)[keep]
        counts = abs(summed[keep])   # 2 x[j] is two terms
        return int(new.sum()), (np.repeat(rows, counts), _fold(
            np.repeat(terms[keep], counts), np.repeat(summed[keep], counts), 2 * half))

    # a05, a07 and a14, each followed by its conjugate
    tables, ids = {}, list(_TORSION_IDENTITIES)
    for identity, partner, residual in zip(ids[::2], ids[1::2], residuals):
        count, (rows, terms) = table(residual)
        tables[identity] = count, _frozen(rows, terms)
        tables[partner] = count, _frozen(rows, mirror[terms])
    return tables


def _bracket_entries(M: InvariantComplexManifold) -> Tuple[IdentityResult, ...]:
    """a07 to a10 on ``M`` at the identity metric, with their largest residuals."""
    table = OperatorTable(M, HermitianMetric.identity(M.dim))
    m, rep, values = table.mat, IdentityReport("", "", math.inf), _units(_torsion_values(table))
    for identity, (anchor, adjoint) in _TORSION_IDENTITIES.items():
        if not adjoint:
            rep.check(identity, anchor, lambda t=_torsion_tables(M.dim)[identity]: [
                _scatter((t[0],), t[1], values)])
    w_e = m("L", 0, 0)[:, 0]
    dbarstar_w = m("dbarstar", 1, 1) @ w_e
    rep.check("a09_torsion_adjoint_on_metric", "taubar* omega = -2 dbar* omega", lambda: [
        m("taubar", 1, 0).conj().T @ w_e - -2.0 * dbarstar_w])
    rep.check("a10_delbar_adjoint_on_metric", "dbar* omega = i Lam(del omega)", lambda: [
        dbarstar_w - 1j * m("Lam", 2, 1) @ m("del", 1, 1) @ w_e])
    return tuple(rep.entries)


@lru_cache(maxsize=None)
def _generic_entries(n: int) -> Tuple[IdentityResult, ...]:
    """a07 to a10 at one point, seeded Gaussian-integer structure constants
    (d^2, Stokes not needed): each residual is real-linear in them, exact
    here and 0 on a basis of them (the tests), and a metric is a coframe
    change, so it decides them for all models and metrics (Schwartz 1980)."""
    rng, index = random.Random(n), range(1, n + 1)
    c = lambda: f"{rng.randint(-99, 99)}{rng.randint(-99, 99):+d}i"
    return _bracket_entries(InvariantComplexManifold(f"gaussian_{n}", n, {k: {
        "(2,0)": [(i, j, c()) for i in index for j in index if i < j],
        "(1,1)": [(i, j, c()) for i in index for j in index]} for k in index}))


def verify_commutation_suite(M: InvariantComplexManifold, g: HermitianMetric, *,
                             tol: float = DEFAULT_TOL, seed: int = 0) -> IdentityReport:
    """Frame-level identities: sl(2) commutators, star intertwining and
    involution, the four torsion commutation relations, the torsion trace
    identities on the metric form, the primitive-form star formula, the two
    wedge/star pairing identities, and the global adjointness of the
    formula-based adjoints.  a01 to a04 and a11 to a13 depend on n alone and
    a07 to a10 hold for all structure constants, so no model can fail them:
    each is decided once per dimension (``_dimension_entries``,
    ``_generic_entries``).  a05, a06, a14 and a15, per model on their
    distinct entries (``_torsion_tables``), are relative to the largest
    value they read and skipped where the invariant Stokes residual exceeds
    ``tol``.  ``seed`` is unused, kept for callers that pass it: no identity
    here needs particular inputs."""
    n, table = M.dim, OperatorTable(M, g)
    rep = IdentityReport(M.name, g.describe(), tol)
    stokes = (M.check_stokes() <= tol, _STOKES_REASON)

    rep.reuse(e for e in _dimension_entries(n) + _generic_entries(n) if e.identity[0] == "a")
    x = _torsion_values(table)
    values = _units(_relative(x, x))   # the residuals are linear in x: relative to its size
    for identity, (anchor, adjoint) in _TORSION_IDENTITIES.items():
        if adjoint:
            rep.check(identity, anchor, lambda t=_torsion_tables(n)[identity]: [
                _scatter((t[0],), t[1], values)], stokes)
    return rep.finalize()


# ----------------------------------------------------------------------
# operator identity suite
# ----------------------------------------------------------------------
def verify_operator_identities(M: InvariantComplexManifold,
                               omega_m: HermitianMetric,
                               gamma_m: HermitianMetric, *,
                               tol: float = DEFAULT_TOL, seed: int = 0) -> IdentityReport:
    """Identities tying T, S, P, R, Q to the division and trace routes, the
    integral links between pairs and P/Q, and the vanishing statements.
    Entries whose hypotheses do not apply are reported as skipped; those
    that integrate by parts need Stokes, b15 and b16 d^2 = 0 too.  f, rho
    and the source of b15 and b16 come from one call of the star-split
    core; b05 to b07 compare the routes of P relative to the largest entry
    of P and of i del delbar, b13 and b14 f and rho with the two-trace and
    P routes relative to their size, b15 and b16 the pair integrals
    relative to theirs, b17 to b21 each vanishing integral relative to the
    size of an integral of a second-order operator, b22 and b23 Q(omega)
    and the other side relative to the larger of the two, and b24 and b25
    Q and the other operator relative to the larger matrix.  b26 is the
    identity behind the vanishing of semi-definite forms with zero
    integral, on every (1,1)-monomial.  Every identity is evaluated on
    every monomial of its slot or on omega.  ``seed`` is unused, kept for
    callers that pass it: no identity here needs particular inputs."""
    n = M.dim
    if n < 3:
        raise InputError(f"the operator suite needs dimension >= 3, got {n}")
    g = omega_m
    rep = IdentityReport(M.name, f"omega={omega_m.describe()}, gamma={gamma_m.describe()}", tol)
    table = OperatorTable(M, g)
    m, ch = table.mat, table.chain
    core = _star_split(M, g, g, tol)
    # omega and omega_(n-1) as frame columns
    Lw = m("L", 0, 0)
    w_e, w_top = Lw[:, 0], _wedge_power_mat(n, n - 1, 0, 0)[:, 0]

    def closed(v, k, why):
        """d v = 0 for the frame vector v of the (k,k)-slot, to tol relative
        to |v|."""
        dv = np.linalg.norm([np.linalg.norm(m(name, k, k) @ v) for name in ("del", "dbar")])
        return dv <= tol * (1.0 + np.linalg.norm(v)), why

    stokes = (M.check_stokes() <= tol, _STOKES_REASON)
    d_squared = (M.check_integrability() <= tol, _D_SQUARED_REASON)
    balanced = closed(w_top, n - 1, "omega is not balanced")
    kahler = closed(w_e, 1, "omega is not kahler")

    rep.reuse(e for e in _dimension_entries(n) if e.identity[0] == "b")

    # frame matrices: Lam on the (k,k)-slot, omega_r ^ . from it and the
    # second-order operators on (1,1)
    lam = lambda k: m("Lam", k, k)
    wedge = lambda r, k: _wedge_power_mat(n, r, k, k)
    Tm, Sm, Pm, Rm, Qm = (m(name, k, k) for name, k in
                          (("T", 1), ("S", n - 1), ("P", 1), ("R", 1), ("Q", 1)))
    gam = 1j * ch(["del", "dbar"], 1, 1)
    trace22 = lam(2) - Lw @ lam(1) @ lam(2) / (2 * (n - 1))

    rep.check("b05_p_operator_routes",
              "P = (omega_(n-2)^.)^-1(i dd^c-source ^ omega_(n-3)) = Lam(..) - Lam^2(..) omega/(2(n-1))",
              lambda: [_relative(Pm - trace22 @ gam, Pm, gam)])
    rep.check("b06_p_wedge_top_form",
              "P(a) ^ omega_(n-1) = ((n-2)/(n-1)) i del delbar a ^ omega_(n-2)",
              lambda: [_relative(wedge(n - 1, 1) @ Pm - (n - 2) / (n - 1) * wedge(n - 2, 2) @ gam,
                                 Pm, gam)])
    rep.check("b07_trace_of_p", "Lam(P(a)) = ((n-2)/(2(n-1))) Lam^2(i del delbar a)",
              lambda: [_relative(lam(1) @ Pm - (n - 2) / (2 * (n - 1)) * lam(1) @ lam(2) @ gam,
                                 Pm, gam)])

    # two-trace formula for f and the P-route for rho, on omega itself, each
    # relative to the size of what enters it
    dw_dbw = 1j * m("wdel", 1, 2) @ m("dbar", 1, 1) @ w_e
    lam3_t = (lam(1) @ lam(2) @ lam(3) @ dw_dbw)[0]
    f_two_trace = (n - 2) / 2.0 * (lam(1) @ lam(2) @ gam @ w_e)[0] + (n - 3) / 6.0 * lam3_t
    rep.check("b13_f_two_trace_formula",
              "f = ((n-2)/2) Lam^2(i del delbar omega) + ((n-3)/6) Lam^3(i del omega ^ delbar omega)",
              lambda: [_relative(core.f - f_two_trace, core.f, gam, dw_dbw)])
    rho_route = Pm @ w_e + 0.5 * lam(2) @ lam(3) @ dw_dbw - lam3_t / (3 * (n - 1)) * w_e
    rep.check("b14_rho_via_p",
              "rho = P(omega) + Lam^2(i del omega ^ delbar omega)/2 - Lam^3(...) omega/(3(n-1))",
              lambda: [_relative(core.rho_e - rho_route, core.rho_e, Pm, dw_dbw)])

    # integral links between the pair construction and P/Q, as row vectors
    # over every phi-basis eta (int u ^ v = u @ pairing @ v / volume
    # coefficient).  int_w takes a frame (1,1)-vector x to int x ^ omega_(n-1),
    # t_gamma a phi-basis eta to T_gamma eta in the frame, and
    # star_gamma rho(omega, gamma) is S_gamma(i del delbar omega_(n-2)).
    integral = lambda v: _top_pairing(n, 1, 1) @ v / _volume_coeff(n)
    int_w = integral(_omega_power_vec(g, n - 1)) @ g.from_e_matrix(1, 1)
    gamma_phi = lambda x, k: gamma_m.from_e_matrix(k, k) @ x @ gamma_m.to_e_matrix(k, k)
    t_gamma = g.to_e_matrix(1, 1) @ gamma_phi(Tm, 1)
    # b15 and b16 are relative to the size of the integrals and of the
    # factors of the other side
    int_star_rho = integral(gamma_phi(Sm, n - 1) @ core.src)
    link = lambda op: _relative(
        int_star_rho - (n - 1) / (n - 2) * int_w @ op @ t_gamma, int_star_rho,
        np.abs(int_w).max() * np.abs(op).max() * np.abs(t_gamma).max())
    rep.check("b15_pair_division_integral_link",
              "int eta ^ star_gamma rho(omega,gamma) = ((n-1)/(n-2)) int P(T_gamma eta) ^ omega_(n-1)",
              lambda: [link(Pm)], stokes, d_squared,
              skip_anchor="int eta ^ star_gamma rho = ... P ...")
    rep.check("b16_q_integral_link",
              "balanced: int eta ^ star_gamma rho = ((n-1)/(n-2)) int Q(T_gamma eta) ^ omega_(n-1)",
              lambda: [link(Qm)], stokes, d_squared, balanced,
              skip_anchor="balanced: int eta ^ star_gamma rho = ... Q ...")
    # b17 to b21: vanishing integrals of second-order operators on (1,1),
    # each relative to the size of such an integral: |int_w| times the
    # square of the largest structure constant in the frame
    c = max(np.abs(table._values(name)).max(initial=0.0) for name in ("del", "dbar"))
    vanishing = lambda x: int_w @ x / (1.0 + np.abs(int_w).max() * c * c)
    # potential inputs: i del delbar of an invariant function is zero
    pot = 1j * M.d_matrices(0, 1)[0] @ M.d_matrices(0, 0)[1]
    rep.check("b17_pair_potential_integral",
              "int P(T_gamma(i del delbar c)) ^ omega_(n-1) = 0 for invariant c",
              lambda: [vanishing(Pm @ t_gamma @ pot)])
    rep.check("b18_r_integral_vanishing", "int R(a) ^ omega_(n-1) = 0",
              lambda: [vanishing(Rm)], stokes)
    rep.check("b19_scalar_trace_integral_vanishing",
              "int (dbar* Lam(dbar a)) omega ^ omega_(n-1) = 0",
              lambda: [vanishing(ch(["L", "dbarstar", "Lam", "dbar"], 1, 1))], stokes)
    rep.check("b20_balanced_first_order_integrals",
              "balanced: int i del Lam(dbar a) ^ omega_(n-1) = 0 = int i del*(omega ^ dbar* a) ^ omega_(n-1)",
              lambda: [vanishing(ch(["del", "Lam", "dbar"], 1, 1)),
                       vanishing(ch(["delstar", "L", "dbarstar"], 1, 1))],
              stokes, balanced, skip_anchor="balanced: first-order integrals vanish")
    rep.check("b21_q_p_integral_bridge", "balanced: int (Q - P)(a) ^ omega_(n-1) = 0",
              lambda: [vanishing(Qm - Pm)],
              stokes, balanced, skip_anchor="balanced: int (Q-P)(a) ^ omega_(n-1) = 0")

    # Q on the metric form, on kahler metrics and on harmonic forms, each
    # relative to the larger side
    relative = lambda a, b: (a - b) / (1.0 + max(np.abs(a).max(), np.abs(b).max()))

    def b22():
        """Q(omega) minus the other side, relative to the larger of the two."""
        q_w = Qm @ w_e
        r = (Qm - Pm - n / (n - 1) * Rm - ch(["del", "delstar"], 1, 1)
             + 1j * ch(["delstar", "L", "dbarstar"], 1, 1)) @ w_e
        return [r / (1.0 + max(np.abs(q_w).max(), np.abs(q_w - r).max()))]

    rep.check("b22_q_on_metric_decomposition",
              "Q(omega) = P(omega) + (n/(n-1)) R(omega) + del del* omega - i del*(omega ^ dbar* omega)",
              b22)
    rep.check("b23_q_equals_p_on_metric_balanced", "balanced: Q(omega) = P(omega)",
              lambda: [relative(Qm @ w_e, Pm @ w_e)], balanced)
    lap = m("dbarlap", 1, 1)
    rep.check("b24_q_is_minus_laplacian_kahler", "kahler: Q = -(dbar-laplacian)",
              lambda: [relative(Qm, -lap)], kahler)
    _, svals, vh = np.linalg.svd(lap)
    harmonic = vh[svals <= 1e-8 * svals.max()].conj().T
    rep.check("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)",
              lambda: [_relative((Qm - Pm) @ harmonic, Qm, Pm)],
              stokes, (harmonic.size > 0, "no invariant harmonic (1,1)-forms sampled"))

    # theta ^ omega_(n-1) = (Lam theta) omega_n, and Lam on the (1,1)-slot
    # is the trace of theta's frame matrix: a semi-definite theta with
    # int theta ^ omega_(n-1) = 0 has a zero trace, hence vanishes
    rep.check("b26_semidefinite_zero_trace",
              "int theta ^ omega_(n-1) = Lam(theta) vol, so semi-definite theta with zero integral vanishes",
              lambda: [int_w / total_volume(M, g) - lam(1)])

    return rep.finalize()
