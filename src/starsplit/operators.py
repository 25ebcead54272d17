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
L, Lam, star, T (``-Id + L Lam / (n-1)``) and S (``star T star``).  The
star is a signed permutation, and a chain applies it as one: a gather of
rows or columns and a factor of +-1 or +-i each.  Per table, built on
first use and kept, are the first-order operators, each slot one scatter
from a per-dimension table: del and dbar from the frame differentials of
the generators (the Leibniz rule as a derivation), ``del omega ^ .`` as
the wedge with the 3-form ``theta = del omega`` (one mat-vec per table),
and tau from the same theta.  The composites are chains of these: the
adjoints ``del* = -star dbar star`` and ``dbar* = -star del star``, the
dbar-Laplacian, and P, R and Q on the (1,1)-slot.  ``OperatorTable.apply``
is the ``Form`` entry point to every operator of the table; T, S, P, R and
Q, the paper's constructions, have their own functions below.

Each suite builds one table per run and evaluates both sides of every
identity that is linear in its input on every monomial of its slot at
once, as matrices over the frame (where the L2 adjoint of an operator
between invariant forms is its conjugate transpose, the total volume
cancelling on both sides of the pairing); the primitive-form star formula
(a11) runs on the image of each slot's primitive projector, and the
identities on the metric form (a09, a10, b13, b14 and the omega-columns of
b22 and b23) on omega's frame column, and b26 (the integral of
``theta ^ omega_{n-1}`` is ``Lam theta`` times the volume) on every
(1,1)-monomial.  An identity whose matrices depend on
n alone (a01 to a04, a11 to a13, b01 to b04 and b08 to b12) is evaluated
once per dimension, over the table of the n-torus with the identity
metric, and every later call of that dimension reads its cached largest
residual (``_dimension_entries``); every other identity is evaluated afresh
on every slot in every call.  The wedge pairings a12 and a13 are the top
pairing ``metric._top_pairing`` against the star on either side.  The
operator suite takes f, rho and ``i del delbar omega_{n-2}`` from one call
of the star-split core ``analysis._star_split``.  No identity needs
particular inputs, so neither suite draws random forms: the ``seed`` of
both is unused.

Both suites report through one harness, ``IdentityReport.check``.  An
identity is its id, its anchor, a callable yielding residual arrays (the
``lhs - rhs`` matrix of each slot, or a scalar residual as a 0-d
array) and its ``(holds, reason)`` hypotheses (balanced-only,
n >= 4 only, Stokes-dependent).  The report records the largest absolute
residual entry, or, when a hypothesis fails, a skip with the first failed
reason; every identity is listed, none is dropped.  ``IdentityReport.reuse``
passes the cached entries of the identities of n alone through ``check``
again, so that each report judges them by its own tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import _star_split
from .complex_structure import InvariantComplexManifold, total_volume
from .errors import InputError
from .forms import Form, space_dim
from .metric import (DEFAULT_TOL, HermitianMetric, _derivation_scatter, _omega_power_vec,
                     _primitive_part, _scatter, _slot_mat, _star_perm, _top_pairing,
                     _torsion_scatter, _volume_coeff, _wedge_power_mat, _wedge_scatter)


# ----------------------------------------------------------------------
# the operator table
# ----------------------------------------------------------------------
class OperatorTable:
    """The operators of a (manifold, metric) pair as matrices over the
    orthonormal monomial bases, built per slot on first use and kept,
    read-only, for the life of the table.

    "del"/"dbar" scatter the frame differentials of the generators
    (``_generators``) through ``metric._derivation_scatter``; "L", "Lam",
    "star", "T" and "S" are ``metric._slot_mat``; "wdel"/"wdbar" scatter
    the (0,0)-slot column ``theta`` through ``metric._wedge_scatter``, and
    "tau"/"taubar", the commutators of Lambda with them, scatter the same
    theta through ``metric._torsion_scatter``.  Every other name is a sum
    of scaled chains of these (``_terms``); "P", "R" and "Q" act on the
    (1,1)-slot only."""

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
        product of the ``mat`` entries, composed in that order, but a
        "star" step is a signed-permutation gather.  A chain of one name
        other than "star" is the table's read-only matrix; any other chain
        is a fresh array."""
        n = self.n
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
    second-order principal part of the abstract's "Laplace-like
    differential operator of order two"; the division is exact."""
    return OperatorTable(M, g).apply("P", alpha)


def R(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(i del* delbar* alpha) omega, the adjoint term of the abstract's
    "Laplace-like differential operator of order two"."""
    return OperatorTable(M, g).apply("R", alpha)


def Q(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """The abstract's "Laplace-like differential operator of order two
    acting on the smooth (1,1)-forms", proved "elliptic": P + R corrected by
    three first-order pieces, equal to minus the dbar-Laplacian ("dbarlap")
    plus lower-order torsion terms."""
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


@lru_cache(maxsize=None)
def _dimension_entries(n: int) -> Tuple[IdentityResult, ...]:
    """``_pointwise_entries`` once per dimension, over the table of the
    n-torus with the identity metric."""
    return _pointwise_entries(
        OperatorTable(InvariantComplexManifold("torus", n, {}), HermitianMetric.identity(n)))


def _pointwise_entries(table: OperatorTable) -> Tuple[IdentityResult, ...]:
    """The suite entries whose matrices depend on n alone (L, Lam, star, T,
    S, ``omega_r ^ .`` and the top pairing): a01 to a04 and a11 to a13, and
    from n = 3 on b01 to b04 and b08 to b12, with their largest residuals.
    Any table of dimension n gives the same entries; each suite judges
    them by its own tolerance (``IdentityReport.reuse``)."""
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
        """Both sides of a11 on the image of the slot's primitive projector."""
        k, prim = p + q, _primitive_part(n, p, q, 0)
        sign = (-1) ** ((k * (k + 1)) // 2) * (1j ** (p - q))
        perm, phase = _star_perm(n, p, q)
        return phase[:, None] * prim[perm] - sign * _wedge_power_mat(n, n - k, p, q) @ prim

    rep.check("a11_primitive_star_formula",
              "star v = (-1)^(k(k+1)/2) i^(p-q) omega_(n-p-q) ^ v for primitive v",
              lambda: (primitive_star(p, q) for p, q in slots() if p + q <= n))
    # top coefficients of wedges: u ^ v is u @ _top_pairing @ v on frame vectors
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

    # frame matrices: Lam on the (k,k)-slot, omega_r ^ . from it, and the
    # division by omega_{n-2}
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


# ----------------------------------------------------------------------
# commutation / frame identity suite
# ----------------------------------------------------------------------
def verify_commutation_suite(M: InvariantComplexManifold, g: HermitianMetric, *,
                             tol: float = DEFAULT_TOL, seed: int = 0) -> IdentityReport:
    """Frame-level identities: sl(2) commutators, star intertwining and
    involution, the four torsion commutation relations, the torsion trace
    identities on the metric form, the primitive-form star formula, the two
    wedge/star pairing identities, and the global adjointness of the
    formula-based adjoints, each on every monomial of its slots.  The
    adjoint identities a05, a06, a14 and a15 are skipped where the
    invariant Stokes residual exceeds ``tol``.  ``seed`` is unused, kept
    for callers that pass it: no identity here needs particular inputs."""
    n = M.dim
    table = OperatorTable(M, g)
    m, ch, slots = table.mat, table.chain, table.bidegrees
    rep = IdentityReport(M.name, g.describe(), tol)
    bracket = lambda a, b, p, q: ch([a, b], p, q) - ch([b, a], p, q)
    # the frame conjugate transpose is the L2 adjoint only where Stokes holds
    stokes = (M.check_stokes() <= tol, _STOKES_REASON)

    rep.reuse(e for e in _dimension_entries(n) if e.identity[0] == "a")
    rep.check("a05_adjoint_of_del_plus_torsion", "(del+tau)* = i [Lam, dbar]", lambda: (
        (m("del", p - 1, q) + m("tau", p - 1, q)).conj().T - 1j * bracket("Lam", "dbar", p, q)
        for p, q in slots()), stokes)
    rep.check("a06_adjoint_of_delbar_plus_torsion", "(dbar+taubar)* = -i [Lam, del]", lambda: (
        (m("dbar", p, q - 1) + m("taubar", p, q - 1)).conj().T - -1j * bracket("Lam", "del", p, q)
        for p, q in slots()), stokes)
    rep.check("a07_del_plus_torsion_bracket", "del + tau = -i [dbar*, L]", lambda: (
        m("del", p, q) + m("tau", p, q) - -1j * bracket("dbarstar", "L", p, q)
        for p, q in slots()))
    rep.check("a08_delbar_plus_torsion_bracket", "dbar + taubar = i [del*, L]", lambda: (
        m("dbar", p, q) + m("taubar", p, q) - 1j * bracket("delstar", "L", p, q)
        for p, q in slots()))

    # torsion trace identities on the metric form, on its frame column
    w_e = m("L", 0, 0)[:, 0]
    dbarstar_w = m("dbarstar", 1, 1) @ w_e
    rep.check("a09_torsion_adjoint_on_metric", "taubar* omega = -2 dbar* omega", lambda: [
        m("taubar", 1, 0).conj().T @ w_e - -2.0 * dbarstar_w])
    rep.check("a10_delbar_adjoint_on_metric", "dbar* omega = i Lam(del omega)", lambda: [
        dbarstar_w - 1j * m("Lam", 2, 1) @ m("del", 1, 1) @ w_e])

    # global adjointness of the formula-based adjoints: in the frame the L2
    # adjoint of an operator between invariant forms is its conjugate
    # transpose
    rep.check("a14_global_adjointness_del", "<<del u, v>> = <<u, del* v>>", lambda: (
        m("del", p, q).conj().T - m("delstar", p + 1, q) for p, q in slots()), stokes)
    rep.check("a15_global_adjointness_delbar", "<<dbar u, v>> = <<u, dbar* v>>", lambda: (
        m("dbar", p, q).conj().T - m("dbarstar", p, q + 1) for p, q in slots()), stokes)

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
    that integrate by parts need Stokes.  f, rho and the source of b15 and
    b16 come from one call of the star-split core; b13 and b14 compare f
    and rho with the two-trace and P routes relative to their size, and b15
    and b16 the pair integrals relative to theirs.  b26 is the identity
    behind the vanishing of semi-definite forms with zero integral, on every
    (1,1)-monomial.  Every identity is evaluated on every monomial of its
    slot or on omega.  ``seed`` is unused, kept for callers that pass it: no
    identity here needs particular inputs."""
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
              lambda: [Pm - trace22 @ gam])
    rep.check("b06_p_wedge_top_form",
              "P(a) ^ omega_(n-1) = ((n-2)/(n-1)) i del delbar a ^ omega_(n-2)",
              lambda: [wedge(n - 1, 1) @ Pm - (n - 2) / (n - 1) * wedge(n - 2, 2) @ gam])
    rep.check("b07_trace_of_p", "Lam(P(a)) = ((n-2)/(2(n-1))) Lam^2(i del delbar a)",
              lambda: [lam(1) @ Pm - (n - 2) / (2 * (n - 1)) * lam(1) @ lam(2) @ gam])

    # two-trace formula for f and the P-route for rho, on omega itself, each
    # relative to the size of what it compares
    dw_dbw = 1j * m("wdel", 1, 2) @ m("dbar", 1, 1) @ w_e
    lam3_t = (lam(1) @ lam(2) @ lam(3) @ dw_dbw)[0]
    f_two_trace = (n - 2) / 2.0 * (lam(1) @ lam(2) @ gam @ w_e)[0] + (n - 3) / 6.0 * lam3_t
    rep.check("b13_f_two_trace_formula",
              "f = ((n-2)/2) Lam^2(i del delbar omega) + ((n-3)/6) Lam^3(i del omega ^ delbar omega)",
              lambda: [(core.f - f_two_trace) / (1.0 + abs(core.f))])
    rho_route = Pm @ w_e + 0.5 * lam(2) @ lam(3) @ dw_dbw - lam3_t / (3 * (n - 1)) * w_e
    rep.check("b14_rho_via_p",
              "rho = P(omega) + Lam^2(i del omega ^ delbar omega)/2 - Lam^3(...) omega/(3(n-1))",
              lambda: [(core.rho_e - rho_route) / (1.0 + np.abs(core.rho_e).max())])

    # integral links between the pair construction and P/Q, as row vectors
    # over every phi-basis eta (int u ^ v = u @ pairing @ v / volume
    # coefficient).  int_w takes a frame (1,1)-vector x to int x ^ omega_(n-1),
    # t_gamma a phi-basis eta to T_gamma eta in the frame, and
    # star_gamma rho(omega, gamma) is S_gamma(i del delbar omega_(n-2)).
    integral = lambda v: _top_pairing(n, 1, 1) @ v / _volume_coeff(n)
    int_w = integral(_omega_power_vec(g, n - 1)) @ g.from_e_matrix(1, 1)
    gamma_phi = lambda x, k: gamma_m.from_e_matrix(k, k) @ x @ gamma_m.to_e_matrix(k, k)
    t_gamma = g.to_e_matrix(1, 1) @ gamma_phi(Tm, 1)
    # b15 and b16 are relative to the size of the integrals
    int_star_rho = integral(gamma_phi(Sm, n - 1) @ core.src)
    link = lambda op: ((int_star_rho - (n - 1) / (n - 2) * int_w @ op @ t_gamma)
                       / (1.0 + np.abs(int_star_rho).max()))
    rep.check("b15_pair_division_integral_link",
              "int eta ^ star_gamma rho(omega,gamma) = ((n-1)/(n-2)) int P(T_gamma eta) ^ omega_(n-1)",
              lambda: [link(Pm)], stokes, skip_anchor="int eta ^ star_gamma rho = ... P ...")
    rep.check("b16_q_integral_link",
              "balanced: int eta ^ star_gamma rho = ((n-1)/(n-2)) int Q(T_gamma eta) ^ omega_(n-1)",
              lambda: [link(Qm)],
              stokes, balanced, skip_anchor="balanced: int eta ^ star_gamma rho = ... Q ...")
    # potential inputs: i del delbar of an invariant function is zero
    pot = 1j * M.d_matrices(0, 1)[0] @ M.d_matrices(0, 0)[1]
    rep.check("b17_pair_potential_integral",
              "int P(T_gamma(i del delbar c)) ^ omega_(n-1) = 0 for invariant c",
              lambda: [int_w @ Pm @ t_gamma @ pot])

    # vanishing integrals
    rep.check("b18_r_integral_vanishing", "int R(a) ^ omega_(n-1) = 0",
              lambda: [int_w @ Rm], stokes)
    rep.check("b19_scalar_trace_integral_vanishing",
              "int (dbar* Lam(dbar a)) omega ^ omega_(n-1) = 0",
              lambda: [int_w @ ch(["L", "dbarstar", "Lam", "dbar"], 1, 1)], stokes)
    rep.check("b20_balanced_first_order_integrals",
              "balanced: int i del Lam(dbar a) ^ omega_(n-1) = 0 = int i del*(omega ^ dbar* a) ^ omega_(n-1)",
              lambda: [int_w @ ch(["del", "Lam", "dbar"], 1, 1),
                       int_w @ ch(["delstar", "L", "dbarstar"], 1, 1)],
              stokes, balanced, skip_anchor="balanced: first-order integrals vanish")
    rep.check("b21_q_p_integral_bridge", "balanced: int (Q - P)(a) ^ omega_(n-1) = 0",
              lambda: [int_w @ (Qm - Pm)],
              stokes, balanced, skip_anchor="balanced: int (Q-P)(a) ^ omega_(n-1) = 0")

    # Q on the metric form, on kahler metrics and on harmonic forms
    rep.check("b22_q_on_metric_decomposition",
              "Q(omega) = P(omega) + (n/(n-1)) R(omega) + del del* omega - i del*(omega ^ dbar* omega)",
              lambda: [(Qm - Pm - n / (n - 1) * Rm - ch(["del", "delstar"], 1, 1)
                        + 1j * ch(["delstar", "L", "dbarstar"], 1, 1)) @ w_e])
    rep.check("b23_q_equals_p_on_metric_balanced", "balanced: Q(omega) = P(omega)",
              lambda: [(Qm - Pm) @ w_e], balanced)
    lap = m("dbarlap", 1, 1)
    rep.check("b24_q_is_minus_laplacian_kahler", "kahler: Q = -(dbar-laplacian)",
              lambda: [Qm + lap], kahler)
    _, svals, vh = np.linalg.svd(lap)
    harmonic = vh[svals < 1e-8 * max(1.0, svals.max())].conj().T
    rep.check("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)",
              lambda: [(Qm - Pm) @ harmonic],
              stokes, (harmonic.size > 0, "no invariant harmonic (1,1)-forms sampled"))

    # theta ^ omega_(n-1) = (Lam theta) omega_n, and Lam on the (1,1)-slot
    # is the trace of theta's frame matrix: a semi-definite theta with
    # int theta ^ omega_(n-1) = 0 has a zero trace, hence vanishes
    rep.check("b26_semidefinite_zero_trace",
              "int theta ^ omega_(n-1) = Lam(theta) vol, so semi-definite theta with zero integral vanishes",
              lambda: [int_w / total_volume(M, g) - lam(1)])

    return rep.finalize()
