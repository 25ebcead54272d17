"""Second-order operators on (1,1)-forms and the two identity suites.

Operators (omega a fixed metric, alpha a (1,1)-form, Omega an
(n-1,n-1)-form):

    T(alpha)  = (omega_{n-2} ^ .)^{-1} (star alpha)   = -alpha + (Lam alpha) omega / (n-1)
    S(Omega)  = star (omega_{n-2} ^ .)^{-1} (Omega)   = -Omega + Lam(star Omega) omega_{n-1} / (n-1)
    P(alpha)  = (omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3})
    R(alpha)  = (i del* delbar* alpha) omega
    Q(alpha)  = P + R - i del Lam(delbar alpha) - i del*(omega ^ delbar* alpha)
                - (delbar* Lam(delbar alpha)) omega / (n-1)
    tau       = [Lam, del omega ^ .]        (torsion, type (1,0))

All of them are slot matrices of one ``OperatorTable`` (defined in
``complex_structure`` and re-exported here) over the orthonormal frame.
Per dimension, independent of manifold and metric, are L, Lam, star, T
(``-Id + L Lam / (n-1)``) and S (``star T star``), and every product of
L's and Lam's that a chain asks for (stored sparse).  The star is a
signed permutation, and a chain applies it as one: a gather of rows or
columns and a factor of +-1 or +-i each.  Per table, built on first use
and kept, are the first-order operators, each slot one scatter from a
per-dimension table: del and dbar from the frame differentials of the
generators (the Leibniz rule as a derivation), ``del omega ^ .`` as the
wedge with the 3-form ``theta = del omega`` (one mat-vec per table), and
tau from the same theta.  The composites are chains of these: the
adjoints ``del* = -star dbar star`` and ``dbar* = -star del star``, the
dbar-Laplacian, and P, R and Q on the (1,1)-slot.  The Form-level
functions below build one table and apply its matrix.

Each suite builds one table per run and evaluates both sides of every
identity that is linear in its input on every monomial of its slot at
once, as matrices over the frame (where the L2 adjoint of an operator
between invariant forms is its conjugate transpose, the total volume
cancelling on both sides of the pairing); the primitive-form star formula
(a11) runs on the image of each slot's primitive projector.  An identity
whose matrices depend on n alone (the slot part of a01, a02 to a04, a11,
b01 to b04 and b08 to b12) is evaluated once per dimension, over the
table of the n-torus with the identity metric, and every later call of
that dimension reads its cached largest residual (``_dimension_entries``);
every other identity is evaluated afresh on every slot in every call.
Seeded random forms remain only in the spot checks of a01, a12 and a13,
which test the mask-built L and star against ``Form.wedge``, and where a
check needs particular inputs (the semi-definite candidates of b26); a09,
a10, b13 and b14 cross-check Form-level routes on omega itself.

Both suites report through one harness, ``IdentityReport.check``.  An
identity is its id, its anchor, a callable yielding residual arrays (the
``lhs - rhs`` matrix of each slot, or a spot check's ``max_abs()`` as a
0-d array) and its ``(holds, reason)`` hypotheses (balanced-only,
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
from itertools import chain
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .analysis import eigenvalues_of_11, f_scalar, matrix_of_11, rho
from .complex_structure import InvariantComplexManifold, OperatorTable
from .errors import InputError
from .forms import Form, basis_masks, space_dim
from .metric import (DEFAULT_TOL, HermitianMetric, _primitive_part, _slot_mat, _star_perm,
                     _top_pairing, _volume_coeff, _wedge_power_mat, form_norm, form_to_vec,
                     hodge_star, lefschetz_lambda, omega_form, omega_power)


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def T(g: HermitianMetric, alpha: Form) -> Form:
    """Division of star(alpha) by omega_{n-2}, on (1,1)-forms."""
    return g.apply(alpha, partial(_slot_mat, g.dim, "T"))


def S(g: HermitianMetric, Omega: Form) -> Form:
    """star after division by omega_{n-2}, on (n-1,n-1)-forms."""
    return g.apply(Omega, partial(_slot_mat, g.dim, "S"))


def P(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3}); the
    division is exact."""
    return OperatorTable(M, g).apply("P", alpha)


def R(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(i del* delbar* alpha) omega."""
    return OperatorTable(M, g).apply("R", alpha)


def Q(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """The elliptic completion of P; equals -laplacian_delbar plus
    lower-order torsion terms, and P + R corrected by three first-order
    pieces."""
    return OperatorTable(M, g).apply("Q", alpha)


def torsion_tau(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """[Lam, del omega ^ .]."""
    return OperatorTable(M, g).apply("tau", u)


def torsion_tau_bar(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """[Lam, delbar omega ^ .]."""
    return OperatorTable(M, g).apply("taubar", u)


def random_form(rng: np.random.Generator, n: int, p: int, q: int, *,
                real: bool = False) -> Form:
    """Dense random (p,q)-form scaled to largest coefficient 1;
    ``real=True`` symmetrises it to a real form first."""
    terms = {}
    for key in basis_masks(n, p, q):
        re, im = rng.standard_normal(2)
        terms[key] = complex(re, im)
    u = Form(n, terms)
    if real:
        u = 0.5 * (u + u.conjugate())
    if u.max_abs() > 0:
        u = u / u.max_abs()
    return u


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
    S and ``omega_r ^ .``): the slot part of a01, a02 to a04 and a11, and
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
                             tol: float = DEFAULT_TOL, samples: int = 2,
                             seed: int = 0) -> IdentityReport:
    """Frame-level identities: sl(2) commutators, star intertwining and
    involution, the four torsion commutation relations, the torsion trace
    identities on the metric form, the primitive-form star formula, the two
    wedge/star pairing identities, and the global adjointness of the
    formula-based adjoints.  The spot checks of a01, a12 and a13 push
    ``samples`` (a12: ``2 * samples``) seeded forms through ``Form.wedge``.
    The adjoint identities a05, a06, a14 and a15 are skipped where the
    invariant Stokes residual exceeds ``tol``."""
    n = M.dim
    table = OperatorTable(M, g)
    m, ch, slots = table.mat, table.chain, table.bidegrees
    rng = np.random.default_rng(seed)
    rep = IdentityReport(M.name, g.describe(), tol)
    w = omega_form(g)
    bracket = lambda a, b, p, q: ch([a, b], p, q) - ch([b, a], p, q)
    # the frame conjugate transpose is the L2 adjoint only where Stokes holds
    stokes = (M.check_stokes() <= tol, _STOKES_REASON)
    n_only = [e for e in _dimension_entries(n) if e.identity[0] == "a"]

    def lambda_l_spots():
        """a01 on seeded forms through ``Form.wedge``."""
        for _ in range(samples):
            p, q = rng.integers(0, n + 1, 2)
            if space_dim(n, p, q):
                u = random_form(rng, n, p, q)
                yield (lefschetz_lambda(g, w.wedge(u)) - w.wedge(lefschetz_lambda(g, u))
                       - (n - p - q) * u).max_abs()

    # a01 (the first entry): the cached slot part, then the spot checks
    a01 = n_only.pop(0)
    rep.check(a01.identity, a01.anchor, lambda: chain([a01.residual], lambda_l_spots()))
    rep.reuse(n_only)
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

    # torsion trace identities on the metric form
    dbarstar_w = table.apply("dbarstar", w)
    rep.check("a09_torsion_adjoint_on_metric", "taubar* omega = -2 dbar* omega", lambda: [
        m("taubar", 1, 0).conj().T @ g.to_e_vec(w, 1, 1) - -2.0 * g.to_e_vec(dbarstar_w, 1, 0)])
    rep.check("a10_delbar_adjoint_on_metric", "dbar* omega = i Lam(del omega)", lambda: [
        (dbarstar_w - 1j * lefschetz_lambda(g, M.del_(w))).max_abs()])

    def complementary_spots():
        for _ in range(2 * samples):
            p, q = rng.integers(0, n + 1, 2)
            r = int(rng.integers(0, n + 1))
            s = 2 * n - p - q - r
            if 0 <= s <= n and space_dim(n, p, q) and space_dim(n, r, s):
                a = random_form(rng, n, p, q)
                b = random_form(rng, n, r, s)
                yield (a.wedge(b) - hodge_star(g, a).wedge(hodge_star(g, b))).max_abs()

    rep.check("a12_complementary_star_pairing",
              "alpha ^ beta = star alpha ^ star beta when degrees sum to 2n", complementary_spots)
    rep.check("a13_trace_pairing_top",
              "omega ^ Gamma = star(Gamma) ^ omega_(n-1) for real (n-1,n-1) Gamma", lambda: (
                  (w.wedge(G) - hodge_star(g, G).wedge(omega_power(g, n - 1))).max_abs()
                  for G in (random_form(rng, n, n - 1, n - 1, real=True) for _ in range(samples))))

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
                               tol: float = DEFAULT_TOL, samples: int = 20,
                               seed: int = 0) -> IdentityReport:
    """Identities tying T, S, P, R, Q to the division and trace routes, the
    integral links between pairs and P/Q, and the vanishing statements.
    Entries whose hypotheses do not apply are reported as skipped; those
    that integrate by parts need Stokes.  ``samples`` seeded (1,1)-forms
    feed the semi-definite candidates of b26."""
    n = M.dim
    if n < 3:
        raise InputError(f"the operator suite needs dimension >= 3, got {n}")
    g = omega_m
    rep = IdentityReport(M.name, f"omega={omega_m.describe()}, gamma={gamma_m.describe()}", tol)
    table = OperatorTable(M, g)
    m, ch = table.mat, table.chain
    w, w_nm1 = omega_form(g), omega_power(g, n - 1)

    stokes = (M.check_stokes() <= tol, _STOKES_REASON)
    balanced = (form_norm(g, M.d(w_nm1)) <= tol * (1.0 + form_norm(g, w_nm1)),
                "omega is not balanced")
    kahler = (form_norm(g, M.d(w)) <= tol * (1.0 + form_norm(g, w)), "omega is not kahler")

    rep.reuse(e for e in _dimension_entries(n) if e.identity[0] == "b")

    # frame matrices: Lam on the (k,k)-slot, omega_r ^ . from it and the
    # second-order operators on (1,1)
    lam = lambda k: m("Lam", k, k)
    wedge = lambda r, k: _wedge_power_mat(n, r, k, k)
    Lw = m("L", 0, 0)
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

    # two-trace formula for f and the P-route for rho, on omega itself
    w_e = Lw[:, 0]
    dw_dbw = 1j * m("wdel", 1, 2) @ m("dbar", 1, 1) @ w_e
    lam3_t = (lam(1) @ lam(2) @ lam(3) @ dw_dbw)[0]
    f_two_trace = (n - 2) / 2.0 * (lam(1) @ lam(2) @ gam @ w_e)[0] + (n - 3) / 6.0 * lam3_t
    rep.check("b13_f_two_trace_formula",
              "f = ((n-2)/2) Lam^2(i del delbar omega) + ((n-3)/6) Lam^3(i del omega ^ delbar omega)",
              lambda: [f_scalar(M, g, tol=tol) - f_two_trace])
    rho_route = Pm @ w_e + 0.5 * lam(2) @ lam(3) @ dw_dbw - lam3_t / (3 * (n - 1)) * w_e
    rep.check("b14_rho_via_p",
              "rho = P(omega) + Lam^2(i del omega ^ delbar omega)/2 - Lam^3(...) omega/(3(n-1))",
              lambda: [(rho(M, g, tol=tol) - g.from_e_vec(rho_route, 1, 1)).max_abs()])

    # integral links between the pair construction and P/Q, as row vectors
    # over every phi-basis eta (int u ^ v = u @ pairing @ v / volume
    # coefficient).  int_w takes a frame (1,1)-vector x to int x ^ omega_(n-1),
    # t_gamma a phi-basis eta to T_gamma eta in the frame, and
    # star_gamma rho(omega, gamma) is S_gamma(i del delbar omega_(n-2)).
    integral = lambda v: _top_pairing(n, 1, 1) @ v / _volume_coeff(n)
    int_w = integral(form_to_vec(w_nm1, n - 1, n - 1)) @ g.from_e_matrix(1, 1)
    gamma_phi = lambda x, k: gamma_m.from_e_matrix(k, k) @ x @ gamma_m.to_e_matrix(k, k)
    t_gamma = g.to_e_matrix(1, 1) @ gamma_phi(Tm, 1)
    src = 1j * M.del_(M.delbar(omega_power(g, n - 2)))
    int_star_rho = integral(gamma_phi(Sm, n - 1) @ form_to_vec(src, n - 1, n - 1))
    rep.check("b15_pair_division_integral_link",
              "int eta ^ star_gamma rho(omega,gamma) = ((n-1)/(n-2)) int P(T_gamma eta) ^ omega_(n-1)",
              lambda: [int_star_rho - (n - 1) / (n - 2) * int_w @ Pm @ t_gamma],
              stokes, skip_anchor="int eta ^ star_gamma rho = ... P ...")
    rep.check("b16_q_integral_link",
              "balanced: int eta ^ star_gamma rho = ((n-1)/(n-2)) int Q(T_gamma eta) ^ omega_(n-1)",
              lambda: [int_star_rho - (n - 1) / (n - 2) * int_w @ Qm @ t_gamma],
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

    # semi-definite forms with vanishing top trace must vanish: the spectra
    # of the candidates among P(T_gamma eta) for seeded eta
    candidates = []
    rng = np.random.default_rng(seed)
    for _ in range(samples if stokes[0] else 0):
        theta_e = Pm @ t_gamma @ form_to_vec(random_form(rng, n, 1, 1), 1, 1)
        theta = g.from_e_vec(theta_e, 1, 1)
        try:
            Hm = matrix_of_11(theta)
        except InputError:
            continue
        if np.abs(Hm - Hm.conj().T).max() > 1e-9:
            continue
        eigs = np.array(eigenvalues_of_11(g, theta, tol=1e-6))
        if ((eigs > -1e-9).all() or (eigs < 1e-9).all()) and abs(int_w @ theta_e) < tol:
            candidates.append(eigs)
    rep.check("b26_semidefinite_zero_trace",
              "semi-definite theta with int theta ^ omega_(n-1) = 0 vanishes", lambda: candidates,
              (bool(candidates), "no semi-definite candidates arose in this run"))

    return rep.finalize()
