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
(``-Id + L Lam / (n-1)``) and S (``star T star``).  Per table, built on
first use and kept, are del and dbar (the manifold's Leibniz slot
matrices moved into the frame) and every composite: ``del omega ^ .`` as
the commutator ``[del, L]``, tau, the adjoints ``del* = -star dbar star``
and ``dbar* = -star del star``, the dbar-Laplacian, and P, R and Q as
chains on the (1,1)-slot.  The Form-level functions below build one table
and apply its matrix.

Each suite builds one table per run and evaluates both sides of every
identity that is linear in its input on every monomial of its slot at
once, as matrices over the frame (where the L2 adjoint of an operator
between invariant forms is its conjugate transpose, the total volume
cancelling on both sides of the pairing); the primitive-form star formula
(a11) runs on the image of each slot's primitive projector.  Seeded random
forms remain only in the spot checks of a01, a12 and a13, which test the
mask-built L and star against ``Form.wedge``, and where a check needs
particular inputs (the semi-definite candidates of b26); a09, a10, b13
and b14 cross-check Form-level routes on omega itself.
Every suite run lists all identities; identities whose hypotheses fail
(balanced-only, n >= 4 only, Stokes-dependent) are reported as skipped
with a reason, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from .analysis import eigenvalues_of_11, f_scalar, matrix_of_11, rho
from .complex_structure import InvariantComplexManifold, OperatorTable
from .errors import InputError
from .forms import Form, basis_masks, space_dim
from .metric import (HermitianMetric, _primitive_part, _slot_mat, _top_pairing,
                     _volume_coeff, _wedge_power_mat, form_norm, form_to_vec,
                     hodge_star, lefschetz_lambda, omega_form, omega_power)

DEFAULT_TOL = 1e-10


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def T(g: HermitianMetric, alpha: Form) -> Form:
    """Division of star(alpha) by omega_{n-2}, on (1,1)-forms."""
    return g.apply(alpha, partial(_slot_mat, g.dim, "T"))


def S(g: HermitianMetric, Omega: Form) -> Form:
    """star after division by omega_{n-2}, on (n-1,n-1)-forms."""
    return g.apply(Omega, partial(_slot_mat, g.dim, "S"))


def P(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form, *,
      tol: float = DEFAULT_TOL) -> Form:
    """(omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3}); the
    division is exact, so ``tol`` is not used."""
    return OperatorTable(M, g).apply("P", alpha)


def R(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(i del* delbar* alpha) omega."""
    return OperatorTable(M, g).apply("R", alpha)


def Q(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form, *,
      tol: float = DEFAULT_TOL) -> Form:
    """The elliptic completion of P; equals -laplacian_delbar plus
    lower-order torsion terms, and P + R corrected by three first-order
    pieces.  ``tol`` is not used."""
    return OperatorTable(M, g).apply("Q", alpha)


def torsion_tau(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """[Lam, del omega ^ .]."""
    return OperatorTable(M, g).apply("tau", u)


def torsion_tau_bar(M: InvariantComplexManifold, g: HermitianMetric, u: Form) -> Form:
    """[Lam, delbar omega ^ .]."""
    return OperatorTable(M, g).apply("taubar", u)


def random_form(rng: np.random.Generator, n: int, p: int, q: int, *,
                real: bool = False, unit: bool = True) -> Form:
    """Dense random (p,q)-form; ``real=True`` symmetrises to a real form."""
    terms = {}
    for key in basis_masks(n, p, q):
        re, im = rng.standard_normal(2)
        terms[key] = complex(re, im)
    u = Form(n, terms)
    if real:
        u = 0.5 * (u + u.conjugate())
    if unit and u.max_abs() > 0:
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

    def add(self, identity: str, anchor: str, residual: float) -> None:
        self.entries.append(IdentityResult(identity, anchor, float(residual),
                                           float(residual) < self.tolerance))

    def skip(self, identity: str, anchor: str, reason: str) -> None:
        self.entries.append(IdentityResult(identity, anchor, None, None, reason))

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


def _resid(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


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
    rng = np.random.default_rng(seed)
    rep = IdentityReport(M.name, g.describe(), tol)
    w = omega_form(g)

    # [Lam, L] = (n-k) Id
    res = 0.0
    for p, q in table.bidegrees():
        lhs = table.chain(["Lam", "L"], p, q) - table.chain(["L", "Lam"], p, q)
        res = max(res, _resid(lhs, (n - p - q) * np.eye(space_dim(n, p, q))))
    for _ in range(samples):
        p, q = rng.integers(0, n + 1, 2)
        if not space_dim(n, p, q):
            continue
        u = random_form(rng, n, p, q)
        diff = (lefschetz_lambda(g, w.wedge(u)) - w.wedge(lefschetz_lambda(g, u))
                - (n - p - q) * u)
        res = max(res, diff.max_abs())
    rep.add("a01_lambda_l_commutator", "[Lam,L] = (n-k) Id on k-forms", res)

    # [L^r, Lam] = r(k-n+r-1) L^(r-1), r in {2,3}
    for r in (2, 3):
        res = 0.0
        for p, q in table.bidegrees():
            k = p + q
            Lr = table.chain(["L"] * r, p, q)
            lhs = (table.chain(["L"] * r + ["Lam"], p, q)
                   - table.mat("Lam", p + r, q + r) @ Lr)
            rhs = r * (k - n + r - 1) * table.chain(["L"] * (r - 1), p, q)
            res = max(res, _resid(lhs, rhs))
        rep.add(f"a02_l_power_lambda_commutator_r{r}",
                f"[L^{r},Lam] = {r}(k-n+{r - 1}) L^{r - 1} on k-forms", res)

    # star L = Lam star ; star Lam = L star
    res = 0.0
    for p, q in table.bidegrees():
        res = max(res, _resid(table.chain(["star", "L"], p, q),
                              table.chain(["Lam", "star"], p, q)))
        res = max(res, _resid(table.chain(["star", "Lam"], p, q),
                              table.chain(["L", "star"], p, q)))
    rep.add("a03_star_intertwines_l_lambda", "star L = Lam star, star Lam = L star", res)

    # star star = +/- Id
    res = 0.0
    for p, q in table.bidegrees():
        sign = -1.0 if (p + q) % 2 else 1.0
        res = max(res, _resid(table.chain(["star", "star"], p, q),
                              sign * np.eye(space_dim(n, p, q))))
    rep.add("a04_star_involution", "star star = (-1)^deg Id", res)

    # the frame conjugate transpose is the L2 adjoint only where Stokes holds
    stokes = M.check_stokes() <= tol

    def add_if_stokes(ident, anchor, residual):
        if stokes:
            rep.add(ident, anchor, residual())
        else:
            rep.skip(ident, anchor, _STOKES_REASON)

    # (del + tau)* = i [Lam, dbar] ; (dbar + taubar)* = -i [Lam, del]
    add_if_stokes("a05_adjoint_of_del_plus_torsion", "(del+tau)* = i [Lam, dbar]", lambda: max(
        _resid((table.mat("del", p - 1, q) + table.mat("tau", p - 1, q)).conj().T,
               1j * (table.chain(["Lam", "dbar"], p, q) - table.chain(["dbar", "Lam"], p, q)))
        for p, q in table.bidegrees()))
    add_if_stokes("a06_adjoint_of_delbar_plus_torsion", "(dbar+taubar)* = -i [Lam, del]", lambda: max(
        _resid((table.mat("dbar", p, q - 1) + table.mat("taubar", p, q - 1)).conj().T,
               -1j * (table.chain(["Lam", "del"], p, q) - table.chain(["del", "Lam"], p, q)))
        for p, q in table.bidegrees()))

    # del + tau = -i [dbar*, L]
    res = 0.0
    for p, q in table.bidegrees():
        lhs = table.mat("del", p, q) + table.mat("tau", p, q)
        rhs = -1j * (table.chain(["dbarstar", "L"], p, q)
                     - table.chain(["L", "dbarstar"], p, q))
        res = max(res, _resid(lhs, rhs))
    rep.add("a07_del_plus_torsion_bracket", "del + tau = -i [dbar*, L]", res)

    # dbar + taubar = i [del*, L]
    res = 0.0
    for p, q in table.bidegrees():
        lhs = table.mat("dbar", p, q) + table.mat("taubar", p, q)
        rhs = 1j * (table.chain(["delstar", "L"], p, q) - table.chain(["L", "delstar"], p, q))
        res = max(res, _resid(lhs, rhs))
    rep.add("a08_delbar_plus_torsion_bracket", "dbar + taubar = i [del*, L]", res)

    # torsion trace identities on the metric form
    taubar_adj_w = table.mat("taubar", 1, 0).conj().T @ g.to_e_vec(w, 1, 1)
    dbarstar_w = table.apply("dbarstar", w)
    res = _resid(taubar_adj_w, -2.0 * g.to_e_vec(dbarstar_w, 1, 0))
    rep.add("a09_torsion_adjoint_on_metric", "taubar* omega = -2 dbar* omega", res)

    res = (dbarstar_w - 1j * lefschetz_lambda(g, M.del_(w))).max_abs()
    rep.add("a10_delbar_adjoint_on_metric", "dbar* omega = i Lam(del omega)", res)

    # primitive-form star formula, on the image of each slot's primitive
    # projector
    res = 0.0
    for p, q in table.bidegrees():
        if p + q <= n:
            k = p + q
            prim = _primitive_part(n, p, q, 0)
            sign = (-1) ** ((k * (k + 1)) // 2) * (1j ** (p - q))
            res = max(res, _resid(table.mat("star", p, q) @ prim,
                                  sign * _wedge_power_mat(n, n - k, p, q) @ prim))
    rep.add("a11_primitive_star_formula",
            "star v = (-1)^(k(k+1)/2) i^(p-q) omega_(n-p-q) ^ v for primitive v", res)

    # alpha ^ beta = star alpha ^ star beta for complementary degrees
    res = 0.0
    for _ in range(2 * samples):
        p, q = rng.integers(0, n + 1, 2)
        r = int(rng.integers(0, n + 1))
        s = 2 * n - p - q - r
        if not (0 <= s <= n) or not space_dim(n, p, q) or not space_dim(n, r, s):
            continue
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, r, s)
        lhs = a.wedge(b)
        rhs = hodge_star(g, a).wedge(hodge_star(g, b))
        res = max(res, (lhs - rhs).max_abs())
    rep.add("a12_complementary_star_pairing",
            "alpha ^ beta = star alpha ^ star beta when degrees sum to 2n", res)

    # omega ^ Gamma = star(Gamma) ^ omega_{n-1} for real (n-1,n-1) Gamma
    res = 0.0
    for _ in range(samples):
        Gam = random_form(rng, n, n - 1, n - 1, real=True)
        lhs = w.wedge(Gam)
        rhs = hodge_star(g, Gam).wedge(omega_power(g, n - 1))
        res = max(res, (lhs - rhs).max_abs())
    rep.add("a13_trace_pairing_top",
            "omega ^ Gamma = star(Gamma) ^ omega_(n-1) for real (n-1,n-1) Gamma", res)

    # global adjointness of the formula-based adjoints: in the frame the L2
    # adjoint of an operator between invariant forms is its conjugate
    # transpose
    add_if_stokes("a14_global_adjointness_del", "<<del u, v>> = <<u, del* v>>", lambda: max(
        _resid(table.mat("del", p, q).conj().T, table.mat("delstar", p + 1, q))
        for p, q in table.bidegrees()))
    add_if_stokes("a15_global_adjointness_delbar", "<<dbar u, v>> = <<u, dbar* v>>", lambda: max(
        _resid(table.mat("dbar", p, q).conj().T, table.mat("dbarstar", p, q + 1))
        for p, q in table.bidegrees()))

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
    g = omega_m
    rep = IdentityReport(M.name, f"omega={omega_m.describe()}, gamma={gamma_m.describe()}", tol)
    table = OperatorTable(M, g)
    m, ch = table.mat, table.chain
    w, w_nm1 = omega_form(g), omega_power(g, n - 1)

    stokes = (M.check_stokes() <= tol, _STOKES_REASON)
    balanced = (form_norm(g, M.d(w_nm1)) <= tol * (1.0 + form_norm(g, w_nm1)),
                "omega is not balanced")
    kahler = (form_norm(g, M.d(w)) <= tol * (1.0 + form_norm(g, w)), "omega is not kahler")
    dim4 = (n >= 4, "needs n >= 4")

    def check(ident, anchor, residuals, *hypotheses, skip_anchor=None):
        """Add the largest entry of the matrices ``residuals()`` returns,
        or skip with the first failed hypothesis."""
        reason = next((why for ok, why in hypotheses if not ok), None)
        if reason is not None:
            rep.skip(ident, skip_anchor or anchor, reason)
        else:
            rep.add(ident, anchor, max(float(np.abs(r).max(initial=0.0)) for r in residuals()))

    # frame matrices: Lam on the (k,k)-slot, omega_r ^ . from it, the
    # division by omega_{n-2} and the second-order operators on (1,1)
    lam = lambda k: m("Lam", k, k)
    wedge = lambda r, k: _wedge_power_mat(n, r, k, k)
    div = np.linalg.inv(wedge(n - 2, 1))
    Lw, star1, star_top = m("L", 0, 0), m("star", 1, 1), m("star", n - 1, n - 1)
    Tm, Sm, Pm, Rm, Qm = (m(name, k, k) for name, k in
                          (("T", 1), ("S", n - 1), ("P", 1), ("R", 1), ("Q", 1)))
    gam = 1j * ch(["del", "dbar"], 1, 1)
    trace22 = lam(2) - Lw @ lam(1) @ lam(2) / (2 * (n - 1))

    check("b01_t_operator_routes", "T = (omega_(n-2)^.)^-1 star = -Id + Lam(.) omega/(n-1)",
          lambda: [Tm - div @ star1])
    check("b02_s_operator_routes",
          "S = star (omega_(n-2)^.)^-1 = -Id + Lam(star .) omega_(n-1)/(n-1)",
          lambda: [Sm - star1 @ div])
    check("b03_s_star_t_intertwine", "S star = star T on (1,1)-forms",
          lambda: [Sm @ star1 - star1 @ Tm])
    check("b04_star_s_division", "star S = T star = (omega_(n-2)^.)^-1",
          lambda: [star_top @ Sm - div, Tm @ star_top - div])
    check("b05_p_operator_routes",
          "P = (omega_(n-2)^.)^-1(i dd^c-source ^ omega_(n-3)) = Lam(..) - Lam^2(..) omega/(2(n-1))",
          lambda: [Pm - trace22 @ gam])
    check("b06_p_wedge_top_form",
          "P(a) ^ omega_(n-1) = ((n-2)/(n-1)) i del delbar a ^ omega_(n-2)",
          lambda: [wedge(n - 1, 1) @ Pm - (n - 2) / (n - 1) * wedge(n - 2, 2) @ gam])
    check("b07_trace_of_p", "Lam(P(a)) = ((n-2)/(2(n-1))) Lam^2(i del delbar a)",
          lambda: [lam(1) @ Pm - (n - 2) / (2 * (n - 1)) * lam(1) @ lam(2) @ gam])
    check("b08_division_trace_22",
          "(omega_(n-2)^.)^-1(G ^ omega_(n-3)) = Lam G - Lam^2(G) omega/(2(n-1)) on (2,2)",
          lambda: [div @ wedge(n - 3, 2) - trace22])
    check("b09_trace_square_ratio", "Lam^2(G)/2 = (G ^ omega_(n-2))/omega_n on (2,2)",
          lambda: [wedge(n - 2, 2) / _volume_coeff(n) - 0.5 * lam(1) @ lam(2)])
    check("b10_star_wedge_22", "star(G ^ omega_(n-3)) = -Lam G + Lam^2(G) omega/2 on (2,2)",
          lambda: [star_top @ wedge(n - 3, 2) + lam(2) - 0.5 * Lw @ lam(1) @ lam(2)])
    lam3 = lambda: lam(1) @ lam(2) @ lam(3)
    check("b11_star_wedge_33",
          "star(O ^ omega_(n-4)) = -Lam^2 O/2 + Lam^3(O) omega/6 on (3,3)",
          lambda: [star_top @ wedge(n - 4, 3) + 0.5 * lam(2) @ lam(3) - Lw @ lam3() / 6.0],
          dim4, skip_anchor="star(O ^ omega_(n-4)) = ... on (3,3)")
    check("b12_division_trace_33",
          "(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = Lam^2(O)/2 - Lam^3(O) omega/(3(n-1))",
          lambda: [div @ wedge(n - 4, 3) - 0.5 * lam(2) @ lam(3)
                   + Lw @ lam3() / (3 * (n - 1))],
          dim4, skip_anchor="(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = ...")

    # two-trace formula for f and the P-route for rho, on omega itself
    w_e = Lw[:, 0]
    dw_dbw = 1j * m("wdel", 1, 2) @ m("dbar", 1, 1) @ w_e
    lam3_t = (lam3() @ dw_dbw)[0]
    f_two_trace = (n - 2) / 2.0 * (lam(1) @ lam(2) @ gam @ w_e)[0] + (n - 3) / 6.0 * lam3_t
    check("b13_f_two_trace_formula",
          "f = ((n-2)/2) Lam^2(i del delbar omega) + ((n-3)/6) Lam^3(i del omega ^ delbar omega)",
          lambda: [f_scalar(M, g, tol=tol) - f_two_trace])
    rho_route = Pm @ w_e + 0.5 * lam(2) @ lam(3) @ dw_dbw - lam3_t / (3 * (n - 1)) * w_e
    check("b14_rho_via_p",
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
    check("b15_pair_division_integral_link",
          "int eta ^ star_gamma rho(omega,gamma) = ((n-1)/(n-2)) int P(T_gamma eta) ^ omega_(n-1)",
          lambda: [int_star_rho - (n - 1) / (n - 2) * int_w @ Pm @ t_gamma],
          stokes, skip_anchor="int eta ^ star_gamma rho = ... P ...")
    check("b16_q_integral_link",
          "balanced: int eta ^ star_gamma rho = ((n-1)/(n-2)) int Q(T_gamma eta) ^ omega_(n-1)",
          lambda: [int_star_rho - (n - 1) / (n - 2) * int_w @ Qm @ t_gamma],
          stokes, balanced, skip_anchor="balanced: int eta ^ star_gamma rho = ... Q ...")
    # potential inputs: i del delbar of an invariant function is zero
    pot = 1j * M.d_matrices(0, 1)[0] @ M.d_matrices(0, 0)[1]
    check("b17_pair_potential_integral",
          "int P(T_gamma(i del delbar c)) ^ omega_(n-1) = 0 for invariant c",
          lambda: [int_w @ Pm @ t_gamma @ pot])

    # vanishing integrals
    check("b18_r_integral_vanishing", "int R(a) ^ omega_(n-1) = 0",
          lambda: [int_w @ Rm], stokes)
    check("b19_scalar_trace_integral_vanishing",
          "int (dbar* Lam(dbar a)) omega ^ omega_(n-1) = 0",
          lambda: [int_w @ ch(["L", "dbarstar", "Lam", "dbar"], 1, 1)], stokes)
    check("b20_balanced_first_order_integrals",
          "balanced: int i del Lam(dbar a) ^ omega_(n-1) = 0 = int i del*(omega ^ dbar* a) ^ omega_(n-1)",
          lambda: [int_w @ ch(["del", "Lam", "dbar"], 1, 1),
                   int_w @ ch(["delstar", "L", "dbarstar"], 1, 1)],
          stokes, balanced, skip_anchor="balanced: first-order integrals vanish")
    check("b21_q_p_integral_bridge", "balanced: int (Q - P)(a) ^ omega_(n-1) = 0",
          lambda: [int_w @ (Qm - Pm)],
          stokes, balanced, skip_anchor="balanced: int (Q-P)(a) ^ omega_(n-1) = 0")

    # Q on the metric form, on kahler metrics and on harmonic forms
    check("b22_q_on_metric_decomposition",
          "Q(omega) = P(omega) + (n/(n-1)) R(omega) + del del* omega - i del*(omega ^ dbar* omega)",
          lambda: [(Qm - Pm - n / (n - 1) * Rm - ch(["del", "delstar"], 1, 1)
                    + 1j * ch(["delstar", "L", "dbarstar"], 1, 1)) @ w_e])
    check("b23_q_equals_p_on_metric_balanced", "balanced: Q(omega) = P(omega)",
          lambda: [(Qm - Pm) @ w_e], balanced)
    lap = m("dbarlap", 1, 1)
    check("b24_q_is_minus_laplacian_kahler", "kahler: Q = -(dbar-laplacian)",
          lambda: [Qm + lap], kahler)
    _, svals, vh = np.linalg.svd(lap)
    harmonic = vh[svals < 1e-8 * max(1.0, svals.max())].conj().T
    check("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)",
          lambda: [(Qm - Pm) @ harmonic],
          stokes, (harmonic.size > 0, "no invariant harmonic (1,1)-forms sampled"))

    # semi-definite forms with vanishing top trace must vanish
    res_sd = None
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
            res_sd = max(res_sd or 0.0, float(np.abs(eigs).max()))
    anchor = "semi-definite theta with int theta ^ omega_(n-1) = 0 vanishes"
    if res_sd is None:
        rep.skip("b26_semidefinite_zero_trace", anchor,
                 "no semi-definite candidates arose in this run")
    else:
        rep.add("b26_semidefinite_zero_trace", anchor, res_sd)

    return rep.finalize()
