"""Pointwise and second-order operators on (1,1)-forms, plus the identity
verification suites.

Operators (omega a fixed metric, alpha a (1,1)-form, Omega an
(n-1,n-1)-form):

    T(alpha)  = (omega_{n-2} ^ .)^{-1} (star alpha)   = -alpha + (Lam alpha) omega / (n-1)
    S(Omega)  = star (omega_{n-2} ^ .)^{-1} (Omega)   = -Omega + Lam(star Omega) omega_{n-1} / (n-1)
    P(alpha)  = (omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3})
    R(alpha)  = (i del* delbar* alpha) omega
    Q(alpha)  = P + R - i del Lam(delbar alpha) - i del*(omega ^ delbar* alpha)
                - (delbar* Lam(delbar alpha)) omega / (n-1)
    tau       = [Lam, del omega ^ .]        (torsion, type (1,0))

The verifiers evaluate both sides of each identity on every monomial of
every bidegree at once, as matrices over the orthonormal frame (where the
L2 adjoint of an operator between invariant forms is its conjugate
transpose, the total volume cancelling on both sides of the pairing), and
additionally spot-check a sample of random dense forms through the public
form-level operations.  Every suite run lists all identities; identities
whose hypotheses fail (balanced-only, n >= 4 only, Stokes-dependent) are
reported as skipped with a reason, never dropped.

``OperatorTable`` holds those matrices.  It lives in ``complex_structure``
next to the adjoints that apply it and is re-exported here; ``torsion_tau``
and ``torsion_tau_bar`` apply its ``tau``/``taubar`` slot matrices.  It
builds no differential of its own: ``del`` and ``dbar`` are the manifold's
per-slot ``d_matrices`` (the Leibniz rule tabulated once per slot) moved
into the orthonormal frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .analysis import eigenvalues_of_11, matrix_of_11
from .complex_structure import (InvariantComplexManifold, OperatorTable,
                                adjoint_del, adjoint_delbar, l2_pairing,
                                laplacian_delbar)
from .errors import InputError
from .forms import Form, basis_masks, space_dim
from .metric import (HermitianMetric, divide_by_power, form_norm, hodge_star,
                     lefschetz_lambda, omega_form, omega_power)

DEFAULT_TOL = 1e-10


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def _require_11(alpha: Form) -> None:
    if not alpha.is_zero() and alpha.bidegree() != (1, 1):
        raise InputError(f"expected a (1,1)-form, got bidegrees {alpha.bidegrees()}")


def _scalar_of(u: Form) -> complex:
    return u.coefficient((), ())


def T(g: HermitianMetric, alpha: Form) -> Form:
    """Division of star(alpha) by omega_{n-2}, in closed form."""
    _require_11(alpha)
    n = g.dim
    lam = _scalar_of(lefschetz_lambda(g, alpha)) if not alpha.is_zero() else 0j
    return -alpha + (lam / (n - 1)) * omega_form(g)


def S(g: HermitianMetric, Omega: Form) -> Form:
    """star after division by omega_{n-2}, in closed form."""
    n = g.dim
    if not Omega.is_zero() and Omega.bidegree() != (n - 1, n - 1):
        raise InputError("S expects an (n-1,n-1)-form")
    if Omega.is_zero():
        return Form.zero(n)
    lam = _scalar_of(lefschetz_lambda(g, hodge_star(g, Omega)))
    return -Omega + (lam / (n - 1)) * omega_power(g, n - 1)


def P(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form, *,
      tol: float = DEFAULT_TOL) -> Form:
    """(omega_{n-2} ^ .)^{-1} (i del delbar alpha ^ omega_{n-3})."""
    _require_11(alpha)
    n = g.dim
    if n < 3:
        raise InputError("P needs dimension >= 3")
    src = (1j * M.del_(M.delbar(alpha))).wedge(omega_power(g, n - 3))
    return divide_by_power(g, n - 2, src, tol=tol)


def P_trace_form(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """Independent route: Lam(i del delbar alpha) - Lam^2(...) omega / (2(n-1))."""
    _require_11(alpha)
    n = g.dim
    gam = 1j * M.del_(M.delbar(alpha))
    lam1 = lefschetz_lambda(g, gam)
    lam2 = _scalar_of(lefschetz_lambda(g, lam1)) if not lam1.is_zero() else 0j
    return lam1 - (lam2 / (2 * (n - 1))) * omega_form(g)


def R(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form) -> Form:
    """(i del* delbar* alpha) omega."""
    _require_11(alpha)
    scalar = _scalar_of(adjoint_del(M, g, adjoint_delbar(M, g, alpha)))
    return (1j * scalar) * omega_form(g)


def Q(M: InvariantComplexManifold, g: HermitianMetric, alpha: Form, *,
      tol: float = DEFAULT_TOL) -> Form:
    """The elliptic completion of P; equals -laplacian_delbar plus
    lower-order torsion terms, and P + R corrected by three first-order
    pieces."""
    _require_11(alpha)
    n = g.dim
    w = omega_form(g)
    lam_dbar = lefschetz_lambda(g, M.delbar(alpha))
    out = P(M, g, alpha, tol=tol) + R(M, g, alpha)
    out = out - 1j * M.del_(lam_dbar)
    out = out - 1j * adjoint_del(M, g, w.wedge(adjoint_delbar(M, g, alpha)))
    out = out - (_scalar_of(adjoint_delbar(M, g, lam_dbar)) / (n - 1)) * w
    return out


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
    identities on the metric form, the primitive-form star formula, and the
    two wedge/star pairing identities, plus randomized global-adjointness
    checks of the formula-based adjoints."""
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

    # (del + tau)* = i [Lam, dbar]
    res = 0.0
    for p, q in table.bidegrees():
        lhs = (table.mat("del", p - 1, q) + table.mat("tau", p - 1, q)).conj().T
        rhs = 1j * (table.chain(["Lam", "dbar"], p, q) - table.chain(["dbar", "Lam"], p, q))
        res = max(res, _resid(lhs, rhs))
    for _ in range(samples):
        p, q = rng.integers(0, n + 1, 2)
        if not (space_dim(n, p, q) and space_dim(n, p + 1, q)):
            continue
        u = random_form(rng, n, p, q)
        v = random_form(rng, n, p + 1, q)
        lhs = l2_pairing(M, g, M.del_(u) + torsion_tau(M, g, u), v)
        rhs_form = 1j * (lefschetz_lambda(g, M.delbar(v))
                         - M.delbar(lefschetz_lambda(g, v)))
        res = max(res, abs(lhs - l2_pairing(M, g, u, rhs_form)))
    rep.add("a05_adjoint_of_del_plus_torsion", "(del+tau)* = i [Lam, dbar]", res)

    # (dbar + taubar)* = -i [Lam, del]
    res = 0.0
    for p, q in table.bidegrees():
        lhs = (table.mat("dbar", p, q - 1) + table.mat("taubar", p, q - 1)).conj().T
        rhs = -1j * (table.chain(["Lam", "del"], p, q) - table.chain(["del", "Lam"], p, q))
        res = max(res, _resid(lhs, rhs))
    for _ in range(samples):
        p, q = rng.integers(0, n + 1, 2)
        if not (space_dim(n, p, q) and space_dim(n, p, q + 1)):
            continue
        u = random_form(rng, n, p, q)
        v = random_form(rng, n, p, q + 1)
        lhs = l2_pairing(M, g, M.delbar(u) + torsion_tau_bar(M, g, u), v)
        rhs_form = -1j * (lefschetz_lambda(g, M.del_(v)) - M.del_(lefschetz_lambda(g, v)))
        res = max(res, abs(lhs - l2_pairing(M, g, u, rhs_form)))
    rep.add("a06_adjoint_of_delbar_plus_torsion", "(dbar+taubar)* = -i [Lam, del]", res)

    # del + tau = -i [dbar*, L]
    res = 0.0
    for p, q in table.bidegrees():
        lhs = table.mat("del", p, q) + table.mat("tau", p, q)
        rhs = -1j * (table.chain(["dbarstar", "L"], p, q)
                     - table.chain(["L", "dbarstar"], p, q))
        res = max(res, _resid(lhs, rhs))
    for _ in range(samples):
        p, q = rng.integers(0, n + 1, 2)
        if not space_dim(n, p, q):
            continue
        u = random_form(rng, n, p, q)
        lhs = M.del_(u) + torsion_tau(M, g, u)
        rhs = -1j * (adjoint_delbar(M, g, w.wedge(u))
                     - w.wedge(adjoint_delbar(M, g, u)))
        res = max(res, (lhs - rhs).max_abs())
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
    dbarstar_w = adjoint_delbar(M, g, w)
    res = _resid(taubar_adj_w, -2.0 * g.to_e_vec(dbarstar_w, 1, 0))
    rep.add("a09_torsion_adjoint_on_metric", "taubar* omega = -2 dbar* omega", res)

    res = (dbarstar_w - 1j * lefschetz_lambda(g, M.del_(w))).max_abs()
    rep.add("a10_delbar_adjoint_on_metric", "dbar* omega = i Lam(del omega)", res)

    # primitive-form star formula
    res = 0.0
    from .metric import lefschetz_decompose
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q > n or not space_dim(n, p, q):
                continue
            u = random_form(rng, n, p, q)
            prim = dict(lefschetz_decompose(g, u)).get(0, Form.zero(n))
            if prim.max_abs() < 1e-8:
                continue
            k = p + q
            sign = (-1) ** ((k * (k + 1)) // 2) * (1j ** (p - q))
            rhs = sign * omega_power(g, n - p - q).wedge(prim)
            res = max(res, (hodge_star(g, prim) - rhs).max_abs())
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

    # global adjointness of the formula-based adjoints
    res_d = 0.0
    res_db = 0.0
    for _ in range(samples):
        p, q = rng.integers(0, n + 1, 2)
        if space_dim(n, p, q) and space_dim(n, p + 1, q):
            u = random_form(rng, n, p, q)
            v = random_form(rng, n, p + 1, q)
            res_d = max(res_d, abs(l2_pairing(M, g, M.del_(u), v)
                                   - l2_pairing(M, g, u, adjoint_del(M, g, v))))
        if space_dim(n, p, q) and space_dim(n, p, q + 1):
            u = random_form(rng, n, p, q)
            v = random_form(rng, n, p, q + 1)
            res_db = max(res_db, abs(l2_pairing(M, g, M.delbar(u), v)
                                     - l2_pairing(M, g, u, adjoint_delbar(M, g, v))))
    rep.add("a14_global_adjointness_del", "<<del u, v>> = <<u, del* v>>", res_d)
    rep.add("a15_global_adjointness_delbar", "<<dbar u, v>> = <<u, dbar* v>>", res_db)

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
    Entries whose hypotheses do not apply are reported as skipped."""
    n = M.dim
    g = omega_m
    rng = np.random.default_rng(seed)
    rep = IdentityReport(M.name, f"omega={omega_m.describe()}, gamma={gamma_m.describe()}", tol)
    w = omega_form(g)
    w_nm1 = omega_power(g, n - 1)

    stokes_ok = M.check_stokes() <= tol
    balanced = form_norm(g, M.d(w_nm1)) <= tol * (1.0 + form_norm(g, w_nm1))
    kahler = form_norm(g, M.d(w)) <= tol * (1.0 + form_norm(g, w))

    alphas = [random_form(rng, n, 1, 1) for _ in range(max(3, samples // 4))]
    alphas.append(w)

    # T and S: definition route vs closed form
    res_t = 0.0
    res_s = 0.0
    res_int = 0.0
    res_div = 0.0
    for a in alphas:
        t_closed = T(g, a)
        t_def = divide_by_power(g, n - 2, hodge_star(g, a), tol=tol)
        res_t = max(res_t, (t_closed - t_def).max_abs())
        Om = hodge_star(g, a)
        s_closed = S(g, Om)
        s_def = hodge_star(g, divide_by_power(g, n - 2, Om, tol=tol))
        res_s = max(res_s, (s_closed - s_def).max_abs())
        res_int = max(res_int, (S(g, hodge_star(g, a)) - hodge_star(g, T(g, a))).max_abs())
        res_div = max(res_div, (hodge_star(g, S(g, Om)) - divide_by_power(g, n - 2, Om, tol=tol)).max_abs(),
                      (T(g, hodge_star(g, Om)) - divide_by_power(g, n - 2, Om, tol=tol)).max_abs())
    rep.add("b01_t_operator_routes", "T = (omega_(n-2)^.)^-1 star = -Id + Lam(.) omega/(n-1)", res_t)
    rep.add("b02_s_operator_routes", "S = star (omega_(n-2)^.)^-1 = -Id + Lam(star .) omega_(n-1)/(n-1)", res_s)
    rep.add("b03_s_star_t_intertwine", "S star = star T on (1,1)-forms", res_int)
    rep.add("b04_star_s_division", "star S = T star = (omega_(n-2)^.)^-1", res_div)

    # P: definition vs trace formula; top-form and trace consequences
    res_p = 0.0
    res_top = 0.0
    res_trace = 0.0
    for a in alphas:
        p_def = P(M, g, a, tol=tol)
        p_tr = P_trace_form(M, g, a)
        res_p = max(res_p, (p_def - p_tr).max_abs())
        gam = 1j * M.del_(M.delbar(a))
        lhs = p_def.wedge(w_nm1)
        rhs = ((n - 2) / (n - 1)) * gam.wedge(omega_power(g, n - 2))
        res_top = max(res_top, (lhs - rhs).max_abs())
        lam2 = _scalar_of(lefschetz_lambda(g, lefschetz_lambda(g, gam)))
        res_trace = max(res_trace, abs(_scalar_of(lefschetz_lambda(g, p_def))
                                       - (n - 2) / (2 * (n - 1)) * lam2))
    rep.add("b05_p_operator_routes",
            "P = (omega_(n-2)^.)^-1(i dd^c-source ^ omega_(n-3)) = Lam(..) - Lam^2(..) omega/(2(n-1))", res_p)
    rep.add("b06_p_wedge_top_form",
            "P(a) ^ omega_(n-1) = ((n-2)/(n-1)) i del delbar a ^ omega_(n-2)", res_top)
    rep.add("b07_trace_of_p", "Lam(P(a)) = ((n-2)/(2(n-1))) Lam^2(i del delbar a)", res_trace)

    # pointwise division/trace identities on random (2,2) and (3,3) forms
    res22 = 0.0
    res_ratio = 0.0
    res_star22 = 0.0
    for _ in range(max(3, samples // 4)):
        Gam = random_form(rng, n, 2, 2)
        lam1 = lefschetz_lambda(g, Gam)
        lam2 = _scalar_of(lefschetz_lambda(g, lam1))
        lhs = divide_by_power(g, n - 2, Gam.wedge(omega_power(g, n - 3)), tol=tol)
        res22 = max(res22, (lhs - (lam1 - lam2 / (2 * (n - 1)) * w)).max_abs())
        ratio = M.integrate(Gam.wedge(omega_power(g, n - 2))) / M.integrate(omega_power(g, n))
        res_ratio = max(res_ratio, abs(0.5 * lam2 - ratio))
        res_star22 = max(res_star22, (hodge_star(g, Gam.wedge(omega_power(g, n - 3)))
                                      - (-lam1 + 0.5 * lam2 * w)).max_abs())
    rep.add("b08_division_trace_22",
            "(omega_(n-2)^.)^-1(G ^ omega_(n-3)) = Lam G - Lam^2(G) omega/(2(n-1)) on (2,2)", res22)
    rep.add("b09_trace_square_ratio", "Lam^2(G)/2 = (G ^ omega_(n-2))/omega_n on (2,2)", res_ratio)
    rep.add("b10_star_wedge_22", "star(G ^ omega_(n-3)) = -Lam G + Lam^2(G) omega/2 on (2,2)", res_star22)

    if n >= 4:
        res33 = 0.0
        res_div33 = 0.0
        for _ in range(max(3, samples // 4)):
            Om3 = random_form(rng, n, 3, 3)
            lam2f = lefschetz_lambda(g, lefschetz_lambda(g, Om3))
            lam3 = _scalar_of(lefschetz_lambda(g, lam2f))
            lhs = hodge_star(g, Om3.wedge(omega_power(g, n - 4)))
            res33 = max(res33, (lhs - (-0.5 * lam2f + lam3 / 6.0 * w)).max_abs())
            lhs2 = divide_by_power(g, n - 2, Om3.wedge(omega_power(g, n - 4)), tol=tol)
            res_div33 = max(res_div33,
                            (lhs2 - (0.5 * lam2f - lam3 / (3 * (n - 1)) * w)).max_abs())
        rep.add("b11_star_wedge_33",
                "star(O ^ omega_(n-4)) = -Lam^2 O/2 + Lam^3(O) omega/6 on (3,3)", res33)
        rep.add("b12_division_trace_33",
                "(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = Lam^2(O)/2 - Lam^3(O) omega/(3(n-1))", res_div33)
    else:
        rep.skip("b11_star_wedge_33", "star(O ^ omega_(n-4)) = ... on (3,3)", "needs n >= 4")
        rep.skip("b12_division_trace_33", "(omega_(n-2)^.)^-1(O ^ omega_(n-4)) = ...", "needs n >= 4")

    # two-trace formula for f and the P-route for rho
    from .analysis import f_scalar, rho as rho_op
    dd_w = 1j * M.del_(M.delbar(w))
    dw_dbw = 1j * M.del_(w).wedge(M.delbar(w))
    lam2_dd = _scalar_of(lefschetz_lambda(g, lefschetz_lambda(g, dd_w)))
    lam3_t = _scalar_of(lefschetz_lambda(g, lefschetz_lambda(g, lefschetz_lambda(g, dw_dbw))))
    f_two_trace = (n - 2) / 2.0 * lam2_dd + (n - 3) / 6.0 * lam3_t
    rep.add("b13_f_two_trace_formula",
            "f = ((n-2)/2) Lam^2(i del delbar omega) + ((n-3)/6) Lam^3(i del omega ^ delbar omega)",
            abs(f_scalar(M, g, tol=tol) - f_two_trace))

    lam2_f = lefschetz_lambda(g, lefschetz_lambda(g, dw_dbw))
    lam3_f = _scalar_of(lefschetz_lambda(g, lam2_f))
    rho_route = P(M, g, w, tol=tol) + 0.5 * lam2_f - (lam3_f / (3 * (n - 1))) * w
    rep.add("b14_rho_via_p",
            "rho = P(omega) + Lam^2(i del omega ^ delbar omega)/2 - Lam^3(...) omega/(3(n-1))",
            (rho_op(M, g, tol=tol) - rho_route).max_abs())

    # integral links between the pair construction and P/Q
    src = 1j * M.del_(M.delbar(omega_power(g, n - 2)))
    rho_pair = divide_by_power(gamma_m, n - 2, src, tol=tol)
    star_rho_pair = hodge_star(gamma_m, rho_pair) if not rho_pair.is_zero() else Form.zero(n)
    semidefinite_candidates: List[Form] = []
    if stokes_ok:
        res_59 = 0.0
        res_q_link = 0.0
        for _ in range(samples):
            eta = random_form(rng, n, 1, 1)
            lhs = M.integrate(eta.wedge(star_rho_pair))
            t_eta = T(gamma_m, eta)
            rhs = (n - 1) / (n - 2) * M.integrate(P(M, g, t_eta, tol=tol).wedge(w_nm1))
            res_59 = max(res_59, abs(lhs - rhs))
            if balanced:
                rhs_q = (n - 1) / (n - 2) * M.integrate(Q(M, g, t_eta, tol=tol).wedge(w_nm1))
                res_q_link = max(res_q_link, abs(lhs - rhs_q))
            theta = P(M, g, t_eta, tol=tol)
            semidefinite_candidates.append(theta)
        rep.add("b15_pair_division_integral_link",
                "int eta ^ star_gamma rho(omega,gamma) = ((n-1)/(n-2)) int P(T_gamma eta) ^ omega_(n-1)",
                res_59)
        if balanced:
            rep.add("b16_q_integral_link",
                    "balanced: int eta ^ star_gamma rho = ((n-1)/(n-2)) int Q(T_gamma eta) ^ omega_(n-1)",
                    res_q_link)
        else:
            rep.skip("b16_q_integral_link", "balanced: int eta ^ star_gamma rho = ... Q ...",
                     "omega is not balanced")
    else:
        rep.skip("b15_pair_division_integral_link", "int eta ^ star_gamma rho = ... P ...",
                 "invariant Stokes residual exceeds tolerance; identity not asserted")
        rep.skip("b16_q_integral_link", "balanced: int eta ^ star_gamma rho = ... Q ...",
                 "invariant Stokes residual exceeds tolerance; identity not asserted")

    # potential inputs: i del delbar of an invariant function is zero
    c_form = Form.scalar(n, 2.5)
    pot = 1j * M.del_(M.delbar(c_form))
    res_pot = abs(M.integrate(P(M, g, T(gamma_m, pot), tol=tol).wedge(w_nm1))) if not pot.is_zero() else 0.0
    rep.add("b17_pair_potential_integral",
            "int P(T_gamma(i del delbar c)) ^ omega_(n-1) = 0 for invariant c", res_pot)

    # vanishing integrals
    res_r = 0.0
    res_scalar = 0.0
    res_bal1 = 0.0
    res_qp = 0.0
    for a in alphas:
        res_r = max(res_r, abs(M.integrate(R(M, g, a).wedge(w_nm1))))
        lam_dbar = lefschetz_lambda(g, M.delbar(a))
        scl = _scalar_of(adjoint_delbar(M, g, lam_dbar))
        res_scalar = max(res_scalar, abs(M.integrate((scl * w).wedge(w_nm1))))
        if balanced:
            res_bal1 = max(res_bal1, abs(M.integrate((1j * M.del_(lam_dbar)).wedge(w_nm1))))
            t2 = 1j * adjoint_del(M, g, w.wedge(adjoint_delbar(M, g, a)))
            res_bal1 = max(res_bal1, abs(M.integrate(t2.wedge(w_nm1))))
            diff = Q(M, g, a, tol=tol) - P(M, g, a, tol=tol)
            res_qp = max(res_qp, abs(M.integrate(diff.wedge(w_nm1))))
    rep.add("b18_r_integral_vanishing", "int R(a) ^ omega_(n-1) = 0", res_r)
    rep.add("b19_scalar_trace_integral_vanishing",
            "int (dbar* Lam(dbar a)) omega ^ omega_(n-1) = 0", res_scalar)
    if balanced:
        rep.add("b20_balanced_first_order_integrals",
                "balanced: int i del Lam(dbar a) ^ omega_(n-1) = 0 = int i del*(omega ^ dbar* a) ^ omega_(n-1)",
                res_bal1)
        rep.add("b21_q_p_integral_bridge", "balanced: int (Q - P)(a) ^ omega_(n-1) = 0", res_qp)
    else:
        rep.skip("b20_balanced_first_order_integrals", "balanced: first-order integrals vanish",
                 "omega is not balanced")
        rep.skip("b21_q_p_integral_bridge", "balanced: int (Q-P)(a) ^ omega_(n-1) = 0",
                 "omega is not balanced")

    # Q on the metric form
    q_w = Q(M, g, w, tol=tol)
    dec = (P(M, g, w, tol=tol) + (n / (n - 1)) * R(M, g, w)
           + M.del_(adjoint_del(M, g, w))
           - 1j * adjoint_del(M, g, w.wedge(adjoint_delbar(M, g, w))))
    rep.add("b22_q_on_metric_decomposition",
            "Q(omega) = P(omega) + (n/(n-1)) R(omega) + del del* omega - i del*(omega ^ dbar* omega)",
            (q_w - dec).max_abs())
    if balanced:
        rep.add("b23_q_equals_p_on_metric_balanced", "balanced: Q(omega) = P(omega)",
                (q_w - P(M, g, w, tol=tol)).max_abs())
    else:
        rep.skip("b23_q_equals_p_on_metric_balanced", "balanced: Q(omega) = P(omega)",
                 "omega is not balanced")

    # Q = -laplacian on kahler metrics
    if kahler:
        res_k = 0.0
        for a in alphas:
            res_k = max(res_k, (Q(M, g, a, tol=tol) + laplacian_delbar(M, g, a)).max_abs())
        rep.add("b24_q_is_minus_laplacian_kahler", "kahler: Q = -(dbar-laplacian)", res_k)
    else:
        rep.skip("b24_q_is_minus_laplacian_kahler", "kahler: Q = -(dbar-laplacian)",
                 "omega is not kahler")

    # Q = P on harmonic (1,1)-forms
    table = OperatorTable(M, g)
    lap_mat = (table.chain(["dbar", "dbarstar"], 1, 1) + table.chain(["dbarstar", "dbar"], 1, 1))
    svals = np.linalg.svd(lap_mat, compute_uv=False)
    null_mask = svals < 1e-8 * max(1.0, svals.max())
    if null_mask.any():
        _, _, vh = np.linalg.svd(lap_mat)
        res_h = 0.0
        count = 0
        for row in vh[np.argsort(svals)][:3]:
            a = g.from_e_vec(row.conj(), 1, 1)
            if laplacian_delbar(M, g, a).max_abs() > 1e-8:
                continue
            count += 1
            res_h = max(res_h, (Q(M, g, a, tol=tol) - P(M, g, a, tol=tol)).max_abs())
        if count:
            rep.add("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)", res_h)
        else:
            rep.skip("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)",
                     "no invariant harmonic (1,1)-forms sampled")
    else:
        rep.skip("b25_q_equals_p_on_harmonic", "Q = P on ker(dbar-laplacian)",
                 "no invariant harmonic (1,1)-forms sampled")

    # semi-definite forms with vanishing top trace must vanish
    res_sd = None
    for theta in semidefinite_candidates:
        try:
            Rm = matrix_of_11(theta)
        except InputError:
            continue
        if np.abs(Rm - Rm.conj().T).max() > 1e-9:
            continue
        eigs = np.array(eigenvalues_of_11(g, theta, tol=1e-6))
        if (eigs > -1e-9).all() or (eigs < 1e-9).all():
            if abs(M.integrate(theta.wedge(w_nm1))) < tol:
                res_sd = max(res_sd or 0.0, float(np.abs(eigs).max()))
    if res_sd is None:
        rep.skip("b26_semidefinite_zero_trace",
                 "semi-definite theta with int theta ^ omega_(n-1) = 0 vanishes",
                 "no semi-definite candidates arose in this run")
    else:
        rep.add("b26_semidefinite_zero_trace",
                "semi-definite theta with int theta ^ omega_(n-1) = 0 vanishes", res_sd)

    return rep.finalize()
