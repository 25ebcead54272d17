"""Metric invariants, classification and their pair/triple generalisations.

For a metric ``omega`` on an n-dimensional model (n >= 3) the basic objects
are:

    rho        unique (1,1)-form with  i del delbar omega_{n-2} = omega_{n-2} ^ rho
    star_rho   its Hodge dual, also given in closed form by
               (f/(n-1)) omega_{n-1} - i del delbar omega_{n-2}
    f          the real scalar  (omega ^ i del delbar omega_{n-2}) / omega_n,
               equal to (n-1) * Lambda(rho)

All of them come from one private core, ``_star_split(M, omega, gamma)``,
which builds ``src = i del delbar omega_{n-2}`` once and derives f, rho,
the closed star rho and both cross-check residuals from it.  The two
cross-checks are the redundant routes above: f by trace against
(n-1) Lambda(rho) from the division, and the closed star rho against the
direct star of rho.  Reports record both residuals; ``star_rho`` and the
search objective raise when the star routes disagree.  On an invariant
model f is automatically constant, and is checked to be real.

The core and the classification work on one coefficient vector per
bidegree slot, through the manifold's ``d_matrices``, the metric's frame
matrices and the per-dimension frame tables of ``metric``; no coefficient
is dropped, so small metrics keep their volume det H.  ``Form`` is the I/O
type: rho and star rho become Forms at the end.  JSON output leaves out
the coefficients at or below 1e-14 times the largest of their form.

A metric is classified by the vanishing of: d omega (kahler),
del delbar omega (SKT), del delbar omega_{n-2} (astheno),
omega ^ del delbar omega_{n-2} (n2_gauduchon), d omega_{n-1} (balanced),
del delbar omega_{n-1} (gauduchon), del delbar star_rho
(pluriclosed_star_split) and d star_rho (closed_star_split).  Each flag
carries its defect residual, the pointwise norm of the differentiated form
(the Euclidean norm of its frame vectors); a flag holds when the defect is
below tol * (1 + scale of the differentiated form).

Pairs (omega, gamma) divide i del delbar omega_{n-2} by gamma_{n-2} instead
and star with gamma; triples (phi, omega, gamma) run the pair pipeline on
the pulled-back metric phi* omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .complex_structure import (InvariantComplexManifold, PullbackMap, pullback,
                                pullback_metric, structure_compatibility,
                                total_volume)
from .errors import DEFAULT_TOL, AlgebraError, InputError
from .forms import Form
from .metric import (HermitianMetric, _divide_e, _frame_norm, _omega_power_vec,
                     _omega_vec, _slot_mat, _top_pairing, _volume_coeff,
                     _wedge_power_mat, hodge_star, omega_power, vec_to_form)

FLAG_ORDER = ("kahler", "balanced", "gauduchon", "SKT", "astheno_kahler",
              "n2_gauduchon", "pluriclosed_star_split", "closed_star_split")


@dataclass(frozen=True)
class FlagResult:
    holds: bool
    defect: float
    threshold: float

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "defect": self.defect, "threshold": self.threshold}


def _flag(defect: float, scale: float, tol: float) -> FlagResult:
    threshold = tol * (1.0 + scale)
    return FlagResult(defect < threshold, defect, threshold)


def _form_json(u: Form) -> dict:
    """The coefficients of ``u`` above 1e-14 times its largest one."""
    floor = 1e-14 * u.max_abs()
    out = {}
    for holo, anti, c in u.terms():
        if abs(c) > floor:
            key = ",".join(str(k) for k in holo) + "|" + ",".join(str(k) for k in anti)
            out[key] = [c.real, c.imag]
    return out


@dataclass
class MetricReport:
    manifold: str
    dim: int
    metric: str
    f: float
    rho: Form
    star_rho: Form
    eigenvalues: List[float]
    flags: Dict[str, FlagResult]
    del_omega_norm_sq: float
    integral_f: float
    f_cross_residual: float
    star_rho_cross_residual: float
    pss_cross_defect: float
    tolerance: float
    notes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "dim": self.dim,
            "metric": self.metric,
            "f": self.f,
            "flags": {k: v.to_json_dict() for k, v in self.flags.items()},
            "eigenvalues": list(self.eigenvalues),
            "rho": _form_json(self.rho),
            "star_rho": _form_json(self.star_rho),
            "norms": {"del_omega_sq": self.del_omega_norm_sq,
                      "integral_f": self.integral_f},
            "residuals": {"f_cross": self.f_cross_residual,
                          "star_rho_cross": self.star_rho_cross_residual,
                          "pss_cross_defect": self.pss_cross_defect},
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------------
# core invariants
# ----------------------------------------------------------------------
def _laplacian_source(M: InvariantComplexManifold, v: np.ndarray, k: int) -> np.ndarray:
    """i del delbar on phi-basis coefficients of the (k,k)-slot."""
    return 1j * (M.d_matrices(k, k + 1)[0] @ (M.d_matrices(k, k)[1] @ v))


def _real_scalar(value: complex, tol: float, what: str) -> float:
    if abs(value.imag) > tol * (1.0 + abs(value)):
        raise AlgebraError(f"{what} must be real, got {value}")
    return float(value.real)


def _require_n3(M: InvariantComplexManifold) -> None:
    if M.dim < 3:
        raise InputError(f"invariants need complex dimension >= 3, got {M.dim}")


@dataclass(frozen=True)
class _StarSplit:
    """Everything built from one ``src = i del delbar omega_{n-2}``, as
    coefficient vectors: ``src`` and ``star_rho`` on the phi basis of the
    (n-1,n-1)-slot, ``rho_e`` on gamma's orthonormal frame of the
    (1,1)-slot."""

    src: np.ndarray
    f: float
    rho_e: np.ndarray
    f_cross: float
    star_rho: np.ndarray
    route_residual: float

    def checked(self, tol: float) -> "_StarSplit":
        """Raise unless the direct star of rho agrees with the closed form."""
        if self.route_residual > tol * (1.0 + float(np.abs(self.star_rho).max())):
            raise AlgebraError(
                f"star-rho routes disagree (residual {self.route_residual:.3e})")
        return self


def _star_split(M: InvariantComplexManifold, omega_m: HermitianMetric,
                gamma_m: HermitianMetric, tol: float) -> _StarSplit:
    """Divide i del delbar omega_{n-2} by gamma_{n-2}; trace and star with gamma."""
    _require_n3(M)
    n = M.dim
    src = _laplacian_source(M, _omega_power_vec(omega_m, n - 2), n - 2)
    # f = int(omega ^ src) / int(omega_n): an integral is the top
    # coefficient over that of the standard omega_n, and int(omega_n) is
    # the total volume
    top = _omega_vec(gamma_m) @ _top_pairing(n, 1, 1) @ src
    f = _real_scalar(top / (_volume_coeff(n) * total_volume(M, gamma_m)), tol,
                     "the trace scalar f")
    rho_e = _divide_e(n, n - 2, gamma_m.to_e_matrix(n - 1, n - 1) @ src, tol)
    # f = (n-1) Lambda(rho); Lambda on the (1,1)-slot is the adjoint of omega ^ .
    f_lambda = (n - 1) * (_wedge_power_mat(n, 1, 0, 0)[:, 0].conj() @ rho_e)
    to_phi = gamma_m.from_e_matrix(n - 1, n - 1)
    closed = to_phi @ (f / (n - 1) * _wedge_power_mat(n, n - 1, 0, 0)[:, 0]) - src
    resid = float(np.abs(closed - to_phi @ (_slot_mat(n, "star", 1, 1)[0] @ rho_e)).max())
    return _StarSplit(src, f, rho_e, abs(f - f_lambda), closed, resid)


def _star_split_flags(M: InvariantComplexManifold, gamma_m: HermitianMetric,
                      sr: np.ndarray, tol: float) -> Tuple[FlagResult, FlagResult]:
    """(pluriclosed, closed) flags of star rho, given on the phi basis, both
    scaled by its norm."""
    n = M.dim
    del_, dbar = M.d_matrices(n - 1, n - 1)
    scale = _frame_norm(gamma_m, (sr, n - 1, n - 1))
    pluri = _frame_norm(gamma_m, (_laplacian_source(M, sr, n - 1), n, n))
    closed = _frame_norm(gamma_m, (del_ @ sr, n, n - 1), (dbar @ sr, n - 1, n))
    return _flag(pluri, scale, tol), _flag(closed, scale, tol)


def _forms(gamma_m: HermitianMetric, core: _StarSplit) -> Tuple[Form, Form]:
    """rho and star rho of the core as Forms."""
    n = gamma_m.dim
    return gamma_m.from_e_vec(core.rho_e, 1, 1), vec_to_form(n, n - 1, n - 1, core.star_rho)


def rho(M: InvariantComplexManifold, g: HermitianMetric, *, tol: float = DEFAULT_TOL) -> Form:
    """The (1,1)-form with i del delbar omega_{n-2} = omega_{n-2} ^ rho."""
    return _forms(g, _star_split(M, g, g, tol))[0]


def f_scalar(M: InvariantComplexManifold, g: HermitianMetric, *, tol: float = DEFAULT_TOL) -> float:
    """(omega ^ i del delbar omega_{n-2}) / omega_n as a real constant."""
    return _star_split(M, g, g, tol).f


def star_rho(M: InvariantComplexManifold, g: HermitianMetric, *,
             tol: float = DEFAULT_TOL) -> Form:
    """Hodge dual of rho, via the closed form cross-checked against the
    direct star (agreement enforced at ``tol``)."""
    return _forms(g, _star_split(M, g, g, tol).checked(tol))[1]


def eigenvalues_of_11(alpha_e: np.ndarray, *, tol: float = DEFAULT_TOL) -> List[float]:
    """Eigenvalues of a real (1,1)-form against the metric, from its
    coefficients ``alpha_e`` on the metric's orthonormal frame of the
    (1,1)-slot: the spectrum of the Hermitian R with
    ``alpha = i sum R[j,k] e_j ^ ebar_k``."""
    n = math.isqrt(len(alpha_e))
    if not n or n * n != len(alpha_e):
        raise InputError("expected the frame vector of a (1,1)-form")
    R = np.reshape(alpha_e, (n, n)) / 1j
    if np.abs(R - R.conj().T).max() > tol * max(1.0, float(np.abs(R).max())):
        raise InputError("eigenvalue report expects a real form")
    return [float(v) for v in np.linalg.eigvalsh(0.5 * (R + R.conj().T))]


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def classify(M: InvariantComplexManifold, g: HermitianMetric, *,
             tol: float = DEFAULT_TOL, notes: Optional[List[str]] = None) -> MetricReport:
    core = _star_split(M, g, g, tol)
    n = M.dim
    w, w_nm1 = _omega_vec(g), _omega_power_vec(g, n - 1)
    del_w, dbar_w = (mat @ w for mat in M.d_matrices(1, 1))
    del_w_nm1, dbar_w_nm1 = (mat @ w_nm1 for mat in M.d_matrices(n - 1, n - 1))
    # the frame coefficients of omega_k are unimodular: |omega_k| = sqrt(C(n,k))
    scale_w, scale_nm2, scale_nm1 = (math.comb(n, k) ** 0.5 for k in (1, n - 2, n - 1))
    gauduchon = _frame_norm(g, (_laplacian_source(M, w_nm1, n - 1), n, n))

    defects = {
        "kahler": (_frame_norm(g, (del_w, 2, 1), (dbar_w, 1, 2)), scale_w),
        "balanced": (_frame_norm(g, (del_w_nm1, n, n - 1), (dbar_w_nm1, n - 1, n)), scale_nm1),
        "gauduchon": (gauduchon, scale_nm1),
        "SKT": (_frame_norm(g, (_laplacian_source(M, w, 1), 2, 2)), scale_w),
        "astheno_kahler": (_frame_norm(g, (core.src, n - 1, n - 1)), scale_nm2),
        # omega ^ src = f omega_n, and |omega_n| = 1
        "n2_gauduchon": (abs(core.f), scale_nm1),
    }
    flags = {key: _flag(defect, scale, tol) for key, (defect, scale) in defects.items()}
    flags["pluriclosed_star_split"], flags["closed_star_split"] = _star_split_flags(
        M, g, core.star_rho, tol)

    vol = total_volume(M, g)
    rho_form, star_rho_form = _forms(g, core)
    return MetricReport(
        manifold=M.name,
        dim=n,
        metric=g.describe(),
        f=core.f,
        rho=rho_form,
        star_rho=star_rho_form,
        eigenvalues=eigenvalues_of_11(core.rho_e, tol=tol),
        flags=flags,
        del_omega_norm_sq=_frame_norm(g, (del_w, 2, 1)) ** 2 * vol,
        integral_f=core.f * vol,
        f_cross_residual=core.f_cross,
        star_rho_cross_residual=core.route_residual,
        # i del delbar (f omega_{n-1}) with f constant
        pss_cross_defect=abs(core.f) * gauduchon,
        tolerance=tol,
        notes=list(notes or []),
    )


# ----------------------------------------------------------------------
# pairs and triples
# ----------------------------------------------------------------------
@dataclass
class PairReport:
    manifold: str
    dim: int
    omega: str
    gamma: str
    f: float
    rho: Form
    star_rho: Form
    pluriclosed: FlagResult
    closed: FlagResult
    integral_f: float
    f_cross_residual: float
    star_rho_cross_residual: float
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold, "dim": self.dim,
            "omega": self.omega, "gamma": self.gamma,
            "f": self.f,
            "rho": _form_json(self.rho), "star_rho": _form_json(self.star_rho),
            "pluriclosed": self.pluriclosed.to_json_dict(),
            "closed": self.closed.to_json_dict(),
            "integral_f": self.integral_f,
            "residuals": {"f_cross": self.f_cross_residual,
                          "star_rho_cross": self.star_rho_cross_residual},
            "tolerance": self.tolerance,
        }


def pair_analysis(M: InvariantComplexManifold, omega_m: HermitianMetric,
                  gamma_m: HermitianMetric, *, tol: float = DEFAULT_TOL) -> PairReport:
    """Divide i del delbar omega_{n-2} by gamma_{n-2} and classify the result."""
    core = _star_split(M, omega_m, gamma_m, tol)
    pluri, closed = _star_split_flags(M, gamma_m, core.star_rho, tol)
    rho_form, star_rho_form = _forms(gamma_m, core)
    return PairReport(
        manifold=M.name, dim=M.dim,
        omega=omega_m.describe(), gamma=gamma_m.describe(),
        f=core.f, rho=rho_form, star_rho=star_rho_form,
        pluriclosed=pluri, closed=closed,
        integral_f=core.f * total_volume(M, gamma_m),
        f_cross_residual=core.f_cross, star_rho_cross_residual=core.route_residual,
        tolerance=tol,
    )


@dataclass
class TripleReport:
    pair: PairReport
    pullback_metric: HermitianMetric
    structure_residual: float
    structure_compatible: bool
    gamma_isometric: bool
    rho_pullback_residual: Optional[float]

    @property
    def pluriclosed(self) -> FlagResult:
        return self.pair.pluriclosed

    @property
    def f(self) -> float:
        return self.pair.f

    @property
    def rho(self) -> Form:
        return self.pair.rho

    def to_json_dict(self) -> dict:
        out = self.pair.to_json_dict()
        out["structure_residual"] = self.structure_residual
        out["structure_compatible"] = self.structure_compatible
        out["gamma_isometric"] = self.gamma_isometric
        out["rho_pullback_residual"] = self.rho_pullback_residual
        return out


def triple_analysis(M: InvariantComplexManifold, phi: PullbackMap,
                    omega_m: HermitianMetric, gamma_m: HermitianMetric, *,
                    tol: float = DEFAULT_TOL) -> TripleReport:
    """Pair pipeline applied to (phi* omega, gamma).

    A structure-incompatible phi is flagged, not fatal; a degenerate
    pulled-back metric is.  When phi preserves gamma and the plain pair
    (omega, gamma) is pluriclosed star split, the division form of the
    triple must be the pullback of the pair's division form; the residual
    of that identity is recorded.
    """
    _require_n3(M)
    omega_tilde = pullback_metric(M, phi, omega_m)
    pair = pair_analysis(M, omega_tilde, gamma_m, tol=tol)

    struct_resid = structure_compatibility(M, phi)
    A = phi.matrix
    gamma_iso = bool(np.abs(A.T @ gamma_m.H @ A.conj() - gamma_m.H).max()
                     <= tol * (1.0 + float(np.abs(gamma_m.H).max())))

    rho_pb_resid = None
    if gamma_iso and struct_resid <= tol:
        base = pair_analysis(M, omega_m, gamma_m, tol=tol)
        if base.pluriclosed.holds:
            rho_pb_resid = (pair.rho - pullback(M, phi, base.rho)).max_abs()

    return TripleReport(
        pair=pair,
        pullback_metric=omega_tilde,
        structure_residual=struct_resid,
        structure_compatible=struct_resid <= tol,
        gamma_isometric=gamma_iso,
        rho_pullback_residual=rho_pb_resid,
    )


# ----------------------------------------------------------------------
# conformal variation and rescaling (closed-form evaluators)
# ----------------------------------------------------------------------
def conformal_f(f_base: float, g_val: float, laplacian_g_val: float) -> float:
    """Trace scalar of g * omega for balanced omega in dimension 3:
    f_base / g - 2 * Lap(g) / g^2, with Lap(h) = -Lambda(i del delbar h);
    one of the abstract's "links with Gauduchon and balanced metrics"
    through f."""
    if g_val <= 0:
        raise InputError("conformal factor must be positive")
    return f_base / g_val - 2.0 * laplacian_g_val / (g_val * g_val)


def rescale_f(f_base: float, lam: float) -> float:
    """Trace scalar of lambda * omega: f / lambda.  A constant rescaling
    keeps the sign of f, through which the abstract states its "links with
    Gauduchon and balanced metrics"."""
    if lam <= 0:
        raise InputError("rescaling factor must be positive")
    return f_base / lam


def gauduchon_adjoint_on_constant(M: InvariantComplexManifold, g: HermitianMetric,
                                  c: float) -> Form:
    """c * i star delbar del omega_{n-1}: the adjoint Laplace operator applied
    to the constant c.  Vanishes iff c = 0 or the metric is Gauduchon, the
    criterion behind the abstract's "links with Gauduchon and balanced
    metrics"."""
    n = M.dim
    if c == 0:
        return Form.zero(n)
    w_nm1 = omega_power(g, n - 1)
    inner = M.delbar(M.del_(w_nm1))
    if inner.is_zero():
        return Form.zero(n)
    return c * 1j * hodge_star(g, inner)
