"""Derivative-free search for star-split metrics and parameter scans.

The objective is the defect ``|| del delbar (star rho) ||`` measured in the
norm of a fixed reference metric (the identity matrix), not of the candidate
metric itself: the trace scalar obeys f(lambda omega) = f(omega)/lambda, so
measuring in the moving metric would create spurious descent directions
along conformal rays.

Minimisation is Nelder-Mead simplex descent (reflection/expansion/
contraction/shrink coefficients 1, 2, 1/2, 1/2, as in scipy, without
importing it) with seeded random restarts; positive definiteness violations
are penalised with +inf.  Runs are deterministic for a fixed seed, ties
between restarts resolve to the earliest index.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis
from .complex_structure import InvariantComplexManifold
from .errors import DEFAULT_TOL, InputError
from .metric import HermitianMetric

_RESTARTS = 4   # simplex descents per search: from the start and 3 perturbations


# ----------------------------------------------------------------------
# metric families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricFamily:
    """Parameterised family of candidate metrics.

    ``build`` must raise InputError on parameter vectors that do not give a
    positive definite matrix; the search turns that into an +inf penalty.
    """

    dim: int
    n_params: int
    build: Callable[[np.ndarray], HermitianMetric]
    start: np.ndarray


def diagonal_family(n: int) -> MetricFamily:
    """Diagonal metrics diag(x_1..x_n), positive cone."""
    def build(x: np.ndarray) -> HermitianMetric:
        if np.any(np.asarray(x) <= 0):
            raise InputError("diagonal entries must be positive")
        return HermitianMetric.diagonal(np.asarray(x, dtype=float))
    return MetricFamily(n, n, build, np.ones(n))


def hermitian_family(n: int) -> MetricFamily:
    """Full Hermitian metrics: n diagonal entries plus re/im of the strict
    upper triangle."""
    n_off = n * (n - 1) // 2
    def build(x: np.ndarray) -> HermitianMetric:
        x = np.asarray(x, dtype=float)
        H = np.zeros((n, n), dtype=complex)
        H[np.diag_indices(n)] = x[:n]
        pos = n
        for j in range(n):
            for k in range(j + 1, n):
                H[j, k] = complex(x[pos], x[pos + 1])
                H[k, j] = H[j, k].conjugate()
                pos += 2
        return HermitianMetric(H)
    start = np.concatenate([np.ones(n), np.zeros(2 * n_off)])
    return MetricFamily(n, n + 2 * n_off, build, start)


def family_by_name(kind: str, n: int) -> MetricFamily:
    if kind == "diagonal":
        return diagonal_family(n)
    if kind == "hermitian":
        return hermitian_family(n)
    raise InputError(f"unknown metric family {kind!r}")


# ----------------------------------------------------------------------
# the objective
# ----------------------------------------------------------------------
def _defect_and_f(M: InvariantComplexManifold, g: HermitianMetric, tol: float
                  ) -> Tuple[float, float]:
    """The star-split defect and the trace scalar f from one core evaluation.
    The orthonormal frame of the identity reference metric is the phi basis,
    so the defect is the Euclidean norm of the phi-basis coefficients."""
    core = analysis._star_split(M, g, g, tol).checked(tol)
    defect = analysis._laplacian_source(M, core.star_rho, M.dim - 1)
    return float(np.linalg.norm(defect)), core.f


def pss_defect(M: InvariantComplexManifold, g: HermitianMetric, *,
               tol: float = DEFAULT_TOL) -> float:
    """|| del delbar (star rho) || in the identity reference metric; zero
    exactly on pluriclosed star split metrics."""
    return _defect_and_f(M, g, tol)[0]


class _BudgetSpent(Exception):
    pass


def _simplex_descent(fun: Callable[[np.ndarray], float], x0: np.ndarray, maxfev: int, *,
                     xatol: float, fatol: float) -> Tuple[np.ndarray, float]:
    """Nelder-Mead from ``x0``; the best vertex and its value.  Evaluates the
    same points in the same order as ``scipy.optimize.minimize`` with
    ``method="Nelder-Mead"`` and these options, including its initial
    simplex, its unstable sorts and its stop once ``maxfev`` is spent."""
    calls = [0]

    def f(x: np.ndarray) -> float:
        if calls[0] >= maxfev:
            raise _BudgetSpent
        calls[0] += 1
        return fun(np.copy(x))

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    while calls[0] < maxfev:
        try:
            # a non-finite best value (every vertex infeasible) never stops
            if (np.isfinite(fsim[0]) and np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside the reflected point or inside; else shrink
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(np.min(fsim))


@dataclass
class SearchResult:
    best_params: np.ndarray
    best_defect: float
    report: analysis.MetricReport
    evaluations: int
    restarts: int
    f_signs_observed: List[int]
    f_sign_changed: bool

    def to_json_dict(self) -> dict:
        return {
            "best_params": [float(v) for v in self.best_params],
            "best_defect": self.best_defect,
            "evaluations": self.evaluations,
            "restarts": self.restarts,
            "f_signs_observed": list(self.f_signs_observed),
            "f_sign_changed": self.f_sign_changed,
            "report": self.report.to_json_dict(),
        }


def search_pss(M: InvariantComplexManifold, family: MetricFamily, *,
               budget: int = 2000, seed: int = 0,
               tol: float = DEFAULT_TOL) -> SearchResult:
    """Minimise the star-split defect over the family by simplex descent
    with random restarts.

    Deterministic for fixed seed.  The winning metric is re-validated with
    a full classification report; its defect is the value the descent
    evaluated there.  The sign of the trace scalar f seen at
    each feasible evaluation is recorded (not asserted), to surface sign
    changes along the family.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    if M.dim != family.dim:
        raise InputError("family/manifold dimension mismatch")
    rng = np.random.default_rng(seed)
    signs_seen: set = set()
    evaluations = [0]

    def objective(x: np.ndarray) -> float:
        evaluations[0] += 1
        try:
            g = family.build(x)
        except InputError:
            return float("inf")
        value, f = _defect_and_f(M, g, tol)
        signs_seen.add(0 if abs(f) < 1e-12 else (1 if f > 0 else -1))
        return value

    try:
        family.build(family.start)
    except InputError as exc:
        raise InputError(f"family start point is infeasible: {exc}") from exc

    starts = [np.asarray(family.start, dtype=float)]
    for _ in range(_RESTARTS - 1):
        starts.append(family.start * (1.0 + 0.5 * rng.standard_normal(family.n_params))
                      + 0.1 * rng.standard_normal(family.n_params))

    best_x: Optional[np.ndarray] = None
    best_val = float("inf")
    maxfev = max(family.n_params + 2, budget // max(1, len(starts)))
    for x0 in starts:
        x, val = _simplex_descent(objective, x0, maxfev, xatol=1e-12, fatol=1e-14)
        if np.isfinite(val) and val < best_val:
            best_val = val
            best_x = x
        if evaluations[0] >= budget:
            break

    if best_x is None:
        raise InputError("search found no positive definite metric in the family")

    report = analysis.classify(M, family.build(best_x), tol=tol)
    signs = sorted(signs_seen)
    return SearchResult(
        best_params=best_x,
        best_defect=best_val,
        report=report,
        evaluations=evaluations[0],
        restarts=len(starts),
        f_signs_observed=signs,
        f_sign_changed=(1 in signs_seen and -1 in signs_seen),
    )


# ----------------------------------------------------------------------
# parameter scans
# ----------------------------------------------------------------------
@dataclass
class ScanRow:
    value: complex
    f: float
    flags: Dict[str, bool]
    eigenvalues: List[float]

    def to_json_dict(self) -> dict:
        return {"param": [self.value.real, self.value.imag], "f": self.f,
                "flags": dict(self.flags), "eigenvalues": list(self.eigenvalues)}


def scan(M: InvariantComplexManifold, param_name: str, values: Sequence[complex], *,
         metric: HermitianMetric, tol: float = DEFAULT_TOL) -> List[ScanRow]:
    """Re-bind one manifold parameter per value, validate each instance and
    classify it with ``metric``, the same metric for every value."""
    if param_name not in M.parameter_names():
        raise InputError(f"manifold {M.name!r} has no parameter {param_name!r}")
    rows: List[ScanRow] = []
    for value in values:
        bound = M.bind(**{param_name: complex(value)})
        bound.validate(tol)
        report = analysis.classify(bound, metric, tol=tol)
        rows.append(ScanRow(
            value=complex(value),
            f=report.f,
            flags={k: v.holds for k, v in report.flags.items()},
            eigenvalues=report.eigenvalues,
        ))
    return rows


def scan_rows_to_csv(rows: List[ScanRow]) -> str:
    """The rows as CSV.  Every float is spelled as the JSON output spells
    it, by ``repr``; the parameter is ``<real><sign><imag>i`` with the sign
    of the imaginary part always written."""
    buf = io.StringIO()
    flag_names = list(analysis.FLAG_ORDER)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param", "f"] + flag_names + ["eigenvalues"])
    for row in rows:
        imag = repr(row.value.imag)
        writer.writerow(
            [f"{row.value.real!r}{'' if imag.startswith('-') else '+'}{imag}i", repr(float(row.f))]
            + [str(row.flags.get(name, "")) for name in flag_names]
            + [";".join(repr(float(v)) for v in row.eigenvalues)])
    return buf.getvalue()


def scan_rows_to_json(rows: List[ScanRow]) -> list:
    return [row.to_json_dict() for row in rows]
