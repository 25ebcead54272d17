"""Built-in manifold models with their default metrics and known constants.

Six entries: the complex torus, the 3-dimensional nilmanifold with one
non-closed holomorphic generator (``iwasawa3``), its parameterised small
deformations (``iwasawa_def``), the solvmanifold family with two non-closed
generators (``nakamura``), the 5-dimensional analogue (``iwasawa5``), and
the one-parameter family of complex structures on S^3 x S^3
(``calabi_eckmann``).

Each entry carries the constants its default metric is expected to produce
(the trace scalar ``f``, classification flags, spectrum of the star
partner), which the test-suites compare against computed reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .complex_structure import InvariantComplexManifold, PullbackMap
from .errors import InputError
from .metric import DEFAULT_TOL, HermitianMetric

# Sorted spectrum {A/2, A/2, -A/2} is reported for the deformation family and
# the base iwasawa3 entry.  A spectrum {1, 1, -1} at A = 1 is in circulation
# for the base entry; it corresponds to doubling rho.  The convention used
# here (generalized eigenvalues of rho against the metric) is the one that is
# consistent across all catalog entries, so the alternate values are surfaced
# as a note instead of being adopted.
_EIGENVALUE_NOTE = (
    "spectrum convention: eigenvalues of the division form rho relative to the "
    "metric; the alternate published values {1, 1, -1} correspond to 2*rho")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    dim: int
    build: Callable[[Dict[str, complex]], InvariantComplexManifold]
    default_metric: Callable[[InvariantComplexManifold], HermitianMetric]
    expectations: Callable[[InvariantComplexManifold], dict]
    param_defaults: Dict[str, complex]
    isometry: Optional[Callable[..., PullbackMap]] = None


def _torus_builder(n: int):
    def build(params: Dict[str, complex]) -> InvariantComplexManifold:
        return InvariantComplexManifold(f"torus_{n}", n, {})
    return build


def _torus_expectations(M: InvariantComplexManifold) -> dict:
    return {
        "f": 0.0,
        "eigenvalues": [0.0] * M.dim,
        "flags": {"kahler": True, "balanced": True, "gauduchon": True,
                  "SKT": True, "astheno_kahler": True, "n2_gauduchon": True,
                  "pluriclosed_star_split": True, "closed_star_split": True},
    }


def _iwasawa3_build(params: Dict[str, complex]) -> InvariantComplexManifold:
    structure = {3: {"(2,0)": [(1, 2, "-1")], "(1,1)": []}}
    return InvariantComplexManifold("iwasawa3", 3, structure)


def _iwasawa3_expectations(M: InvariantComplexManifold) -> dict:
    return {
        "f": 1.0,
        "eigenvalues": [-0.5, 0.5, 0.5],
        "flags": {"kahler": False, "balanced": True, "gauduchon": True,
                  "SKT": False, "astheno_kahler": False, "n2_gauduchon": False,
                  "pluriclosed_star_split": True, "closed_star_split": True},
        "notes": [_EIGENVALUE_NOTE],
    }


def _iwasawa3_isometry(u: complex, v: complex) -> PullbackMap:
    """Coframe rotation diag(u, v, u*v); an isometry of the standard metric
    for |u| = |v| = 1 and structure-compatible for all u, v."""
    return PullbackMap.diagonal([u, v, u * v])


def _nakamura_build(params: Dict[str, complex]) -> InvariantComplexManifold:
    structure = {2: {"(2,0)": [(1, 2, "1")], "(1,1)": []},
                 3: {"(2,0)": [(1, 3, "-1")], "(1,1)": []}}
    return InvariantComplexManifold("nakamura", 3, structure)


def _nakamura_expectations(M: InvariantComplexManifold) -> dict:
    return {
        "f": 2.0,
        "eigenvalues": [0.0, 0.0, 1.0],
        "flags": {"kahler": False, "balanced": True, "gauduchon": True,
                  "SKT": False, "astheno_kahler": False, "n2_gauduchon": False,
                  "pluriclosed_star_split": True, "closed_star_split": True},
    }


def _iwasawa5_build(params: Dict[str, complex]) -> InvariantComplexManifold:
    structure = {3: {"(2,0)": [(1, 2, "1")], "(1,1)": []},
                 4: {"(2,0)": [(1, 3, "1")], "(1,1)": []},
                 5: {"(2,0)": [(2, 3, "1")], "(1,1)": []}}
    return InvariantComplexManifold("iwasawa5", 5, structure)


def _iwasawa5_expectations(M: InvariantComplexManifold) -> dict:
    return {
        "f": 3.0,
        "eigenvalues": [-0.25, -0.25, -0.25, 0.75, 0.75],
        "flags": {"kahler": False, "balanced": True, "gauduchon": True,
                  "SKT": False, "astheno_kahler": False, "n2_gauduchon": False,
                  "pluriclosed_star_split": True, "closed_star_split": True},
    }


_SIGMA_NAMES = ("sigma12", "sigma11b", "sigma12b", "sigma21b", "sigma22b")


def _iwasawa_def_build(params: Dict[str, complex]) -> InvariantComplexManifold:
    structure = {3: {"(2,0)": [(1, 2, "sigma12")],
                     "(1,1)": [(1, 1, "sigma11b"), (1, 2, "sigma12b"),
                               (2, 1, "sigma21b"), (2, 2, "sigma22b")]}}
    return InvariantComplexManifold("iwasawa_def", 3, structure, params)


def deformation_trace_constant(params: Dict[str, complex]) -> float:
    """|sigma12|^2 + |sigma21b|^2 + |sigma12b|^2 - 2 Re(sigma11b conj(sigma22b));
    the constant value of f for the deformation family's standard metric."""
    s12 = params["sigma12"]
    return (abs(s12) ** 2 + abs(params["sigma21b"]) ** 2 + abs(params["sigma12b"]) ** 2
            - 2.0 * (params["sigma11b"] * params["sigma22b"].conjugate()).real)


def _iwasawa_def_expectations(M: InvariantComplexManifold) -> dict:
    A = deformation_trace_constant(M.params)
    closed = abs(A * (M.params["sigma11b"] + M.params["sigma22b"])) < 1e-14
    degenerate = abs(A) < 1e-14
    return {
        "f": A,
        "eigenvalues": sorted([A / 2, A / 2, -A / 2]),
        "flags": {"gauduchon": True, "pluriclosed_star_split": True,
                  "closed_star_split": closed, "SKT": degenerate,
                  "astheno_kahler": degenerate, "n2_gauduchon": degenerate},
        "notes": [_EIGENVALUE_NOTE],
    }


def _calabi_eckmann_build(params: Dict[str, complex]) -> InvariantComplexManifold:
    t = params["t"]
    if abs(t) >= 1.0:
        raise InputError(
            f"calabi_eckmann parameter must satisfy |t| < 1 "
            f"(structure coefficients are singular at |t| = 1), got |t| = {abs(t):g}")
    structure = {
        1: {"(2,0)": [(1, 3, "i*(conj(t)+1)/(1-abs2(t))")],
            "(1,1)": [(1, 3, "i*(t+1)/(1-abs2(t))")]},
        2: {"(2,0)": [(2, 3, "(1-conj(t))/(1-abs2(t))")],
            "(1,1)": [(2, 3, "(t-1)/(1-abs2(t))")]},
        3: {"(2,0)": [],
            "(1,1)": [(1, 1, "i*(t-1)"), (2, 2, "t+1")]},
    }
    return InvariantComplexManifold("calabi_eckmann", 3, structure, params)


def _calabi_eckmann_expectations(M: InvariantComplexManifold) -> dict:
    t = M.params["t"]
    f = 8.0 * t.imag
    real_t = abs(t.imag) < 1e-14
    return {
        "f": f,
        "eigenvalues": sorted([4 * t.imag, 4 * t.imag, -4 * t.imag]),
        "flags": {"kahler": False, "balanced": False, "gauduchon": True,
                  "SKT": real_t, "astheno_kahler": real_t, "n2_gauduchon": real_t,
                  "pluriclosed_star_split": True, "closed_star_split": real_t},
    }


def _standard_metric(M: InvariantComplexManifold) -> HermitianMetric:
    return HermitianMetric.identity(M.dim)


def _calabi_eckmann_metric(M: InvariantComplexManifold) -> HermitianMetric:
    return HermitianMetric.identity(M.dim).scaled(0.5)


_ENTRIES: Dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    _ENTRIES[entry.name] = entry


_register(CatalogEntry(
    name="torus_3",
    description="complex 3-torus (all structure constants zero)",
    dim=3,
    build=_torus_builder(3),
    default_metric=_standard_metric,
    expectations=_torus_expectations,
    param_defaults={},
))
_register(CatalogEntry(
    name="iwasawa3",
    description="3-dimensional nilmanifold, d phi3 = -phi1^phi2",
    dim=3,
    build=_iwasawa3_build,
    default_metric=_standard_metric,
    expectations=_iwasawa3_expectations,
    param_defaults={},
    isometry=_iwasawa3_isometry,
))
_register(CatalogEntry(
    name="nakamura",
    description="3-dimensional solvmanifold, d phi2 = phi1^phi2, d phi3 = -phi1^phi3",
    dim=3,
    build=_nakamura_build,
    default_metric=_standard_metric,
    expectations=_nakamura_expectations,
    param_defaults={},
))
_register(CatalogEntry(
    name="iwasawa_def",
    description="small deformations of iwasawa3 with free sigma coefficients",
    dim=3,
    build=_iwasawa_def_build,
    default_metric=_standard_metric,
    expectations=_iwasawa_def_expectations,
    param_defaults={"sigma12": -1 + 0j, "sigma11b": 0j,
                    "sigma12b": 0j, "sigma21b": 0j, "sigma22b": 0j},
))
_register(CatalogEntry(
    name="iwasawa5",
    description="5-dimensional nilmanifold with three non-closed generators",
    dim=5,
    build=_iwasawa5_build,
    default_metric=_standard_metric,
    expectations=_iwasawa5_expectations,
    param_defaults={},
))
_register(CatalogEntry(
    name="calabi_eckmann",
    description="complex structures on S^3 x S^3, parameter t in the unit disc",
    dim=3,
    build=_calabi_eckmann_build,
    default_metric=_calabi_eckmann_metric,
    expectations=_calabi_eckmann_expectations,
    param_defaults={"t": 0j},
))


def list_names() -> List[str]:
    return sorted(_ENTRIES)


def describe(name: str) -> str:
    return _ENTRIES[name].description


def _entry(name: str) -> CatalogEntry:
    """The entry of ``name``.  Any ``torus_<k>`` name is accepted even
    though only ``torus_3`` is listed."""
    if name in _ENTRIES:
        return _ENTRIES[name]
    m = re.fullmatch(r"torus_(\d+)", name)
    if not m:
        raise InputError(f"unknown catalog manifold {name!r}; "
                         f"known: {', '.join(list_names())}")
    k = int(m.group(1))
    if k < 1:
        raise InputError(f"bad torus dimension in {name!r}")
    return CatalogEntry(name=name, description=f"complex {k}-torus", dim=k,
                        build=_torus_builder(k), default_metric=_standard_metric,
                        expectations=_torus_expectations, param_defaults={})


def dimension(name: str) -> int:
    """The complex dimension of a catalog manifold, known without building it."""
    return _entry(name).dim


def get(name: str, params: Optional[Dict[str, complex]] = None, *,
        tol: float = DEFAULT_TOL) -> Tuple[InvariantComplexManifold, HermitianMetric, dict]:
    """Build a catalog manifold with bound parameters.

    Returns the validated manifold, its default metric and the expected
    constants at those parameter values.
    """
    params = dict(params or {})
    entry = _entry(name)
    bound = dict(entry.param_defaults)
    for key, value in params.items():
        if key not in entry.param_defaults:
            raise InputError(f"manifold {name!r} has no parameter {key!r}")
        bound[key] = complex(value)
    M = entry.build(bound)
    M.validate(tol)
    return M, entry.default_metric(M), entry.expectations(M)


def isometry_factory(name: str):
    entry = _ENTRIES.get(name)
    return entry.isometry if entry else None
