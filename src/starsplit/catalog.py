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

Listing and describing the entries needs no numpy: ``get`` and the
iwasawa3 isometry import the manifold and metric modules when called.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DEFAULT_TOL, InputError

if TYPE_CHECKING:
    from .complex_structure import InvariantComplexManifold, PullbackMap, StructureTable
    from .metric import HermitianMetric

# Sorted spectrum {A/2, A/2, -A/2} is reported for the deformation family and
# the base iwasawa3 entry.  A spectrum {1, 1, -1} at A = 1 is in circulation
# for the base entry; it corresponds to doubling rho.  The convention used
# here (generalized eigenvalues of rho against the metric) is the one that is
# consistent across all catalog entries, so the alternate values are surfaced
# as a note instead of being adopted.
_EIGENVALUE_NOTE = (
    "spectrum convention: eigenvalues of the division form rho relative to the "
    "metric; the alternate published values {1, 1, -1} correspond to 2*rho")


_ALL_FLAGS = dict.fromkeys(("kahler", "balanced", "gauduchon", "SKT", "astheno_kahler",
                           "n2_gauduchon", "pluriclosed_star_split", "closed_star_split"), True)
# the fixed non-Kähler entries: balanced and star split, neither SKT nor
# astheno-Kähler nor n2-Gauduchon
_BALANCED = {**_ALL_FLAGS, "kahler": False, "SKT": False, "astheno_kahler": False,
             "n2_gauduchon": False}


class CatalogEntry(NamedTuple):
    """One catalog model: its structure table over the parameters
    ``param_defaults`` (read, never written), its default metric
    ``metric_scale`` times the identity, the range ``check`` its parameters
    must pass, and the expected constants of a bound instance under that
    metric."""

    name: str
    description: str
    dim: int
    structure: StructureTable
    expectations: Callable[[InvariantComplexManifold], dict]
    param_defaults: Mapping[str, complex] = {}
    metric_scale: float = 1.0
    check: Optional[Callable[[Dict[str, complex]], None]] = None
    isometry: Optional[Callable[..., PullbackMap]] = None


def _fixed(f: float, eigenvalues: List[float], flags: dict, notes: Tuple[str, ...] = ()):
    """The expectations of an entry without parameters."""
    def expectations(M: InvariantComplexManifold) -> dict:
        exp = {"f": f, "eigenvalues": list(eigenvalues), "flags": dict(flags)}
        if notes:
            exp["notes"] = list(notes)
        return exp
    return expectations


def _torus(k: int, description: str) -> CatalogEntry:
    return CatalogEntry(f"torus_{k}", description, k, {}, _fixed(0.0, [0.0] * k, _ALL_FLAGS))


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


def _iwasawa3_isometry(u: complex, v: complex) -> PullbackMap:
    """The coframe rotation diag(u, v, u*v): an isometry of the standard
    metric for |u| = |v| = 1 and structure-compatible for all u, v."""
    from .complex_structure import PullbackMap
    return PullbackMap.diagonal([u, v, u * v])


def _calabi_eckmann_check(params: Dict[str, complex]) -> None:
    t = params["t"]
    if abs(t) >= 1.0:
        raise InputError(
            f"calabi_eckmann parameter must satisfy |t| < 1 "
            f"(structure coefficients are singular at |t| = 1), got |t| = {abs(t):g}")


def _calabi_eckmann_expectations(M: InvariantComplexManifold) -> dict:
    t = M.params["t"]
    real_t = abs(t.imag) < 1e-14
    return {
        "f": 8.0 * t.imag,
        "eigenvalues": sorted([4 * t.imag, 4 * t.imag, -4 * t.imag]),
        "flags": {**_ALL_FLAGS, "kahler": False, "balanced": False, "SKT": real_t,
                  "astheno_kahler": real_t, "n2_gauduchon": real_t,
                  "closed_star_split": real_t},
    }


_ENTRIES: Dict[str, CatalogEntry] = {entry.name: entry for entry in (
    _torus(3, "complex 3-torus (all structure constants zero)"),
    CatalogEntry(
        "iwasawa3", "3-dimensional nilmanifold, d phi3 = -phi1^phi2", 3,
        {3: {"(2,0)": [(1, 2, "-1")]}},
        _fixed(1.0, [-0.5, 0.5, 0.5], _BALANCED, (_EIGENVALUE_NOTE,)),
        isometry=_iwasawa3_isometry),
    CatalogEntry(
        "nakamura", "3-dimensional solvmanifold, d phi2 = phi1^phi2, d phi3 = -phi1^phi3", 3,
        {2: {"(2,0)": [(1, 2, "1")]}, 3: {"(2,0)": [(1, 3, "-1")]}},
        _fixed(2.0, [0.0, 0.0, 1.0], _BALANCED)),
    CatalogEntry(
        "iwasawa_def", "small deformations of iwasawa3 with free sigma coefficients", 3,
        {3: {"(2,0)": [(1, 2, "sigma12")],
             "(1,1)": [(1, 1, "sigma11b"), (1, 2, "sigma12b"),
                       (2, 1, "sigma21b"), (2, 2, "sigma22b")]}},
        _iwasawa_def_expectations,
        param_defaults={"sigma12": -1 + 0j, "sigma11b": 0j,
                        "sigma12b": 0j, "sigma21b": 0j, "sigma22b": 0j}),
    CatalogEntry(
        "iwasawa5", "5-dimensional nilmanifold with three non-closed generators", 5,
        {3: {"(2,0)": [(1, 2, "1")]}, 4: {"(2,0)": [(1, 3, "1")]}, 5: {"(2,0)": [(2, 3, "1")]}},
        _fixed(3.0, [-0.25, -0.25, -0.25, 0.75, 0.75], _BALANCED)),
    CatalogEntry(
        "calabi_eckmann", "complex structures on S^3 x S^3, parameter t in the unit disc", 3,
        {1: {"(2,0)": [(1, 3, "i*(conj(t)+1)/(1-abs2(t))")],
             "(1,1)": [(1, 3, "i*(t+1)/(1-abs2(t))")]},
         2: {"(2,0)": [(2, 3, "(1-conj(t))/(1-abs2(t))")],
             "(1,1)": [(2, 3, "(t-1)/(1-abs2(t))")]},
         3: {"(1,1)": [(1, 1, "i*(t-1)"), (2, 2, "t+1")]}},
        _calabi_eckmann_expectations, param_defaults={"t": 0j}, metric_scale=0.5,
        check=_calabi_eckmann_check),
)}


def list_names() -> List[str]:
    return sorted(_ENTRIES)


def describe(name: str) -> str:
    return _ENTRIES[name].description


def _entry(name: str) -> CatalogEntry:
    """The entry of ``name``.  Any ``torus_<k>`` name, k >= 1 written in
    ASCII digits without a leading zero, is accepted even though only
    ``torus_3`` is listed."""
    if name in _ENTRIES:
        return _ENTRIES[name]
    if not re.fullmatch(r"torus_[1-9][0-9]*", name):
        raise InputError(f"unknown catalog manifold {name!r}; "
                         f"known: {', '.join(list_names())}, torus_<k> (k >= 1)")
    try:
        k = int(name[len("torus_"):])
    except ValueError:  # more digits than int() converts
        raise InputError(f"bad torus dimension in {name!r}") from None
    return _torus(k, f"complex {k}-torus")


def dimension(name: str) -> int:
    """The complex dimension of a catalog manifold, known without building it."""
    return _entry(name).dim


def get(name: str, params: Optional[Dict[str, complex]] = None, *,
        tol: float = DEFAULT_TOL) -> Tuple[InvariantComplexManifold, HermitianMetric, dict]:
    """Build a catalog manifold with bound parameters.

    Returns the validated manifold, its default metric and the expected
    constants at those parameter values.
    """
    import numpy as np

    from .complex_structure import InvariantComplexManifold
    from .metric import HermitianMetric
    params = dict(params or {})
    entry = _entry(name)
    bound = dict(entry.param_defaults)
    for key, value in params.items():
        if key not in entry.param_defaults:
            raise InputError(f"manifold {name!r} has no parameter {key!r}")
        bound[key] = complex(value)
    M = InvariantComplexManifold(entry.name, entry.dim, entry.structure, bound, entry.check)
    M.validate(tol)
    return M, HermitianMetric(entry.metric_scale * np.eye(entry.dim)), entry.expectations(M)


def isometry_factory(name: str):
    entry = _ENTRIES.get(name)
    return entry.isometry if entry else None
