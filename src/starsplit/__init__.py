"""Invariant Hermitian geometry toolkit.

Sparse exterior algebra over a fixed coframe, Hermitian metrics with the
full pointwise operator kit (Hodge star, Lefschetz pair, division by powers
of the metric form), invariant complex-manifold models from structure
constants and their pullbacks, the star-split metric invariants and
classification, the operator layer (``OperatorTable``: the adjoints, the
torsion, the dbar-Laplacian and the second-order operators on
(1,1)-forms as frame slot matrices) with the two identity suites, and a
derivative-free metric search.

Each name below is reached by the CLI or a report, is one of the paper's
constructions, or is a ``Form`` entry point to a table route
(``OperatorTable.apply`` for every operator of the table); the list is
ruled in ``tests/test_imports.py``.

Only the errors are imported with the package.  Every other name is
imported from its module on first access (``__getattr__``) and then bound
here, so ``import starsplit`` costs no numpy and a command line that
needs only the catalog loads only the catalog.
"""

import sys

from .errors import (AlgebraError, DimensionMismatchError, ExpressionError,
                     InputError, StarsplitError, UnboundParameterError)

# exported name -> the module that defines it (a module exports itself)
_EXPORTS = {
    "Form": "forms",
    "HermitianMetric": "metric", "divide_by_power": "metric", "form_norm": "metric",
    "hodge_star": "metric", "inner_product": "metric", "lefschetz_L": "metric",
    "lefschetz_decompose": "metric", "lefschetz_lambda": "metric", "omega_power": "metric",
    "InvariantComplexManifold": "complex_structure", "PullbackMap": "complex_structure",
    "pullback": "complex_structure", "pullback_metric": "complex_structure",
    "structure_compatibility": "complex_structure", "total_volume": "complex_structure",
    "MetricReport": "analysis", "PairReport": "analysis", "TripleReport": "analysis",
    "classify": "analysis", "conformal_f": "analysis", "f_scalar": "analysis",
    "gauduchon_adjoint_on_constant": "analysis", "pair_analysis": "analysis",
    "rescale_f": "analysis", "rho": "analysis", "star_rho": "analysis",
    "triple_analysis": "analysis",
    "IdentityReport": "operators", "OperatorTable": "operators", "P": "operators",
    "Q": "operators", "R": "operators", "S": "operators", "T": "operators",
    "verify_commutation_suite": "operators", "verify_operator_identities": "operators",
    "MetricFamily": "search", "SearchResult": "search", "diagonal_family": "search",
    "hermitian_family": "search", "pss_defect": "search", "scan": "search",
    "search_pss": "search",
    "catalog": "catalog",
}

__version__ = "0.1.0"


def __getattr__(name):
    """Import an exported name's module on first access and bind the name
    in the package, so that later lookups are plain attribute reads."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_EXPORTS[name]}"
    __import__(path)    # as an import statement does, so -X importtime lists it
    module = sys.modules[path]
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
