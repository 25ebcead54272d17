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
"""

from .errors import (AlgebraError, DimensionMismatchError, ExpressionError,
                     InputError, StarsplitError, UnboundParameterError)
from .forms import Form
from .metric import (HermitianMetric, divide_by_power, form_norm, hodge_star,
                     inner_product, lefschetz_L, lefschetz_decompose,
                     lefschetz_lambda, omega_power)
from .complex_structure import (InvariantComplexManifold, PullbackMap, pullback,
                                pullback_metric, structure_compatibility, total_volume)
from .analysis import (MetricReport, PairReport, TripleReport, classify,
                       conformal_f, f_scalar, gauduchon_adjoint_on_constant,
                       pair_analysis, rescale_f, rho, star_rho, triple_analysis)
from .operators import (IdentityReport, OperatorTable, P, Q, R, S, T,
                        verify_commutation_suite, verify_operator_identities)
from .search import (MetricFamily, SearchResult, diagonal_family,
                     hermitian_family, pss_defect, scan, search_pss)
from . import catalog

__version__ = "0.1.0"
