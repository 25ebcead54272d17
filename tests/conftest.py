from __future__ import annotations

import numpy as np
import pytest

from starsplit.complex_structure import (InvariantComplexManifold, PullbackMap, pullback,
                                         pullback_metric)
from starsplit.errors import InputError
from starsplit.forms import Form, basis_masks
from starsplit.metric import HermitianMetric


def approx_equal(a: Form, b: Form, tol: float) -> bool:
    """Max-coefficient comparison of ``a - b`` against ``tol``."""
    if tol <= 0:
        raise InputError("tolerance must be positive")
    return (a - b).max_abs() <= tol


def random_form(rng: np.random.Generator, n: int, p: int, q: int, *,
                real: bool = False) -> Form:
    """Dense random (p,q)-form scaled to largest coefficient 1;
    ``real=True`` symmetrises it to a real form first."""
    terms = {key: complex(*rng.standard_normal(2)) for key in basis_masks(n, p, q)}
    u = Form(n, terms)
    if real:
        u = 0.5 * (u + u.conjugate())
    if u.max_abs() > 0:
        u = u / u.max_abs()
    return u


def random_pd_metric(n: int, rng: np.random.Generator, spread: float = 0.4) -> HermitianMetric:
    """Well-conditioned random positive definite Hermitian metric."""
    B = spread * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return HermitianMetric(B.conj().T @ B + np.eye(n))


def transformed(M: InvariantComplexManifold, A: np.ndarray, g: HermitianMetric
                ) -> tuple[InvariantComplexManifold, HermitianMetric]:
    """``M`` and ``g`` written in the coframe psi = A phi: d psi_k = sum_j
    A_kj phi*(d phi_j), phi* the substitution of ``PullbackMap(A^-1)``
    that writes phi through psi, and the metric ``pullback_metric(M,
    PullbackMap(A^-1), g)``."""
    n, inverse = M.dim, PullbackMap(np.linalg.inv(A))
    d_phi = [pullback(M, inverse, M.d(Form.monomial(n, (j,)))) for j in range(1, n + 1)]
    structure = {}
    for k in range(1, n + 1):
        d_psi = sum((d_phi[j] * A[k - 1, j] for j in range(n)), Form.zero(n))
        for holo, anti, c in d_psi.terms():
            slot = structure.setdefault(k, {}).setdefault(f"({len(holo)},{len(anti)})", [])
            slot.append((*holo, *anti, f"{c.real!r}+{c.imag!r}i"))
    assert all(set(parts) <= {"(2,0)", "(1,1)"} for parts in structure.values())
    return (InvariantComplexManifold(f"{M.name}_in_psi", n, structure),
            pullback_metric(M, inverse, g))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
