from __future__ import annotations

import numpy as np
import pytest

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
