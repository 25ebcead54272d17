"""The per-dimension pointwise tables behind ``OperatorTable.chain``: the
Hodge star as a signed permutation, and chains of L and Lambda stored
sparse once per dimension.  Each must reproduce the dense product it
replaces exactly, stay small, and hand out either a fresh array or a
read-only one, so that no caller can change what a later call gets.
Also the per-dimension shortcuts of the suites: the cached entries of
the identities of n alone, ``del omega ^ .`` / ``dbar omega ^ .``
scattered from the wedge table, and del, dbar, tau and taubar scattered
from their own tables, checked against the congruence and the dense
commutator they replace."""

import numpy as np
import pytest

from conftest import random_form, random_pd_metric
from starsplit import catalog, operators
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.metric import (HermitianMetric, _derivation_scatter, _scatter,
                              _slot_mat, _star_mat, _star_perm, _torsion_scatter,
                              omega_power)
from starsplit.operators import (OperatorTable, verify_commutation_suite,
                                 verify_operator_identities)
from test_cli import _N6_MODELS
from test_complex_structure import slot_models, stokes_violating_manifold


class DenseTable(OperatorTable):
    """Every chain as the plain dense product of its ``mat`` entries,
    rightmost first."""

    def chain(self, names, p, q):
        mat, cur = None, (p, q)
        for name in reversed(names):
            step = self.mat(name, *cur)
            mat = step if mat is None else step @ mat
            cur = self.target(name, *cur)
        return mat


@pytest.mark.parametrize("n", range(1, 7))
def test_star_perm_reproduces_star_matrix(n):
    for p in range(n + 1):
        for q in range(n + 1):
            perm, phase = _star_perm(n, p, q)
            assert sorted(perm) == list(range(len(perm)))
            assert set(phase.tolist()) <= {1, -1, 1j, -1j}
            dense = np.zeros((len(perm),) * 2, dtype=complex)
            dense[np.arange(len(perm)), perm] = phase
            assert np.array_equal(dense, _star_mat(n, p, q)), (p, q)


def _requested_chains(monkeypatch, M, g, gamma):
    """Every (names, p, q) that either suite passes to ``chain``, directly
    or while building a composite matrix, the identities of n alone
    included: their per-dimension cache is emptied first."""
    operators._dimension_entries.cache_clear()
    requests = set()
    chain = OperatorTable.chain

    def recording_chain(self, names, p, q):
        requests.add((tuple(names), p, q))
        return chain(self, names, p, q)

    monkeypatch.setattr(OperatorTable, "chain", recording_chain)
    verify_commutation_suite(M, g)
    verify_operator_identities(M, g, gamma)
    monkeypatch.undo()
    return requests


def test_every_suite_chain_equals_the_dense_product(monkeypatch, rng):
    M = catalog.get("iwasawa5")[0]
    g, gamma = random_pd_metric(5, rng), random_pd_metric(5, rng)
    requests = _requested_chains(monkeypatch, M, g, gamma)
    assert {names for names, _, _ in requests} >= {
        ("Lam", "L"), ("L", "L", "L", "Lam"), ("star", "dbar", "star"), ("star", "star"),
        ("L", "star"), ("star", "Lam")}
    table, dense = OperatorTable(M, g), DenseTable(M, g)
    for names, p, q in sorted(requests):
        assert np.array_equal(table.chain(names, p, q), dense.chain(names, p, q)), (names, p, q)


@pytest.mark.parametrize("names,p,q", [
    (["Lam", "L"], 2, 1), (["L", "L", "Lam"], 1, 1), (["star", "star"], 2, 3),
    (["star"], 1, 2), (["star", "del", "star"], 2, 2)])
def test_chain_returns_an_array_the_caller_owns(rng, names, p, q):
    M = catalog.get("iwasawa5")[0]
    g = random_pd_metric(5, rng)
    first = OperatorTable(M, g).chain(names, p, q)
    expected = first.copy()
    first += 1.0
    again = OperatorTable(M, g).chain(names, p, q)
    assert np.array_equal(again, expected)
    assert np.array_equal(again, DenseTable(M, g).chain(names, p, q))


def test_per_dimension_slot_matrices_are_shared_and_read_only():
    for name, p, q in (("L", 1, 2), ("Lam", 2, 3), ("star", 1, 1), ("Lam", 0, 0)):
        mat = _slot_mat(5, name, p, q)[0]
        assert mat is _slot_mat(5, name, p, q)[0]
        assert not mat.flags.writeable


@pytest.mark.parametrize("name", ["del", "delstar", "tau", "L"])
def test_table_matrices_are_read_only(rng, name):
    """A caller cannot change what the table hands out to later callers."""
    M = catalog.get("iwasawa3")[0]
    table = OperatorTable(M, random_pd_metric(3, rng))
    mat = table.chain([name], 1, 1)
    assert mat is table.mat(name, 1, 1)
    with pytest.raises(ValueError):
        mat += 1.0


def _models_of_dimension(n):
    """A model of each dimension with structure where the catalog has one."""
    named = {3: "iwasawa3", 4: "torus_4", 5: "iwasawa5"}
    if n in named:
        return catalog.get(named[n])[0]
    return InvariantComplexManifold(f"torus_{n}", n, {})


@pytest.mark.parametrize("n", range(1, 6))
def test_dimension_entries_equal_a_fresh_dense_evaluation(rng, n):
    """The cached entries of the identities of n alone read, bit for bit,
    what a per-slot evaluation over dense chains on another manifold and
    metric reads."""
    operators._dimension_entries.cache_clear()
    cached = operators._dimension_entries(n)
    fresh = operators._pointwise_entries(DenseTable(_models_of_dimension(n),
                                                    random_pd_metric(n, rng)))
    assert cached == fresh
    expected = {"a01", "a02", "a03", "a04", "a11", "a12", "a13"}
    if n >= 3:
        expected |= {"b01", "b02", "b03", "b04", "b08", "b09", "b10", "b11", "b12"}
    assert {e.identity[:3] for e in cached} == expected
    assert all(e.residual < 1e-12 for e in cached if e.skipped_reason is None)
    skipped = [e.identity[:3] for e in cached if e.skipped_reason]
    assert skipped == (["b11", "b12"] if n == 3 else [])
    assert operators._dimension_entries(n) is cached


@pytest.mark.parametrize("dense_metric", [False, True])
def test_theta_wedge_equals_the_commutator_with_l(rng, dense_metric):
    """del omega ^ . and dbar omega ^ . as scattered wedges agree with the
    Leibniz commutators [del, L] and [dbar, L] on every slot."""
    for M in slot_models() + [stokes_violating_manifold()]:
        n = M.dim
        g = random_pd_metric(n, rng) if dense_metric else HermitianMetric.identity(n)
        table, dense = OperatorTable(M, g), DenseTable(M, g)
        for d in ("del", "dbar"):
            for p, q in table.bidegrees():
                ref = dense.chain([d, "L"], p, q) - dense.chain(["L", d], p, q)
                got = table.mat("w" + d, p, q)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max(initial=0.0) < 1e-13, (M.name, d, p, q)


def test_theta_wedge_equals_form_wedge(rng):
    for M in (catalog.get("iwasawa5")[0], stokes_violating_manifold()):
        n = M.dim
        g = random_pd_metric(n, rng)
        table, w = OperatorTable(M, g), omega_power(g, 1)
        for name, theta in (("wdel", M.del_(w)), ("wdbar", M.delbar(w))):
            for p, q in ((0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1)):
                u = random_form(rng, n, p, q)
                diff = table.apply(name, u) - theta.wedge(u)
                assert diff.max_abs() < 1e-12 * max(1.0, theta.max_abs()), (M.name, name, p, q)


# ----------------------------------------------------------------------
# del, dbar, tau and taubar scattered from per-dimension tables
# ----------------------------------------------------------------------
def _reference_models():
    """The slot models, the Stokes-violating one and a 6-dimensional one,
    each with the metrics to run it on (the n = 6 model on one only)."""
    n6 = InvariantComplexManifold.from_json_dict(
        {"name": "iwasawa3_x_iwasawa3", "dim": 6,
         "structure": _N6_MODELS["iwasawa3_x_iwasawa3"]})
    for M in slot_models() + [stokes_violating_manifold()]:
        yield M, (False, True)
    yield n6, (True,)


def _old_construction(table, name, p, q):
    """del/dbar as the manifold's phi-basis matrix moved into the frame by
    congruence, tau/taubar as the dense commutator of Lambda with the
    theta wedge."""
    M, g = table.M, table.g
    if name in ("del", "dbar"):
        tp, tq = table.target(name, p, q)
        phi_mat = M.d_matrices(p, q)[("del", "dbar").index(name)]
        if not phi_mat.size:
            return phi_mat
        return g.to_e_matrix(tp, tq) @ phi_mat @ g.from_e_matrix(p, q)
    wd = "wdel" if name == "tau" else "wdbar"
    dense = DenseTable(M, g)
    return dense.chain(["Lam", wd], p, q) - dense.chain([wd, "Lam"], p, q)


def test_first_order_slot_matrices_equal_the_old_construction(rng):
    for M, dense_metrics in _reference_models():
        n = M.dim
        for dense_metric in dense_metrics:
            g = random_pd_metric(n, rng) if dense_metric else HermitianMetric.identity(n)
            table = OperatorTable(M, g)
            for name in ("del", "dbar", "tau", "taubar"):
                for p, q in table.bidegrees():
                    ref, got = _old_construction(table, name, p, q), table.mat(name, p, q)
                    assert got.shape == ref.shape, (M.name, name, p, q)
                    bound = 1e-13 * max(1.0, np.abs(ref).max(initial=0.0))
                    assert np.abs(got - ref).max(initial=0.0) <= bound, (M.name, name, p, q)


def test_derivation_table_reproduces_the_phi_basis_d_matrices():
    """Fed with the generator differentials in the phi coframe, the
    derivation table is the Leibniz rule: every slot matrix of
    ``d_matrices``."""
    for M, _ in _reference_models():
        n = M.dim
        for part in (0, 1):
            gens = np.concatenate([M.d_matrices(p, q)[part].ravel()
                                   for p, q in ((1, 0), (0, 1))])
            for p in range(n + 1):
                for q in range(n + 1):
                    ref = M.d_matrices(p, q)[part]
                    got = _scatter(ref.shape, _derivation_scatter(n, part, p, q), gens)
                    bound = 1e-13 * max(1.0, np.abs(ref).max(initial=0.0))
                    assert np.abs(got - ref).max(initial=0.0) <= bound, (M.name, part, p, q)


def test_first_order_tables_stay_small():
    """Both per-dimension tables, over every slot of dimension 5, hold
    less than 2 MiB."""
    held = sum(arr.nbytes
               for p in range(6) for q in range(6) for part in (0, 1)
               for table in (_derivation_scatter(5, part, p, q),
                             _torsion_scatter(5, bool(part), p, q))
               for arr in table)
    assert held < 2 << 20, held
