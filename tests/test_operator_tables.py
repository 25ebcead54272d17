"""The per-dimension pointwise tables behind ``OperatorTable.chain``: the
Hodge star as a signed permutation, and chains of L and Lambda stored
sparse once per dimension.  Each must reproduce the dense product it
replaces exactly, stay small, and hand out either a fresh array or a
read-only one, so that no caller can change what a later call gets."""

import numpy as np
import pytest

from conftest import random_pd_metric
from starsplit import catalog, complex_structure
from starsplit.complex_structure import OperatorTable
from starsplit.metric import _lefschetz_chain, _slot_mat, _star_mat, _star_perm
from starsplit.operators import verify_commutation_suite, verify_operator_identities


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
    or while building a composite matrix."""
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


def test_lefschetz_chain_cache_stays_sparse(monkeypatch):
    """The L/Lambda chains of one commutation suite on iwasawa5 cost far
    less than their dense form (several MiB) to keep."""
    keys = set()

    def recording(n, names, p, q):
        keys.add((n, names, p, q))
        return _lefschetz_chain(n, names, p, q)

    monkeypatch.setattr(complex_structure, "_lefschetz_chain", recording)
    M, g, _ = catalog.get("iwasawa5")
    verify_commutation_suite(M, g)
    assert keys and {key[0] for key in keys} == {5}
    held = sum(idx.nbytes + vals.nbytes
               for _, idx, vals in (_lefschetz_chain(*key) for key in keys))
    assert held < 1 << 20, held
