"""The per-dimension pointwise tables behind ``OperatorTable.chain``: the
Hodge star as a signed permutation, and chains of L and Lambda stored
sparse once per dimension.  Each must reproduce the dense product it
replaces exactly, stay small, and hand out either a fresh array or a
read-only one, so that no caller can change what a later call gets.
Also the per-dimension shortcuts of the suites: the cached entries of
the identities of n alone, ``del omega ^ .`` / ``dbar omega ^ .``
scattered from the wedge table, and del and dbar scattered from their
own tables, checked against the congruence they replace; the adjoints
and the torsion as the chains that define them, against the dense
products; the kernel that reads those tables against ``np.add.at``; and
a05 to a08, a14 and a15 on all slots at once against their evaluation
slot by slot, with the brackets of that evaluation scattered from
per-slot tables (the adjoint ones renumbered through the star)."""

from functools import partial

import numpy as np
import pytest

from conftest import random_form, random_pd_metric
from starsplit import catalog, metric, operators
from starsplit.complex_structure import InvariantComplexManifold
from starsplit.forms import space_dim
from starsplit.metric import (_ADJOINT_OF, _SHIFTS, HermitianMetric, _adjoint_base,
                              _derivation_scatter, _operator_scatter, _scatter, _scatter_table,
                              _slot_mat, _slot_starts, _star_conjugate, _star_mat, _star_perm,
                              omega_power)
from starsplit.operators import (OperatorTable, _torsion_operator, verify_commutation_suite,
                                 verify_operator_identities)
from test_cli import _N6_MODELS
from test_complex_structure import slot_models, stokes_violating_manifold
from test_operators import stokes_violating


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


def _bracket_table(n, lef, op, p, q):
    """The per-slot table of ``-i [F, X]`` from the (p,q)-slot over the
    values of X, or, for an adjoint X = ``-star D star``, over those of D:
    the table of ``-i [F', D]`` (``star L = Lam star``) on the star of the
    slot, renumbered through ``metric._star_conjugate``."""
    if op not in _ADJOINT_OF:
        return _operator_scatter(n, lef, op, p, q)
    (fp, fq), (xp, xq) = _SHIFTS[lef], OperatorTable._SHIFTS[op]
    tp, tq, ncols = p + fp + xp, q + fq + xq, space_dim(n, p, q)
    if not (ncols and space_dim(n, tp, tq)):
        return _scatter_table([])
    pos, terms, signs = _operator_scatter(n, *_adjoint_base(lef, op), n - q, n - p)
    start = _slot_starts(n)[1]
    row, col = np.divmod(pos, ncols)
    row, col, sign = _star_conjugate(n, start[n - tq, n - tp] + row, start[n - q, n - p] + col)
    return _scatter_table([((row - start[tp, tq]) * ncols + col - start[p, q], terms,
                            signs * sign)])


def _scaled_bracket(table, a, b, p, q, factor):
    """``factor [a, b]`` from the (p,q)-slot, one scatter whose values the
    factor scales."""
    lef, op, scale = _torsion_operator((a, b, factor))
    shape = (space_dim(table.n, *table.target(op, *table.target(lef, p, q))),
             space_dim(table.n, p, q))
    return _scatter(shape, _bracket_table(table.n, lef, op, p, q),
                    scale * table._values(_ADJOINT_OF.get(op, op)))


def per_slot_torsion_residuals(table):
    """a05 to a08, a14 and a15 evaluated slot by slot, as dense slot
    matrices: for each identity, the ``lhs - rhs`` matrix of every slot.
    The adjoints are the table's chains; the torsion and the brackets are
    scattered from per-slot tables."""
    m, slots = table.mat, table.bidegrees()
    br = partial(_scaled_bracket, table)
    plus = lambda d, p, q: m(d, p, q) + br("Lam", "w" + d, p, q, 1)
    return {
        "a05_adjoint_of_del_plus_torsion": [
            plus("del", p - 1, q).conj().T - br("Lam", "dbar", p, q, 1j) for p, q in slots],
        "a06_adjoint_of_delbar_plus_torsion": [
            plus("dbar", p, q - 1).conj().T - br("Lam", "del", p, q, -1j) for p, q in slots],
        "a07_del_plus_torsion_bracket": [
            plus("del", p, q) - br("dbarstar", "L", p, q, -1j) for p, q in slots],
        "a08_delbar_plus_torsion_bracket": [
            plus("dbar", p, q) - br("delstar", "L", p, q, 1j) for p, q in slots],
        "a14_global_adjointness_del": [
            m("del", p, q).conj().T - m("delstar", p + 1, q) for p, q in slots],
        "a15_global_adjointness_delbar": [
            m("dbar", p, q).conj().T - m("dbarstar", p, q + 1) for p, q in slots],
    }


def assert_torsion_residuals_equal_the_per_slot_ones(table, fresh):
    """``_torsion_residuals`` of ``fresh`` against the per-slot evaluation
    on ``table``, both over the same manifold, metric and generators: the
    reported residual (the largest absolute entry) equal, and the nonzero
    entries equal as multisets, bit for bit."""
    ref = per_slot_torsion_residuals(table)
    got = operators._torsion_residuals(fresh)
    assert set(got) == set(ref)
    for identity, mats in ref.items():
        dense = np.concatenate([r.ravel() for r in mats])
        vec = got[identity]()
        assert (float(np.abs(vec).max(initial=0.0))
                == max((float(np.abs(r).max(initial=0.0)) for r in mats), default=0.0)), identity
        assert np.array_equal(np.sort(vec[vec != 0]), np.sort(dense[dense != 0])), identity


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
        ("Lam", "L"), ("L", "L", "L", "Lam"), ("star", "star"), ("L", "star"), ("star", "Lam")}
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
                             _operator_scatter(5, "Lam", ("wdel", "wdbar")[part], p, q))
               for arr in table)
    assert held < 2 << 20, held


def _scatter_tables(n):
    """``(shape, table)`` of every ``_derivation_scatter`` and
    ``_operator_scatter`` table of dimension n."""
    for p in range(n + 1):
        for q in range(n + 1):
            ncols = space_dim(n, p, q)
            for part in (0, 1):
                tp, tq = (p + 1, q) if part == 0 else (p, q + 1)
                yield (space_dim(n, tp, tq), ncols), _derivation_scatter(n, part, p, q)
            for lef in ("", "L", "Lam"):
                for op in ("del", "dbar") + (("wdel", "wdbar") if lef else ()):
                    fp, fq = _SHIFTS.get(lef, (0, 0))
                    tp, tq = p + fp + _SHIFTS[op][0], q + fq + _SHIFTS[op][1]
                    yield (space_dim(n, tp, tq), ncols), _operator_scatter(n, lef, op, p, q)


@pytest.mark.parametrize("n", range(1, 5))
def test_scatter_equals_add_at_bit_for_bit(rng, n):
    """``_scatter`` on every table of dimension n equals the plain
    ``np.add.at`` accumulation bit for bit, for values given as a
    contiguous array and as a strided column view (as theta reaches the
    torsion brackets)."""
    tables = list(_scatter_tables(n))
    assert sum(len(table[0]) for _, table in tables)
    for shape, (pos, terms, signs) in tables:
        size = int(terms.max(initial=0)) + 1
        block = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
        for values in (np.ascontiguousarray(block[:, 0]), block[:, 1]):
            ref = np.zeros(shape[0] * shape[1], dtype=complex)
            np.add.at(ref, pos, signs * values[terms])
            got = _scatter(shape, (pos, terms, signs), values)
            assert got.shape == shape
            assert np.array_equal(got.ravel(), ref), (n, shape)


# ----------------------------------------------------------------------
# the adjoints and the torsion as chains, the brackets as scatters
# ----------------------------------------------------------------------
def _dense_first_order(dense, name, p, q):
    """A first-order operator as a dense matrix: an adjoint as the dense
    product ``-star D star``, any other name as the table's matrix."""
    if name in ("delstar", "dbarstar"):
        return -dense.chain(["star", _ADJOINT_OF[name], "star"], p, q)
    return dense.mat(name, p, q)


def _random_generator_tables(n, rng):
    """An ``OperatorTable`` of dimension n and its ``DenseTable``, both
    reading the same random complex generator differentials, so that every
    entry of every table is exercised (the tables do not need d^2 = 0)."""
    M, g = InvariantComplexManifold(f"torus_{n}", n, {}), HermitianMetric.identity(n)
    table, dense = OperatorTable(M, g), DenseTable(M, g)
    for name in ("del", "dbar"):
        size = table._values(name).size
        gens = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        table._gens[name] = dense._gens[name] = gens
    return table, dense


def _relative_gap(got, ref):
    assert got.shape == ref.shape
    return np.abs(got - ref).max(initial=0.0) / max(np.abs(ref).max(initial=0.0), 1e-300)


@pytest.mark.parametrize("n", range(1, 7))
def test_scattered_adjoints_and_brackets_equal_the_dense_products(rng, n):
    """On every slot, to 1e-15 relative: the table's del*, dbar*, tau and
    taubar equal the dense products ``-star D star`` and ``[Lam, theta ^
    .]``, and the scattered [Lam, del], [Lam, dbar], [dbar*, L], [del*, L],
    [Lam, wdel] and [Lam, wdbar] that the per-slot evaluation of a05 to
    a08 reads equal the dense products of their operators."""
    table, dense = _random_generator_tables(n, rng)
    for p, q in table.bidegrees():
        for name in ("delstar", "dbarstar"):
            ref = _dense_first_order(dense, name, p, q)
            assert _relative_gap(table.mat(name, p, q), ref) <= 1e-15, (name, p, q)
        for name, wedge in (("tau", "wdel"), ("taubar", "wdbar")):
            fp, fq = table.target("Lam", p, q)
            ref = (dense.mat("Lam", *table.target(wedge, p, q)) @ dense.mat(wedge, p, q)
                   - dense.mat(wedge, fp, fq) @ dense.mat("Lam", p, q))
            assert _relative_gap(table.mat(name, p, q), ref) <= 1e-15, (name, p, q)
        for lef, op in (("Lam", "del"), ("Lam", "dbar"), ("L", "dbarstar"), ("L", "delstar"),
                        ("Lam", "wdel"), ("Lam", "wdbar")):
            tp, tq = table.target(op, p, q)
            fp, fq = table.target(lef, p, q)
            ref = (dense.mat(lef, tp, tq) @ _dense_first_order(dense, op, p, q)
                   - _dense_first_order(dense, op, fp, fq) @ dense.mat(lef, p, q))
            got = _scaled_bracket(table, lef, op, p, q, 1)
            assert _relative_gap(got, ref) <= 1e-15, (lef, op, p, q)
            assert np.array_equal(_scaled_bracket(table, op, lef, p, q, 1), -got)


def test_a_warm_commutation_suite_chains_only_for_a09_and_a10(monkeypatch, rng):
    """A warm suite reads a05 to a08, a14 and a15 from its all-slot tables;
    its only chains are taubar on the (1,0)-slot (a09) and dbar* on the
    (1,1)-slot (a09, a10)."""
    M = catalog.get("iwasawa5")[0]
    verify_commutation_suite(M, random_pd_metric(5, rng))
    calls = []
    chain = OperatorTable.chain
    monkeypatch.setattr(OperatorTable, "chain", lambda self, names, p, q: (
        calls.append((tuple(names), p, q)) or chain(self, names, p, q)))
    rep = verify_commutation_suite(M, random_pd_metric(5, rng))
    assert rep.all_passed
    assert sorted(calls) == [(("Lam", "wdbar"), 1, 0), (("star", "del", "star"), 1, 1),
                             (("wdbar", "Lam"), 1, 0)]


def test_both_suites_keep_only_del_and_dbar_slot_tables(monkeypatch, rng):
    """The per-slot adjoints and torsion are chains, so after both suites
    every ``_operator_scatter`` table is one of del or dbar."""
    _operator_scatter.cache_clear()
    built = []
    build = metric._operator_table
    monkeypatch.setattr(metric, "_operator_table",
                        lambda *args: built.append(args[1:3]) or build(*args))
    M = catalog.get("iwasawa5")[0]
    g = random_pd_metric(5, rng)
    verify_commutation_suite(M, g)
    verify_operator_identities(M, g, random_pd_metric(5, rng))
    assert _operator_scatter.cache_info().currsize == len(built)
    assert set(built) == {("", "del"), ("", "dbar")}


# ----------------------------------------------------------------------
# a05 to a08, a14 and a15 on all slots at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", catalog.list_names() + ["solv"])
def test_torsion_residuals_equal_the_per_slot_evaluation(rng, name):
    """On each catalog model and on the Stokes-violating one, at the
    default metric and two dense ones."""
    M, g = (stokes_violating(), HermitianMetric.identity(3)) if name == "solv" \
        else catalog.get(name)[:2]
    for metric in (g, random_pd_metric(M.dim, rng), random_pd_metric(M.dim, rng, spread=1.0)):
        assert_torsion_residuals_equal_the_per_slot_ones(OperatorTable(M, metric),
                                                         OperatorTable(M, metric))


@pytest.mark.parametrize("n", range(1, 7))
def test_torsion_residuals_equal_the_per_slot_evaluation_on_random_generators(rng, n):
    """Random complex generator differentials reach every entry of every
    table; the identities need not hold for them."""
    table, _ = _random_generator_tables(n, rng)
    fresh = OperatorTable(table.M, table.g)
    fresh._gens.update(table._gens)
    assert_torsion_residuals_equal_the_per_slot_ones(table, fresh)


def test_torsion_layout_stays_small_and_makes_no_slot_table(rng):
    """At n = 5 the whole-slot tables and the alignments, with the sign
    flips of the adjoints, hold at most 4.5 MiB.  Building them leaves no
    ``_operator_scatter`` entry, and a warm commutation suite adds none."""
    operators._torsion_layout.cache_clear()
    _operator_scatter.cache_clear()
    tables, aligned = operators._torsion_layout(5)
    assert _operator_scatter.cache_info().currsize == 0
    held = (sum(arr.nbytes for table, _ in tables.values() for arr in table)
            + sum(arr.nbytes for operands in aligned.values() for _, *arrs in operands
                  for arr in arrs if arr is not None))
    assert held <= 4.5 * 2 ** 20, held
    M = catalog.get("iwasawa5")[0]
    verify_commutation_suite(M, random_pd_metric(5, rng))
    warm = _operator_scatter.cache_info().currsize
    assert warm <= 6   # the slots of a09 and a10
    verify_commutation_suite(M, random_pd_metric(5, rng))
    assert _operator_scatter.cache_info().currsize == warm
    assert operators._torsion_layout(5)[0] is tables
