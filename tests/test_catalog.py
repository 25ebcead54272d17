import numpy as np
import pytest

from conftest import approx_equal
from starsplit import analysis, catalog
from starsplit.complex_structure import (InvariantComplexManifold,
                                         structure_compatibility)
from starsplit.errors import InputError
from starsplit.forms import Form
from starsplit.search import scan


ALL_PARAMS = {
    "torus_3": None,
    "iwasawa3": None,
    "nakamura": None,
    "iwasawa_def": {"sigma12": -1, "sigma11b": 0.2, "sigma21b": 0.1, "sigma22b": 0.3},
    "iwasawa5": None,
    "calabi_eckmann": {"t": 0.1 + 0.2j},
}


def test_list_has_six_entries():
    assert catalog.list_names() == ["calabi_eckmann", "iwasawa3", "iwasawa5",
                                    "iwasawa_def", "nakamura", "torus_3"]


@pytest.mark.parametrize("name", sorted(ALL_PARAMS))
def test_entries_validate_and_match_expectations(name):
    M, g, exp = catalog.get(name, ALL_PARAMS[name])
    assert M.check_integrability() < 1e-12
    assert M.check_stokes() < 1e-12
    rep = analysis.classify(M, g)
    assert rep.f == pytest.approx(exp["f"], abs=1e-10)
    assert np.allclose(rep.eigenvalues, exp["eigenvalues"], atol=1e-10)
    for flag, expected in exp["flags"].items():
        assert rep.flags[flag].holds == expected, (name, flag)
    # the redundant routes (ratio vs trace for f, closed form vs direct star)
    # must agree on every entry
    assert rep.f_cross_residual < 1e-10
    assert rep.star_rho_cross_residual < 1e-10
    assert rep.pss_cross_defect < 1e-10


def test_expected_constants_at_defaults():
    assert catalog.get("iwasawa3")[2]["f"] == 1.0
    assert catalog.get("nakamura")[2]["f"] == 2.0
    assert catalog.get("iwasawa5")[2]["f"] == 3.0
    assert catalog.get("torus_3")[2]["f"] == 0.0
    exp = catalog.get("calabi_eckmann", {"t": 0.1})[2]
    assert exp["f"] == 0.0 and exp["flags"]["SKT"]


def test_iwasawa_expectation_carries_spectrum_note():
    exp = catalog.get("iwasawa3")[2]
    assert any("spectrum" in note for note in exp.get("notes", []))


def test_calabi_eckmann_guard():
    with pytest.raises(InputError, match="t"):
        catalog.get("calabi_eckmann", {"t": 1.0})
    with pytest.raises(InputError):
        catalog.get("calabi_eckmann", {"t": 0.8 + 0.7j})


def test_unknown_names_and_params():
    with pytest.raises(InputError):
        catalog.get("does_not_exist")
    with pytest.raises(InputError):
        catalog.get("iwasawa3", {"t": 1.0})


def test_torus_pattern_accepted():
    M, g, exp = catalog.get("torus_4")
    assert M.dim == 4
    assert exp["f"] == 0.0


@pytest.mark.parametrize("name", catalog.list_names() + ["torus_4"])
def test_dimension_is_the_built_dimension(name):
    assert catalog.dimension(name) == catalog.get(name)[0].dim


def test_isometry_generators_structure_compatible(rng):
    factory = catalog.isometry_factory("iwasawa3")
    M, g, _ = catalog.get("iwasawa3")
    for _ in range(5):
        u = np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi))
        phi = factory(u, v)
        assert structure_compatibility(M, phi) < 1e-13


def test_round_trip_through_json():
    for name in sorted(ALL_PARAMS):
        M, _, _ = catalog.get(name, ALL_PARAMS[name])
        M2 = InvariantComplexManifold.from_json_dict(M.to_json_dict())
        assert M.to_json_dict() == M2.to_json_dict()
        for k in range(1, M.dim + 1):
            gen = Form.monomial(M.dim, (k,), ())
            assert approx_equal(M.d(gen), M2.d(gen), 1e-15)


def test_deformation_constant_formula():
    params = {"sigma12": -0.5, "sigma11b": 0.1 + 0.2j, "sigma12b": 0.3,
              "sigma21b": -0.2j, "sigma22b": 0.25j}
    expected = (0.25 + 0.04 + 0.09
                - 2 * ((0.1 + 0.2j) * (0.25j).conjugate()).real)
    M, g, exp = catalog.get("iwasawa_def", params)
    assert exp["f"] == pytest.approx(expected)
    assert analysis.f_scalar(M, g) == pytest.approx(expected, abs=1e-12)


def test_range_check_survives_bind_and_scan():
    """A bound or scanned catalog model is refused by the same check, in
    the same words, as ``catalog.get``."""
    M, g, _ = catalog.get("calabi_eckmann")
    message = r"calabi_eckmann parameter must satisfy \|t\| < 1"
    with pytest.raises(InputError, match=message):
        M.bind(t=2.0)
    with pytest.raises(InputError, match=message):
        scan(M, "t", [2.0], metric=g)
    assert M.bind(t=0.5).params == {"t": 0.5}
