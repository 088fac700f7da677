import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ptcoupler.core import (
    MAX_GRID_POINTS,
    PASSIVITY_TOL,
    ClassicalInput,
    ComplexMatrix2,
    CouplerParams,
    DecayCurve,
    Indistinguishable,
    PolarizationEntangled,
    PropagationGrid,
    ScatteringMatrix,
    check_propagators,
    largest_singular_value,
    validate,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_params_accept_basic():
    p = CouplerParams(beta1=0.0, beta2=0.0, kappa=1.0, gamma=0.5)
    assert validate(p) is p


def test_params_reject_zero_kappa():
    with pytest.raises(ValueError, match="kappa must be positive"):
        CouplerParams(0.0, 0.0, 0.0, 0.5)


def test_params_reject_negative_gamma():
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        CouplerParams(0.0, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("field", ["beta1", "beta2", "kappa", "gamma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_nonfinite_naming_field(field, bad):
    kw = dict(beta1=0.0, beta2=0.0, kappa=1.0, gamma=0.0)
    kw[field] = bad
    with pytest.raises(ValueError, match=field):
        CouplerParams(**kw)


@given(beta1=finite, beta2=finite, kappa=positive, gamma=nonneg)
def test_params_any_valid_combination_constructs(beta1, beta2, kappa, gamma):
    p = CouplerParams(beta1, beta2, kappa, gamma)
    assert p.kappa > 0 and p.gamma >= 0


def test_params_frozen():
    p = CouplerParams(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gamma = 1.0


def test_matrix2_roundtrip_and_reductions():
    m = ComplexMatrix2(1 + 2j, 3j, -1.0, 2 - 1j)
    a = m.as_array()
    assert ComplexMatrix2.from_array(a) == m
    assert m.trace() == (1 + 2j) + (2 - 1j)
    assert m.determinant() == (1 + 2j) * (2 - 1j) - 3j * (-1.0)


def test_matrix2_rejects_bad_shape_and_nonfinite():
    with pytest.raises(ValueError, match="2x2"):
        ComplexMatrix2.from_array(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="m12"):
        ComplexMatrix2(0.0, complex(math.nan, 0.0), 0.0, 0.0)


def test_scattering_matrix_passivity_guard():
    # Singular value 2 is gain, not roundoff.
    with pytest.raises(ValueError, match="not passive"):
        ScatteringMatrix(ComplexMatrix2(2.0, 0.0, 0.0, 0.0), z=1.0)
    # At the tolerance edge it must pass.
    edge = 1.0 + 0.5 * PASSIVITY_TOL
    ScatteringMatrix(ComplexMatrix2(edge, 0.0, 0.0, 0.0), z=1.0)


def test_scattering_matrix_rejects_negative_z():
    with pytest.raises(ValueError, match="z must be non-negative"):
        ScatteringMatrix(ComplexMatrix2(1.0, 0.0, 0.0, 1.0), z=-0.1)


def test_scattering_matrix_det_consistency_guard():
    with pytest.raises(ValueError, match="det disagrees"):
        ScatteringMatrix(ComplexMatrix2(0.5, 0.0, 0.0, 0.5), z=1.0, det=0.5)


def test_scattering_matrix_determinant_fallback_and_override():
    m = ComplexMatrix2(0.5, 0.1j, 0.1j, 0.5)
    plain = ScatteringMatrix(m, z=1.0)
    assert plain.determinant == m.determinant()
    reduced = m.determinant() + 1e-10  # within guard, distinguishable value
    carried = ScatteringMatrix(m, z=1.0, det=reduced)
    assert carried.determinant == reduced


def test_scattering_matrix_entry_shorthands():
    m = ComplexMatrix2(0.1, 0.2j, 0.3, 0.4j)
    s = ScatteringMatrix(m, z=0.0)
    assert (s.s11, s.s12, s.s21, s.s22) == (0.1, 0.2j, 0.3, 0.4j)
    assert np.array_equal(s.as_array(), m.as_array())


def test_grid_pins_zero_and_endpoint():
    g = PropagationGrid(z_max=7.0, num_points=11)
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == 7.0 and len(pts) == 11
    assert np.all(np.diff(pts) > 0)


def test_grid_validation():
    with pytest.raises(ValueError, match="z_max"):
        PropagationGrid(0.0, 5)
    with pytest.raises(ValueError, match="num_points"):
        PropagationGrid(1.0, 1)


def test_curve_requires_zero_start_and_increasing_z():
    with pytest.raises(ValueError, match="z = 0"):
        DecayCurve("p", ((0.5, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayCurve("p", ((0.0, 1.0), (1.0, 0.5), (1.0, 0.4)))


def test_curve_rejects_negative_values_and_bad_labels():
    with pytest.raises(ValueError, match="non-negative"):
        DecayCurve("p", ((0.0, 1.0), (1.0, -0.1)))
    with pytest.raises(ValueError, match="label"):
        DecayCurve("a,b", ((0.0, 1.0),))
    with pytest.raises(ValueError, match="label"):
        DecayCurve("", ((0.0, 1.0),))


def test_curve_from_arrays_roundtrip():
    z = np.linspace(0.0, 2.0, 5)
    v = np.exp(-z)
    c = DecayCurve.from_arrays("decay", z, v)
    assert np.array_equal(c.z_values(), z)
    assert np.array_equal(c.values(), v)
    with pytest.raises(ValueError, match="equal length"):
        DecayCurve.from_arrays("decay", z, v[:-1])


def test_classical_input_tags():
    assert ClassicalInput.SINGLE_WAVEGUIDE.value == "single_waveguide"
    assert ClassicalInput.BALANCED_ORTHOGONAL.value == "balanced_orthogonal"


def test_entangled_phi_range():
    PolarizationEntangled(0.0)
    PolarizationEntangled(math.pi)
    with pytest.raises(ValueError, match="phi"):
        PolarizationEntangled(-0.1)
    with pytest.raises(ValueError, match="phi"):
        PolarizationEntangled(math.pi + 0.1)
    with pytest.raises(ValueError, match="phi"):
        PolarizationEntangled(math.nan)


def test_indistinguishable_is_value_like():
    assert Indistinguishable() == Indistinguishable()


# -- array checks -----------------------------------------------------------

def entries_of(mats):
    return mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]


def test_closed_form_singular_value_matches_svd():
    rng = np.random.default_rng(11)
    general = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    h = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    w, v = np.linalg.eigh(h + h.conj().transpose(0, 2, 1))
    unitary = v * np.exp(1j * w)[:, None, :] @ v.conj().transpose(0, 2, 1)
    rank_one = general[:, :, :1] * general[:, :1, :]
    eps = np.finfo(float).eps
    for mats in (general, unitary, rank_one, np.zeros((1, 2, 2))):
        svd = np.linalg.svd(mats, compute_uv=False)[:, 0]
        assert np.all(np.abs(largest_singular_value(*entries_of(mats)) - svd) <= 8 * eps * svd)
    # Near-unitary matrices keep every digit, so the passivity slack holds.
    assert np.abs(largest_singular_value(*entries_of(unitary)) - 1.0).max() < 8 * eps
    # Four numbers give the same value as an array of one matrix.
    one = [complex(x) for x in general[0].ravel()]
    expected = largest_singular_value(*entries_of(general[:1]))[0]
    assert largest_singular_value(*one) == pytest.approx(expected, rel=8 * eps)


def test_check_propagators_names_the_fault_in_an_array():
    eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    z = np.array([0.0, 1.0, 2.0])
    check_propagators(entries_of(eye), z, np.ones(3))
    bad = eye.copy()
    bad[2, 1, 0] = complex(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"m21 must be finite, got \(nan\+1j\)"):
        check_propagators(entries_of(bad), z)
    gain = eye.copy()
    gain[1, 1, 1] = 1.5
    with pytest.raises(ValueError, match="largest singular value 1.5 exceeds 1"):
        check_propagators(entries_of(gain), z)
    with pytest.raises(ValueError, match="det disagrees"):
        check_propagators(entries_of(eye), z, np.array([1.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="det must be finite"):
        check_propagators(entries_of(eye), z, np.array([1.0, math.inf, 1.0]))
    with pytest.raises(ValueError, match="z must be non-negative"):
        check_propagators(entries_of(eye), -z)


def test_grid_size_limit():
    PropagationGrid(1.0, MAX_GRID_POINTS)  # allocates nothing until points()
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS}, got 1000000000000"):
        PropagationGrid(1.0, 10**12)


def test_curve_reports_the_first_bad_point():
    # Point 1 has a negative value, point 2 a NaN z: point 1 is reported.
    with pytest.raises(ValueError, match="non-negative, got -1.0"):
        DecayCurve.from_arrays("p", [0.0, 1.0, math.nan], [1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="z must be finite, got nan"):
        DecayCurve.from_arrays("p", [0.0, math.nan, 0.5], [1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="value must be finite, got inf"):
        DecayCurve.from_arrays("p", [0.0, 1.0, 0.5], [1.0, math.inf, 1.0])
    with pytest.raises(ValueError, match="non-negative"):  # before its z order
        DecayCurve.from_arrays("p", [0.0, 1.0, 0.5], [1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayCurve.from_arrays("p", [0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        DecayCurve.from_arrays("p", [], [])


def test_curve_points_are_read_only():
    c = DecayCurve("p", ((0.0, 1.0), (1.0, 0.5)))
    assert c.points.shape == (2, 2)
    with pytest.raises(ValueError):
        c.values()[0] = 2.0


def test_curves_compare_and_hash_by_value():
    a = DecayCurve("p", ((0.0, 1.0), (1.0, 0.5)))
    b = DecayCurve.from_arrays("p", [-0.0, 1.0], [1.0, 0.5])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != DecayCurve("q", a.points)
    assert a != DecayCurve("p", ((0.0, 1.0), (1.0, 0.25)))
    assert a != ((0.0, 1.0), (1.0, 0.5))
