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
    CouplerParams,
    DecayCurve,
    PolarizationEntangled,
    PropagationGrid,
    ScatteringMatrix,
    check_propagators,
    entrywise_determinants,
    _validate,
    largest_singular_value,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_params_accept_basic():
    p = CouplerParams(beta1=0.0, beta2=0.0, kappa=1.0, gamma=0.5)
    assert _validate(p) is p


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
    # A 2x2 array-like in, the same complex entries out, as an array.
    rows = [[0.5 + 0.1j, 0.3j], [-0.1, 0.2 - 0.1j]]
    m = ScatteringMatrix(rows, z=1.0)
    a = m.as_array()
    assert a.dtype == complex and np.array_equal(a, np.array(rows))
    assert np.array_equal(ScatteringMatrix(a, z=1.0), a)
    assert np.trace(a) == (0.5 + 0.1j) + (0.2 - 0.1j)
    assert m.determinant == (0.5 + 0.1j) * (0.2 - 0.1j) - 0.3j * (-0.1)


def test_matrix2_rejects_bad_shape_and_nonfinite():
    with pytest.raises(ValueError, match="2x2"):
        ScatteringMatrix(np.zeros((2, 3)), z=1.0)
    with pytest.raises(ValueError, match="2x2"):
        ScatteringMatrix(np.zeros((1, 2, 2)), z=1.0)
    with pytest.raises(ValueError, match="m12"):
        ScatteringMatrix([[0.0, complex(math.nan, 0.0)], [0.0, 0.0]], z=1.0)


def test_scattering_matrix_passivity_guard():
    # Singular value 2 is gain, not roundoff.
    with pytest.raises(ValueError, match="not passive"):
        ScatteringMatrix([[2.0, 0.0], [0.0, 0.0]], z=1.0)
    # At the tolerance edge it must pass.
    edge = 1.0 + 0.5 * PASSIVITY_TOL
    ScatteringMatrix([[edge, 0.0], [0.0, 0.0]], z=1.0)


def test_scattering_matrix_rejects_negative_z():
    with pytest.raises(ValueError, match="z must be non-negative"):
        ScatteringMatrix(np.eye(2), z=-0.1)


def test_scattering_matrix_det_consistency_guard():
    with pytest.raises(ValueError, match="det disagrees"):
        ScatteringMatrix(0.5 * np.eye(2), z=1.0, det=0.5)


def test_scattering_matrix_determinant_fallback_and_override():
    m = np.array([[0.5, 0.1j], [0.1j, 0.5]])
    plain = ScatteringMatrix(m, z=1.0)
    entrywise = 0.5 * 0.5 - 0.1j * 0.1j
    assert plain.determinant == entrywise
    reduced = entrywise + 1e-10  # within guard, distinguishable value
    carried = ScatteringMatrix(m, z=1.0, det=reduced)
    assert carried.determinant == reduced


def test_scattering_matrix_entry_shorthands():
    m = np.array([[0.1, 0.2j], [0.3, 0.4j]])
    s = ScatteringMatrix(m, z=0.0)
    assert (s.s11, s.s12, s.s21, s.s22) == (0.1, 0.2j, 0.3, 0.4j)
    assert np.array_equal(s.as_array(), m)


def test_scattering_matrix_is_a_read_only_array_view_compared_by_identity():
    m = np.array([[0.5, -0.1j], [0.2j, 0.5]])
    a = ScatteringMatrix(m, z=1.0)
    b = ScatteringMatrix(m.tolist(), z=1.0)
    assert np.array_equal(a, b) and (a.z, a.det) == (b.z, b.det)
    assert a == a and a != b and len({a, b}) == 2  # records of equal entries stay two
    m[0, 0] = 0.0  # the record keeps its own copy
    assert a.s11 == 0.5
    view = np.asarray(a)
    assert view.shape == (2, 2) and view.dtype == complex and not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 0.0
    copy = a.as_array()
    copy[0, 0] = 0.0
    assert copy.flags.writeable and a.s11 == 0.5
    # numpy 1.x calls __array__ with no copy argument.
    assert np.array_equal(a.__array__(), view) and a.__array__(complex).dtype == complex
    assert a.__array__(copy=True).flags.writeable
    assert all(type(x) is complex for x in (a.s11, a.s12, a.s21, a.s22, a.determinant))


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
    for points in ((0.0, 1.0), ((0.0, 1.0, 2.0),), [[[0.0, 1.0]]]):
        with pytest.raises(ValueError, match=r"\(z, value\) pairs"):
            DecayCurve("p", points)


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


# -- array checks -----------------------------------------------------------

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
        assert np.all(np.abs(largest_singular_value(mats) - svd) <= 8 * eps * svd)
    # Near-unitary matrices keep every digit, so the passivity slack holds.
    assert np.abs(largest_singular_value(unitary) - 1.0).max() < 8 * eps
    # One matrix gives the same value as an array of one matrix.
    expected = largest_singular_value(general[:1])[0]
    assert largest_singular_value(general[0]) == pytest.approx(expected, rel=8 * eps)


def test_check_propagators_names_the_fault_in_an_array():
    # Distances are refused where they enter (the record, scattering_array,
    # LatticePropagator), not here.
    eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    check_propagators(eye, np.ones(3))
    bad = eye.copy()
    bad[2, 1, 0] = complex(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"m21 must be finite, got \(nan\+1j\)"):
        check_propagators(bad)
    gain = eye.copy()
    gain[1, 1, 1] = 1.5
    with pytest.raises(ValueError, match="largest singular value 1.5 exceeds 1"):
        check_propagators(gain)
    with pytest.raises(ValueError, match="det disagrees"):
        check_propagators(eye, np.array([1.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="det must be finite"):
        check_propagators(eye, np.array([1.0, math.inf, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries", [[[1e200, 0.0], [0.0, 0.0]], [[1e200j, 1e200], [1e200, 1e200j]]])
def test_an_entry_past_the_square_root_of_the_float_range_is_not_passive(entries):
    # |s|^2 overflows; the largest singular value reads inf, with no warning.
    with pytest.raises(ValueError, match="matrix is not passive: largest singular value inf"):
        ScatteringMatrix(entries, z=1.0)
    with pytest.raises(ValueError, match="not passive"):
        check_propagators(np.array([entries], dtype=complex))


@pytest.mark.parametrize("z_max, num_points", [(5e-324, 3), (8e-323, 10), (2.2e-301, MAX_GRID_POINTS)])
def test_grid_refuses_a_step_that_could_repeat_points(z_max, num_points):
    # linspace repeats points of a subnormal step: 5e-324 over 3 points gives 0, 0, 5e-324.
    with pytest.raises(ValueError, match=f"z_max = {z_max!r} is too small for {num_points} distinct"):
        PropagationGrid(z_max, num_points)


@pytest.mark.parametrize("z_max, num_points", [(4.5e-308, 3), (1e-300, 10**4)])
def test_grid_points_of_a_normal_step_are_distinct(z_max, num_points):
    z = PropagationGrid(z_max, num_points).points()
    assert z[0] == 0.0 and z[-1] == z_max and (np.diff(z) > 0.0).all()


@pytest.mark.parametrize("z_max, num_points", [(7.0, 11), (10.0, 501), (3.0 / 1.1, 301), (1e-300, 10**4),
                                               (1e300, 12345)])
def test_grid_points_of_any_slice_are_those_of_the_whole_grid(z_max, num_points):
    # fig2 to fig4 make their grid a piece at a time: the same doubles as linspace's.
    g = PropagationGrid(z_max, num_points)
    whole = g.points()
    assert whole.tobytes() == np.linspace(0.0, z_max, num_points).tobytes()
    for start, stop in [(0, 1), (0, num_points), (3, 9), (num_points - 5, num_points), (4, 4),
                        (num_points, num_points)]:
        assert g.points(start, stop).tobytes() == whole[start:stop].tobytes()


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


def test_entrywise_determinants_match_the_matrix_record_bit_for_bit():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    expected = [complex(a) * complex(d) - complex(b) * complex(c) for (a, b), (c, d) in mats]
    got = entrywise_determinants(mats)
    assert got.shape == (500,)
    assert got.tolist() == expected
    assert entrywise_determinants(mats.reshape(20, 25, 2, 2)).shape == (20, 25)
