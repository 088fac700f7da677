import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
import hypothesis.strategies as st

from ptcoupler.core import CouplerParams, PropagationGrid
from ptcoupler.scattering import (
    SINC_SERIES_THRESHOLD,
    scattering_array,
    scattering_matrix,
)

from oracles import coupler_matrix

E_INV = 0.36787944117144233  # exp(-1)

kappas = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
gamma_ratios = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
betas = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
kz = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def random_params(draw_tuple):
    beta1, beta2, kappa, ratio = draw_tuple
    return CouplerParams(beta1, beta2, kappa, ratio * kappa)


def test_lossless_half_beat_swaps_arms():
    p = CouplerParams(0.0, 0.0, 1.0, 0.0)
    s = scattering_matrix(p, math.pi / 2).as_array()
    expected = np.array([[0.0, -1j], [-1j, 0.0]])
    assert np.abs(s - expected).max() < 1e-12


def test_coalescence_point_closed_form():
    # gamma = 2 kappa, z = 1: the nilpotent part contributes linearly in z.
    p = CouplerParams(0.0, 0.0, 1.0, 2.0)
    s = scattering_matrix(p, 1.0).as_array()
    expected = E_INV * np.array([[2.0, -1j], [-1j, 0.0]])
    assert np.abs(s - expected).max() < 1e-14


def test_zero_distance_is_identity():
    p = CouplerParams(0.3, -0.2, 1.3, 4.0)
    s = scattering_matrix(p, 0.0).as_array()
    assert np.array_equal(s, np.eye(2))


@given(st.tuples(betas, betas, kappas, gamma_ratios), kz)
def test_det_magnitude_is_pure_loss(tup, x):
    p = random_params(tup)
    z = x / p.kappa
    s = scattering_matrix(p, z)
    assert abs(abs(s.determinant) - math.exp(-p.gamma * z)) <= 1e-10 * math.exp(-p.gamma * z)


@given(st.tuples(betas, betas, kappas, gamma_ratios), kz)
def test_det_carries_full_phase(tup, x):
    p = random_params(tup)
    z = x / p.kappa
    s = scattering_matrix(p, z)
    expected = np.exp(-1j * (p.beta1 + p.beta2) * z - p.gamma * z)
    assert abs(s.determinant - expected) <= 1e-10 * abs(expected)


@given(st.tuples(betas, betas, kappas, gamma_ratios),
       st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=8.0))
def test_semigroup(tup, x1, x2):
    p = random_params(tup)
    z1, z2 = x1 / p.kappa, x2 / p.kappa
    lhs = scattering_matrix(p, z1 + z2).as_array()
    rhs = scattering_matrix(p, z2).as_array() @ scattering_matrix(p, z1).as_array()
    assert np.abs(lhs - rhs).max() < 1e-10


def test_ep_continuity_in_gamma():
    zs = np.linspace(0.0, 10.0, 201)
    for eps in (1e-8, -1e-8):
        worst = 0.0
        for z in zs:
            at = scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 2.0), z).as_array()
            near = scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 2.0 * (1.0 + eps)), z).as_array()
            worst = max(worst, np.abs(at - near).max())
        assert worst < 1e-6


@settings(max_examples=200)
@given(st.tuples(betas, betas, kappas, gamma_ratios),
       st.floats(min_value=0.0, max_value=10.0))
def test_matches_dense_expm(tup, x):
    p = random_params(tup)
    z = x / p.kappa
    mine = scattering_matrix(p, z).as_array()
    dense = scipy.linalg.expm(-1j * z * coupler_matrix(p))
    assert np.abs(mine - dense).max() < 1e-10


def test_branch_of_omega_is_irrelevant():
    # Rebuild the closed form with the opposite square root and compare.
    p = CouplerParams(0.7, -0.4, 1.1, 1.9)
    z = 2.3
    half_trace = 0.5 * (p.beta1 + p.beta2 - 1j * p.gamma)
    d = 0.5 * (p.beta1 - p.beta2 + 1j * p.gamma)
    omega = -np.sqrt(complex(p.kappa**2 + d * d))  # flipped branch
    pref = np.exp(-1j * half_trace * z)
    c = np.cos(omega * z)
    s = np.sin(omega * z) / omega
    flipped = pref * np.array([
        [c - 1j * s * d, -1j * s * p.kappa],
        [-1j * s * p.kappa, c + 1j * s * d],
    ])
    assert np.abs(flipped - scattering_matrix(p, z).as_array()).max() < 1e-13


def test_series_switchover_is_seamless():
    # gamma slightly off coalescence makes |omega z| sweep through the
    # series threshold as z grows; the dense exponential sees no seam.
    gamma = 2.0 * (1.0 + 1e-9)
    p = CouplerParams(0.0, 0.0, 1.0, gamma)
    d = 0.5j * gamma
    omega = abs(np.sqrt(complex(1.0 + d * d)))
    z_cross = SINC_SERIES_THRESHOLD / omega
    m = coupler_matrix(p)
    for z in np.linspace(0.5 * z_cross, 2.0 * z_cross, 41):
        mine = scattering_matrix(p, z).as_array()
        dense = scipy.linalg.expm(-1j * z * m)
        assert np.abs(mine - dense).max() < 1e-12


def test_curve_endpoints_and_unitarity():
    p = CouplerParams(0.0, 0.0, 1.0, 0.0)
    grid = PropagationGrid(3.0, 2)
    mats, _ = scattering_array(p, grid.points())
    assert mats.shape == (2, 2, 2)
    assert np.array_equal(mats[0], np.eye(2))
    assert np.abs(mats[1] - scattering_matrix(p, 3.0).as_array()).max() == 0.0
    for a in scattering_array(p, PropagationGrid(10.0, 101).points())[0]:
        assert np.abs(a @ a.conj().T - np.eye(2)).max() < 1e-12


@given(st.tuples(betas, betas, kappas, st.floats(min_value=0.1, max_value=10.0)))
def test_curve_is_passive_under_loss(tup):
    p = random_params(tup)
    for a in scattering_array(p, PropagationGrid(10.0 / p.kappa, 21).points())[0]:
        assert np.linalg.svd(a, compute_uv=False)[0] <= 1.0 + 1e-9


def test_rejects_corrupted_params_and_negative_z():
    corrupted = CouplerParams(0.0, 0.0, 1.0, 0.0)
    object.__setattr__(corrupted, "kappa", -1.0)  # simulate foreign assembly
    with pytest.raises(ValueError, match="kappa"):
        scattering_matrix(corrupted, 1.0)
    p = CouplerParams(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scattering_matrix(p, -1.0)


# -- array form and the strong-loss regime -----------------------------------

@pytest.mark.parametrize("beta1, beta2, kappa", [
    (0.0, 0.0, 1.0), (0.3, -0.2, 1.3), (-0.5, 0.5, 0.7), (2.0, -1.0, 1.0),
])
@pytest.mark.parametrize("gamma", [100.0, 400.0])
def test_strong_loss_matches_expm(beta1, beta2, kappa, gamma):
    # Far above the exceptional point cos(w z) alone overflows once gamma z
    # passes ~1400; the propagator stays finite and |S11| stays near 1.
    p = CouplerParams(beta1, beta2, kappa, gamma)
    zs = np.concatenate([np.linspace(0.0, 20.0, 21), np.geomspace(1e2, 1e4, 9) / gamma])
    s, det = scattering_array(p, zs)
    m = coupler_matrix(p)
    for z, mine, d in zip(zs, s, det):
        dense = scipy.linalg.expm(-1j * z * m)
        assert np.abs(mine - dense).max() < 1e-12
        assert abs(d - np.exp(-1j * (beta1 + beta2) * z - gamma * z)) <= 1e-12 * abs(d)
    one = scattering_matrix(p, 1e4 / gamma).as_array()
    assert np.abs(one - s[-1]).max() < 1e-15


def test_loss_induced_transparency_value():
    # gamma = 100, z = 20: the slow supermode decays at ~kappa^2/gamma.
    s = scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 100.0), 20.0)
    assert abs(abs(s.s11) - 0.8187962713581) < 1e-12


def test_array_broadcasts_a_loss_axis_against_a_z_grid():
    p = CouplerParams(0.4, -0.1, 1.2, 0.0)
    gammas = np.array([0.0, 1.0, 2.4, 2.4 * (1.0 + 1e-9), 7.0, 300.0])
    zs = np.linspace(0.0, 5.0, 11)
    s, det = scattering_array(p, zs[None, :], gamma=gammas[:, None])
    assert s.shape == (6, 11, 2, 2) and det.shape == (6, 11)
    for i, gamma in enumerate(gammas):
        q = CouplerParams(p.beta1, p.beta2, p.kappa, float(gamma))
        for j, z in enumerate(zs):
            one = scattering_matrix(q, float(z))
            assert np.abs(one.as_array() - s[i, j]).max() < 1e-15
            assert abs(one.det - det[i, j]) < 1e-15


def test_a_loss_rate_array_gives_the_scalar_rate_bit_for_bit():
    # d^2 is formed from its real parts, so that a scalar gamma and an array
    # of it round alike; as a complex product, 12 of these 300 detuned
    # couplers came out differently.
    rng = np.random.default_rng(12)
    for beta1, beta2, kappa, gamma in rng.uniform((-3.0, -3.0, 0.1, 0.0), (3.0, 3.0, 3.0, 5.0), (300, 4)):
        p = CouplerParams(beta1, beta2, kappa, gamma)
        zs = rng.uniform(0.0, 5.0, 7)
        s, det = scattering_array(p, zs)
        s_array, det_array = scattering_array(replace(p, gamma=0.0), zs, gamma=np.full(7, gamma))
        assert np.array_equal(s, s_array) and np.array_equal(det, det_array)


def far_from_subnormal(values):
    """Zero, or large enough that 2^-560 times it is still a normal double."""
    return values.filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


@settings(max_examples=200)
@given(st.tuples(*map(far_from_subnormal, (betas, betas, kappas)),
                 st.one_of(st.just(0.0), far_from_subnormal(gamma_ratios))),
       st.lists(far_from_subnormal(kz), min_size=1, max_size=5),
       st.sampled_from([-560, -300, 300, 560]))
def test_rates_times_2k_over_distances_over_2k_give_the_same_s_bit_for_bit(tup, xs, k):
    # The closed form works in units of a power of two near the rates, so
    # S(2^k p, 2^-k z) is S(p, z) exactly, also where kappa^2 itself would
    # under- (k = -560) or overflow (k = 560). Exact, that is, until a
    # scaled rate or distance falls among the subnormals.
    p = random_params(tup)
    zs = np.array(xs) / p.kappa
    scale = 2.0**k
    scaled = CouplerParams(p.beta1 * scale, p.beta2 * scale, p.kappa * scale, p.gamma * scale)
    s, det = scattering_array(p, zs)
    s_scaled, det_scaled = scattering_array(scaled, zs / scale)
    assert np.array_equal(s, s_scaled) and np.array_equal(det, det_scaled)


def test_array_rejects_bad_distances_and_loss_rates():
    p = CouplerParams(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="z must be non-negative"):
        scattering_array(p, [0.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="z must be finite, got nan"):
        scattering_array(p, [0.0, math.nan])
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        scattering_array(p, 1.0, gamma=[1.0, math.inf])
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        scattering_array(p, 1.0, gamma=[1.0, -2.0])


@pytest.mark.filterwarnings("error")
def test_one_point_past_the_float_range_is_refused_as_the_array_call_refuses_it():
    # 2 |w z| passes the largest double: S at z = 1e308 is not finite.
    p = CouplerParams(0.0, 0.0, 1.0, 1e-300)
    message = r"the propagator's phase or decay at z = 1e\+308 passes the float range"
    with pytest.raises(ValueError, match=message):
        scattering_array(p, [0.0, 1e308])
    with pytest.raises(ValueError, match=message):
        scattering_matrix(p, 1e308)


def test_closed_form_is_the_same_bits_in_any_slice_of_a_grid():
    # numpy's scalar loop, SIMD body and tail may round differently; S of any
    # slice of a grid, and of each single point, must be the rows of the whole.
    rng = np.random.default_rng(18)
    for _ in range(20):
        kappa = rng.uniform(0.2, 5.0)
        ratio = rng.choice([0.0, 2.0, rng.uniform(0.0, 10.0)])  # lossless, at the EP, any
        p = CouplerParams(rng.uniform(-3.0, 3.0), rng.choice([0.0, rng.uniform(-3.0, 3.0)]),
                          kappa, ratio * kappa)
        # Both sides of SINC_SERIES_THRESHOLD: distances down to 1e-7 / kappa.
        zs = np.sort(np.concatenate([rng.uniform(0.0, 20.0, 300), 10.0 ** rng.uniform(-7, 0, 100)]))
        zs /= kappa
        s, det = scattering_array(p, zs)
        for length in [*range(1, 18), 257]:
            for start in (0, int(rng.integers(0, zs.size - length + 1))):
                part = slice(start, start + length)
                s_part, det_part = scattering_array(p, zs[part])
                assert np.array_equal(s_part, s[part]) and np.array_equal(det_part, det[part])
        for i in rng.choice(zs.size, 111, replace=False):  # 2,220 one-point calls in all
            record = scattering_matrix(p, zs[i])
            assert np.array_equal(record.as_array(), s[i]) and record.det == det[i]
