import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ptcoupler.classical import ClassicalInput, classical_power_curve
from ptcoupler.core import (
    CouplerParams,
    PolarizationEntangled,
    PropagationGrid,
)
from ptcoupler.quantum import (
    _bunching,
    _clamp_probability,
    mean_photon_number,
    survival_curve,
    survival_entangled,
    survival_fermionic,
    survival_indistinguishable,
    two_photon_oracle,
)
from ptcoupler.reservoir import LatticePropagator, LatticeReservoir, full_hamiltonian
from ptcoupler.scattering import scattering_array, scattering_matrix

from oracles import coupler_matrix, interference_sum, two_photon_oracle_kron

E_MINUS_4 = 0.018315638888734179

params_st = st.builds(
    CouplerParams,
    beta1=st.floats(min_value=-2.0, max_value=2.0),
    beta2=st.floats(min_value=-2.0, max_value=2.0),
    kappa=st.floats(min_value=0.1, max_value=3.0),
    gamma=st.floats(min_value=0.0, max_value=6.0),
)
z_st = st.floats(min_value=0.0, max_value=8.0)


def lossless(kappa=1.0):
    return CouplerParams(beta1=0.0, beta2=0.0, kappa=kappa, gamma=0.0)


# -- occupations: p20, p02, p11, the terms of P_B ---------------------------

def test_occupations_at_zero_distance():
    p20, p02, p11 = _bunching(scattering_matrix(lossless(), 0.0))
    assert p11 == 1.0
    assert p20 == 0.0
    assert p02 == 0.0
    assert 1.0 - p20 - p02 - p11 == 0.0  # nothing lost


def test_occupations_half_beat_bunching():
    # Quarter-period 50:50 splitter: the pair always exits together.
    p20, p02, p11 = _bunching(scattering_matrix(lossless(), math.pi / 4.0))
    assert p11 < 1e-12
    assert abs(p20 - 0.5) < 1e-12
    assert abs(p02 - 0.5) < 1e-12


def test_occupations_full_swap():
    p20, p02, p11 = _bunching(scattering_matrix(lossless(), math.pi / 2.0))
    assert abs(p11 - 1.0) < 1e-12
    assert p20 < 1e-12
    assert p02 < 1e-12


@given(params=params_st, z=z_st)
def test_survival_sums_occupations(params, z):
    s = scattering_matrix(params, z)
    occupations = _bunching(s)
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in occupations)
    assert abs(survival_indistinguishable(s) - sum(occupations)) < 1e-14


# -- survival probabilities ----------------------------------------------

@given(z=z_st, kappa=st.floats(min_value=0.1, max_value=3.0))
def test_lossless_pair_always_survives(z, kappa):
    s = scattering_matrix(lossless(kappa), z)
    assert abs(survival_indistinguishable(s) - 1.0) < 1e-12
    assert abs(survival_entangled(s, 2.0) - 1.0) < 1e-12
    assert abs(survival_fermionic(s) - 1.0) < 1e-12


@given(params=params_st, z=z_st)
def test_phi_zero_reduces_to_indistinguishable(params, z):
    s = scattering_matrix(params, z)
    assert survival_entangled(s, 0.0) == survival_indistinguishable(s)


@given(params=params_st, z=z_st)
def test_phi_pi_reduces_to_fermionic(params, z):
    s = scattering_matrix(params, z)
    assert survival_entangled(s, math.pi) == survival_fermionic(s)


def test_phi_pi_matches_entrywise_determinant_on_lattice_matrix():
    params = lossless()
    lat = LatticeReservoir(sigma=4.0, rho=1.5, n_sites=31)
    s = LatticePropagator(params, lat).scattering(1.3)
    assert survival_entangled(s, math.pi) == survival_fermionic(s)


def test_entangled_phi_validation():
    s = scattering_matrix(lossless(), 1.0)
    for phi in (-0.1, math.pi + 0.1, math.nan):
        with pytest.raises(ValueError, match="phi"):
            survival_entangled(s, phi)
        with pytest.raises(ValueError, match="phi"):
            survival_entangled(s, np.array([0.0, phi, 1.0]))


def test_an_array_of_phases_gives_each_phase_bit_for_bit():
    s, det = scattering_array(CouplerParams(0.3, -0.2, 1.1), np.linspace(0.0, 4.0, 9),
                              gamma=np.array([[0.0], [0.7], [2.2], [9.0]]))
    phis = np.array([0.0, 0.4, 2.0 * math.pi / 3.0, math.pi])
    mixed = survival_entangled(s, phis[:, None, None], det)
    assert mixed.shape == (4,) + det.shape
    for phi, column in zip(phis, mixed):
        assert np.array_equal(column, survival_entangled(s, phi, det))


def test_fermionic_closed_form_value():
    s = scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 2.0), 1.0)
    assert abs(survival_fermionic(s) - E_MINUS_4) < 1e-14 * E_MINUS_4


@given(params=params_st, z=z_st)
def test_fermionic_memoryless_law(params, z):
    s = scattering_matrix(params, z)
    expected = math.exp(-2.0 * params.gamma * z)
    assert abs(survival_fermionic(s) - expected) <= 1e-12 * max(expected, 1e-300)


@given(params=params_st, z=z_st)
def test_survivals_stay_in_unit_interval(params, z):
    # _clamp_probability raises on any excursion beyond roundoff, so the
    # assertions here double as formula-consistency checks.
    s = scattering_matrix(params, z)
    for p in (
        survival_indistinguishable(s),
        survival_entangled(s, 1.234),
        survival_fermionic(s),
    ):
        assert 0.0 <= p <= 1.0


def test_statistics_ordering_above_coalescence():
    params = CouplerParams(0.0, 0.0, 1.0, 2.5)
    for z in np.linspace(0.0, 3.0, 61):
        s = scattering_matrix(params, z)
        boson = survival_indistinguishable(s)
        middle = survival_entangled(s, 2.0 * math.pi / 3.0)
        fermi = survival_fermionic(s)
        assert boson >= middle - 1e-12
        assert middle >= fermi - 1e-12


@settings(max_examples=60)
@given(params=params_st, phi=st.floats(min_value=0.0, max_value=math.pi))
def test_entangled_survival_is_the_interference_sum_on_the_closed_form(params, phi):
    # gamma z <= 18 keeps the reference sum clear of its cancellation.
    s, det = scattering_array(params, np.linspace(0.0, 3.0, 31))
    assert np.abs(survival_entangled(s, phi, det) - interference_sum(s, phi)).max() <= 1e-14


def test_entangled_survival_is_the_interference_sum_on_the_chain():
    rng = np.random.default_rng(16)
    for _ in range(20):
        params = CouplerParams(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 2.0))
        lattice = LatticeReservoir(rng.uniform(0.5, 4.0), rng.uniform(0.0, 2.0), int(rng.integers(1, 40)),
                                   rng.uniform(-1.0, 1.0))
        s, det = LatticePropagator(params, lattice).scattering_array(np.linspace(0.0, 3.0, 31))
        for phi in (0.0, rng.uniform(0.0, math.pi), 2.0 * math.pi / 3.0, math.pi):
            assert np.abs(survival_entangled(s, phi, det) - interference_sum(s, phi)).max() <= 1e-14


def mp_entangled_survival(gamma, z, turns):
    """Entangled-pair survival of the kappa = 1 coupler at phase turns * pi
    (pi exactly, as cos(math.pi) is -1 in double precision), from mpmath's
    expm: the squared amplitudes of U A(0) U^T, one photon per arm. 160
    digits, as the antisymmetric part (~e^{-2 gamma z}) cancels 131 digits of
    the O(1) amplitudes at gamma z = 150."""
    with mpmath.workdps(160):
        u = mpmath.expm(mpmath.matrix([[0, 1], [1, mpmath.mpc(0, -gamma)]]) * mpmath.mpc(0, -z))
        rt = 1 / mpmath.sqrt(2)
        a0 = mpmath.matrix([[0, rt], [rt * mpmath.expjpi(turns), 0]])
        a = u * a0 * u.T
        return float(mpmath.fsum(abs(a[i, j]) ** 2 for i in range(2) for j in range(2)))


@pytest.mark.parametrize("gamma, z", [(50.0, 3.0), (10.0, 2.0)])
@pytest.mark.parametrize("turns", [mpmath.mpf(2) / 3, 1])
def test_entangled_survival_far_above_the_ep_matches_mpmath(gamma, z, turns):
    # The interference sum gave 0.0 for e^{-300} at (50, 3), 1.5e-3 off at (10, 2).
    s = scattering_matrix(CouplerParams(0.0, 0.0, 1.0, gamma), z)
    exact = mp_entangled_survival(gamma, z, turns)
    assert abs(survival_entangled(s, float(turns * mpmath.pi)) - exact) <= 1e-13 * exact


# -- mean photon number ---------------------------------------------------

@given(z=z_st)
def test_mean_photon_number_conserved_without_loss(z):
    assert abs(mean_photon_number(scattering_matrix(lossless(), z)) - 2.0) < 1e-12


@given(params=params_st, z=z_st)
def test_mean_photon_number_is_twice_balanced_power(params, z):
    grid = PropagationGrid(z_max=max(z, 1e-6), num_points=2)
    curve = classical_power_curve(params, ClassicalInput.BALANCED_ORTHOGONAL, grid)
    s = scattering_matrix(params, grid.points()[-1])
    assert abs(0.5 * mean_photon_number(s) - curve.values()[-1]) < 1e-12


# -- clamp guard -----------------------------------------------------------

def test_clamp_accepts_roundoff_excursions():
    assert _clamp_probability(1.0 + 0.5e-12, "p") == 1.0
    assert _clamp_probability(-0.5e-12, "p") == 0.0
    assert _clamp_probability(0.3, "p") == 0.3


def test_clamp_raises_beyond_roundoff():
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        _clamp_probability(1.0 + 2e-12, "p")
    with pytest.raises(ValueError, match="survival"):
        _clamp_probability(-1e-6, "survival")


# -- survival curves -------------------------------------------------------

def test_survival_curve_labels():
    params = CouplerParams(0.0, 0.0, 1.0, 0.5)
    grid = PropagationGrid(z_max=2.0, num_points=5)
    c1 = survival_curve(params, PolarizationEntangled(phi=0.0), grid)
    assert c1.label == "survival_phi_0"
    c2 = survival_curve(params, PolarizationEntangled(phi=math.pi / 2.0), grid)
    assert c2.label == "survival_phi_1.57079632679"
    assert c1.z_values()[0] == 0.0
    assert c1.values()[0] == 1.0


def test_survival_curve_lossless_is_flat():
    grid = PropagationGrid(z_max=5.0, num_points=11)
    curve = survival_curve(lossless(), PolarizationEntangled(phi=0.0), grid)
    assert np.abs(np.asarray(curve.values()) - 1.0).max() < 1e-12


def test_survival_curve_lattice_backend_matches_propagator():
    params = lossless()
    lat = LatticeReservoir(sigma=5.0, rho=2.0, n_sites=41)
    grid = PropagationGrid(z_max=1.5, num_points=7)
    curve = survival_curve(params, PolarizationEntangled(phi=0.0), grid, reservoir=lat)
    prop = LatticePropagator(params, lat)
    for z, value in zip(curve.z_values(), curve.values()):
        assert abs(value - survival_indistinguishable(prop.scattering(z))) < 1e-14


def test_survival_curve_at_phi_0_is_the_indistinguishable_pair_bit_for_bit():
    # phi = 0 is the bosonic pair: its weights cos^2(phi/2) = 1, sin^2(phi/2) = 0 are exact.
    rng = np.random.default_rng(28)
    grid = PropagationGrid(z_max=12.0, num_points=2001)
    zs = grid.points()
    for _ in range(12):
        kappa = rng.uniform(0.2, 3.0)
        ratio = rng.choice([0.0, 2.0, rng.uniform(0.0, 10.0)])  # lossless, at the EP, any
        params = CouplerParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), kappa, ratio * kappa)
        curve = survival_curve(params, PolarizationEntangled(phi=0.0), grid)
        assert np.array_equal(curve.values(), survival_indistinguishable(scattering_array(params, zs)[0]))
    lat = LatticeReservoir(sigma=5.0, rho=2.0, n_sites=700)
    curve = survival_curve(lossless(), PolarizationEntangled(phi=0.0), grid, reservoir=lat)
    s, _ = LatticePropagator(lossless(), lat).scattering_array(zs)
    assert np.array_equal(curve.values(), survival_indistinguishable(s))


def test_survival_curve_rejects_loss_with_lattice():
    params = CouplerParams(0.0, 0.0, 1.0, 0.5)
    lat = LatticeReservoir(sigma=5.0, rho=2.0, n_sites=11)
    grid = PropagationGrid(z_max=1.0, num_points=3)
    with pytest.raises(ValueError, match="mutually exclusive"):
        survival_curve(params, PolarizationEntangled(phi=0.0), grid, reservoir=lat)


def test_survival_curve_rejects_unknown_backend_and_input():
    grid = PropagationGrid(z_max=1.0, num_points=3)
    with pytest.raises(ValueError, match="unknown reservoir 'markov'"):
        survival_curve(lossless(), PolarizationEntangled(phi=0.0), grid, reservoir="markov")
    with pytest.raises(ValueError, match="unknown two-photon input"):
        survival_curve(lossless(), "bosons", grid)


# -- independent oracles ---------------------------------------------------

def test_oracle_matches_memoryless_formulas():
    rng = np.random.default_rng(7)
    for _ in range(40):
        params = CouplerParams(
            beta1=rng.uniform(-2.0, 2.0),
            beta2=rng.uniform(-2.0, 2.0),
            kappa=rng.uniform(0.2, 2.0),
            gamma=rng.uniform(0.0, 4.0),
        )
        z = rng.uniform(0.0, 3.0)
        h = coupler_matrix(params)
        s = scattering_matrix(params, z)
        assert abs(two_photon_oracle(h, PolarizationEntangled(phi=0.0), z)
                   - survival_indistinguishable(s)) < 1e-12
        for phi in (0.0, 2.0 * math.pi / 3.0, math.pi):
            assert abs(two_photon_oracle(h, PolarizationEntangled(phi=phi), z)
                       - survival_entangled(s, phi)) < 1e-12


def test_oracle_matches_lattice_formulas():
    params = lossless()
    lat = LatticeReservoir(sigma=3.0, rho=1.2, n_sites=6)
    h = full_hamiltonian(params, lat)
    prop = LatticePropagator(params, lat)
    for z in (0.0, 0.7, 1.9):
        s = prop.scattering(z)
        assert abs(two_photon_oracle(h, PolarizationEntangled(phi=0.0), z)
                   - survival_indistinguishable(s)) < 1e-10
        assert abs(two_photon_oracle(h, PolarizationEntangled(phi=math.pi), z)
                   - survival_entangled(s, math.pi)) < 1e-10


def test_oracle_unit_at_zero_distance():
    h = coupler_matrix(CouplerParams(0.3, -0.4, 1.0, 2.0))
    assert abs(two_photon_oracle(h, PolarizationEntangled(phi=0.0), 0.0) - 1.0) < 1e-14
    assert abs(two_photon_oracle(h, PolarizationEntangled(phi=1.0), 0.0) - 1.0) < 1e-14


def test_oracle_validation():
    with pytest.raises(ValueError, match="square"):
        two_photon_oracle(np.zeros((2, 3)), PolarizationEntangled(phi=0.0), 1.0)
    with pytest.raises(ValueError, match="square"):
        two_photon_oracle(np.zeros((1, 1)), PolarizationEntangled(phi=0.0), 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        two_photon_oracle(np.zeros((2, 2)), PolarizationEntangled(phi=0.0), -1.0)
    with pytest.raises(ValueError, match="unknown two-photon input"):
        two_photon_oracle(np.zeros((2, 2)), object(), 1.0)


def test_oracle_without_scipy_names_the_test_extra(monkeypatch):
    # scipy is a test dependency only; the oracle says so when it is missing.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError, match=r"needs scipy: install the test extra, ptcoupler\[test\]"):
        two_photon_oracle(np.eye(2), PolarizationEntangled(phi=0.0), 1.0)


def test_kron_oracle_agrees_with_congruence():
    params = lossless()
    lat = LatticeReservoir(sigma=2.0, rho=1.0, n_sites=8)
    h = full_hamiltonian(params, lat)
    m = coupler_matrix(CouplerParams(0.1, -0.2, 0.9, 1.7))
    for z in (0.4, 1.6):
        for state in (PolarizationEntangled(phi=0.0), PolarizationEntangled(phi=2.2)):
            assert abs(two_photon_oracle_kron(h, state, z)
                       - two_photon_oracle(h, state, z)) < 1e-10
            assert abs(two_photon_oracle_kron(m, state, z)
                       - two_photon_oracle(m, state, z)) < 1e-12


def test_kron_oracle_rejects_large_systems():
    with pytest.raises(ValueError, match="small systems"):
        two_photon_oracle_kron(np.eye(13), PolarizationEntangled(phi=0.0), 1.0)


# -- array observables -----------------------------------------------------

def test_array_observables_match_the_per_matrix_loop():
    # The array form against the one-matrix form, point by point; both
    # evaluate the same formulas, so only the last bits may differ.
    params = CouplerParams(0.3, -0.2, 1.1, 0.0)
    gammas = np.array([0.0, 0.7, 2.2, 9.0])[:, None]
    zs = np.linspace(0.0, 6.0, 13)[None, :]
    s, det = scattering_array(params, zs, gamma=gammas)
    arrays = {
        "boson": survival_indistinguishable(s),
        "entangled": survival_entangled(s, 1.2, det),
        "fermion": survival_fermionic(s, det),
        "mean": mean_photon_number(s),
    }
    for value in arrays.values():
        assert value.shape == (4, 13)
    for i, gamma in np.ndenumerate(gammas[:, 0]):
        for j, z in np.ndenumerate(zs[0]):
            one = scattering_matrix(CouplerParams(0.3, -0.2, 1.1, float(gamma)), float(z))
            expected = {
                "boson": survival_indistinguishable(one),
                "entangled": survival_entangled(one, 1.2),
                "fermion": survival_fermionic(one),
                "mean": mean_photon_number(one),
            }
            for name, value in expected.items():
                assert isinstance(value, float)
                assert abs(arrays[name][i + j] - value) < 1e-14, name


def test_one_record_matches_its_batch_of_one():
    rng = np.random.default_rng(15)
    lattice = LatticePropagator(lossless(), LatticeReservoir(sigma=3.0, rho=1.2, n_sites=9))
    records = [lattice.scattering(0.8)] + [
        scattering_matrix(CouplerParams(*rng.uniform(-2.0, 2.0, 2), rng.uniform(0.1, 3.0),
                                        rng.uniform(0.0, 6.0)), rng.uniform(0.0, 8.0))
        for _ in range(50)
    ]
    for one in records:
        batch, dets = one.as_array()[None], np.array([one.determinant])
        pairs = [
            (survival_indistinguishable(one), survival_indistinguishable(batch)),
            (survival_entangled(one, 1.2), survival_entangled(batch, 1.2, dets)),
            (survival_fermionic(one), survival_fermionic(batch, dets)),
            (mean_photon_number(one), mean_photon_number(batch)),
        ]
        for value, batched in pairs:
            assert isinstance(value, float) and batched.shape == (1,)
            assert abs(value - batched[0]) <= 1e-15


def test_fermionic_survival_of_an_array_needs_its_determinants():
    s, _ = scattering_array(CouplerParams(0.0, 0.0, 1.0, 1.0), np.linspace(0.0, 2.0, 3))
    with pytest.raises(ValueError, match="det is required"):
        survival_fermionic(s)


def test_clamp_on_arrays():
    clipped = _clamp_probability(np.array([-0.5e-12, 0.25, 1.0 + 0.5e-12]), "p")
    assert clipped.tolist() == [0.0, 0.25, 1.0]
    with pytest.raises(ValueError, match=r"p_lost = -1e-06 lies outside \[0, 1\] beyond roundoff"):
        _clamp_probability(np.array([0.5, -1e-6, 2.0]), "p_lost")
