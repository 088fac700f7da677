import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
import hypothesis.strategies as st
import mpmath

from ptcoupler import reservoir
from ptcoupler.core import CouplerParams
from ptcoupler.reservoir import (
    LatticePropagator,
    LatticeReservoir,
    full_hamiltonian,
    lattice_gamma,
    min_lattice_size,
    nonmarkovian_scattering,
)
from ptcoupler.scattering import scattering_matrix

from oracles import chain_scattering_oracle


def test_lattice_gamma_values():
    assert lattice_gamma(20.0, 5.0) == 0.625
    assert lattice_gamma(20.0, 10.0) == 2.5
    assert lattice_gamma(7.3, 0.0) == 0.0


def test_lattice_gamma_where_rho_squared_or_two_sigma_overflows():
    # rho^2 = 1e402 and 2 sigma = 2e308 pass the float range; the rates do not.
    assert lattice_gamma(2e201, 1e201) == pytest.approx(2.5e200, rel=1e-15)
    assert lattice_gamma(1e308, 1e154) == pytest.approx(0.5, rel=1e-15)
    assert lattice_gamma(20.0, 0.1) == 0.1 * 0.1 / (2.0 * 20.0)  # bit for bit where both are in range
    for sigma, rho in ((1.0, 1e300), (1e-10, 1e154)):
        with pytest.raises(ValueError, match=re.escape(f"sigma = {sigma:g} and rho = {rho:g} give a rate ")):
            lattice_gamma(sigma, rho)


def test_lattice_gamma_rejects_bad_sigma():
    with pytest.raises(ValueError, match="sigma"):
        lattice_gamma(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        lattice_gamma(-2.0, 1.0)
    with pytest.raises(ValueError, match="rho"):
        lattice_gamma(1.0, -1.0)
    for sigma, rho in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            lattice_gamma(sigma, rho)


def test_reservoir_field_validation():
    with pytest.raises(ValueError, match="sigma"):
        LatticeReservoir(sigma=0.0, rho=1.0, n_sites=5)
    with pytest.raises(ValueError, match="rho"):
        LatticeReservoir(sigma=1.0, rho=-1.0, n_sites=5)
    with pytest.raises(ValueError, match="n_sites"):
        LatticeReservoir(sigma=1.0, rho=1.0, n_sites=0)
    with pytest.raises(ValueError, match="finite"):
        LatticeReservoir(sigma=math.inf, rho=1.0, n_sites=5)


def test_outside_band_excitation_does_not_decay():
    # Arm 2 far above the band: the survival stays high because the arm
    # hybridizes into bound states instead of radiating.
    params = CouplerParams(beta1=30.0, beta2=30.0, kappa=1.0, gamma=0.0)
    lat = LatticeReservoir(sigma=5.0, rho=2.0, n_sites=201, beta_lattice=0.0)
    prop = LatticePropagator(params, lat)
    floor = min(
        abs(prop.scattering(z).s11) ** 2 + abs(prop.scattering(z).s21) ** 2
        for z in np.linspace(0.0, 3.0, 31)
    )
    assert floor > 0.9


def test_min_lattice_size_values():
    assert min_lattice_size(20.0, 3.0) == 310
    assert min_lattice_size(1.0, 1.0) == 15


def test_min_lattice_size_validation():
    with pytest.raises(ValueError, match="sigma must be positive"):
        min_lattice_size(0.0, 1.0)
    with pytest.raises(ValueError, match="z_max must be positive"):
        min_lattice_size(1.0, -1.0)
    for sigma, z_max, name in ((math.nan, 1.0, "sigma"), (math.inf, 1.0, "sigma"),
                               (1.0, math.nan, "z_max"), (1.0, math.inf, "z_max")):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            min_lattice_size(sigma, z_max)
    # Finite arguments whose chain length is not: refused, not an OverflowError.
    with pytest.raises(ValueError, match=r"sigma = 20\.0 and z_max = 1e\+308"):
        min_lattice_size(20.0, 1e308)


def test_full_hamiltonian_smallest_chain():
    params = CouplerParams(beta1=0.3, beta2=-0.1, kappa=1.2, gamma=0.0)
    lat = LatticeReservoir(sigma=4.0, rho=2.5, n_sites=1, beta_lattice=0.7)
    h = full_hamiltonian(params, lat)
    expected = np.array([
        [0.3, 1.2, 0.0],
        [1.2, -0.1, 2.5],
        [0.0, 2.5, 0.7],
    ])
    assert np.array_equal(h, expected)


def test_full_hamiltonian_attaches_to_middle_site():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=1.0, rho=3.0, n_sites=5, beta_lattice=0.0)
    h = full_hamiltonian(params, lat)
    row = h[1, 2:]
    assert row[2] == 3.0  # third of five chain sites
    assert np.count_nonzero(row) == 1
    assert np.array_equal(h, h.T)


def test_full_hamiltonian_decoupled_is_block_diagonal():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=2.0, rho=0.0, n_sites=4, beta_lattice=0.0)
    h = full_hamiltonian(params, lat)
    assert np.count_nonzero(h[:2, 2:]) == 0
    assert np.count_nonzero(h[2:, :2]) == 0


def test_full_hamiltonian_rejects_intrinsic_loss():
    params = CouplerParams(0.0, 0.0, 1.0, 0.5)
    lat = LatticeReservoir(sigma=1.0, rho=1.0, n_sites=3)
    with pytest.raises(ValueError, match="mutually exclusive"):
        full_hamiltonian(params, lat)


def test_propagator_identity_at_zero_and_negative_z():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=2.0, rho=1.0, n_sites=9)
    prop = LatticePropagator(params, lat)
    assert np.abs(prop.scattering(0.0).as_array() - np.eye(2)).max() < 1e-12
    with pytest.raises(ValueError):
        prop.scattering(-0.5)


def test_propagator_decoupled_reservoir_matches_closed_form():
    params = CouplerParams(0.4, -0.2, 1.3, 0.0)
    lat = LatticeReservoir(sigma=2.0, rho=0.0, n_sites=15)
    prop = LatticePropagator(params, lat)
    for z in (0.3, 1.1, 2.7):
        exact = prop.scattering(z).as_array()
        closed = scattering_matrix(params, z).as_array()
        assert np.abs(exact - closed).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(min_value=-1.0, max_value=1.0),
       kappa=st.floats(min_value=0.5, max_value=2.0),
       sigma=st.floats(min_value=1.0, max_value=8.0),
       rho=st.floats(min_value=0.0, max_value=3.0),
       z=st.floats(min_value=0.0, max_value=4.0))
def test_full_norm_conservation(beta, kappa, sigma, rho, z):
    # A photon launched in either arm is in the arms (S's column) or in the
    # chain (the rest of e^{-iHz}'s column, from a dense eigensolution):
    # the two probabilities add up to 1.
    params = CouplerParams(beta, beta, kappa, 0.0)
    lat = LatticeReservoir(sigma=sigma, rho=rho, n_sites=21)
    s = LatticePropagator(params, lat).scattering(z).as_array()
    w, v = np.linalg.eigh(full_hamiltonian(params, lat))
    chain = (v[2:] * np.exp(-1j * w * z)) @ v[:2].T
    total = np.sum(np.abs(s) ** 2, axis=0) + np.sum(np.abs(chain) ** 2, axis=0)
    assert np.abs(total - 1.0).max() < 1e-10


# Detuned arms and an off-center band, so that neither the Gershgorin
# center nor any symmetry of H is zero.
ORACLE_PARAMS = CouplerParams(beta1=0.3, beta2=-0.4, kappa=1.2, gamma=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 30, 31])
def test_propagator_matches_expm(n):
    lat = LatticeReservoir(sigma=1.7, rho=0.9, n_sites=n, beta_lattice=0.25)
    h = full_hamiltonian(ORACLE_PARAMS, lat)
    prop = LatticePropagator(ORACLE_PARAMS, lat)
    for z in np.linspace(0.0, 5.0, 11):
        u = scipy.linalg.expm(-1j * z * h)
        assert np.abs(prop.scattering(z).as_array() - u[:2, :2]).max() <= 1e-12


@pytest.mark.parametrize("n", [310, 311])
def test_propagator_matches_dense_eigh(n):
    lat = LatticeReservoir(sigma=20.0, rho=10.0, n_sites=n, beta_lattice=0.25)
    zs = np.linspace(0.0, 3.0, 31)
    expected = chain_scattering_oracle(ORACLE_PARAMS, lat, zs)
    prop = LatticePropagator(ORACLE_PARAMS, lat)
    for z, sz in zip(zs, expected):
        assert np.abs(prop.scattering(z).as_array() - sz).max() <= 1e-12


def test_propagator_is_a_value_and_computes_the_moments_once_per_call(monkeypatch):
    lat = LatticeReservoir(sigma=20.0, rho=5.0, n_sites=311, beta_lattice=0.25)
    used = LatticePropagator(ORACLE_PARAMS, lat)
    before = dict(vars(used))
    counts = []
    moments_upto = LatticePropagator._moments_upto
    monkeypatch.setattr(LatticePropagator, "_moments_upto",
                        lambda self, count: counts.append(count) or moments_upto(self, count))
    zs = np.array([1.0, 3.0, 0.0, 2.5, 0.3])
    assert len(np.unique(used._sizes(zs))) >= 3
    s, _ = used.scattering_array(zs)
    assert counts == [used._sizes(zs).max() // 2]  # the longest series' moments, once
    used.scattering(3.0)
    assert vars(used).keys() == before.keys() and all(vars(used)[k] is v for k, v in before.items())
    # A used propagator gives what a fresh one gives.
    for z, sz in zip(zs, s):
        fresh = LatticePropagator(ORACLE_PARAMS, lat).scattering(z).as_array()
        assert np.array_equal(used.scattering(z).as_array(), fresh) and np.array_equal(sz, fresh)
    empty = used.scattering_array(np.array([]))
    assert empty[0].shape == (0, 2, 2) and empty[1].shape == (0,)
    assert counts[-1] == 0 and vars(used).keys() == before.keys()


@pytest.mark.parametrize("params, lat, message", [
    # 2 sigma + rho overflows the Gershgorin width: once a NaN centre, blamed on z.
    ((0.0, 0.0, 1.0, 0.0), (1e308, 1.0, 5),
     r"sigma = 1e\+308 and rho = 1 give a spectral centre nan and width inf$"),
    # Every disc rounds to one point: once a ZeroDivisionError.
    ((1e300, 1e300, 1.0, 0.0), (20.0, 5.0, 5, 1e300),
     r"sigma = 20 and rho = 5 give a spectral centre 1e\+300 and width 0$"),
])
def test_spectrum_past_the_floats_refused_when_built(params, lat, message):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^chain reservoir out of range: " + message):
            LatticePropagator(CouplerParams(*params), LatticeReservoir(*lat)).scattering(0.0)
    # Just inside the floats the same chain is built and evaluated.
    LatticePropagator(CouplerParams(0.0, 0.0, 1.0, 0.0), LatticeReservoir(1e307, 1.0, 5)).scattering(0.0)


def test_oversized_chain_refused_before_allocating():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=1e6, rho=5.0, n_sites=min_lattice_size(1e6, 3.0))
    tracemalloc.start()
    try:
        prop = LatticePropagator(params, lat)
        too_long = r"sigma = 1e\+06 and n_sites = 1\.5e\+07; the limit is 1e\+07 sites$"
        with pytest.raises(ValueError, match=too_long):
            prop.scattering(3.0)
        for z in (0.0, 1e-9):  # little work, but the chain alone is too long
            with pytest.raises(ValueError, match=too_long):
                prop.scattering(z)
        # r z past the largest double: one message of finite numbers, no warning.
        huge = LatticePropagator(params, LatticeReservoir(sigma=1e300, rho=1.0, n_sites=11))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^chain reservoir too large: sigma = 1e\+300 and "
                                                 r"z = 1e\+10 need a longer series; the limit is "
                                                 r"5e\+05 terms$"):
                huge.scattering_array(np.array([0.0, 1e10]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the moments of the 6e6-term series alone would take 0.2 GB
    # A short chain over a long distance is bounded too: the series length
    # itself, not just the chain length, sets the work and the memory.
    short = LatticePropagator(params, LatticeReservoir(sigma=20.0, rho=5.0, n_sites=1))
    with pytest.raises(ValueError, match=r"sigma = 20 and z = 1e\+08 need a longer series; "
                                         r"the limit is 5e\+05 terms$"):
        short.scattering(1e8)


def test_series_limit_holds_at_its_edge():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    prop = LatticePropagator(params, LatticeReservoir(sigma=20.0, rho=5.0, n_sites=1))
    # No lower than the longest series that a count of (n + 2 + 2000) M
    # stencil steps <= 1e9 let through, on the shortest chain.
    assert reservoir._MAX_TERMS >= 10**9 // 2003
    reach = float(reservoir._MAX_TERMS)  # r z whose series is exactly the limit
    for _ in range(20):
        reach = reservoir._MAX_TERMS - 20.0 - 12.0 * reach ** (1.0 / 3.0)
    edge = reach / prop._radius
    assert prop._sizes(np.array([0.0, edge * (1.0 - 1e-9)])).max() >= reservoir._MAX_TERMS
    with pytest.raises(ValueError, match=r"sigma = 20 and z = \S+ need a longer series"):
        prop._sizes(np.array([edge * (1.0 + 1e-9), 0.0]))


def test_chains_longer_than_the_front_reaches_give_the_same_s():
    # n = 1e5 and 6e4 at sigma = 100, z = 100: about 2.1e4 terms each, at
    # a cost that does not grow with n. The front has run 2 sigma z = 2e4
    # sites, short of either chain's ends (min_lattice_size gives 50,010
    # sites), so S must not see the length. Measured: 3.2e-15.
    zs = np.linspace(0.0, 100.0, 11)
    s_long, s_short = (
        LatticePropagator(ORACLE_PARAMS, LatticeReservoir(100.0, 5.0, n, 0.25)).scattering_array(zs)[0]
        for n in (10**5, 6 * 10**4)
    )
    assert np.abs(s_long - s_short).max() <= 3e-14


def test_truncation_insensitivity():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    n = min_lattice_size(6.0, 2.0)
    small = LatticePropagator(params, LatticeReservoir(sigma=6.0, rho=2.0, n_sites=n))
    big = LatticePropagator(params, LatticeReservoir(sigma=6.0, rho=2.0, n_sites=2 * n))
    sup = max(
        np.abs(small.scattering(z).as_array() - big.scattering(z).as_array()).max()
        for z in np.linspace(0.0, 2.0, 21)
    )
    assert sup < 1e-6


def test_markovian_limit_entrywise():
    # Stronger coupling to a wide band: exact entries track the closed form
    # with the induced rate on the natural O(1) amplitude scale.
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=20.0, rho=10.0, n_sites=min_lattice_size(20.0, 3.0))
    prop = LatticePropagator(params, lat)
    markov = CouplerParams(0.0, 0.0, 1.0, lattice_gamma(20.0, 10.0))
    sup = max(
        np.abs(prop.scattering(z).as_array() - scattering_matrix(markov, z).as_array()).max()
        for z in np.linspace(0.0, 3.0, 121)
    )
    assert sup < 0.05


def test_markovian_deviation_shrinks_with_bandwidth():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    markov = CouplerParams(0.0, 0.0, 1.0, 1.0)
    sups = []
    for sigma in (10.0, 40.0):
        rho = math.sqrt(2.0 * sigma)
        lat = LatticeReservoir(sigma=sigma, rho=rho, n_sites=min_lattice_size(sigma, 3.0))
        prop = LatticePropagator(params, lat)
        sups.append(max(
            np.abs(prop.scattering(z).as_array() - scattering_matrix(markov, z).as_array()).max()
            for z in np.linspace(0.0, 3.0, 31)
        ))
    assert sups[1] < sups[0]


def test_wrapper_matches_propagator():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=3.0, rho=1.0, n_sites=11)
    a = nonmarkovian_scattering(params, lat, 1.3).as_array()
    b = LatticePropagator(params, lat).scattering(1.3).as_array()
    assert np.array_equal(a, b)


def test_scattering_array_matches_per_point_bit_for_bit():
    # Unsorted, repeated and zero distances, spanning several series lengths.
    lat = LatticeReservoir(sigma=20.0, rho=5.0, n_sites=311, beta_lattice=0.25)
    zs = np.array([2.5, 0.0, 1.0, 2.5, 0.3, 1.0, 2.9, 0.0, 0.31])
    s, det = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    assert s.shape == (9, 2, 2) and det.shape == (9,)
    shared = LatticePropagator(ORACLE_PARAMS, lat)
    for z, sz, dz in zip(zs, s, det):
        # Moments grown for other distances first, and a fresh propagator.
        for prop in (shared, LatticePropagator(ORACLE_PARAMS, lat)):
            record = prop.scattering(z)
            assert np.array_equal(record.as_array(), sz)
            assert record.determinant == dz
    grid = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs.reshape(3, 3))
    assert np.array_equal(grid[0], s.reshape(3, 3, 2, 2))
    assert np.array_equal(grid[1], det.reshape(3, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 30, 31])
def test_scattering_array_matches_expm(n):
    lat = LatticeReservoir(sigma=1.7, rho=0.9, n_sites=n, beta_lattice=0.25)
    h = full_hamiltonian(ORACLE_PARAMS, lat)
    zs = np.array([5.0, 0.0, 2.2, 0.7, 5.0, 3.9])
    s, det = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    for z, sz, dz in zip(zs, s, det):
        u = scipy.linalg.expm(-1j * z * h)[:2, :2]
        assert np.abs(sz - u).max() <= 1e-12
        assert abs(dz - np.linalg.det(u)) <= 1e-12


def test_doubled_moments_match_the_plain_recurrence():
    # mu_m = <a|T_m((H - c) / r)|b> by the three-term recurrence, one
    # moment per pass, against the two-per-pass products of the propagator.
    lat = LatticeReservoir(sigma=1.7, rho=0.9, n_sites=31, beta_lattice=0.25)
    prop = LatticePropagator(ORACLE_PARAMS, lat)
    h = full_hamiltonian(ORACLE_PARAMS, lat)
    scaled = (h - prop._center * np.eye(len(h))) / prop._radius
    prev, cur = np.eye(len(h))[:, :2], scaled[:, :2]
    plain = [prev[:2], cur[:2]]
    for _ in range(198):
        prev, cur = cur, 2.0 * scaled @ cur - prev
        plain.append(cur[:2])
    doubled = prop._moments_upto(200).reshape(200, 2, 2)
    assert np.abs(doubled - np.array(plain)).max() <= 1e-13


def test_scattering_array_refuses_the_farthest_distance_before_allocating():
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    # A chain within the site limit whose series at z = 3 is not: 6e6 terms.
    lat = LatticeReservoir(sigma=1e6, rho=5.0, n_sites=1000)
    tracemalloc.start()
    try:
        prop = LatticePropagator(params, lat)
        with pytest.raises(ValueError, match=r"sigma = 1e\+06 and z = 3 need a longer series"):
            prop.scattering_array(np.array([0.0, 1e-9, 3.0, 0.5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the moments of that series alone would take 0.2 GB
    small = LatticePropagator(params, LatticeReservoir(sigma=2.0, rho=1.0, n_sites=9))
    for bad in ([0.5, -0.1], [math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="z must be finite and non-negative"):
            small.scattering_array(np.array(bad))


def test_scattering_array_row_blocks_do_not_change_results(monkeypatch):
    # 140 samples per block: 4, 2, 1 and 1 rows for the series lengths of
    # these distances (33, 65, 97 and 129 samples), so every group of
    # 2 to 5 distances is split, most of them raggedly.
    lat = LatticeReservoir(sigma=20.0, rho=5.0, n_sites=311, beta_lattice=0.25)
    zs = np.array([2.5, 0.0, 1.0, 2.5, 0.3, 1.0, 2.9, 0.0, 0.31, 2.6, 2.7, 0.32, 1.1])
    whole = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    monkeypatch.setattr(reservoir, "_BLOCK_SAMPLES", 140)
    split = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    assert np.array_equal(whole[0], split[0]) and np.array_equal(whole[1], split[1])


def test_scattering_array_memory_does_not_grow_with_distances_times_terms():
    # fig5's first chain on 20,000 distances up to z = 3: their samples as
    # one block per series length would take about 30 MB.
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    prop = LatticePropagator(params, LatticeReservoir(100.0, 5.0, 1510, 0.0))
    zs = np.linspace(0.0, 3.0, 20_000)
    tracemalloc.start()
    try:
        s, det = prop.scattering_array(zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.nbytes + det.nbytes == 1_600_000
    assert peak < 10e6


def dense_moments(prop, h, count):
    """mu_m = <a|T_m((H - c) / r)|b>, m < count, by the dense three-term
    recurrence on the full matrix."""
    scaled = (h - prop._center * np.eye(len(h))) / prop._radius
    prev, cur = np.eye(len(h))[:, :2], scaled[:, :2]
    moments = [prev[:2], cur[:2]]
    for _ in range(count - 2):
        prev, cur = cur, 2.0 * scaled @ cur - prev
        moments.append(cur[:2])
    return np.array(moments)


# (sigma, rho, beta_lattice) of chains unlike the oracle's: no coupling,
# bound states outside the band (rho >> sigma), a band much narrower than
# the coupler's splitting (sigma << kappa) and a band far off centre.
CHAIN_SHAPES = {
    "detuned": (1.7, 0.9, 0.25),
    "decoupled": (1.7, 0.0, 0.25),
    "bound-states": (0.2, 30.0, 0.25),
    "narrow-band": (0.01, 0.9, -0.3),
    "off-centre": (1.7, 0.9, 6.0),
}


@pytest.mark.parametrize("shape", CHAIN_SHAPES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 30, 31])
def test_moments_match_the_dense_recurrence_across_chain_shapes(n, shape):
    # ORACLE_PARAMS detunes the arms (beta1 != beta2).
    lat = LatticeReservoir(*CHAIN_SHAPES[shape][:2], n, CHAIN_SHAPES[shape][2])
    prop = LatticePropagator(ORACLE_PARAMS, lat)
    moments = prop._moments_upto(200).reshape(200, 2, 2)
    assert np.abs(moments - dense_moments(prop, full_hamiltonian(ORACLE_PARAMS, lat), 200)).max() <= 1e-13


def test_scattering_array_matches_the_dense_oracle_far_along_a_short_chain():
    # z = 100 needs about 5,000 moments, long after the front has come back
    # from the ends of the 41 sites.
    lat = LatticeReservoir(20.0, 5.0, 41, 0.25)
    zs = np.array([100.0, 0.0, 3.7, 41.0])
    s, _ = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    assert np.abs(s - chain_scattering_oracle(ORACLE_PARAMS, lat, zs)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_scattering_matches_a_40_digit_expm(n):
    lat = LatticeReservoir(sigma=1.7, rho=0.9, n_sites=n, beta_lattice=0.25)
    h = full_hamiltonian(ORACLE_PARAMS, lat)
    s, _ = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(np.array([0.5, 5.0, 50.0]))
    with mpmath.workdps(40):
        u = mpmath.expm(mpmath.matrix(h.tolist()) * mpmath.mpc(0.0, -0.5))
        for sz in s:  # z = 0.5, 5, 50: each the tenth power of the one before
            exact = np.array([[complex(u[i, j]) for j in range(2)] for i in range(2)])
            assert np.abs(sz - exact).max() <= 1e-12
            u = u**10


def test_scattering_matches_a_40_digit_eigensolution_far_along_the_series():
    # About 2e4 terms at z = 5000, where the round-off of the moments' doubling
    # blocks (eps e^{delta m} / delta each) has had the most blocks to build up.
    # The bound is the 6.4e-13 that the complex-arithmetic series reached, rounded up.
    lat = LatticeReservoir(sigma=1.7, rho=0.9, n_sites=8, beta_lattice=0.25)
    h = full_hamiltonian(ORACLE_PARAMS, lat)
    zs = np.array([500.0, 5000.0])
    s, _ = LatticePropagator(ORACLE_PARAMS, lat).scattering_array(zs)
    with mpmath.workdps(40):
        energies, vectors = mpmath.eighe(mpmath.matrix(h.tolist()))
        for z, sz in zip(zs, s):
            phases = [mpmath.expj(-energy * z) for energy in energies]
            exact = np.array([[complex(mpmath.fsum(vectors[i, k] * vectors[j, k] * phase
                                                   for k, phase in enumerate(phases)))
                               for j in range(2)] for i in range(2)])
            assert np.abs(sz - exact).max() <= 7e-13


@pytest.mark.parametrize("n, zs, per_z", [
    (1, [100.0, 1000.0, 6000.0, 16000.0], 1e-15),
    (3, [100.0, 1000.0], 5e-15),
])
def test_scattering_far_along_the_chain_matches_a_40_digit_eigensolution(n, zs, per_z):
    # The moments' round-off grows linearly with the series length, so the bound
    # is linear in z, about twice what was measured: for n = 1, 3.7e-14, 3.8e-13,
    # 3.0e-12 and 8.3e-12 at z = 100, 1000, 6000 and 16000; for n = 3, 2.4e-13 and
    # 2.7e-12 at z = 100 and 1000 (1.4e-11 at z = 6000 is left out for its time).
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=20.0, rho=5.0, n_sites=n)
    s, _ = LatticePropagator(params, lat).scattering_array(np.array(zs))
    with mpmath.workdps(40):
        energies, vectors = mpmath.eigsy(mpmath.matrix(full_hamiltonian(params, lat).tolist()))
        for z, sz in zip(zs, s):
            phases = [mpmath.expj(-energy * z) for energy in energies]
            exact = np.array([[complex(mpmath.fsum(vectors[i, k] * vectors[j, k] * phase
                                                   for k, phase in enumerate(phases)))
                               for j in range(2)] for i in range(2)])
            assert np.abs(sz - exact).max() <= per_z * z


def test_scattering_array_is_bit_for_bit_on_fig5_shapes(monkeypatch):
    # fig5's first chain and grid: one distance of each of the grid's 12
    # series lengths, read off the whole grid's array, against scattering(z).
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat = LatticeReservoir(sigma=100.0, rho=5.0, n_sites=1510)
    grid = np.linspace(0.0, 3.0, 301)
    s, det = LatticePropagator(params, lat).scattering_array(grid)
    _, picks = np.unique(LatticePropagator(params, lat)._sizes(grid), return_index=True)
    assert picks.size == 12
    shared = LatticePropagator(params, lat)
    for i in picks[::-1]:  # the shared propagator's moments grow first for the farthest
        for prop in (shared, LatticePropagator(params, lat)):
            record = prop.scattering(grid[i])
            assert np.array_equal(record.as_array(), s[i])
            assert record.determinant == det[i]
    monkeypatch.setattr(reservoir, "_BLOCK_SAMPLES", 140)
    monkeypatch.setattr(reservoir, "_GENERATING_SAMPLES", 140)  # the moments' pass too
    split = LatticePropagator(params, lat).scattering_array(grid)
    assert np.array_equal(split[0], s) and np.array_equal(split[1], det)


class EveryMultipleOfTheStep(LatticePropagator):
    """Series lengths rounded up to a multiple of _TERMS_STEP at every length."""

    def _sizes(self, z):
        super()._sizes(z)  # the refusals
        terms = reservoir._chebyshev_terms(self._radius * z)
        return 2 * reservoir._TERMS_STEP * np.ceil(terms / reservoir._TERMS_STEP).astype(int)


def test_long_chains_share_a_few_tables_and_keep_their_s(monkeypatch):
    # fig5 --zmax 1000's second chain: 301 distances of up to 5e4 terms. Rounded up to
    # eight lengths per octave, they need at most 64 tables (301 at every multiple of the
    # step) and no longer moment series; S moves by round-off only. Measured: 5.5e-14.
    params = CouplerParams(0.0, 0.0, 1.0, 0.0)
    lat, zs = LatticeReservoir(20.0, 10.0, min_lattice_size(20.0, 1000.0)), np.linspace(0.0, 1000.0, 301)
    sizes, tables = [], LatticePropagator._tables
    monkeypatch.setattr(LatticePropagator, "_tables",
                        staticmethod(lambda moments, size: sizes.append(size) or tables(moments, size)))
    s, det = LatticePropagator(params, lat).scattering_array(zs)
    assert len(sizes) <= 64
    prop = EveryMultipleOfTheStep(params, lat)
    terms = reservoir._chebyshev_terms(prop._radius * zs[-1])
    assert max(sizes) // 2 <= 2 ** math.ceil(math.log2(terms))
    sizes.clear()
    s_every, det_every = prop.scattering_array(zs)
    assert len(sizes) == 301
    assert np.abs(s - s_every).max() <= 1e-13 and np.abs(det - det_every).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 10**6])
@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e-9, 1e6])
@pytest.mark.parametrize("rho_per_sigma", [0.0, 1e3])
def test_extreme_chains_raise_no_floating_point_fault(n, sigma, rho_per_sigma):
    # sigma <= 1e-155 squares (E - d) / (2 sigma) past the largest double
    # unless lam is taken from its reciprocal.
    params = CouplerParams(0.3, -0.4, 1.0, 0.0)
    prop = LatticePropagator(params, LatticeReservoir(sigma, rho_per_sigma * sigma, n))
    answered = 0
    for z in (0.0, 1e-7, 1e-6, 30.0):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                s, det = prop.scattering_array(np.array([z]))  # checked
            except ValueError as exc:
                assert str(exc).startswith("chain reservoir too large: ")
                continue
        assert np.isfinite(s).all() and np.isfinite(det).all()
        answered += 1
    assert answered >= 2  # z = 0 and 1e-7 are within every limit


def test_long_series_memory_is_bounded():
    # One distance of about 1e5 terms on the shortest chain: the moments'
    # samples are evaluated in blocks, not all at once.
    prop = LatticePropagator(CouplerParams(0.0, 0.0, 1.0, 0.0), LatticeReservoir(20.0, 5.0, 1))
    z = 16_000.0
    assert 9e4 < reservoir._chebyshev_terms(prop._radius * z) < 1.1e5
    tracemalloc.start()
    try:
        prop.scattering(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
