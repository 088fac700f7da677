import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ptcoupler.classical import (
    EP_DISCRIMINANT_TOL,
    SupermodePair,
    classical_power_curve,
    classify_ep,
    supermodes,
)
from ptcoupler.core import ClassicalInput, CouplerParams, PropagationGrid
from ptcoupler.scattering import scattering_matrix

from oracles import coupler_matrix

SQRT_3_4 = 0.8660254037844386  # sqrt(3)/2
TWO_E_INV = 0.7357588823428847  # 2 exp(-1)
E_INV = 0.36787944117144233

kappas = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
gamma_ratios = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
betas = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_coupler_matrix_transcription():
    m = coupler_matrix(CouplerParams(0.0, 0.0, 1.0, 2.0))
    assert m.shape == (2, 2) and m.dtype == complex
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, -2.0j]]))

    m = coupler_matrix(CouplerParams(0.0, 0.0, 1.0, 0.0))
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(m - m.conj().T).max() == 0.0

    m = coupler_matrix(CouplerParams(1.0, 2.0, 0.5, 0.3))
    assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 2.0 - 0.3j]]))


def test_supermodes_lossless_pair():
    pair = supermodes(CouplerParams(0.0, 0.0, 1.0, 0.0))
    assert {pair.lambda1, pair.lambda2} == {-1.0 + 0.0j, 1.0 + 0.0j}
    # tie on Im broken by ascending Re
    assert pair.lambda1 == -1.0


def test_supermodes_coalesce_exactly():
    pair = supermodes(CouplerParams(0.0, 0.0, 1.0, 2.0))
    assert pair.lambda1 == pair.lambda2 == -1.0j
    assert pair.gap() == 0.0


def test_supermodes_below_coalescence_value():
    pair = supermodes(CouplerParams(0.0, 0.0, 1.0, 1.0))
    assert abs(pair.lambda1 - (-SQRT_3_4 - 0.5j)) < 1e-15
    assert abs(pair.lambda2 - (SQRT_3_4 - 0.5j)) < 1e-15
    assert pair.gap() == pytest.approx(2.0 * SQRT_3_4, abs=1e-15)


def test_supermode_ordering_above_coalescence():
    # Above the crossing both roots are imaginary; the slow one comes first.
    pair = supermodes(CouplerParams(0.0, 0.0, 1.0, 10.0))
    assert pair.lambda1.imag > pair.lambda2.imag


def test_supermodes_reject_growing_mode():
    with pytest.raises(ValueError, match="imaginary"):
        SupermodePair(1.0j, -1.0j)


@given(beta1=betas, beta2=betas, kappa=kappas, ratio=gamma_ratios)
def test_trace_consistency(beta1, beta2, kappa, ratio):
    p = CouplerParams(beta1, beta2, kappa, ratio * kappa)
    pair = supermodes(p)
    trace = p.beta1 + p.beta2 - 1j * p.gamma
    assert abs(pair.lambda1 + pair.lambda2 - trace) < 1e-12 * max(1.0, abs(trace))


def test_classify_ep_regimes():
    assert classify_ep(CouplerParams(0.0, 0.0, 1.0, 0.5)) == "below"
    assert classify_ep(CouplerParams(0.0, 0.0, 1.0, 2.0)) == "at"
    assert classify_ep(CouplerParams(0.0, 0.0, 1.0, 10.0)) == "above"


def test_classify_ep_discriminant_and_tolerance_scale():
    assert classify_ep(CouplerParams(0.0, 0.0, 2.0, 1.0)) == "below"
    # the "at" band is relative to kappa^2
    eps = 0.5 * EP_DISCRIMINANT_TOL
    assert classify_ep(CouplerParams(0.0, 0.0, 1.0, 2.0 * math.sqrt(1.0 - eps))) == "at"


@pytest.mark.parametrize("kappa", [1e-170, 1e170])
@pytest.mark.parametrize("ratio, regime", [(0.5, "below"), (2.0, "at"), (10.0, "above")])
def test_classify_ep_and_supermodes_at_any_scale(kappa, ratio, regime):
    # kappa^2 - (gamma/2)^2 under- or overflows at these scales; the sign is
    # read in units of a power of two near kappa.
    p = CouplerParams(0.0, 0.0, kappa, ratio * kappa)
    assert classify_ep(p) == regime
    unit = supermodes(CouplerParams(0.0, 0.0, 1.0, ratio))
    assert supermodes(p).gap() == pytest.approx(kappa * unit.gap(), rel=1e-15, abs=0.0)
    if ratio == 0.5:
        assert supermodes(p).gap() == pytest.approx(2.0 * math.sqrt(1.0 - 0.0625) * kappa, rel=1e-15)


def test_classify_ep_rejects_detuned():
    with pytest.raises(ValueError, match="supermodes"):
        classify_ep(CouplerParams(0.0, 1.0, 1.0, 0.5))


# A launch (c1, c2) propagates to S (c1, c2): arm 1's launch is S's first column.

def test_propagate_lossless_full_transfer():
    out = np.asarray(scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 0.0), math.pi / 2))[:, 0]
    assert abs(out[0]) < 1e-12
    assert abs(out[1] + 1j) < 1e-12


def test_propagate_identity_at_zero():
    out = np.asarray(scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 0.0), 0.0))[:, 1]
    assert np.array_equal(out, np.array([0.0, 1.0], dtype=complex))


def test_propagate_at_coalescence_point():
    out = np.asarray(scattering_matrix(CouplerParams(0.0, 0.0, 1.0, 2.0), 1.0))[:, 0]
    assert abs(out[0] - TWO_E_INV) < 1e-15
    assert abs(out[1] + 1j * E_INV) < 1e-15


def test_power_conserved_without_loss():
    grid = PropagationGrid(10.0, 101)
    for inp in ClassicalInput:
        curve = classical_power_curve(CouplerParams(0.0, 0.0, 1.0, 0.0), inp, grid)
        assert np.abs(curve.values() - 1.0).max() < 1e-12


def test_power_curve_labels():
    grid = PropagationGrid(1.0, 3)
    p = CouplerParams(0.0, 0.0, 1.0, 0.5)
    assert classical_power_curve(p, ClassicalInput.SINGLE_WAVEGUIDE, grid).label == (
        "power_single_waveguide"
    )
    assert classical_power_curve(p, ClassicalInput.BALANCED_ORTHOGONAL, grid).label == (
        "power_balanced_orthogonal"
    )


def test_power_curve_rejects_foreign_input():
    p = CouplerParams(0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="classical input"):
        classical_power_curve(p, "single_waveguide", PropagationGrid(1.0, 3))


@given(beta1=betas, beta2=betas, kappa=kappas, ratio=gamma_ratios,
       inp=st.sampled_from(list(ClassicalInput)))
def test_power_never_increases(beta1, beta2, kappa, ratio, inp):
    p = CouplerParams(beta1, beta2, kappa, ratio * kappa)
    curve = classical_power_curve(p, inp, PropagationGrid(10.0 / kappa, 200))
    assert np.all(np.diff(curve.values()) <= 1e-12)


def test_anomalous_decay_exponent_at_coalescence():
    # Power compensated by the uniform loss grows algebraically, ~ z^2:
    # the log-log correction settles to a constant over kz in [10, 20].
    p = CouplerParams(0.0, 0.0, 1.0, 2.0)
    grid = PropagationGrid(20.0, 2001)
    curve = classical_power_curve(p, ClassicalInput.BALANCED_ORTHOGONAL, grid)
    zs = curve.z_values()
    mask = zs >= 10.0
    corr = np.log(curve.values()[mask] * np.exp(p.gamma * zs[mask])) - 2.0 * np.log(zs[mask])
    assert np.abs(np.diff(corr)).max() < 0.02


def test_below_coalescence_beat_period():
    p = CouplerParams(0.0, 0.0, 1.0, 0.5)
    omega = math.sqrt(p.kappa**2 - 0.25 * p.gamma**2)
    period = math.pi / omega
    curve = classical_power_curve(p, ClassicalInput.BALANCED_ORTHOGONAL,
                                  PropagationGrid(4.0 + period, 801))
    z_all = curve.z_values()
    v = curve.values() * np.exp(p.gamma * z_all)
    shifted = np.interp(z_all[z_all <= 4.0] + period, z_all, v)
    base = v[z_all <= 4.0]
    assert np.abs(shifted - base).max() < 0.01 * np.abs(base).max()


def test_loss_induced_transparency_single_arm():
    grid = PropagationGrid(3.0, 4)
    at = lambda g: classical_power_curve(
        CouplerParams(0.0, 0.0, 1.0, g), ClassicalInput.SINGLE_WAVEGUIDE, grid
    ).values()[-1]
    assert at(10.0) > at(2.0)
