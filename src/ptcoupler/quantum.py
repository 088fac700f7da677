"""Two-photon observables of the lossy coupler.

The photon Hamiltonian is quadratic, so every two-photon quantity factors
through the single-photon transfer matrix S. Launching one photon into
each arm:

  indistinguishable pair  P_B = 2|S11 S12|^2 + 2|S21 S22|^2 + |S11 S22 + S12 S21|^2
  antisymmetric pair      P_F = |det S|^2
  exchange phase phi      P = cos^2(phi/2) P_B + sin^2(phi/2) P_F

The entangled pair is the symmetric pair times cos(phi/2) plus the
antisymmetric one times sin(phi/2), up to phases. S keeps each amplitude
matrix (anti)symmetric, and the two parts do not interfere in the survival
sum: sum_nm A_nm B_nm* = 0 for A symmetric, B antisymmetric. For the bare
coupler P_F = e^{-2 gamma z} in every regime, so the coalescence enters P
only through P_B, whose weight vanishes at phi = pi.

survival_curve evaluates any of these along a grid against either the
closed-form coupler propagator (memoryless loss, no reservoir) or the exact
propagator of a LatticeReservoir. two_photon_oracle is an independent check:
it evolves the two-photon amplitude matrix A(z) = U A(0) U^T with a dense
matrix exponential and takes norms, never touching the formulas above.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CouplerParams,
    DecayCurve,
    Indistinguishable,
    PolarizationEntangled,
    PropagationGrid,
    ScatteringMatrix,
    TwoPhotonInput,
)
from .reservoir import LatticePropagator, LatticeReservoir
# scattering_matrix stays bound: perfbench/tracing.py wraps it where it is bound.
from .scattering import scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "survival_indistinguishable",
    "survival_entangled",
    "survival_fermionic",
    "mean_photon_number",
    "survival_curve",
    "two_photon_oracle",
]

# Probabilities may stray past [0, 1] by accumulated roundoff only; any
# larger excursion is a formula bug and is raised, not clamped.
_EXCURSION_TOL = 1e-12


def _clamp_probability(p, what: str):
    """p (a number or an array) clipped to [0, 1]; raises RuntimeError
    naming the first value that strays beyond roundoff."""
    p = np.asarray(p, dtype=float)
    bad = (p < -_EXCURSION_TOL) | (p > 1.0 + _EXCURSION_TOL)
    if bad.any():
        raise RuntimeError(f"{what} = {float(p[bad][0])!r} lies outside [0, 1] beyond roundoff")
    return np.clip(p, 0.0, 1.0)


def _bunching(s) -> tuple[np.ndarray, ...]:
    """p20, p02, p11 of the indistinguishable pair over a batch, unclamped."""
    s = np.asarray(s)
    s11, s12, s21, s22 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    return (2.0 * np.abs(s11 * s12) ** 2, 2.0 * np.abs(s21 * s22) ** 2,
            np.abs(s11 * s22 + s12 * s21) ** 2)


# The observables below read s through np.asarray: one ScatteringMatrix (or
# one 2x2 array) gives a float, an array of matrices (..., 2, 2) an array of
# shape (...).

def survival_indistinguishable(s) -> float | np.ndarray:
    """Probability that both photons of the bosonic pair stay guided."""
    p20, p02, p11 = _bunching(s)
    return _clamp_probability(p20 + p02 + p11, "survival")


def survival_fermionic(s, det=None) -> float | np.ndarray:
    """Pair survival for the antisymmetric (phi = pi) input: |det S|^2, of
    the determinant a ScatteringMatrix carries or of det (shape (...)), which
    an array of matrices must come with. The memoryless coupler's reduced
    determinant gives e^{-2 gamma z} to a few ulp at any distance, where the
    entrywise product difference cancels."""
    if isinstance(s, ScatteringMatrix):
        det = s.determinant
    elif det is None:
        raise ValueError("det is required with an array of matrices")
    return _clamp_probability(np.abs(det) ** 2, "survival")


def survival_entangled(s, phi, det=None) -> float | np.ndarray:
    """Pair survival of the polarization-entangled input, cos^2(phi/2) P_B +
    sin^2(phi/2) P_F: exactly P_B at phi = 0 and P_F at phi = pi. det as for
    survival_fermionic; phi, in [0, pi], may be an array broadcast against
    the batch shape of s, one P_B and P_F serving every phase."""
    if not np.all(np.greater_equal(phi, 0.0) & np.less_equal(phi, math.pi)):  # NaN too
        raise ValueError("phi must lie in [0, pi]")
    c = np.cos(phi)
    p_boson, p_fermion = survival_indistinguishable(s), survival_fermionic(s, det)
    # Both parts lie in [0, 1] and the weights sum to 1 up to roundoff.
    return np.minimum(0.5 * (1.0 + c) * p_boson + 0.5 * (1.0 - c) * p_fermion, 1.0)


def mean_photon_number(s) -> float | np.ndarray:
    """Mean guided photon number of the pair: each photon survives with its
    single-photon probability, so the expectation is the sum of the two
    column norms of S. Equals twice the balanced-orthogonal classical
    power."""
    power = np.abs(np.asarray(s)) ** 2
    p_from_arm1 = power[..., 0, 0] + power[..., 1, 0]
    p_from_arm2 = power[..., 0, 1] + power[..., 1, 1]
    return p_from_arm1 + p_from_arm2


def _survival_function(input_state: TwoPhotonInput):
    """An input's survival observable f(s, det) and curve label, formatted here only."""
    if isinstance(input_state, Indistinguishable):
        return (lambda s, det: survival_indistinguishable(s)), "survival_indistinguishable"
    if isinstance(input_state, PolarizationEntangled):
        phi = input_state.phi
        return (lambda s, det: survival_entangled(s, phi, det)), f"survival_phi_{phi:.12g}"
    raise ValueError(f"unknown two-photon input {input_state!r}")


def survival_curve(
    params: CouplerParams,
    input_state: TwoPhotonInput,
    grid: PropagationGrid,
    reservoir: LatticeReservoir | None = None,
) -> DecayCurve:
    """Pair survival along the grid: memoryless loss at params.gamma when
    reservoir is None, else the chain reservoir traced explicitly."""
    fn, label = _survival_function(input_state)
    zs = grid.points()
    if reservoir is None:
        s, det = scattering_array(params, zs)
    elif isinstance(reservoir, LatticeReservoir):
        s, det = LatticePropagator(params, reservoir).scattering_array(zs)
    else:
        raise ValueError(f"unknown reservoir {reservoir!r}")
    return DecayCurve.from_arrays(label, zs, fn(s, det))


def _pair_amplitudes(u: np.ndarray, input_state: TwoPhotonInput) -> np.ndarray:
    """Two-photon amplitude matrix A(z) = U A(0) U^T for the given input.

    For the indistinguishable pair A is symmetric with the normalization
    sum 2|A_nm|^2 = 1; for the entangled pair the two polarization sectors
    are distinguishable and the plain squared sum is the norm.
    """
    n = u.shape[0]
    a0 = np.zeros((n, n), dtype=complex)
    if isinstance(input_state, Indistinguishable):
        a0[0, 1] = a0[1, 0] = 0.5
    elif isinstance(input_state, PolarizationEntangled):
        rt = 1.0 / math.sqrt(2.0)
        a0[0, 1] = rt
        a0[1, 0] = rt * np.exp(1j * input_state.phi)
    else:
        raise ValueError(f"unknown two-photon input {input_state!r}")
    return u @ a0 @ u.T


def two_photon_oracle(h, input_state: TwoPhotonInput, z: float) -> float:
    """Brute-force pair survival from the full single-photon matrix h.

    Exponentiates h densely (scaling and squaring), evolves the two-photon
    amplitude matrix by congruence and sums the squared amplitudes with
    both photons still in the first two basis states. Shares no code with
    the closed-form survival functions; intended as their cross-check.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise ValueError("h must be a square matrix of size >= 2")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError("z must be finite and non-negative")
    try:  # imported here so that importing ptcoupler loads no scipy
        import scipy.linalg
    except ImportError as exc:
        raise ImportError("two_photon_oracle needs scipy: install the test extra, ptcoupler[test]") from exc

    u = scipy.linalg.expm(-1j * z * h)
    a = _pair_amplitudes(u, input_state)
    weight = 2.0 if isinstance(input_state, Indistinguishable) else 1.0
    p = weight * float(np.sum(np.abs(a[:2, :2]) ** 2))
    return _clamp_probability(p, "oracle survival")
