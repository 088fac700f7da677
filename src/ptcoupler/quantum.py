"""Two-photon observables of the lossy coupler.

The photon Hamiltonian is quadratic, so every two-photon quantity factors
through the single-photon transfer matrix S. Launching one photon into
each arm:

  indistinguishable pair  P = 2|S11 S12|^2 + 2|S21 S22|^2 + |S11 S22 + S12 S21|^2
  exchange phase phi      P = 2 cos^2(phi/2) (|S11 S12|^2 + |S21 S22|^2)
                              + |S11 S22|^2 + |S12 S21|^2
                              + 2 cos(phi) Re(S11 S22 S12* S21*)
  phi = pi (fermionic)    P = |det S|^2

The fermionic case contracts to the determinant alone, which for the bare
coupler is insensitive to the eigenvalue structure: |det S|^2 = e^{-2 gamma z}
whether below, at, or above the coalescence point. The bosonic case keeps
the permanent-like combination and feels the coalescence strongly.

survival_curve evaluates any of these along a grid against either the
closed-form coupler propagator (memoryless loss, no reservoir) or the exact
propagator of a LatticeReservoir. two_photon_oracle is an independent check:
it evolves the two-photon amplitude matrix A(z) = U A(0) U^T with a dense
matrix exponential and takes norms, never touching the formulas above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CouplerParams,
    DecayCurve,
    Indistinguishable,
    PolarizationEntangled,
    PropagationGrid,
    ScatteringMatrix,
    TwoPhotonInput,
    validate,
)
from .reservoir import LatticePropagator, LatticeReservoir
# scattering_matrix stays bound here: perfbench/tracing.py wraps it at every
# module that binds it.
from .scattering import scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "TwoPhotonOccupations",
    "occupations_indistinguishable",
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


@dataclass(frozen=True)
class TwoPhotonOccupations:
    """Final-state occupation probabilities of the photon pair: both in
    arm 1, both in arm 2, one in each, or at least one photon lost."""

    p20: float
    p02: float
    p11: float
    p_lost: float

    def __post_init__(self):
        for name in ("p20", "p02", "p11", "p_lost"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _occupations(s) -> tuple[np.ndarray, ...]:
    """p20, p02, p11, p_lost of the indistinguishable pair, over a batch."""
    s = np.asarray(s)
    s11, s12, s21, s22 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    p20 = _clamp_probability(2.0 * np.abs(s11 * s12) ** 2, "p20")
    p02 = _clamp_probability(2.0 * np.abs(s21 * s22) ** 2, "p02")
    p11 = _clamp_probability(np.abs(s11 * s22 + s12 * s21) ** 2, "p11")
    p_lost = _clamp_probability(1.0 - p20 - p02 - p11, "p_lost")
    return p20, p02, p11, p_lost


def occupations_indistinguishable(s: ScatteringMatrix) -> TwoPhotonOccupations:
    """Occupations for the indistinguishable pair, one photon per arm."""
    return TwoPhotonOccupations(*map(float, _occupations(s)))


# The observables below read s through np.asarray: one ScatteringMatrix (or
# one 2x2 array) gives a float, an array of matrices (..., 2, 2) an array of
# shape (...).

def survival_indistinguishable(s) -> float | np.ndarray:
    """Probability that both photons of the bosonic pair stay guided."""
    p20, p02, p11, _ = _occupations(s)
    return _clamp_probability(p20 + p02 + p11, "survival")


def survival_entangled(s, phi: float) -> float | np.ndarray:
    """Pair survival for the polarization-entangled input with exchange
    phase phi. phi = 0 reproduces the indistinguishable result, phi = pi
    the fermionic one; in between the interference term is weighted by
    cos(phi)."""
    phi = PolarizationEntangled(phi).phi
    s = np.asarray(s)
    s11, s12, s21, s22 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    a = s11 * s22
    b = s12 * s21
    bunching = np.abs(s11 * s12) ** 2 + np.abs(s21 * s22) ** 2
    p = (
        2.0 * math.cos(0.5 * phi) ** 2 * bunching
        + np.abs(a) ** 2
        + np.abs(b) ** 2
        + math.cos(phi) * 2.0 * (a * b.conjugate()).real
    )
    return _clamp_probability(p, "survival")


def survival_fermionic(s, det=None) -> float | np.ndarray:
    """Pair survival for the antisymmetric (phi = pi) input: |det S|^2.

    Uses the reduced determinant when there is one: the one a
    ScatteringMatrix carries, or det (shape (...)), which an array of
    matrices must come with. For the memoryless coupler this is
    e^{-2 gamma z} to a few ulp at any distance, immune to the cancellation
    that would wash out the entrywise product difference."""
    if isinstance(s, ScatteringMatrix):
        det = s.determinant
    elif det is None:
        raise ValueError("det is required with an array of matrices")
    return _clamp_probability(np.abs(det) ** 2, "survival")


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
    """An input's survival observable and curve label, formatted here only."""
    if isinstance(input_state, Indistinguishable):
        return survival_indistinguishable, "survival_indistinguishable"
    if isinstance(input_state, PolarizationEntangled):
        phi = input_state.phi
        return (lambda s: survival_entangled(s, phi)), f"survival_phi_{phi:.12g}"
    raise ValueError(f"unknown two-photon input {input_state!r}")


def survival_curve(
    params: CouplerParams,
    input_state: TwoPhotonInput,
    grid: PropagationGrid,
    reservoir: LatticeReservoir | None = None,
) -> DecayCurve:
    """Pair survival along the grid: memoryless loss at params.gamma when
    reservoir is None, else the chain reservoir traced explicitly."""
    validate(params)
    fn, label = _survival_function(input_state)
    zs = grid.points()
    if reservoir is None:
        s, _ = scattering_array(params, zs)
    elif isinstance(reservoir, LatticeReservoir):
        s, _ = LatticePropagator(params, reservoir).scattering_array(zs)
    else:
        raise ValueError(f"unknown reservoir {reservoir!r}")
    return DecayCurve.from_arrays(label, zs, fn(s))


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
    import scipy.linalg  # imported here so that importing ptcoupler loads no scipy

    u = scipy.linalg.expm(-1j * z * h)
    a = _pair_amplitudes(u, input_state)
    weight = 2.0 if isinstance(input_state, Indistinguishable) else 1.0
    p = weight * float(np.sum(np.abs(a[:2, :2]) ** 2))
    return _clamp_probability(p, "oracle survival")
