"""Explicit loss channel: the lossy arm side-coupled to a waveguide array.

A tight-binding chain (hopping sigma, on-site constant beta_lattice)
carries a band beta_lattice + 2 sigma cos k of half-width 2 sigma. Arm 2
sits next to the array and couples with strength rho to the single guide
closest to it, a guide in the bulk: the array continues in both
directions, so the Bloch modes e^{ikj}/sqrt(2 pi) are all reached with
the same weight, g(k) = rho / sqrt(2 pi) flat across the whole zone.
Tracing the chain out at weak coupling then gives the memoryless rate

    gamma = pi * sum_{k0} |g(k0)|^2 / |beta'(k0)|  =  rho^2 / (2 sigma)

summed over the band states resonant with arm 2. (Attaching to the END
of a half-infinite chain would not reproduce this: the surface spectral
density doubles the rate. The finite chain here therefore hangs off its
middle site.) No rate survives when arm 2 sits outside the band; the
excitation then hybridizes into bound states instead of decaying.

The chain is kept finite here, which is exact until the propagated front
(group velocity at most 2 sigma) reaches the far end and wraps back;
min_lattice_size picks a length with a safety margin against that. The
full single-photon problem is a real symmetric matrix, so exact dynamics
at any coupling strength comes from one eigendecomposition per system
(LatticePropagator), amortized over every requested distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexMatrix2, CouplerParams, ScatteringMatrix, validate

__all__ = [
    "LatticeReservoir",
    "GoldenRuleRate",
    "FullSystemState",
    "lattice_gamma",
    "golden_rule_gamma",
    "min_lattice_size",
    "full_hamiltonian",
    "LatticePropagator",
    "nonmarkovian_scattering",
]


@dataclass(frozen=True)
class LatticeReservoir:
    """Finite chain reservoir attached to the lossy arm.

    sigma: nearest-neighbor hopping of the chain (sets the band half-width
    2 sigma and the maximal group velocity 2 sigma). rho: coupling of arm 2
    to its nearest chain site, the middle one. n_sites: chain length.
    beta_lattice: on-site propagation constant; matching it to the arm's
    beta2 puts the arm at band center, where the decay is rate-like and
    the level shift vanishes by symmetry.
    """

    sigma: float
    rho: float
    n_sites: int
    beta_lattice: float = 0.0

    def __post_init__(self):
        for name in ("sigma", "rho", "beta_lattice"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")
        if self.n_sites < 1:
            raise ValueError("n_sites must be at least 1")

    # Continuum descriptors of the chain, for golden-rule style estimates.
    def dispersion(self, k: float) -> float:
        return self.beta_lattice + 2.0 * self.sigma * math.cos(k)

    def dispersion_derivative(self, k: float) -> float:
        return -2.0 * self.sigma * math.sin(k)

    def coupling(self, k: float) -> float:
        return self.rho / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GoldenRuleRate:
    """Weak-coupling decay rate, with a flag telling whether any band state
    is resonant. resonant=False means the rate picture does not apply
    (bound-state regime) and gamma is reported as 0."""

    gamma: float
    resonant: bool


def lattice_gamma(sigma: float, rho: float) -> float:
    """Memoryless rate rho^2 / (2 sigma) of the band-centered chain."""
    if not (math.isfinite(sigma) and math.isfinite(rho)):
        raise ValueError("sigma and rho must be finite")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    return rho * rho / (2.0 * sigma)


def golden_rule_gamma(
    dispersion,
    coupling,
    beta2: float,
    dispersion_derivative=None,
    scan_points: int = 4096,
) -> GoldenRuleRate:
    """Weak-coupling decay rate for a general band.

    Evaluates gamma = pi * sum_{k0} |g(k0)|^2 / |beta'(k0)| over the
    simple roots k0 of dispersion(k0) = beta2 on [-pi, pi). Roots are
    located by a sign-change scan refined with Brent's method. Pass the
    analytic dispersion_derivative when available; the finite-difference
    fallback costs a few digits of accuracy.
    """
    if not math.isfinite(beta2):
        raise ValueError("beta2 must be finite")
    if scan_points < 8:
        raise ValueError("scan_points must be at least 8")
    from scipy.optimize import brentq  # imported here so that importing ptcoupler loads no scipy

    def f(k: float) -> float:
        return dispersion(k) - beta2

    ks = np.linspace(-math.pi, math.pi, scan_points + 1)
    fs = np.array([f(k) for k in ks])
    if not np.all(np.isfinite(fs)):
        raise ValueError("dispersion must be finite on [-pi, pi)")

    roots: list[float] = []
    for i in range(scan_points):
        a, b = ks[i], ks[i + 1]
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(float(brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)))
    # fs[-1] is k = +pi, the same Brillouin-zone point as -pi; skip it.

    # Merge refined roots that landed in adjacent scan cells.
    spacing = 2.0 * math.pi / scan_points
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 0.5 * spacing:
            merged.append(r)

    if not merged:
        return GoldenRuleRate(0.0, resonant=False)

    scale = max(abs(float(fs.max())), abs(float(fs.min())), 1.0)
    total = 0.0
    for k0 in merged:
        if dispersion_derivative is not None:
            slope = dispersion_derivative(k0)
        else:
            h = 1e-6
            slope = (f(k0 + h) - f(k0 - h)) / (2.0 * h)
        if abs(slope) < 1e-9 * scale:
            raise ValueError(
                f"dispersion has a non-simple resonance at k = {k0!r} (band edge?)"
            )
        g = coupling(k0)
        total += math.pi * g * g / abs(slope)
    return GoldenRuleRate(total, resonant=True)


def min_lattice_size(sigma: float, z_max: float, safety: float = 2.5) -> int:
    """Chain length for which reflections off the chain ends cannot act
    back on the coupler within z_max: ceil(safety * 2 sigma * z_max) + 10.
    The front moves at group velocity at most 2 sigma and must run from
    the mid-chain attachment point to a wall and back, a round trip of
    about n sites; safety multiplies the causal reach and the additive
    constant covers evanescent leakage at small arguments."""
    if not (math.isfinite(sigma) and math.isfinite(z_max) and math.isfinite(safety)):
        raise ValueError("sigma, z_max and safety must be finite")
    if sigma <= 0.0 or z_max <= 0.0 or safety <= 0.0:
        raise ValueError("sigma, z_max and safety must be positive")
    return int(math.ceil(safety * 2.0 * sigma * z_max)) + 10


def full_hamiltonian(params: CouplerParams, lattice: LatticeReservoir) -> np.ndarray:
    """Real symmetric single-photon matrix of coupler plus chain.

    Basis order: arm 1, arm 2, then the chain sites in order along the
    open chain. Arm 2 couples to the middle site, so the array runs off
    in both directions from the attachment point and the emitted wave
    sees a bulk guide, not a chain end (an end attachment would double
    the decay rate). The coupler's gamma must be zero: the chain IS the
    loss channel here, and stacking a phenomenological rate on top of it
    would double-count.
    """
    validate(params)
    if params.gamma != 0.0:
        raise ValueError("intrinsic loss and explicit reservoir are mutually exclusive")
    n = lattice.n_sites
    h = np.zeros((n + 2, n + 2))
    h[0, 0] = params.beta1
    h[1, 1] = params.beta2
    h[0, 1] = h[1, 0] = params.kappa
    mid = 2 + (n - 1) // 2
    h[1, mid] = h[mid, 1] = lattice.rho
    for j in range(n):
        h[2 + j, 2 + j] = lattice.beta_lattice
    for j in range(n - 1):
        h[2 + j, 3 + j] = h[3 + j, 2 + j] = lattice.sigma
    return h


@dataclass(frozen=True)
class FullSystemState:
    """Amplitudes over the full basis (arm 1, arm 2, chain sites 1..n)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 3:
            raise ValueError("amplitudes must be a 1-d vector of length n_sites + 2")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, n_sites: int, index: int) -> "FullSystemState":
        amps = np.zeros(n_sites + 2, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def coupler_probability(self) -> float:
        """Probability of finding the excitation in either coupler arm."""
        return float(np.sum(np.abs(self.amplitudes[:2]) ** 2))


class LatticePropagator:
    """Spectral propagator e^{-i H z} of the coupler + chain system.

    One eigendecomposition of the real symmetric H serves every distance;
    the 2x2 coupler block, full columns and full-state evolution are all
    O(n^2) per distance afterwards.
    """

    def __init__(self, params: CouplerParams, lattice: LatticeReservoir):
        h = full_hamiltonian(params, lattice)
        self.params = params
        self.lattice = lattice
        self.size = h.shape[0]
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(h)

    def _phases(self, z: float) -> np.ndarray:
        if not math.isfinite(z) or z < 0.0:
            raise ValueError("z must be finite and non-negative")
        return np.exp(-1j * self._eigenvalues * z)

    def scattering(self, z: float) -> ScatteringMatrix:
        """Propagator restricted to the two coupler arms."""
        v2 = self._eigenvectors[:2, :]
        block = (v2 * self._phases(z)) @ v2.T
        return ScatteringMatrix(ComplexMatrix2.from_array(block), z=float(z))

    def column(self, index: int, z: float) -> np.ndarray:
        """Full amplitude vector evolved from the given basis state."""
        v = self._eigenvectors
        return v @ (self._phases(z) * v[index, :])

    def evolve(self, state: FullSystemState, z: float) -> FullSystemState:
        if state.amplitudes.size != self.size:
            raise ValueError(
                f"state has {state.amplitudes.size} amplitudes, system has {self.size}"
            )
        v = self._eigenvectors
        out = v @ (self._phases(z) * (v.T @ state.amplitudes))
        norm_in = float(np.linalg.norm(state.amplitudes))
        norm_out = float(np.linalg.norm(out))
        # H is Hermitian, so any norm drift is numerical failure, not physics.
        if abs(norm_out - norm_in) > 1e-10 * max(1.0, norm_in):
            raise RuntimeError("evolution failed to conserve the norm")
        return FullSystemState(out)


def nonmarkovian_scattering(
    params: CouplerParams, lattice: LatticeReservoir, z: float
) -> ScatteringMatrix:
    """Exact coupler-block propagator with the chain traced explicitly.

    Convenience wrapper diagonalizing per call; build a LatticePropagator
    once when many distances are needed.
    """
    return LatticePropagator(params, lattice).scattering(z)
