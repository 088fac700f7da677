"""Explicit loss channel: the lossy arm side-coupled to a waveguide array.

A tight-binding chain (hopping sigma, on-site constant beta_lattice)
carries a band beta_lattice + 2 sigma cos k of half-width 2 sigma. Arm 2
sits next to the array and couples with strength rho to the single guide
closest to it, a guide in the bulk: the array continues in both
directions, so the Bloch modes e^{ikj}/sqrt(2 pi) are all reached with
the same weight, g(k) = rho / sqrt(2 pi) flat across the whole zone.
Tracing the chain out at weak coupling then gives the memoryless rate

    gamma = pi * sum_{k0} |g(k0)|^2 / |beta'(k0)|  =  rho^2 / (2 sigma)

summed over the band states resonant with arm 2 (lattice_gamma).
(Attaching to the END of a half-infinite chain would not reproduce this:
the surface spectral density doubles the rate. The finite chain here
therefore hangs off its middle site.) No rate survives when arm 2 sits
outside the band; the excitation then hybridizes into bound states
instead of decaying.

The chain is kept finite here, which is exact until the propagated front
(group velocity at most 2 sigma) reaches the far end and wraps back;
min_lattice_size picks a length with a safety margin against that. Of the
full single-photon problem H only the arms' propagator S is computed: H is
real symmetric, so S(z) at any coupling strength is a Chebyshev series
(LatticePropagator) with real 2x2 coupler-block moments, which the chain's
closed-form Green's function gives with no pass over the chain: Re S sums
the even orders against cos samples, Im S the odd ones against sin samples.
scattering_array gives S for a whole array of distances in one call, the
array form of the Markovian scattering.scattering_array, so both backends
hand the observables one propagator array. Costs and limits: see
LatticePropagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CouplerParams,
    ScatteringMatrix,
    check_propagators,
    entrywise_determinants,
    _validate,
)

__all__ = [
    "LatticeReservoir",
    "lattice_gamma",
    "min_lattice_size",
    "full_hamiltonian",
    "LatticePropagator",
    "nonmarkovian_scattering",
]


# Limits of one request, checked before anything is allocated. A distance z
# needs M = _chebyshev_terms(r z) terms, and S costs O(M log M) time and O(M)
# memory whatever the chain length: _MAX_TERMS caps M at the farthest distance
# (about 2.5 s and 0.37 GB at the cap on a 2-vCPU x86 machine). The chain's
# length enters S only through lam^{2n}, by squaring; but within M terms the
# front (group velocity 2 sigma <= r) runs at most M sites from the middle one,
# so a chain above _MAX_SITES sites gives the S of a shorter one up to the
# evanescent tail past the front, and is refused.
_MAX_TERMS = 500_000
_MAX_SITES = 10**7

# Series lengths are rounded up to a multiple of this, so that nearby
# distances share one transform of the moments.
_TERMS_STEP = 64
# Samples per block: of distances, bounding their temporaries; of the moments' generating
# function, keeping its complex temporaries in cache and fig5's longest series (4097) in one call.
_BLOCK_SAMPLES, _GENERATING_SAMPLES = 1 << 15, 1 << 13


def _chebyshev_terms(x):
    """Number of terms of e^{-ixt} = sum_m (2 - delta_m0) (-i)^m J_m(x) T_m(t)
    on [-1, 1] past which every |J_m(x)| is below 1e-20: J_m(x) dies within
    about 10 x^(1/3) past m = x."""
    return x + 12.0 * x ** (1.0 / 3.0) + 20.0


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


def lattice_gamma(sigma: float, rho: float) -> float:
    """Memoryless rate rho^2 / (2 sigma) of the band-centered chain. Where rho^2
    or 2 sigma alone overflows, the rate is formed as rho ((rho / 2) / sigma),
    whose factors do not overflow where the rate does not; a rate past the
    float range is refused."""
    if not (math.isfinite(sigma) and math.isfinite(rho)):
        raise ValueError("sigma and rho must be finite")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if rho * rho < math.inf and 2.0 * sigma < math.inf:
        gamma = rho * rho / (2.0 * sigma)
    else:
        gamma = rho * (0.5 * rho / sigma)
    if gamma == math.inf:
        raise ValueError(f"sigma = {sigma:g} and rho = {rho:g} give a rate rho^2 / (2 sigma) "
                         "past the float range")
    return gamma


def min_lattice_size(sigma: float, z_max: float) -> int:
    """Chain length for which reflections off the chain ends cannot act
    back on the coupler within z_max: ceil(2.5 * 2 sigma * z_max) + 10.
    The front moves at group velocity at most 2 sigma and must run from
    the mid-chain attachment point to a wall and back, a round trip of
    about n sites; the factor 2.5 is a safety margin on the causal reach
    and the additive constant covers evanescent leakage at small arguments."""
    for name, value in (("sigma", sigma), ("z_max", z_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    reach = 2.5 * 2.0 * sigma * z_max
    if not math.isfinite(reach):
        raise ValueError(f"no finite chain length covers sigma = {sigma!r} and z_max = {z_max!r}")
    return int(math.ceil(reach)) + 10


def _require_lossless(params: CouplerParams) -> None:
    _validate(params)
    if params.gamma != 0.0:
        raise ValueError("intrinsic loss and explicit reservoir are mutually exclusive")


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
    _require_lossless(params)
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


class LatticePropagator:
    """Arm block S(z) of the propagator e^{-iHz} of the coupler + chain system;
    H is never built.

    A Gershgorin bound puts the spectrum of H in [c - r, c + r], and

        e^{-iHz} = e^{-icz} sum_m (2 - delta_m0) (-i)^m J_m(rz) T_m((H - c) / r)

    (Tal-Ezer & Kosloff 1984). The coupler block needs only the 2x2 moments
    mu_m = <a|T_m((H - c) / r)|b> between the two arms (the kernel-polynomial
    moments of Weisse et al. 2006). With E = (zeta + 1 / zeta) / 2,

        sum_m mu_m zeta^m = (1 - zeta^2) / (4 zeta) G(E) + I / 2,

    G(E) the arms' block of (E - (H - c) / r)^{-1}, a closed form once the
    uniform chain is eliminated (Economou, Green's Functions in Quantum
    Physics, ch. 5). H is real symmetric, so the moments are real and, before the
    phase e^{-icz}, Re S sums the even orders (2 - delta_m0) (-1)^{m/2} J_m(rz) mu_m
    and Im S the odd ones -2 (-1)^{(m-1)/2} J_m(rz) mu_m. A distance z needs
    M ~ rz + O((rz)^{1/3}) terms, so S(z) costs O(M log M) time and O(M) memory
    whatever the chain length; the moments are kept and extended on demand.

    scattering_array(z) evaluates a whole array of distances in one call: S with
    shape z.shape + (2, 2) and the entrywise determinants, shape z.shape. The
    distances are grouped by series length; each length's moments are folded once
    into real tables of the even and odd orders (_tables), and each distance's cos
    and sin samples against them give Re S and Im S, in row blocks of bounded size:
    a further distance of a known length costs O(M) time, and memory does not grow
    with distances x terms. scattering(z) is that array call at one distance,
    checked by the ScatteringMatrix record it returns. A chain above _MAX_SITES
    sites, or a farthest distance whose series passes _MAX_TERMS terms, is refused
    with ValueError before anything is allocated.
    """

    def __init__(self, params: CouplerParams, lattice: LatticeReservoir):
        _require_lossless(params)
        self.params = params
        self.lattice = lattice
        self.size = lattice.n_sites + 2
        self._mid = 2 + (lattice.n_sites - 1) // 2
        chain = lattice.sigma * min(2, lattice.n_sites - 1) + lattice.rho
        discs = (
            (params.beta1, params.kappa),
            (params.beta2, params.kappa + lattice.rho),
            (lattice.beta_lattice, chain),
        )
        lo = min(center - radius for center, radius in discs)
        hi = max(center + radius for center, radius in discs)
        # The couplings, not the spread of the propagation constants, set the width when
        # one disc holds the others; _sizes's refusal then names sigma.
        self._couplings_set_width = any((lo, hi) == (c - radius, c + radius) for c, radius in discs)
        self._center = 0.5 * (lo + hi)
        self._radius = 0.5 * (hi - lo)
        c, r = self._center, self._radius
        if not (math.isfinite(c) and 0.0 < r < math.inf):  # the scale of (H - c) / r
            raise ValueError(f"chain reservoir out of range: sigma = {lattice.sigma:g} and rho = "
                             f"{lattice.rho:g} give a spectral centre {c:g} and width {2 * r:g}")
        self._entries = (  # of (H - c) / r
            (params.beta1 - c) / r, (params.beta2 - c) / r, (lattice.beta_lattice - c) / r,
            params.kappa / r, lattice.rho / r, lattice.sigma / r,
        )
        self._moments = np.empty((0, 4))  # mu_m, row-major
        self._table_size, self._table = 0, None

    def _sizes(self, z: np.ndarray) -> np.ndarray:
        """The series length N of each distance, an FFT length whose half
        N / 2 >= M is the number of terms, once every distance is finite and
        non-negative, the chain within _MAX_SITES sites and the farthest
        distance's series within _MAX_TERMS terms."""
        if not (np.isfinite(z).all() and (z >= 0.0).all()):
            raise ValueError("z must be finite and non-negative")
        sigma, n = self.lattice.sigma, self.lattice.n_sites
        if self.size > _MAX_SITES:  # n may be an integer past any float
            count = f"{n:.3g}" if n < 1e300 else f"{str(n)[0]}e+{len(str(n)) - 1}"
            raise ValueError(f"chain reservoir too large: sigma = {sigma:g} and n_sites = {count}; "
                             f"the limit is {_MAX_SITES:.0e} sites")
        far = float(z.max(initial=0.0))
        # In Python floats, where r z overflows to inf silently; NaN is refused too.
        if not _chebyshev_terms(float(self._radius) * far) <= _MAX_TERMS:
            p, width = self.params, f"sigma = {sigma:g}"
            if not self._couplings_set_width:
                width = (f"the spectral width {2 * self._radius:g} (beta1 = {p.beta1:g}, beta2 = "
                         f"{p.beta2:g}, beta_lattice = {self.lattice.beta_lattice:g})")
            raise ValueError(f"chain reservoir too large: {width} and z = {far:g} "
                             f"need a longer series; the limit is {_MAX_TERMS:.0e} terms")
        terms = _chebyshev_terms(self._radius * z)
        return 2 * _TERMS_STEP * np.ceil(terms / _TERMS_STEP).astype(int)

    def _samples(self, z, size: int) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of rz sin(tau_k), tau_k = 2 pi k / N, k = 0 .. N / 4, for each distance z
        (last axis). By Jacobi-Anger, (1 / N) sum_k cos(rz sin tau_k) cos(m tau_k) over the N-point
        period is J_m(rz) for even m < N / 2, and so is (1 / N) sum_k sin(rz sin tau_k) sin(m tau_k)
        for odd m, up to orders beyond N / 2 >= M, where J is negligible. sin(pi - tau) = sin(tau)
        and sin(tau + pi) = -sin(tau) give the rest of the period."""
        sines = np.sin(np.arange(size // 4 + 1) * (2.0 * math.pi / size))
        phases = np.multiply.outer(self._radius * z, sines)
        return np.cos(phases), np.sin(phases)

    def _generating(self, delta: float, theta: np.ndarray) -> np.ndarray:
        """Entries 00, 01, 11 of sum_m mu_m zeta^m = sinh(w) / 2 G(cosh w) + I / 2 at zeta =
        e^{-w}, w = delta + i theta. A segment of k chain sites ends in g_k = lam (1 - lam^2k) /
        (sigma (1 - lam^{2k+2})), sigma (lam + 1 / lam) = E - d_chain: lam = u / (1 + sqrt((1 - u)
        (1 + u))), u = 2 sigma / (E - d_chain), the principal root giving |lam| <= 1 unbranched."""
        d1, d2, d_chain, kappa, rho, sigma = self._entries
        cos, sin = np.cos(theta), np.sin(theta)
        e = math.cosh(delta) * cos + 1j * (math.sinh(delta) * sin)  # cosh w
        u = (2.0 * sigma) / (e - d_chain)
        lam = u / (1.0 + np.sqrt((1.0 - u) * (1.0 + u)))
        lam2 = lam * lam
        left, right = self._mid - 2, self.size - 1 - self._mid  # right is left or left + 1
        power = np.ones_like(lam)
        for bit in f"{left:b}":  # lam^2left by squaring
            power = power * power * lam2 if bit == "1" else power * power
        ends = 0.0  # sigma (g_left + g_right), the sites either side of the middle one
        for k in filter(None, (left, right)):
            power = power * lam2 if k > left else power
            ends = ends + lam * (1.0 - power) / (1.0 - power * lam2)
        a, b = e - d1, e - d2 - rho * rho / (e - d_chain - sigma * ends)  # rho^2 g_mid
        sinh = math.sinh(delta) * cos + 1j * (math.cosh(delta) * sin)  # sinh w
        scale = sinh / (2.0 * (a * b - kappa * kappa))
        return np.stack((scale * b + 0.5, scale * kappa, scale * a + 0.5))

    def _moments_upto(self, count: int) -> np.ndarray:
        """mu_m for m < count, as a (count, 4) array of the row-major 2x2
        blocks. Moments [hi / 2, hi) (the first block [0, _TERMS_STEP)) are one
        inverse FFT of N / 2 + 1 samples, N = 8 hi, of the generating function on
        |zeta| = e^{-delta}, delta = 40 / N: e^{-delta m} mu_m up to aliasing e^{-40} and
        round-off eps e^{delta m} / delta, delta m < 5. So no result depends on call history."""
        while len(self._moments) < count:
            lo, hi = len(self._moments), max(2 * len(self._moments), _TERMS_STEP)
            size, delta, half = 8 * hi, 5.0 / hi, 4 * hi + 1
            samples = np.empty((3, half), dtype=complex)
            for start in range(0, half, _GENERATING_SAMPLES):
                theta = np.arange(start, min(start + _GENERATING_SAMPLES, half)) * (2.0 * math.pi / size)
                samples[:, start : start + theta.size] = self._generating(delta, theta)
            growth = np.exp(delta * np.arange(lo, hi))
            m00, m01, m11 = np.fft.irfft(samples, size)[:, lo:hi] * growth
            self._moments = np.concatenate((self._moments, np.stack((m00, m01, m01, m11), axis=1)))
        return self._moments[:count]

    def _tables(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """C and D, shape (3, N / 4 + 1) for the entries 00, 01 and 11, with sum_m (2 - delta_m0)
        (-i)^m J_m(rz) mu_m = sum_k (cos_k C_k + i sin_k D_k) for the samples of _samples. With
        a_m = (2 - delta_m0) (-1)^floor(m/2) mu_m, m < N / 2, C_k is (1 / N) sum_{m even} a_m
        cos(m tau) and D_k -(1 / N) sum_{m odd} a_m sin(m tau), summed over the tau whose samples
        are those at tau_k (four; two at k = 0, N / 4): one real FFT of a, folded at tau and
        pi - tau. The tables of the last N are kept."""
        if self._table_size != size:
            half, q = size // 2, size // 4
            signs = np.where(np.arange(half) & 2, -4.0, 4.0) / size
            signs[0] *= 0.5
            f = np.fft.rfft(signs * self._moments_upto(half)[:, (0, 1, 3)].T, size)
            fold = f[:, : q + 1] + f[:, 2 * q : q - 1 : -1]
            fold[:, (0, q)] *= 0.5
            self._table_size, self._table = size, (fold.real.copy(), fold.imag.copy())
        return self._table

    def scattering_array(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Propagators restricted to the two coupler arms at every distance
        of the array z: S with shape z.shape + (2, 2) and the entrywise
        determinants (no reduced form exists), shape z.shape. Every matrix
        passes the checks of ScatteringMatrix (check_propagators)."""
        z = np.asarray(z, dtype=float)
        sizes = self._sizes(z).ravel()  # before anything of the chain's length
        flat = z.ravel()
        blocks = np.empty((flat.size, 4), dtype=complex)  # row-major 2x2; S is symmetric
        for size in sorted(set(sizes.tolist())):
            group = np.flatnonzero(sizes == size)
            even, odd = self._tables(size)
            rows = max(1, _BLOCK_SAMPLES // (size // 4 + 1))
            for start in range(0, group.size, rows):
                part = group[start : start + rows]
                cos, sin = self._samples(flat[part], size)
                # One reduction per distance and entry: S does not depend on the block.
                blocks.real[part[:, None], (0, 1, 3)] = np.einsum("rk,ek->re", cos, even)
                blocks.imag[part[:, None], (0, 1, 3)] = np.einsum("rk,ek->re", sin, odd)
        blocks[:, 2] = blocks[:, 1]
        blocks *= np.exp(-1j * self._center * flat)[:, None]
        check_propagators(blocks.T)  # rows s11, s12, s21, s22
        s = blocks.reshape(z.shape + (2, 2))
        return s, entrywise_determinants(s)

    def scattering(self, z: float) -> ScatteringMatrix:
        """Propagator restricted to the two coupler arms: scattering_array at
        one distance, checked by the ScatteringMatrix record it returns."""
        s, _ = self.scattering_array(np.array([z], dtype=float))
        return ScatteringMatrix(s[0], z=float(z))


def nonmarkovian_scattering(
    params: CouplerParams, lattice: LatticeReservoir, z: float
) -> ScatteringMatrix:
    """Exact coupler-block propagator with the chain traced explicitly.

    Convenience wrapper building the series moments per call; build a
    LatticePropagator once when many distances are needed.
    """
    return LatticePropagator(params, lattice).scattering(z)
