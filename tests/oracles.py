"""Reference oracles that only the tests use."""

import math

import numpy as np
import scipy.linalg

from ptcoupler.core import CouplerParams, Indistinguishable, PolarizationEntangled, TwoPhotonInput
from ptcoupler.quantum import _clamp_probability
from ptcoupler.reservoir import full_hamiltonian


def coupler_matrix(params: CouplerParams) -> np.ndarray:
    """Coupled-mode matrix M, a complex (2, 2) array, transcribed from the
    model: diag propagation constants, kappa off-diagonal, the loss as the
    imaginary part of the lossy arm's diagonal element."""
    return np.array([[params.beta1, params.kappa],
                     [params.kappa, complex(params.beta2, -params.gamma)]], dtype=complex)


def two_photon_oracle_kron(h, input_state: TwoPhotonInput, z: float) -> float:
    """Pair survival, as ptcoupler.quantum.two_photon_oracle gives it, from
    the literal two-particle Hamiltonian h (x) 1 + 1 (x) h on the
    tensor-product space. Dimension squares, so keep it to small systems;
    it exists to check the congruence shortcut."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise ValueError("h must be a square matrix of size >= 2")
    n = h.shape[0]
    if n > 12:
        raise ValueError("tensor-product oracle is limited to small systems")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError("z must be finite and non-negative")
    eye = np.eye(n)
    h2 = np.kron(h, eye) + np.kron(eye, h)
    psi0 = np.zeros((n, n), dtype=complex)
    if isinstance(input_state, Indistinguishable):
        rt = 1.0 / math.sqrt(2.0)
        psi0[0, 1] = psi0[1, 0] = rt
    elif isinstance(input_state, PolarizationEntangled):
        rt = 1.0 / math.sqrt(2.0)
        psi0[0, 1] = rt
        psi0[1, 0] = rt * np.exp(1j * input_state.phi)
    else:
        raise ValueError(f"unknown two-photon input {input_state!r}")
    psi = scipy.linalg.expm(-1j * z * h2) @ psi0.reshape(-1)
    psi = psi.reshape(n, n)
    p = float(np.sum(np.abs(psi[:2, :2]) ** 2))
    return _clamp_probability(p, "oracle survival")


def interference_sum(s, phi: float):
    """Entangled-pair survival summed term by term from the entries of S
    (one (2, 2) matrix or an array (..., 2, 2)): the bunching terms, then
    |a|^2 + |b|^2 + 2 cos(phi) Re(a b*) with a = S11 S22 and b = S12 S21.
    At phi = pi this is |a - b|^2, which cancels once |det S| << |a|, so it
    is a reference at moderate gamma z only."""
    s = np.asarray(s)
    s11, s12, s21, s22 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    a, b = s11 * s22, s12 * s21
    bunching = np.abs(s11 * s12) ** 2 + np.abs(s21 * s22) ** 2
    return (2.0 * math.cos(0.5 * phi) ** 2 * bunching + np.abs(a) ** 2 + np.abs(b) ** 2
            + 2.0 * math.cos(phi) * (a * b.conjugate()).real)


def chain_scattering_oracle(params, lattice, z) -> np.ndarray:
    """Arm block S of e^{-iHz}, shape z.shape + (2, 2), of the coupler +
    chain matrix H = full_hamiltonian(params, lattice), from its dense
    eigendecomposition H = V diag(w) V^T: S = V[:2] e^{-iwz} V[:2]^T. Dense
    O(n^3), so keep the chain to a few thousand sites."""
    w, v = np.linalg.eigh(full_hamiltonian(params, lattice))
    phases = np.exp(-1j * np.multiply.outer(np.asarray(z, dtype=float), w))
    return np.einsum("ik,...k,jk->...ij", v[:2], phases, v[:2])
