"""Closed-form propagator exp(-i M z) of the coupled-mode equation.

For the 2x2 coupled-mode matrix M the exponential reduces to

    exp(-i M z) = e^{-i (tr M/2) z} [cos(w z) I - i (sin(w z)/w) (M - (tr M/2) I)]

with w^2 = kappa^2 + ((beta1 - beta2 + i gamma)/2)^2 complex. Both cos(w z)
and sin(w z)/w are even functions of w, so the branch of the complex square
root is irrelevant, and the w -> 0 limit (the eigenvalue-coalescence point
gamma = 2 kappa of the beta1 = beta2 coupler) is reached smoothly through a
short power series instead of a 0/0. Generic eigendecomposition loses half
its digits near that point; this single code path does not.

The determinant of the propagator is carried separately in its reduced
form exp(-i tr(M) z): the entrywise product difference underflows into
cancellation noise as soon as gamma z is large, while the reduced value
stays correct to a few ulp.
"""

from __future__ import annotations

import numpy as np

from .core import ComplexMatrix2, CouplerParams, PropagationGrid, ScatteringMatrix, validate

__all__ = ["scattering_matrix", "scattering_curve"]

# Below this value of |w z| the direct quotient sin(w z)/w is replaced by
# its series; four terms leave a truncation error ~ (1e-4)^8 / 9!, which is
# far below double precision.
SINC_SERIES_THRESHOLD = 1e-4


def _sin_over_omega(omega: complex, z: float) -> complex:
    """sin(omega z)/omega, even in omega, exact in the omega -> 0 limit."""
    x = omega * z
    if abs(x) < SINC_SERIES_THRESHOLD:
        x2 = x * x
        return z * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
    return np.sin(x) / omega


def scattering_matrix(params: CouplerParams, z: float) -> ScatteringMatrix:
    """Amplitude transfer matrix of the bare lossy coupler over distance z.

    The loss enters as the imaginary part -i gamma of the second diagonal
    element, so the propagator is passive: both singular values stay at or
    below 1, and |det| = e^{-gamma z}.
    """
    validate(params)
    half_trace = 0.5 * (params.beta1 + params.beta2 - 1j * params.gamma)
    d = 0.5 * (params.beta1 - params.beta2 + 1j * params.gamma)
    omega = np.sqrt(complex(params.kappa * params.kappa + d * d))

    prefactor = np.exp(-1j * half_trace * z)
    c = np.cos(omega * z)
    s = _sin_over_omega(omega, z)

    m11 = prefactor * (c - 1j * s * d)
    m12 = prefactor * (-1j * s * params.kappa)
    m22 = prefactor * (c + 1j * s * d)
    det = np.exp(-1j * (params.beta1 + params.beta2 - 1j * params.gamma) * z)
    return ScatteringMatrix(ComplexMatrix2(m11, m12, m12, m22), z=float(z), det=complex(det))


def scattering_curve(params: CouplerParams, grid: PropagationGrid) -> list[ScatteringMatrix]:
    """Transfer matrices on every point of the grid, in grid order."""
    return [scattering_matrix(params, z) for z in grid.points()]
