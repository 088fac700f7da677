"""Classical coupled-mode dynamics: supermodes, regime classification,
power decay curves.

The symmetric lossy coupler (beta1 = beta2 = beta) has supermodes

    lambda_{1,2} = beta - i gamma/2 +/- sqrt(kappa^2 - (gamma/2)^2)

which coalesce, eigenvectors included, at gamma = 2 kappa. Below that point
the net power beats while decaying at the uniform rate gamma; above it the
decay splits into a fast and a slow branch and raising the loss rate
paradoxically raises the surviving power (loss-induced transparency). At
the coalescence point itself the slow factor is algebraic, P ~ z^2 e^{-gamma z}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassicalInput, CouplerParams, DecayCurve, PropagationGrid, _validate
from .quantum import mean_photon_number
# scattering_matrix stays bound: perfbench/tracing.py wraps it where it is bound.
from .scattering import scaled_roots, scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "SupermodePair",
    "supermodes",
    "classify_ep",
    "classical_power_curve",
]

# Relative width of the "at coalescence" band of the discriminant
# kappa^2 - (gamma/2)^2, in units of kappa^2.
EP_DISCRIMINANT_TOL = 1e-12


def _check_passive(**eigenvalues) -> None:
    """Passive system: decaying modes only, up to roundoff slack (numbers or arrays, by name)."""
    for name, lam in eigenvalues.items():
        lam = np.asarray(lam, dtype=complex)
        growing = lam.imag > 1e-9 * (1.0 + np.hypot(lam.real, lam.imag))
        if growing.any():
            raise ValueError(f"{name} has positive imaginary part {float(lam.imag.max())!r}")


@dataclass(frozen=True)
class SupermodePair:
    """Eigenvalues of the coupled-mode matrix, slowest-decaying first."""

    lambda1: complex
    lambda2: complex

    def __post_init__(self):
        _check_passive(lambda1=self.lambda1, lambda2=self.lambda2)

    def gap(self) -> float:
        return abs(self.lambda1 - self.lambda2)


def _supermodes(params: CouplerParams, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1, lambda2 of supermodes at each loss rate of the checked float array gamma
    (replacing params.gamma), ordered and checked alike, and their gaps as SupermodePair.gap
    gives them (hypot, as Python's abs): the code behind supermodes and the sweep."""
    half_trace, e, _, _, omega = scaled_roots(params, gamma)
    # An eigenvalue or a gap past the float range is inf, as in SupermodePair.gap.
    with np.errstate(over="ignore"):
        omega = omega * np.ldexp(1.0, e)
        plus, minus = half_trace + omega, half_trace - omega
        first = (plus.imag > minus.imag) | ((plus.imag == minus.imag) & (plus.real <= minus.real))
        lambda1, lambda2 = np.where(first, plus, minus), np.where(first, minus, plus)
        _check_passive(lambda1=lambda1, lambda2=lambda2)
        diff = lambda1 - lambda2
        return lambda1, lambda2, np.hypot(diff.real, diff.imag)


def supermodes(params: CouplerParams) -> SupermodePair:
    """Eigenvalues of M from the closed-form quadratic.

    The pair is ordered by descending imaginary part (slowest-decaying
    first), ties broken by ascending real part. Using the explicit root
    instead of a generic eigensolver keeps the gap exactly zero at the
    coalescence point, where iterative solvers are ill-conditioned.
    """
    _validate(params)
    # A one-element array: numpy's scalar and array arithmetic may round differently.
    lambda1, lambda2, _ = _supermodes(params, np.array([params.gamma]))
    return SupermodePair(complex(lambda1[0]), complex(lambda2[0]))


def _regimes(params: CouplerParams, gamma: np.ndarray) -> np.ndarray:
    """The regime of classify_ep at each loss rate of the checked float array gamma
    (replacing params.gamma): the code behind classify_ep and the sweep's ep_regime column."""
    if params.beta1 != params.beta2:
        raise ValueError("classify_ep requires beta1 == beta2; for a detuned coupler use supermodes")
    _, _, kappa, d, _ = scaled_roots(params, gamma)
    disc = kappa * kappa - d.imag * d.imag
    tol = EP_DISCRIMINANT_TOL * kappa * kappa
    return np.select([disc > tol, disc < -tol], ["below", "above"], "at")


def classify_ep(params: CouplerParams) -> str:
    """Place the symmetric coupler "below", "at" or "above" coalescence.

    Only defined for beta1 = beta2, where the discriminant
    kappa^2 - (gamma/2)^2 is real and its sign decides the regime; the
    "at" band has half-width EP_DISCRIMINANT_TOL * kappa^2, both read in
    the unit of scattering.scaled_roots. For detuned couplers the eigenvalue
    structure never coalesces; inspect supermodes directly instead.
    """
    _validate(params)
    return _regimes(params, np.array([params.gamma])).item()


def _power(s: np.ndarray, launch: ClassicalInput) -> np.ndarray:
    """Guided power P = |c1|^2 + |c2|^2 of the launch behind each propagator of the array s,
    shape (..., 2, 2): arm 1's column norm for SINGLE_WAVEGUIDE, and for BALANCED_ORTHOGONAL
    the mean of both arms' column norms, half the pair's mean photon number. The one formula
    behind classical_power_curve, fig2 and the sweep's classical_power column."""
    if launch is ClassicalInput.SINGLE_WAVEGUIDE:
        return np.abs(s[..., 0, 0]) ** 2 + np.abs(s[..., 1, 0]) ** 2
    return 0.5 * mean_photon_number(s)


def classical_power_curve(
    params: CouplerParams, input_state: ClassicalInput, grid: PropagationGrid
) -> DecayCurve:
    """Total guided power P(z) = |c1|^2 + |c2|^2, normalized to P(0) = 1.

    SINGLE_WAVEGUIDE launches everything in arm 1. BALANCED_ORTHOGONAL
    splits power evenly between the arms in orthogonal polarizations, so
    the two channels propagate independently and add in power:
    P = (P_arm1_launch + P_arm2_launch) / 2.
    """
    if not isinstance(input_state, ClassicalInput):
        raise ValueError(f"unknown classical input {input_state!r}")
    zs = grid.points()
    s, _ = scattering_array(params, zs)
    return DecayCurve.from_arrays(f"power_{input_state.value}", zs, _power(s, input_state))
