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
from enum import Enum

import numpy as np

from .core import (
    ClassicalInput,
    CouplerParams,
    DecayCurve,
    PropagationGrid,
    require_non_negative,
    _validate,
)
# scattering_matrix stays bound: perfbench/tracing.py wraps it where it is bound.
from .scattering import scaled_roots, scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "Regime",
    "SupermodePair",
    "EpRegime",
    "supermodes",
    "classify_ep",
    "classical_power_curve",
]

# Relative width of the "at coalescence" band of the discriminant
# kappa^2 - (gamma/2)^2, in units of kappa^2.
EP_DISCRIMINANT_TOL = 1e-12


class Regime(Enum):
    BELOW = "below"
    AT = "at"
    ABOVE = "above"


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


@dataclass(frozen=True)
class EpRegime:
    """Classification of the symmetric coupler against its coalescence point."""

    regime: Regime
    discriminant: float


def _supermodes(params: CouplerParams, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1, lambda2 of supermodes at each loss rate of the array gamma (replacing
    params.gamma), ordered and checked alike, and their gaps as SupermodePair.gap gives
    them (hypot, as Python's abs): the code behind supermodes and the sweep."""
    half_trace, e, _, _, omega = scaled_roots(params, require_non_negative("gamma", gamma))
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


def _regimes(params: CouplerParams, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Regime values and discriminants of classify_ep at each loss rate of the array
    gamma (replacing params.gamma): the code behind classify_ep and the sweep."""
    if params.beta1 != params.beta2:
        raise ValueError("classify_ep requires beta1 == beta2; for a detuned coupler use supermodes")
    _, e, kappa, d, _ = scaled_roots(params, require_non_negative("gamma", gamma))
    disc = kappa * kappa - d.imag * d.imag
    tol = EP_DISCRIMINANT_TOL * kappa * kappa
    regimes = np.select([disc > tol, disc < -tol], [Regime.BELOW.value, Regime.ABOVE.value],
                        Regime.AT.value)
    with np.errstate(over="ignore"):  # the discriminant itself may pass the float range
        return regimes, np.ldexp(disc, 2 * e)


def classify_ep(params: CouplerParams) -> EpRegime:
    """Place the symmetric coupler below, at, or above coalescence.

    Only defined for beta1 = beta2, where the discriminant
    kappa^2 - (gamma/2)^2 is real and its sign decides the regime; the
    "at" band has half-width EP_DISCRIMINANT_TOL * kappa^2, both read in
    the unit of scattering.scaled_roots. For detuned couplers the eigenvalue
    structure never coalesces; inspect supermodes directly instead.
    """
    _validate(params)
    regimes, discs = _regimes(params, np.array([params.gamma]))
    return EpRegime(Regime(regimes.item()), discs.item())


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
    power = np.abs(s) ** 2
    p_from_arm1 = power[:, 0, 0] + power[:, 1, 0]
    if input_state is ClassicalInput.SINGLE_WAVEGUIDE:
        values = p_from_arm1
    else:
        p_from_arm2 = power[:, 0, 1] + power[:, 1, 1]
        values = 0.5 * (p_from_arm1 + p_from_arm2)
    return DecayCurve.from_arrays(f"power_{input_state.value}", zs, values)
