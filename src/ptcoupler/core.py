"""Shared value types for the lossy two-waveguide coupler simulator.

All records are immutable and validate their invariants at construction,
so an instance in hand is always a legal one. Rates and distances are
plain floats of dimension 1/length and length. The usual convention is to
quote both in units of the coupling rate (set kappa = 1), but nothing
enforces a unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "CouplerParams",
    "validate",
    "ComplexMatrix2",
    "ScatteringMatrix",
    "PropagationGrid",
    "DecayCurve",
    "ClassicalInput",
    "Indistinguishable",
    "PolarizationEntangled",
    "TwoPhotonInput",
]

# Slack on the singular values of a passive propagator: wide enough to
# absorb roundoff in the matrix exponential, far below any genuine gain bug.
PASSIVITY_TOL = 1e-9


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_finite_complex(name: str, value: complex) -> None:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CouplerParams:
    """Coupled-mode parameters of a directional coupler with one lossy arm.

    beta1, beta2 are the modal propagation constants of the two guides,
    kappa the evanescent coupling rate, gamma the loss rate of the second
    guide. gamma = 0 is the lossless coupler; gain (gamma < 0) is outside
    the model.
    """

    beta1: float
    beta2: float
    kappa: float
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("beta1", "beta2", "kappa", "gamma"):
            _require_finite(name, getattr(self, name))
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")


def validate(params: CouplerParams) -> CouplerParams:
    """Re-check the CouplerParams invariants and hand the value back.

    Raises ValueError naming the offending field. Useful at API boundaries
    where a params object may have been assembled by other code.
    """
    CouplerParams(params.beta1, params.beta2, params.kappa, params.gamma)
    return params


@dataclass(frozen=True)
class ComplexMatrix2:
    """Dense 2x2 complex matrix with named entries, row-major."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22"):
            _require_finite_complex(name, getattr(self, name))

    @classmethod
    def from_array(cls, a) -> "ComplexMatrix2":
        a = np.asarray(a)
        if a.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {a.shape}")
        return cls(complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 0]), complex(a[1, 1]))

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=complex)

    def trace(self) -> complex:
        return self.m11 + self.m22

    def determinant(self) -> complex:
        """Entrywise determinant. Subject to cancellation when the products
        nearly cancel; prefer an analytically reduced value where one exists."""
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ScatteringMatrix:
    """Propagator of the two coupler amplitudes over a distance z.

    s holds the dimensionless amplitude transfer matrix, z the propagation
    distance. det, when set, carries the analytically reduced determinant
    of the propagator: for the closed-form exponential it is known exactly
    as exp(-i tr(M) z), which evades the catastrophic cancellation of the
    entrywise product difference once the determinant is many orders of
    magnitude below the entries. Restrictions of a larger unitary have no
    such reduction and leave det unset.
    """

    s: ComplexMatrix2
    z: float
    det: complex | None = None

    def __post_init__(self):
        _require_finite("z", self.z)
        if self.z < 0.0:
            raise ValueError("z must be non-negative")
        smax = float(np.linalg.svd(self.s.as_array(), compute_uv=False)[0])
        if smax > 1.0 + PASSIVITY_TOL:
            raise ValueError(
                f"matrix is not passive: largest singular value {smax!r} exceeds 1"
            )
        if self.det is not None:
            _require_finite_complex("det", self.det)
            # Entrywise cancellation noise is bounded by ~1e-15, so any
            # disagreement past this guard is a wiring bug, not roundoff.
            if abs(self.det - self.s.determinant()) > 1e-9:
                raise ValueError("det disagrees with the matrix entries")

    @property
    def determinant(self) -> complex:
        """Best available determinant: the reduced value if present."""
        if self.det is not None:
            return self.det
        return self.s.determinant()

    # Entry shorthands, handy in formulas.
    @property
    def s11(self) -> complex:
        return self.s.m11

    @property
    def s12(self) -> complex:
        return self.s.m12

    @property
    def s21(self) -> complex:
        return self.s.m21

    @property
    def s22(self) -> complex:
        return self.s.m22

    def as_array(self) -> np.ndarray:
        return self.s.as_array()


@dataclass(frozen=True)
class PropagationGrid:
    """Uniform grid of propagation distances from 0 to z_max inclusive."""

    z_max: float
    num_points: int

    def __post_init__(self):
        _require_finite("z_max", self.z_max)
        if self.z_max <= 0.0:
            raise ValueError("z_max must be positive")
        if self.num_points < 2:
            raise ValueError("num_points must be at least 2")

    def points(self) -> np.ndarray:
        # linspace pins the first point to exactly 0.0 and the last to z_max
        return np.linspace(0.0, self.z_max, self.num_points)


@dataclass(frozen=True)
class DecayCurve:
    """A sampled z-series of a non-negative observable, starting at z = 0."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        if "," in self.label or "\n" in self.label:
            raise ValueError("label must not contain commas or newlines")
        if len(self.points) == 0:
            raise ValueError("points must be non-empty")
        if self.points[0][0] != 0.0:
            raise ValueError("first grid point must be z = 0")
        prev = None
        for z, value in self.points:
            _require_finite("z", z)
            _require_finite("value", value)
            if value < 0.0:
                raise ValueError(f"curve values must be non-negative, got {value!r}")
            if prev is not None and z <= prev:
                raise ValueError("z values must be strictly increasing")
            prev = z

    @classmethod
    def from_arrays(cls, label: str, z, values) -> "DecayCurve":
        z = np.asarray(z, dtype=float)
        values = np.asarray(values, dtype=float)
        if z.shape != values.shape or z.ndim != 1:
            raise ValueError("z and values must be 1-d arrays of equal length")
        return cls(label, tuple((float(a), float(b)) for a, b in zip(z, values)))

    def z_values(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


class ClassicalInput(Enum):
    """Classical launch conditions.

    SINGLE_WAVEGUIDE: unit power in arm 1, one polarization.
    BALANCED_ORTHOGONAL: half the power in each arm, carried by mutually
    orthogonal polarizations, so the two channels add in power and the
    total cannot interfere ("incoherent-like" launch).
    """

    SINGLE_WAVEGUIDE = "single_waveguide"
    BALANCED_ORTHOGONAL = "balanced_orthogonal"


@dataclass(frozen=True)
class Indistinguishable:
    """One photon in each arm, same polarization: the bosonic pair input."""


@dataclass(frozen=True)
class PolarizationEntangled:
    """One photon per arm in the polarization-entangled superposition with
    exchange phase phi: phi = 0 behaves bosonic, phi = pi fermionic."""

    phi: float

    def __post_init__(self):
        _require_finite("phi", self.phi)
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError("phi must lie in [0, pi]")


TwoPhotonInput = Union[Indistinguishable, PolarizationEntangled]
