"""Shared value types for the lossy two-waveguide coupler simulator.

All records are immutable and validate their invariants at construction,
so an instance in hand is always a legal one. Rates and distances are
plain floats of dimension 1/length and length. The usual convention is to
quote both in units of the coupling rate (set kappa = 1), but nothing
enforces a unit system. A one-point propagator is the array call at one
point, checked by the ScatteringMatrix record.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "CouplerParams",
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


def _require_all_finite(name: str, value, kind=complex) -> None:
    """_require_finite for a number or an array, naming the first bad value."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {kind(np.ravel(value)[np.argmin(finite)])!r}")


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


def _validate(params: CouplerParams) -> CouplerParams:
    """Re-check the CouplerParams invariants and hand the value back.

    Raises ValueError naming the offending field. Useful at API boundaries
    where a params object may have been assembled by other code.
    """
    CouplerParams(params.beta1, params.beta2, params.kappa, params.gamma)
    return params


def largest_singular_value(s11, s12, s21, s22):
    """Largest singular value of [[s11, s12], [s21, s22]]: of one matrix
    given by four numbers, or of every matrix of four arrays of entries.

    Closed form from the eigenvalues of H = S S^dagger:
    sigma^2 = (|S|_F^2 + sqrt(|S|_F^4 - 4 |det S|^2)) / 2. The discriminant
    is summed as (H11 - H22)^2 + 4 |H12|^2, the same number without the
    cancellation that would cost half its digits when the two singular
    values nearly coincide, as they do for any near-unitary S.
    """
    h11 = abs(s11) ** 2 + abs(s12) ** 2
    h22 = abs(s21) ** 2 + abs(s22) ** 2
    h12 = s11 * s21.conjugate() + s12 * s22.conjugate()
    return (0.5 * (h11 + h22 + ((h11 - h22) ** 2 + 4.0 * abs(h12) ** 2) ** 0.5)) ** 0.5


def entrywise_determinants(s: np.ndarray) -> np.ndarray:
    """s11 s22 - s12 s21 of every matrix of an array (..., 2, 2): for each
    one the same double as Python's complex arithmetic gives. The products
    are formed from real ones, as Python forms them; numpy's complex
    multiply may fuse them and round differently."""
    a, b, c, d = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    det = np.empty(a.shape, dtype=complex)
    det.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return det


def require_non_negative(name: str, values) -> np.ndarray:
    """values (a number or an array) as a float array, after checking that
    every one is finite and non-negative; errors name them as name."""
    values = np.asarray(values, dtype=float)
    _require_all_finite(name, values, float)
    if not (values >= 0.0).all():
        raise ValueError(f"{name} must be non-negative")
    return values


def check_propagators(entries, det=None) -> None:
    """Raise ValueError unless every matrix [[s11, s12], [s21, s22]] of
    entries = (s11, s12, s21, s22), four numpy arrays of one shape, is a
    legal propagator.

    The entries must be finite, the largest singular value at most
    1 + PASSIVITY_TOL, and det, when given, finite and within 1e-9 of the
    entrywise determinant. The one check behind the array propagators of the
    scattering and reservoir modules and the ScatteringMatrix record of one
    of their points. Distances are checked where they enter, not here.
    """
    # A non-finite entry makes smax NaN or inf, and so does an entry past about
    # 1e154, whose |s|^2 overflows: the entries are searched only when this
    # fails ("not <=" counts NaN as a failure), and finite ones are not passive.
    with np.errstate(over="ignore", invalid="ignore"):
        smax = largest_singular_value(*entries)
    if not (smax <= 1.0 + PASSIVITY_TOL).all():
        for name, entry in zip(("m11", "m12", "m21", "m22"), entries):
            _require_all_finite(name, entry)
        raise ValueError("matrix is not passive: largest singular value "
                         f"{float(np.where(np.isnan(smax), np.inf, smax).max())!r} exceeds 1")
    if det is not None:
        s11, s12, s21, s22 = entries
        # Entrywise cancellation noise is bounded by ~1e-15, so any
        # disagreement past this guard is a wiring bug, not roundoff.
        if not (abs(det - (s11 * s22 - s12 * s21)) <= 1e-9).all():
            _require_all_finite("det", det)
            raise ValueError("det disagrees with the matrix entries")


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Propagator of the two coupler amplitudes over a distance z.

    s takes any 2x2 array-like and is kept as a read-only complex (2, 2)
    array, which np.asarray(record) returns; z is the propagation
    distance. det, when set, carries the analytically reduced determinant
    of the propagator: for the closed-form exponential it is known exactly
    as exp(-i tr(M) z), which evades the catastrophic cancellation of the
    entrywise product difference once the determinant is many orders of
    magnitude below the entries. Restrictions of a larger unitary have no
    such reduction and leave det unset. Records compare and hash by entries,
    z and det. A one-point propagator of the library (scattering_matrix,
    LatticePropagator.scattering) is the array call at one point, checked by
    this record.
    """

    s: np.ndarray
    z: float
    det: complex | None = None

    def __post_init__(self):
        s = np.array(self.s, dtype=complex)
        if s.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {s.shape}")
        require_non_negative("z", self.z)
        check_propagators(s.reshape(4, 1), self.det)  # rows s11, s12, s21, s22
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    def __eq__(self, other):
        if not isinstance(other, ScatteringMatrix):
            return NotImplemented
        return self.z == other.z and self.det == other.det and np.array_equal(self.s, other.s)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.z, self.det, (self.s + 0.0).tobytes()))

    def __array__(self, dtype=None, copy=None):
        # copy is not forwarded: numpy 1.x calls this without it and refuses
        # np.array(..., copy=None).
        a = self.s if dtype is None else self.s.astype(dtype, copy=False)
        return a.copy() if copy else a

    @property
    def determinant(self) -> complex:
        """Best available determinant: the reduced value if present."""
        if self.det is not None:
            return self.det
        return entrywise_determinants(self.s).item()

    # Entry shorthands, handy in formulas.
    @property
    def s11(self) -> complex:
        return self.s.item(0, 0)

    @property
    def s12(self) -> complex:
        return self.s.item(0, 1)

    @property
    def s21(self) -> complex:
        return self.s.item(1, 0)

    @property
    def s22(self) -> complex:
        return self.s.item(1, 1)

    def as_array(self) -> np.ndarray:
        """A writable copy of the entries."""
        return self.s.copy()


# Largest accepted grid, and largest sweep (rows), checked before anything
# of its size is allocated. A fig3 curve peaks at about 0.25 GB resident per
# 10**6 points (the grid's propagators and their temporaries; the CSV text is
# streamed). A sweep's peak follows its axis x z propagators, not its rows:
# 1000 x 1 x 1000 rows peaked at 283 MB, 100 x 100 x 100 at 48 MB. So this
# refuses only sizes that need several GB.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class PropagationGrid:
    """Uniform grid of propagation distances from 0 to z_max inclusive,
    with 2 to MAX_GRID_POINTS distinct points."""

    z_max: float
    num_points: int

    def __post_init__(self):
        _require_finite("z_max", self.z_max)
        if self.z_max <= 0.0:
            raise ValueError("z_max must be positive")
        if self.num_points < 2:
            raise ValueError("num_points must be at least 2")
        if self.num_points > MAX_GRID_POINTS:
            raise ValueError(
                f"num_points must be at most {MAX_GRID_POINTS}, got {self.num_points}"
            )
        # Multiples of a normal step, MAX_GRID_POINTS of them at most, round to
        # distinct doubles; a subnormal one may repeat a point.
        if self.z_max / (self.num_points - 1) < sys.float_info.min:
            raise ValueError(f"z_max = {self.z_max!r} is too small for {self.num_points} distinct points")

    def points(self) -> np.ndarray:
        # linspace pins the first point to exactly 0.0 and the last to z_max
        return np.linspace(0.0, self.z_max, self.num_points)


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """A sampled z-series of a non-negative observable, starting at z = 0.

    points takes any sequence of (z, value) pairs and is kept as a
    read-only (N, 2) float array. Curves compare and hash by label and
    point values.
    """

    label: str
    points: np.ndarray

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        if "," in self.label or "\n" in self.label:
            raise ValueError("label must not contain commas or newlines")
        points = np.array(self.points, dtype=float)
        if points.size == 0:
            raise ValueError("points must be non-empty")
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be (z, value) pairs")
        z, values = points[:, 0], points[:, 1]
        if z[0] != 0.0:
            raise ValueError("first grid point must be z = 0")
        bad = ~np.isfinite(points).all(axis=1) | (values < 0.0)
        bad[1:] |= z[1:] <= z[:-1]
        if bad.any():
            # Report the first bad point, its checks in this order.
            i = int(np.argmax(bad))
            _require_finite("z", float(z[i]))
            _require_finite("value", float(values[i]))
            if values[i] < 0.0:
                raise ValueError(f"curve values must be non-negative, got {float(values[i])!r}")
            raise ValueError("z values must be strictly increasing")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @classmethod
    def from_arrays(cls, label: str, z, values) -> "DecayCurve":
        z = np.asarray(z, dtype=float)
        values = np.asarray(values, dtype=float)
        if z.shape != values.shape or z.ndim != 1:
            raise ValueError("z and values must be 1-d arrays of equal length")
        return cls(label, np.stack([z, values], axis=1))

    def __eq__(self, other):
        if not isinstance(other, DecayCurve):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.points, other.points)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.label, (self.points + 0.0).tobytes()))

    def z_values(self) -> np.ndarray:
        return self.points[:, 0]

    def values(self) -> np.ndarray:
        return self.points[:, 1]


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
