"""Closed-form propagator exp(-i M z) of the coupled-mode equation, for
whole arrays of distances (and loss rates) in one call.

The 2x2 coupled-mode matrix M = [[beta1, kappa], [kappa, beta2 - i gamma]]
has half trace h = (beta1 + beta2 - i gamma)/2 and M - h I =
[[d, kappa], [kappa, -d]] with d = (beta1 - beta2 + i gamma)/2, so

    exp(-i M z) = e^{-i h z} [cos(w z) I - i (sin(w z)/w) (M - h I)],
    w^2 = kappa^2 + d^2,

and the eigenvalues of M (the supermodes) are h + w and h - w.

Branch and stable factoring. The root is taken with Im w >= 0, which makes
h + w the slower-decaying supermode: the exponential e^{-i (h + w) z} has
modulus at most 1 for every passive coupler. Factoring it out of both
terms leaves only bounded factors,

    e^{-i h z} cos(w z)   = e^{-i (h + w) z} (1 + q/2)
    e^{-i h z} sin(w z)/w = e^{-i (h + w) z} q/(2 i w),   q = expm1(2 i w z),

with |1 + q| = |e^{2 i w z}| <= 1. Multiplying the decaying e^{-i h z} by
the growing cos(w z) instead overflows into NaN once gamma z passes about
1400 above the exceptional point, where the propagator itself is finite
(loss-induced transparency keeps |S11| near 1). expm1 keeps q/(2 i w)
accurate to a few ulp as w z -> 0; below |w z| = SINC_SERIES_THRESHOLD a
short series replaces the quotient, so the coalescence point gamma =
2 kappa of the beta1 = beta2 coupler (w = 0) is reached without a 0/0.
Generic eigendecomposition loses half its digits near that point; this
single code path does not.

Units. kappa^2 + d^2 under- or overflows long before S does, so the rates
are taken in units of 2^e <= max(kappa, |Re d|, Im d) < 2^(e + 1) and z in
units of 2^-e: exact scaling, so S(2^k p, 2^-k z) is S(p, z) bit for bit.

Array shapes. scattering_array(params, z, gamma) broadcasts the distances
z against the loss rates gamma (default params.gamma) to one shape B and
returns S with shape B + (2, 2), complex, and the determinants with shape
B. The determinant is carried separately in its reduced form
exp(-i tr(M) z): the entrywise product difference underflows into
cancellation noise as soon as gamma z is large, while the reduced value
stays correct to a few ulp. scattering_matrix is the array call at one
point, checked by the ScatteringMatrix record it returns.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CouplerParams,
    ScatteringMatrix,
    check_propagators,
    require_non_negative,
    _validate,
)

__all__ = ["scattering_matrix"]

# Below this value of |w z| the quotient expm1(2 i w z)/(2 i w) is replaced
# by its series; five terms leave a relative truncation error of about
# (2e-4)^5 / 6!, far below double precision.
SINC_SERIES_THRESHOLD = 1e-4


def scaled_roots(params: CouplerParams, gamma=None) -> tuple:
    """h = tr M/2, the exponent e of the unit 2^e (see Units above) and, in
    that unit, kappa, d = (M11 - M22)/2 and the root w of kappa^2 + d^2 with
    Im w >= 0: h + 2^e w is the slower-decaying eigenvalue of M. Of two real
    roots (no loss) the one with the sign of Re d, so that w + d never cancels.
    gamma, when given, replaces params.gamma (any array shape)."""
    gamma = params.gamma if gamma is None else gamma
    half_trace = 0.5 * (params.beta1 + params.beta2 - 1j * gamma)
    a, b = 0.5 * (params.beta1 - params.beta2), 0.5 * gamma
    e = np.frexp(np.maximum(np.maximum(params.kappa, abs(a)), b))[1] - 1
    kappa, a, b = np.ldexp(params.kappa, -e), np.ldexp(a, -e), np.ldexp(b, -e)
    # d^2 from its real parts: Python's complex multiply of a scalar d and
    # numpy's of an array d round differently.
    omega = np.sqrt(kappa * kappa + (a - b) * (a + b) + 2j * (a * b))
    flip = (omega.imag < 0.0) | ((omega.imag == 0.0) & (np.sign(omega.real) * np.sign(a) < 0.0))
    return half_trace, e, kappa, a + 1j * b, np.where(flip, -omega, omega)


@np.errstate(all="ignore")  # a fault leaves a non-finite entry, which the checks refuse
def _propagators(params: CouplerParams, z: np.ndarray, gamma=None) -> tuple[np.ndarray, np.ndarray]:
    """S, shape B + (2, 2), and the reduced determinants, shape B, for validated
    distances z and loss rates gamma; the matrices are not checked here."""
    half_trace, e, kappa, d, omega = scaled_roots(params, gamma)
    t = np.ldexp(z, e)  # z in units of 2^-e
    # (h + w) z = beta1 z + kappa^2/(w + d) z: Im h and Im w nearly cancel far
    # above the exceptional point, w + d never does. beta1 has no bound in the unit.
    slow_phase = params.beta1 * z + kappa * kappa / (omega + d) * t

    wz = omega * t
    shape = np.shape(wz)
    x = np.atleast_1d(wz)
    q = np.expm1(2j * x)
    small = np.abs(x) < SINC_SERIES_THRESHOLD
    sinc = q / (2j * np.where(small, 1.0, omega))  # e^{i w z} sin(w z)/w
    if small.any():
        y = 2j * x[small]
        t_small = np.broadcast_to(t, x.shape)[small]
        sinc[small] = t_small * (1.0 + y / 2.0 * (1.0 + y / 3.0 * (1.0 + y / 4.0 * (1.0 + y / 5.0))))
    slow = np.exp(-1j * slow_phase)
    cos = slow * (1.0 + 0.5 * q)
    sin = slow * sinc
    off = -1j * sin * kappa
    s = np.array([[cos - 1j * sin * d, off], [off, cos + 1j * sin * d]])  # (2, 2) + x.shape
    s = s.transpose(tuple(range(2, s.ndim)) + (0, 1)).reshape(shape + (2, 2))
    return s, np.reshape(np.exp(-2j * half_trace * z), shape)


def scattering_array(params: CouplerParams, z, gamma=None) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude transfer matrices of the bare lossy coupler, all at once.

    z is an array of distances; gamma, when given, an array of loss rates
    that replaces params.gamma. Both broadcast to one shape B (a gamma axis
    against a z grid: gamma[:, None] and z[None, :]). Returns S with shape
    B + (2, 2) and the reduced determinants e^{-i tr(M) z}, shape B.

    The loss enters as the imaginary part -i gamma of the second diagonal
    element, so every propagator is passive: both singular values stay at
    or below 1, and |det| = e^{-gamma z}. Every matrix passes the checks of
    ScatteringMatrix (check_propagators); a phase or decay of S or det past
    the float range is refused with ValueError naming the nearest such z.
    """
    _validate(params)
    if gamma is not None:
        gamma = require_non_negative("gamma", gamma)
    z = require_non_negative("z", z)
    s, det = _propagators(params, z, gamma)
    try:
        check_propagators((s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]), det)
    except ValueError:
        finite = np.isfinite(s).all(axis=(-2, -1)) & np.isfinite(det)
        if finite.all():
            raise
        near = np.broadcast_to(z, det.shape)[~finite].min()
        raise ValueError(f"the propagator's phase or decay at z = {near:g} passes the float "
                         "range") from None
    return s, det


def scattering_matrix(params: CouplerParams, z: float) -> ScatteringMatrix:
    """Amplitude transfer matrix of the bare lossy coupler over distance z:
    the array call of scattering_array at one point, checked by the record
    it is viewed as, so it refuses exactly what the array call refuses."""
    # Always an array: numpy's scalar and array loops may round differently.
    z = np.atleast_1d(np.asarray(z, dtype=float))
    s, det = scattering_array(params, z)
    return ScatteringMatrix(s[0], z=z.item(0), det=det.item(0))
