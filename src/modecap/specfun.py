"""Special functions and spherical quadrature underpinning the other modules.

Validated wrappers over SciPy: spherical Bessel functions of the first kind
(scipy.special.spherical_jn, with an ascending series near zero where SciPy
underflows), their log-space envelope bound, the orthonormal complex
spherical-harmonic basis matrix (built separably: one all-degree recurrence,
scipy.special.sph_harm_y_all, over the distinct polar angles, O(N^2) per
angle and bit-equal to a broadcast scipy.special.sph_harm_y, times a table
of e^{i m phi} over the distinct azimuths), plus Legendre polynomials by
recurrence and Gauss-Legendre x uniform-azimuth product quadrature on the
unit sphere.

Modes (n, m) have one representation: row n*n + n + m of a mode-domain
array, with flat_degrees giving each row's n.  A quadrature integral is the
plain weighted sum rule.weights @ f.

All functions are pure; QuadratureRule instances are immutable after
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, sph_harm_y_all, spherical_jn

from .errors import DomainError, ResolutionError, require_index

__all__ = [
    "QuadratureRule",
    "sph_bessel_j",
    "sph_bessel_j_bound",
    "legendre_p",
    "harmonic_matrix",
    "flat_degrees",
    "make_quadrature",
]

_MAX_BESSEL_ORDER = 200
_MAX_QUAD_DEGREE = 512
# Below this argument the two-term ascending series is already exact to
# double precision, while spherical_jn underflows to 0 for tiny z (it gives
# 0.0 at n=1, z=1.3e-220, where the true value is 4.5e-221).
_SERIES_CUTOFF = 1e-3


def flat_degrees(max_degree: int) -> np.ndarray:
    """Degree n of each flat row n*n + n + m, for n <= max_degree."""
    degrees = np.arange(max_degree + 1)
    return np.repeat(degrees, 2 * degrees + 1)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and steradian weights of a product rule on the unit sphere.

    Gauss-Legendre in cos(theta) with max_degree+1 polar nodes times
    2*max_degree+2 uniform azimuths; integrates every spherical-harmonic
    product Y_nm * conj(Y_n'm') exactly for n, n' <= max_degree.

    The layout is ring-major and checked on construction: node j*P + k
    (P = 2*max_degree+2) lies on ring j at azimuth 2*pi*k/P (to 1e-12 rad),
    theta and the weights are constant along each ring, and the T =
    max_degree+1 rings come in mirror pairs: ring T-1-j lies at
    pi - theta_j (to 1e-12 rad), so the middle ring of an odd T is the
    equator.  The fast analysis and the synthesis in wavefield rely on this
    layout.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    max_degree: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_degree", require_index("max_degree", self.max_degree)
        )
        rings, azimuths = self.ring_shape
        for name in ("theta", "phi", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (rings * azimuths,):
                raise DomainError(
                    f"quadrature {name} must hold (max_degree+1)(2*max_degree+2) = "
                    f"{rings * azimuths} nodes, got shape {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        theta = self.theta.reshape(rings, azimuths)
        weights = self.weights.reshape(rings, azimuths)
        if np.any(theta != theta[:, :1]) or np.any(weights != weights[:, :1]):
            raise DomainError(
                f"quadrature theta and weights must be constant along each ring "
                f"of {azimuths} consecutive nodes"
            )
        ring_theta = theta[:, 0]
        if not np.all(np.abs(ring_theta[::-1] - (np.pi - ring_theta)) <= 1e-12):
            raise DomainError(
                f"quadrature rings must come in mirror pairs: ring {rings - 1}-j "
                f"at pi - theta_j (to 1e-12 rad)"
            )
        uniform = 2.0 * np.pi * np.arange(azimuths) / azimuths
        if not np.all(np.abs(self.phi.reshape(rings, azimuths) - uniform) <= 1e-12):
            raise DomainError(
                f"quadrature phi must repeat the uniform azimuths 2*pi*k/{azimuths} "
                f"on every ring"
            )
        total = float(np.sum(self.weights))
        if abs(total - 4.0 * math.pi) > 1e-12 * 4.0 * math.pi:
            raise DomainError(
                f"quadrature weights sum to {total!r}, expected 4*pi"
            )

    @property
    def ring_shape(self) -> tuple[int, int]:
        """(rings, azimuths per ring) = (max_degree+1, 2*max_degree+2)."""
        return self.max_degree + 1, 2 * self.max_degree + 2

    def __len__(self) -> int:
        return self.weights.size


def _bessel_series_small(n: int, z: np.ndarray) -> np.ndarray:
    """Two-term ascending series, for 0 < z < _SERIES_CUTOFF.

    j_n(z) = (z/2)^n sqrt(pi)/(2 Gamma(n+3/2)) (1 - z^2/(2(2n+3)) + O(z^4));
    the omitted term is below 1e-14 relative at the cutoff.  The leading
    factor is sph_bessel_j_bound, which underflows cleanly to zero exactly
    when the true value does.
    """
    return sph_bessel_j_bound(n, z) * (1.0 - z * z / (2.0 * (2 * n + 3)))


def sph_bessel_j(n: int, z):
    """Spherical Bessel function of the first kind j_n(z).

    scipy.special.spherical_jn, except that orders n >= 1 at
    0 < z < 1e-3 use the ascending series (SciPy underflows there).

    Parameters
    ----------
    n : int
        Order, 0 <= n <= 200.
    z : float or array_like
        Nonnegative finite argument(s).

    Returns
    -------
    float or np.ndarray
        j_n(z).  Measured against 60-digit mpmath: relative error at most
        2e-13 over 1,244 random points with n <= 200 away from the zeros
        of j_n.  Near a zero the relative error grows as the value
        vanishes (7e-13 at distance 1e-3 from a zero, 8e-11 at 1e-5, for
        n in {0, 1, 2, 5, 8, 20, 46}) while the absolute error stays
        below 1e-15 / z.
    """
    n = require_index("order", n, _MAX_BESSEL_ORDER)
    z_arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < 0):
        raise DomainError("argument must be finite and >= 0")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    out = spherical_jn(n, z_arr)
    # j_0 = sin(z)/z needs no series: it tends to 1, not to 0.
    tiny = (z_arr > 0.0) & (z_arr < _SERIES_CUTOFF)
    if n > 0 and np.any(tiny):
        out[tiny] = _bessel_series_small(n, z_arr[tiny])
    return float(out[0]) if scalar else out


def sph_bessel_j_bound(n: int, z):
    """Envelope bound (sqrt(pi)/2) (z/2)^n / Gamma(n + 3/2) for |j_n(z)|.

    Evaluated in log space so large n and z do not overflow.  Strictly
    increasing in z for fixed n >= 1.
    """
    n = require_index("order", n)
    z_arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < 0):
        raise DomainError("argument must be finite and >= 0")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    log_pref = 0.5 * math.log(math.pi) - math.log(2.0) - gammaln(n + 1.5)
    out = np.empty_like(z_arr)
    zero = z_arr == 0.0
    out[zero] = math.exp(log_pref) if n == 0 else 0.0
    nz = ~zero
    # z/2 may round to zero in the subnormal range; log -> -inf -> exp -> 0.
    with np.errstate(over="ignore", divide="ignore"):
        out[nz] = np.exp(log_pref + n * np.log(z_arr[nz] / 2.0))
    return float(out[0]) if scalar else out


def legendre_p(n: int, x):
    """Legendre polynomial P_n(x) on [-1, 1] by the three-term recurrence.

    P_n(1) = 1 exactly; |x| > 1 raises DomainError (the convolution kernel
    this supports is only defined on its physical support).
    """
    n = require_index("degree", n)
    x_arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x_arr)) or np.any(np.abs(x_arr) > 1.0):
        raise DomainError("argument must lie in [-1, 1]")
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)

    pkm1 = np.ones_like(x_arr)
    if n == 0:
        return float(pkm1[0]) if scalar else pkm1
    pk = x_arr.copy()
    for k in range(1, n):
        pkm1, pk = pk, ((2 * k + 1) * x_arr * pk - k * pkm1) / (k + 1)
    return float(pk[0]) if scalar else pk


def harmonic_matrix(max_degree: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Matrix of Y_nm over points: shape ((max_degree+1)^2, len(theta)).

    Rows follow the flat ordering n*n + n + m.  The harmonics are
    orthonormal on the unit sphere and include the Condon-Shortley phase
    (Y_1^1(pi/2, 0) = -sqrt(3/(8 pi))).  Evaluated separably as
    Y_nm(theta, phi) = Y_nm(theta, 0) e^{i m phi}: one sph_harm_y_all call
    runs the Legendre recurrence once per distinct polar angle and yields
    every degree and order on the way, and the azimuthal factor is taken once
    per distinct phi and order m = -N..N.  A product rule with T polar rings
    therefore costs O(N^2 T) instead of the O(N^3 T) of one recurrence per
    (mode, ring).  The result equals the direct broadcast
    sph_harm_y(n, m, theta, phi) bit for bit.

    Raises DomainError unless max_degree is an integer >= 0 (bool is not)
    and every theta and phi is finite.
    """
    max_degree = require_index("max_degree", max_degree)
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise DomainError("harmonic angles theta and phi must be finite")
    theta_u, theta_at = np.unique(theta, return_inverse=True)
    phi_u, phi_at = np.unique(phi, return_inverse=True)
    n = flat_degrees(max_degree)
    m = np.arange(n.size) - n * (n + 1)
    # sph_harm_y_all holds order m at index m mod (2N+1) of its second axis.
    polar = sph_harm_y_all(max_degree, max_degree, theta_u, 0.0)
    out = polar[n[:, None], m[:, None] % (2 * max_degree + 1), theta_at.ravel()]
    orders = np.arange(-max_degree, max_degree + 1)
    azimuth = np.exp(1j * orders[:, None] * phi_u[None, :])[:, phi_at.ravel()]
    # Rows n*n .. n*n + 2n hold m = -n..n, one contiguous slice of azimuth.
    for k in range(max_degree + 1):
        out[k * k : (k + 1) ** 2] *= azimuth[max_degree - k : max_degree + k + 1]
    return out


def make_quadrature(max_degree: int) -> QuadratureRule:
    """Product quadrature exact for harmonic products up to max_degree.

    Gauss-Legendre in cos(theta) (max_degree+1 nodes, exact for polynomials
    of degree <= 2*max_degree+1) times 2*max_degree+2 uniform azimuths (exact
    for e^{i m phi}, |m| <= 2*max_degree+1).
    """
    max_degree = require_index("degree", max_degree)
    if max_degree > _MAX_QUAD_DEGREE:
        raise ResolutionError(
            f"quadrature degree {max_degree} exceeds the supported maximum "
            f"{_MAX_QUAD_DEGREE}"
        )
    x, w_polar = np.polynomial.legendre.leggauss(max_degree + 1)
    n_az = 2 * max_degree + 2
    phi_az = 2.0 * np.pi * np.arange(n_az) / n_az
    w_az = 2.0 * np.pi / n_az

    theta = np.repeat(np.arccos(x), n_az)
    phi = np.tile(phi_az, max_degree + 1)
    weights = np.repeat(w_polar * w_az, n_az)
    return QuadratureRule(theta=theta, phi=phi, weights=weights, max_degree=max_degree)
