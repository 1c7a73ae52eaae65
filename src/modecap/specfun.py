"""Special functions and spherical quadrature underpinning the other modules.

NumPy and the standard library only.  Spherical Bessel functions of the
first kind, every order 0..N at once (closed forms for j_0 and j_1, upward
recurrence below the argument, Miller's downward recurrence at and above it,
an ascending series near zero), their log-space envelope bound, the
orthonormal complex spherical-harmonic basis matrix (built separably: the
normalized associated-Legendre recurrence of Holmes & Featherstone 2002
over the distinct polar angles, O(N^2) per angle, times a table of
e^{i m phi} over the distinct azimuths), plus Legendre polynomials by
recurrence and Gauss-Legendre x uniform-azimuth product quadrature on the
unit sphere, held as its rings: the per-node arrays are derived from the
ring angles and weights, so the product layout needs no check.

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
# double precision for every order n >= 1.  It also covers arguments so
# small that (2n+1)/z, a coefficient of the downward recurrence, overflows.
_SERIES_CUTOFF = 1e-3


def flat_degrees(max_degree: int) -> np.ndarray:
    """Degree n of each flat row n*n + n + m, for n <= max_degree."""
    degrees = np.arange(max_degree + 1)
    return np.repeat(degrees, 2 * degrees + 1)


@dataclass(frozen=True)
class QuadratureRule:
    """Steradian weights on a product of rings and uniform azimuths on the
    unit sphere.

    The rule is held as its T rings: ring j lies at polar angle
    ring_theta[j] and carries P = 2T uniform azimuths 2*pi*k/P, k = 0..P-1,
    each node of it with steradian weight ring_weights[j].  The per-node
    arrays theta, phi and weights follow in ring-major order (node j*P + k
    lies on ring j at azimuth k), so the product layout holds by
    construction.  With max_degree = T-1 and the Gauss-Legendre rings of
    make_quadrature, the rule integrates every spherical-harmonic product
    Y_nm * conj(Y_n'm') exactly for n, n' <= max_degree.

    Checked on construction: both ring arrays are nonempty, 1-D, finite and
    of equal length, the rings come in mirror pairs (ring T-1-j lies at
    pi - theta_j to 1e-12 rad, so the middle ring of an odd T is the
    equator), and the node weights sum to 4*pi.  The fast analysis and the
    synthesis in wavefield rely on this layout.
    """

    ring_theta: np.ndarray
    ring_weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("ring_theta", "ring_weights"):
            arr = np.array(getattr(self, name), dtype=float)
            # ring_theta, converted first, sets the ring count.
            if (arr.ndim != 1 or arr.size == 0 or arr.shape != np.shape(self.ring_theta)
                    or not np.all(np.isfinite(arr))):
                raise DomainError(
                    f"quadrature {name} must be a nonempty finite 1-D array with one "
                    f"entry per ring, got shape {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        rings, azimuths = self.ring_shape
        theta = self.ring_theta
        if not np.all(np.abs(theta[::-1] - (np.pi - theta)) <= 1e-12):
            raise DomainError(
                f"quadrature rings must come in mirror pairs: ring {rings - 1}-j "
                f"at pi - theta_j (to 1e-12 rad)"
            )
        total = float(np.sum(self.ring_weights)) * azimuths
        if abs(total - 4.0 * math.pi) > 1e-12 * 4.0 * math.pi:
            raise DomainError(
                f"quadrature weights sum to {total!r}, expected 4*pi"
            )

    @property
    def max_degree(self) -> int:
        """T-1: the degree up to which Gauss-Legendre rings integrate every
        harmonic product exactly."""
        return self.ring_theta.size - 1

    @property
    def ring_shape(self) -> tuple[int, int]:
        """(rings, azimuths per ring) = (max_degree+1, 2*max_degree+2)."""
        return self.ring_theta.size, 2 * self.ring_theta.size

    @property
    def ring_phi(self) -> np.ndarray:
        """The P uniform azimuths 2*pi*k/P of every ring."""
        azimuths = self.ring_shape[1]
        return 2.0 * np.pi * np.arange(azimuths) / azimuths

    @property
    def theta(self) -> np.ndarray:
        """Polar angle of each node, ring-major; read-only."""
        return _read_only(np.repeat(self.ring_theta, self.ring_shape[1]))

    @property
    def phi(self) -> np.ndarray:
        """Azimuth of each node, ring-major; read-only."""
        return _read_only(np.tile(self.ring_phi, self.ring_shape[0]))

    @property
    def weights(self) -> np.ndarray:
        """Steradian weight of each node, ring-major; read-only."""
        return _read_only(np.repeat(self.ring_weights, self.ring_shape[1]))

    def __len__(self) -> int:
        rings, azimuths = self.ring_shape
        return rings * azimuths


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _bessel_series_small(n: int, z: np.ndarray) -> np.ndarray:
    """Two-term ascending series, for 0 < z < _SERIES_CUTOFF.

    j_n(z) = (z/2)^n sqrt(pi)/(2 Gamma(n+3/2)) (1 - z^2/(2(2n+3)) + O(z^4));
    the omitted term is below 1e-14 relative at the cutoff.  The leading
    factor is sph_bessel_j_bound, which underflows cleanly to zero exactly
    when the true value does.
    """
    return sph_bessel_j_bound(n, z) * (1.0 - z * z / (2.0 * (2 * n + 3)))


def _miller_start(max_order: int, z: np.ndarray) -> int:
    """Start order of the downward recurrence for orders <= max_order at z.

    Zhang & Jin's MSTA2 (Computation of Special Functions, 1996) for 15
    digits: the order n where their envelope
    envj(n) = log10(sqrt(2 pi n)) - n log10(e z / (2n)) reaches 15, or
    envj(max_order) + 7.5 when j_max_order is already below 10^-7.5, plus
    10.  The root lies above max_order, and envj is convex and increasing
    from max_order + 1 >= z + 1 on, so Newton's method from there
    overshoots once and then falls to the root.  The ratio form of the
    recurrence cannot overflow, so the largest start over z serves every
    point.
    """

    def envj(n):
        return 0.5 * np.log10(6.28 * n) - n * np.log10(1.36 * z / n)

    top = envj(float(max_order))
    target = np.where(top <= 7.5, 15.0, top + 7.5)
    n = np.full(z.shape, max_order + 1.0)
    for _ in range(100):
        slope = np.log10(n / (1.36 * z)) + (1.0 + 0.5 / n) / math.log(10.0)
        step = (envj(n) - target) / slope
        n -= step
        if np.all(np.abs(step) < 0.5):
            break
    return int(np.ceil(n.max())) + 10


def _sph_bessel_table(max_order: int, z) -> np.ndarray:
    """j_0(z) .. j_max_order(z): shape (max_order+1,) + shape(z), row n for
    order n.  Validates like sph_bessel_j.

    j_0 = sin(z)/z and j_1 = (j_0 - cos z)/z in closed form.  Orders n < z
    by the upward recurrence j_{n+1} = (2n+1)/z j_n - j_{n-1}, which is
    stable there (the split scipy.special.spherical_jn makes).  Orders
    n >= z by Miller's downward recurrence, stable where j_n decays: it runs
    on the ratios r_n = j_n / j_{n-1} = 1 / ((2n+1)/z - r_{n+1}) from
    _miller_start down to the first order k >= z, and the ratios are
    multiplied out from j_{k-1}, the last order below z (j_0 when z <= 1).
    As ratios the pass never overflows, and an order underflows to zero
    only where its true value does.  Orders n >= 1 at 0 < z <
    _SERIES_CUTOFF use the ascending series.
    """
    max_order = require_index("order", max_order, _MAX_BESSEL_ORDER)
    z_arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < 0):
        raise DomainError("argument must be finite and >= 0")
    z = z_arr.ravel()
    out = np.zeros((max_order + 1, z.size))
    positive = z > 0.0
    safe = np.where(positive, z, 1.0)
    out[0] = np.where(positive, np.sin(safe) / safe, 1.0)

    up = np.flatnonzero(z > 1.0)
    z_up = z[up]
    j_prev = out[0, up]
    j = (j_prev - np.cos(z_up)) / z_up
    top = min(max_order, math.ceil(z_up.max()) - 1) if up.size else 0
    for n in range(1, top + 1):
        # A point's rows stop at its last order below z; the zeros after
        # that keep the recurrence off its growing branch.
        j = np.where(n < z_up, j, 0.0)
        out[n, up] = j
        j_prev, j = j, (2 * n + 1) / z_up * j - j_prev

    down = np.flatnonzero((z >= _SERIES_CUTOFF) & (z <= max_order))
    if down.size:
        z_down = z[down]
        first = np.ceil(z_down).astype(int)
        factors = np.ones((max_order + 1, down.size))
        ratio = np.zeros(down.size)
        for n in range(_miller_start(max_order, z_down), first.min() - 1, -1):
            # Orders below a point's first keep the factor 1.
            ratio = np.divide(1.0, (2 * n + 1) / z_down - ratio,
                              out=np.ones(down.size), where=n >= first)
            if n <= max_order:
                factors[n] = ratio
        factors[first - 1, np.arange(down.size)] = out[first - 1, down]
        rows = np.cumprod(factors, axis=0)
        above = np.arange(max_order + 1)[:, None] >= first
        out[:, down] = np.where(above, rows, out[:, down])

    tiny = positive & (z < _SERIES_CUTOFF)
    if np.any(tiny):
        for n in range(1, max_order + 1):
            out[n, tiny] = _bessel_series_small(n, z[tiny])
    return out.reshape((max_order + 1,) + z_arr.shape)


def sph_bessel_j(n: int, z):
    """Spherical Bessel function of the first kind j_n(z).

    Row n of the all-orders evaluation _sph_bessel_table: upward recurrence
    for orders below z, Miller's downward recurrence at and above it, and
    the ascending series for orders n >= 1 at 0 < z < 1e-3.

    Parameters
    ----------
    n : int
        Order, 0 <= n <= 200.
    z : float or array_like
        Nonnegative finite argument(s).

    Returns
    -------
    float or np.ndarray
        j_n(z).  Measured against 60-digit mpmath on 12,000 seeded points
        (n <= 200; z from 1e-8 to 1e6, a quarter each in the series range,
        at most n, from n/2 to 2n, and from n to 1e6):

        - away from the zeros of j_n, where |j_n(z)| >= 1e-2 M_n(z) with
          M_n = sqrt(j_n^2 + y_n^2) the local amplitude (about 1/z for
          z >> n), the relative error is at most 1.2e-13: 1.4e-14 on the
          downward branch, 5.8e-14 on the upward one, and 1.2e-13 in the
          series range, where exp of a large negative logarithm rounds;
        - near a zero the relative error grows as the value vanishes, while
          the absolute error stays below 1e-15 M_n(z) (8.6e-16 measured);
        - below the smallest normal double, 2.2e-308, the absolute error is
          at most 1e-321 (2.5e-322 measured); scipy.special.spherical_jn
          gave 0 there for true values up to 1.5e-308.

        The contract is 2e-13 relative away from the zeros, and the
        absolute forms above.
    """
    table = _sph_bessel_table(n, z)
    return float(table[-1]) if table.ndim == 1 else table[-1]


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

    try:
        order = float(n)
    except OverflowError:
        raise DomainError(f"order {n} is too large to convert to a float") from None
    try:
        log_pref = 0.5 * math.log(math.pi) - math.log(2.0) - math.lgamma(order + 1.5)
    except OverflowError:
        # Gamma(n + 3/2) exceeds the float range from n = 2.5e305 on.
        log_pref = None
    out = np.empty_like(z_arr)
    zero = z_arr == 0.0
    out[zero] = math.exp(log_pref) if n == 0 else 0.0
    nz = ~zero
    # z/2 may round to zero in the subnormal range; log -> -inf -> exp -> 0.
    with np.errstate(over="ignore", divide="ignore"):
        log_half_z = np.log(z_arr[nz] / 2.0)
        if log_pref is None:
            # Per unit order, Stirling's log Gamma(n + 3/2) / n is log n - 1
            # up to O(log(n) / n), so the exponent has one sign and no
            # inf - inf: the bound is 0 below z = 2n/e and inf above.
            out[nz] = np.exp(order * (log_half_z - math.log(order) + 1.0))
        else:
            out[nz] = np.exp(log_pref + n * log_half_z)
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
    Y_nm(theta, phi) = Y_nm(theta, 0) e^{i m phi}.  The polar factor comes
    from the fully normalized associated-Legendre recurrence (Holmes &
    Featherstone 2002, J. Geodesy 76), once per distinct polar angle: the
    sectoral Y_mm = -sqrt((2m+1)/(2m)) sin(theta) Y_{m-1,m-1} by one
    cumulative product, Y_{m+1,m} = sqrt(2m+3) cos(theta) Y_mm, then
    Y_nm = a_nm cos(theta) Y_{n-1,m} - b_nm Y_{n-2,m} for every order at
    once, and Y_{n,-m}(theta, 0) = (-1)^m Y_nm(theta, 0).  The azimuthal
    factor is taken once per distinct phi and order m = -N..N.  A product
    rule with T polar rings therefore costs O(N^2 T) instead of the
    O(N^3 T) of one recurrence per (mode, ring).  The output is filled
    degree by degree straight from the (N+1)(N+2)/2 rows of m >= 0.

    Accuracy, relative to the table's largest magnitude: within 2e-14 of
    both 60-digit mpmath and scipy.special.sph_harm_y.  Measured at degrees
    8 to 256 on Gauss-Legendre rings, random points and both poles: 6.7e-15
    from mpmath (sph_harm_y: 1.0e-14) and 1.3e-14 from sph_harm_y.  Most of
    it is the rounding of cos(theta), which P_n amplifies by up to
    n(n+1)/2 near the poles in any method.

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
    # Row n(n+1)/2 + m holds Y_nm(theta, 0), m = 0..n, at every point.
    half = _polar_table(max_degree, theta_u)[:, theta_at.ravel()]
    orders = np.arange(-max_degree, max_degree + 1)
    azimuth = np.exp(1j * orders[:, None] * phi_u[None, :])[:, phi_at.ravel()]
    # Y_{n,-m}(theta, phi) = (-1)^m Y_nm(theta, 0) e^{-i m phi}: the sign
    # rides on the azimuthal factor of each odd negative order.
    azimuth[(max_degree + 1) % 2 : max_degree : 2] *= -1.0
    out = np.empty(((max_degree + 1) ** 2, half.shape[1]), dtype=complex)
    # Degree k fills rows k*k .. k*k + 2k, m = -k..k, from its k + 1 half
    # rows: m = 0..k in order, then m = -k..-1 from rows |m| = k..1.
    for k in range(max_degree + 1):
        zero, first = k * k + k, k * (k + 1) // 2
        np.multiply(half[first : first + k + 1], azimuth[max_degree : max_degree + k + 1],
                    out=out[zero : zero + k + 1])
        np.multiply(half[first + k : first : -1], azimuth[max_degree - k : max_degree],
                    out=out[k * k : zero])
    return out


def _polar_table(max_degree: int, theta: np.ndarray) -> np.ndarray:
    """Y_nm(theta, 0) for 0 <= m <= n <= max_degree, row n(n+1)/2 + m."""
    x, u = np.cos(theta), np.sin(theta)
    degrees = np.arange(max_degree + 1)
    diagonal = degrees * (degrees + 3) // 2

    # a_nm, at the table row of Y_nm, and b_nm for n >= 2, m = 0..n-2.
    n = np.repeat(degrees[2:], degrees[2:] - 1)
    m = np.arange(n.size) - (n - 1) * (n - 2) // 2
    span = (n - m) * (n + m)
    a = np.zeros((max_degree + 1) * (max_degree + 2) // 2)
    a[n * (n + 1) // 2 + m] = np.sqrt((2 * n - 1) * (2 * n + 1) / span)
    b = np.sqrt((2 * n + 1) * (n + m - 1) * (n - m - 1) / ((2 * n - 3) * span))[:, None]
    # Each row n, m <= n - 2 starts as its a_nm cos(theta), so no temporary
    # as large as the table holds those products; the rows of the sectoral
    # and m = n - 1 terms are overwritten next.
    table = a[:, None] * x

    steps = np.empty((max_degree + 1, theta.size))
    steps[0] = 1.0 / math.sqrt(4.0 * math.pi)
    steps[1:] = -np.sqrt((2 * degrees[1:] + 1) / (2.0 * degrees[1:]))[:, None] * u
    table[diagonal] = np.cumprod(steps, axis=0)
    table[diagonal[1:] - 1] = np.sqrt(2 * degrees[:-1] + 3.0)[:, None] * x * table[diagonal[:-1]]

    for k in range(2, max_degree + 1):
        # Orders m = 0..k-2 of degrees k, k-1 and k-2, and their coefficients.
        row, coeff = k * (k + 1) // 2, slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)
        dst = table[row : row + k - 1]
        dst *= table[row - k : row - 1]
        dst -= b[coeff] * table[row - 2 * k + 1 : row - k]
    return table


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
    return QuadratureRule(ring_theta=np.arccos(x),
                          ring_weights=w_polar * (2.0 * np.pi / (2 * max_degree + 2)))
