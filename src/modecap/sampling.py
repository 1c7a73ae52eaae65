"""Per-mode time-domain machinery: bandpass sampling and reconstruction.

A spatial mode's time signal occupies a frequency band of width w_n around a
midpoint w_0n.  This module extracts Fourier-series coefficients of a band
spectrum (which equal scaled time samples), evaluates the modulated-sinc
interpolation basis and its orthogonality integrals, reconstructs signals
from sample trains, and measures the support of Legendre-kernel
convolutions (the time-spreading mechanism that produces the effective
observation window).

Spectra are callables of angular frequency omega; bands are stated in hertz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError, require_index
from .specfun import legendre_p

__all__ = [
    "ModeBand",
    "SampleTrain",
    "fourier_coefficients",
    "phi_basis",
    "phi_inner",
    "reconstruct",
    "legendre_support_check",
]

_TWO_PI = 2.0 * math.pi
# Gauss-Legendre (nodes, weights) per panel: 16 nodes for the band
# integrator, 12 for the basis-orthogonality integral (half-unit panels).
_GL16 = np.polynomial.legendre.leggauss(16)
_GL12 = np.polynomial.legendre.leggauss(12)
_MAX_PANELS = 1 << 18
_MIN_WINDOW_UNITS = 50.0


@dataclass(frozen=True)
class ModeBand:
    """Frequency band [lo, hi] of one spatial mode, hertz: width w_n,
    midpoint w_0n."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not all(map(math.isfinite, (lo, hi, self.w_n, self.w_0n))):
            raise DomainError(f"band [{lo}, {hi}] needs a finite width and midpoint")
        if hi < lo:
            raise DomainError(f"band must have nonnegative width, got [{lo}, {hi}]")

    @property
    def w_n(self) -> float:
        """Band width hi - lo, hertz."""
        return self.hi - self.lo

    @property
    def w_0n(self) -> float:
        """Band midpoint (lo + hi) / 2, hertz."""
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class SampleTrain:
    """Uniform samples psi(l / w_n) of one mode's time signal: values[k]
    belongs to rate index ell_lo + k."""

    values: np.ndarray
    ell_lo: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError(
                f"sample values must be a nonempty 1-D array, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @property
    def ells(self) -> np.ndarray:
        """Rate indices as an integer array."""
        return np.arange(self.ell_lo, self.ell_lo + self.values.size)


def _panel_nodes(
    lo: float, hi: float, n_panels: int, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre `rule` repeated on n_panels
    equal panels of [lo, hi]."""
    x, w = rule
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def _band_integral(
    integrand: Callable[[np.ndarray], np.ndarray],
    omega_lo: float,
    omega_hi: float,
    t: np.ndarray,
) -> np.ndarray:
    """integral over [omega_lo, omega_hi] of integrand(omega) e^{i omega t},
    adaptively refined until successive panel doublings agree to 1e-9
    relative (with an absolute floor tied to the integrand's magnitude)."""
    width = omega_hi - omega_lo
    t_scale = float(np.max(np.abs(t))) if t.size else 0.0
    cycles = width * t_scale / _TWO_PI
    n_panels = int(min(_MAX_PANELS, max(4, math.ceil(cycles) + 4)))

    def evaluate(k: int) -> tuple[np.ndarray, float]:
        nodes, weights = _panel_nodes(omega_lo, omega_hi, k, _GL16)
        f = np.asarray(integrand(nodes), dtype=complex)
        bound = width * float(np.max(np.abs(f))) if f.size else 0.0
        kernel = np.exp(1j * np.outer(t, nodes))
        return kernel @ (weights * f), bound

    value, bound = evaluate(n_panels)
    while True:
        n_panels *= 2
        refined, bound = evaluate(n_panels)
        err = float(np.max(np.abs(refined - value))) if t.size else 0.0
        scale = float(np.max(np.abs(refined))) if t.size else 0.0
        if err <= 1e-9 * scale + 1e-13 * bound:
            return refined
        value = refined
        if n_panels >= _MAX_PANELS:
            raise ResolutionError(
                "band integral did not converge to 1e-9 relative within "
                f"{_MAX_PANELS} panels"
            )


def fourier_coefficients(
    spectrum: Callable[[np.ndarray], np.ndarray],
    band: ModeBand,
    ell_range: tuple[int, int],
) -> SampleTrain:
    """Fourier-series coefficients of the band spectrum as a SampleTrain.

    Computes c_l = (1/(2 pi w_n)) integral of spectrum(omega) e^{i omega l /
    w_n} over the band, by adaptive panel quadrature to 1e-9 relative
    tolerance, and stores the train in field units w_n * c_l: by the
    sampling identity c_l = (1/w_n) psi(l/w_n) these are the time samples
    psi(l/w_n).
    """
    ell_lo, ell_hi = int(ell_range[0]), int(ell_range[1])
    if ell_hi < ell_lo:
        raise DomainError(f"empty rate-index range {ell_range!r}")
    if band.w_n == 0:
        # A point band has no sampling rate: its time signal is identically
        # zero and the sample spacing 1/w_n is undefined.
        raise DomainError("cannot build a sample train for a zero-width band")
    ells = np.arange(ell_lo, ell_hi + 1)
    omega_lo, omega_hi = _TWO_PI * band.lo, _TWO_PI * band.hi
    coeffs = (
        _band_integral(spectrum, omega_lo, omega_hi, ells * (1.0 / band.w_n))
        / (_TWO_PI * band.w_n)
    )
    return SampleTrain(values=band.w_n * coeffs, ell_lo=ell_lo)


def phi_basis(ell, t, band: ModeBand):
    """Interpolation basis phi_l(t) = e^{i 2 pi w_0n (t - l/w_n)}
    sinc(pi w_n (t - l/w_n)), with phi_l(l/w_n) = 1.

    Unit peak at its own sample instant, zero at every other one, and
    |phi_l(t)| <= 1 everywhere.  ell may be an integer array that broadcasts
    against t (a column of indices against a row of instants gives the
    basis matrix).
    """
    if band.w_n <= 0:
        raise DomainError("phi_basis requires a band of positive width")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tau = np.atleast_1d(t_arr) - ell / band.w_n
    out = np.exp(2j * np.pi * band.w_0n * tau) * np.sinc(band.w_n * tau)
    return complex(out[0]) if scalar else out


def _sinc_pair_integral(ell: int, ellp: int, center: float, units: int) -> float:
    """integral of sinc(u-ell) sinc(u-ellp) du over [center-units,
    center+units] in normalized (sinc-unit) time, half-unit GL-12 panels."""
    u, weights = _panel_nodes(center - units, center + units, 4 * units, _GL12)
    f = np.sinc(u - ell) * np.sinc(u - ellp)
    return float(f @ weights)


def phi_inner(ell: int, ellp: int, band: ModeBand, window: float) -> complex:
    """Orthogonality integral of phi_ell phi_ellp* over a finite window.

    The window (seconds, >= 50/w_n) is taken about the pair's common center
    so the integral is exactly translation invariant; the truncated integral
    is evaluated at window lengths (1x, 2x, 4x, 8x) and Richardson-
    extrapolated in the inverse window length, leaving <= 1e-6 relative
    truncation error.  Converges to 1/w_n for ell == ellp and to 0 otherwise.
    """
    w = band.w_n
    if w <= 0:
        raise DomainError("phi_inner requires a band of positive width")
    if not math.isfinite(window) or window * w < _MIN_WINDOW_UNITS * (1 - 1e-12):
        raise DomainError(
            f"window too small: need >= {_MIN_WINDOW_UNITS}/w_n = "
            f"{_MIN_WINDOW_UNITS / w!r} s, got {window!r} s"
        )
    base_units = int(window * w)
    center = 0.5 * (ell + ellp)
    levels = [base_units * (1 << k) for k in range(4)]
    h = np.array([1.0 / u for u in levels])
    vals = np.array(
        [_sinc_pair_integral(ell, ellp, center, u) for u in levels]
    )
    # Neville extrapolation of the window-truncation tail to h -> 0.
    for order in range(1, len(levels)):
        for i in range(len(levels) - order):
            vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) * h[i + order] / (
                h[i] - h[i + order]
            )
    phase = np.exp(2j * np.pi * band.w_0n * (ellp - ell) / w)
    return complex(phase * vals[0] / w)


def reconstruct(samples: SampleTrain, band: ModeBand, t):
    """Band-limited interpolation sum over l of psi(l/w_n) phi_l(t).

    With samples covering l in [0, w_n T_eff] (plus guards), in-band signals
    are recovered with <= 1% relative L2 error over the interior 80% of the
    observation window.
    """
    t_arr = np.asarray(t, dtype=float)
    out = samples.values @ phi_basis(samples.ells[:, None], np.atleast_1d(t_arr), band)
    return complex(out[0]) if t_arr.ndim == 0 else out


def legendre_support_check(
    a_t: Callable[[np.ndarray], np.ndarray],
    obs_time_T: float,
    r: float,
    n: int,
    wave_speed_c: float = 299792458.0,
) -> float:
    """Measured support of the convolution of a_t with the Legendre kernel.

    Convolves the time-limited signal a_t (supported on [0, obs_time_T])
    with P_n(t c / r) restricted to |t| <= r/c and measures the extent
    between the first and last samples whose magnitude exceeds 1e-9 times
    the peak, on a grid of step (r/c)/256.  The result is obs_time_T + 2r/c
    within one grid step for every mode index n.

    Degenerate cases are exact: r = 0 returns obs_time_T (identity kernel
    limit) and obs_time_T = 0 returns 2r/c (the kernel's own support).
    """
    n = require_index("mode index", n)
    if r < 0 or not math.isfinite(r):
        raise DomainError(f"radius must be finite and >= 0, got {r!r}")
    if obs_time_T < 0 or not math.isfinite(obs_time_T):
        raise DomainError(f"signal duration must be >= 0, got {obs_time_T!r}")
    if not (math.isfinite(wave_speed_c) and wave_speed_c > 0):
        raise DomainError(f"wave speed must be finite and > 0, got {wave_speed_c!r}")
    if r == 0:
        return obs_time_T
    rc = r / wave_speed_c
    if obs_time_T == 0:
        return 2.0 * rc

    dt = rc / 256.0
    # Kernel samples on a midpoint grid over [-r/c, r/c].
    n_cells = 2048
    d_tau = 2.0 * rc / n_cells
    tau = -rc + (np.arange(n_cells) + 0.5) * d_tau
    kernel = legendre_p(n, np.clip(tau / rc, -1.0, 1.0)) * d_tau

    def conv(s: np.ndarray) -> np.ndarray:
        x = s[:, None] - tau[None, :]
        inside = (x >= 0.0) & (x <= obs_time_T)
        vals = np.where(inside, np.asarray(a_t(x), dtype=float), 0.0)
        return vals @ kernel

    # The support boundary sits at the onset (-r/c) and offset (T + r/c);
    # scan windows of 4 r/c around each rather than the whole interior.
    n_edge = 4 * 256
    onset = -rc + dt * np.arange(-4, n_edge + 1)
    offset = obs_time_T + rc - dt * np.arange(-4, n_edge + 1)[::-1]
    psi_on = np.abs(conv(onset))
    psi_off = np.abs(conv(offset))
    peak = max(float(psi_on.max()), float(psi_off.max()))
    if peak == 0.0:
        return 0.0
    threshold = 1e-9 * peak
    above_on = np.nonzero(psi_on > threshold)[0]
    above_off = np.nonzero(psi_off > threshold)[0]
    t_first = onset[above_on[0]]
    t_last = offset[above_off[-1]]
    return float((t_last - t_first) + dt)
