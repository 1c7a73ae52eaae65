"""Brute-force wavefield verification engine.

Synthesizes band-limited plane-wave fields on a spherical observation
surface, expands them in spherical harmonics (both analytically through the
Jacobi-Anger expansion and numerically through quadrature projection),
injects reproducible circularly-symmetric white Gaussian noise, and measures
per-mode SNR curves so the closed-form critical frequencies can be checked
against detection thresholds empirically.

Noise is generated per node with variance sigma0_sq / w_q (w_q the node's
quadrature weight); the projected mode-domain noise then has variance exactly
sigma0_sq and is exactly white across (n, m), because both follow from the
quadrature rule's harmonic-product exactness.

simulate runs the whole check for one scenario and returns a
SimulationResult with its five checked properties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dofcore import Scenario, critical_frequency, effective_time, truncation_indices
from .errors import DomainError, ResolutionError, require_index
from .sampling import ModeBand, SampleTrain, reconstruct
from .specfun import (
    _MAX_BESSEL_ORDER,
    QuadratureRule,
    flat_degrees,
    harmonic_matrix,
    make_quadrature,
    sph_bessel_j,
)

__all__ = [
    "PlaneWaveSource",
    "SphericalGrid",
    "ModeSpectrum",
    "NoiseModel",
    "ModeCutoff",
    "CheckedProperty",
    "SimulationResult",
    "synthesize_field",
    "theoretical_modes",
    "analyze_modes",
    "add_noise",
    "mode_snr",
    "empirical_critical_frequency",
    "parseval_check",
    "mode_cutoffs",
    "simulate",
]

_SPEED_OF_LIGHT = 299792458.0

# Degrees simulate keeps beyond ceil(kR) in a plane wave's Jacobi-Anger
# series; past kR, j_n(kR) falls off faster than geometrically.
_JACOBI_GUARD = 20

# Most complex entries (quadrature nodes x frequencies) a simulated field may
# hold: 160 MB per field-sized array, and simulate keeps a few of them.
FIELD_ELEMENT_LIMIT = 10_000_000

# Instants at which simulate's reconstruction check compares the
# interpolated signal with the truth.
_RECONSTRUCTION_TIMES = 512


@dataclass(frozen=True)
class PlaneWaveSource:
    """Far-field plane wave: arrival direction (theta, phi) and a complex
    amplitude spectrum.

    The amplitude is either a scalar (flat spectrum) or an array aligned
    with the frequency grid handed to the synthesis operations; it must
    vanish outside the scenario band (a construction constraint on callers).
    """

    theta: float
    phi: float
    amplitude: complex | np.ndarray = 1.0 + 0.0j

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError("source direction must be finite angles")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.ndim > 1:
            raise DomainError(
                f"amplitude must be a scalar or 1-D spectrum, got shape {amp.shape}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector of the arrival direction."""
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    def spectrum_on(self, freqs: np.ndarray) -> np.ndarray:
        """Amplitude spectrum aligned with freqs (broadcasting scalars)."""
        if self.amplitude.ndim == 0:
            return np.full(freqs.shape, complex(self.amplitude))
        if self.amplitude.size != freqs.size:
            raise DomainError(
                f"amplitude spectrum has {self.amplitude.size} samples but the "
                f"frequency grid has {freqs.size}"
            )
        return self.amplitude


@dataclass(frozen=True)
class SphericalGrid:
    """Observation surface: sphere radius plus a quadrature rule.

    For alias-free analysis up to degree N of a field with harmonic content
    up to degree N_field, the rule must satisfy max_degree >= N + N_field.
    """

    radius: float
    rule: QuadratureRule

    def __post_init__(self) -> None:
        radius = float(self.radius)
        if not (math.isfinite(radius) and radius > 0):
            raise DomainError(f"grid radius must be finite and > 0, got {radius!r}")
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class ModeSpectrum:
    """Mode-domain field Psi_nm(r, omega): coeffs[(n*n + n + m), freq_index].

    The plane-wave excitation alpha_nm is recoverable by dividing out
    j_n(omega r / c) wherever it is nonzero.  `bessel` holds those values,
    bessel[n, freq_index], when the spectrum was built from them
    (theoretical_modes), and is None for a measured spectrum.
    """

    radius: float
    freqs: np.ndarray
    coeffs: np.ndarray
    bessel: np.ndarray | None = None

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if freqs.ndim != 1:
            raise DomainError("freqs must be a 1-D grid")
        if coeffs.ndim != 2 or coeffs.shape[1] != freqs.size:
            raise DomainError(
                f"coeffs must have shape ((N+1)^2, {freqs.size}), got {coeffs.shape}"
            )
        side = math.isqrt(coeffs.shape[0])
        if side * side != coeffs.shape[0]:
            raise DomainError(
                f"coeffs first dimension {coeffs.shape[0]} is not a perfect square"
            )
        freqs.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "radius", float(self.radius))
        if self.bessel is not None:
            bessel = np.asarray(self.bessel, dtype=float)
            if bessel.shape != (side, freqs.size):
                raise DomainError(
                    f"bessel must have shape ({side}, {freqs.size}), got {bessel.shape}"
                )
            bessel.setflags(write=False)
            object.__setattr__(self, "bessel", bessel)

    @property
    def max_degree(self) -> int:
        return math.isqrt(self.coeffs.shape[0]) - 1

    def excitation_power(self) -> np.ndarray:
        """|alpha_nm(omega)|^2 = |Psi_nm / j_n(omega r / c)|^2 per mode and
        frequency, and 0 where |j_n| <= 1e-14, where Psi_nm carries no
        recoverable excitation.

        Needs the Bessel table, so only a spectrum from theoretical_modes
        has it.
        """
        if self.bessel is None:
            raise DomainError(
                "excitation power needs the Bessel table of theoretical_modes"
            )
        rows = self.bessel[flat_degrees(self.max_degree), :]
        # Quotients by the masked rows may overflow; np.where drops them.
        with np.errstate(all="ignore"):
            return np.where(np.abs(rows) > 1e-14, np.abs(self.coeffs / rows) ** 2, 0.0)


@dataclass(frozen=True)
class NoiseModel:
    """White-noise description: per-mode noise power sigma0_sq, peak signal
    spectrum power alpha_max_sq, and the generator seed.

    sigma0_sq = 0 is the noiseless degenerate case: add_noise is the
    identity and SNR is undefined.
    """

    sigma0_sq: float
    alpha_max_sq: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma0_sq) and self.sigma0_sq >= 0):
            raise DomainError(f"sigma0_sq must be >= 0, got {self.sigma0_sq!r}")
        if not (math.isfinite(self.alpha_max_sq) and self.alpha_max_sq > 0):
            raise DomainError(f"alpha_max_sq must be > 0, got {self.alpha_max_sq!r}")
        object.__setattr__(self, "seed", require_index("seed", self.seed, 2**64 - 1))

    @classmethod
    def calibrated(
        cls, signal: ModeSpectrum, snr_alpha_max: float, seed: int
    ) -> "NoiseModel":
        """Noise that puts the peak excitation power of `signal` (a
        theoretical_modes spectrum) at the peak SNR snr_alpha_max."""
        alpha_max_sq = float(np.max(signal.excitation_power()))
        return cls(
            sigma0_sq=alpha_max_sq / snr_alpha_max, alpha_max_sq=alpha_max_sq, seed=seed
        )

    @property
    def snr_alpha_max(self) -> float:
        """Peak SNR alpha_max_sq / sigma0_sq."""
        if self.sigma0_sq == 0:
            raise DomainError("snr_alpha_max is undefined for sigma0_sq = 0")
        return self.alpha_max_sq / self.sigma0_sq


@dataclass(frozen=True)
class ModeCutoff:
    """Mode n's analytic critical frequency F_n and the first grid frequency
    at which it is detected (None if it never is)."""

    n: int
    analytic_Fn: float
    empirical_Fn: float | None
    detected: bool

    def one_sided(self, step: float) -> bool:
        """Not detected more than one grid step below F_n."""
        return not self.detected or self.empirical_Fn >= self.analytic_Fn - step


@dataclass(frozen=True)
class CheckedProperty:
    """A property simulate checks: its measured value, the tolerance it is
    held to, and whether it held."""

    name: str
    value: float | bool
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SimulationResult:
    """What simulate measured, under the keys of a simulate report's
    `simulation` block."""

    freq_step: float
    quad_degree: int
    required_degree: int
    sigma0_sq: float
    empirical_cutoffs: tuple[ModeCutoff, ...]
    properties: tuple[CheckedProperty, ...]


def _check_freqs(freqs) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise DomainError("frequency grid must be a nonempty 1-D array")
    if np.any(~np.isfinite(freqs)) or np.any(freqs < 0):
        raise DomainError("frequencies must be finite and >= 0")
    return freqs


def _check_wave_speed(wave_speed_c: float) -> None:
    if not (math.isfinite(wave_speed_c) and wave_speed_c > 0):
        raise DomainError(f"wave speed must be finite and > 0, got {wave_speed_c!r}")


def synthesize_field(
    sources: Sequence[PlaneWaveSource],
    grid: SphericalGrid,
    freqs,
    *,
    wave_speed_c: float = _SPEED_OF_LIGHT,
) -> np.ndarray:
    """Superpose plane waves on the grid: sum of A(omega) e^{i k R x.y}.

    Returns a complex array of shape (nodes, frequencies).

    The field is built one ring at a time in the rule's ring-major layout
    (rings x P azimuths, P = 2*max_degree+2 even).  On ring j, azimuth k and
    source direction u the phase factors as

        e^{i k R cos(theta_j) u_z}
        * e^{i k R sin(theta_j) (u_x cos(phi_k) + u_y sin(phi_k))},

    so each source needs one (rings x F) polar table, which also carries
    A(omega), and one (P/2 x F) exponential per ring.  Node k + P/2 sits at
    phi_k + pi, where the second factor is the complex conjugate of its
    value at phi_k, so the other half of the ring costs a conjugate.  The
    ring angles and the first P/2 azimuths come from the rule; the
    half-turn pairing holds to the 1e-12 rad to which QuadratureRule checks
    its azimuths, the layout the FFT analysis relies on as well.
    Temporaries are bounded by one ring, not the whole field.
    """
    if len(sources) == 0:
        raise DomainError("synthesize_field requires at least one source")
    freqs = _check_freqs(freqs)
    _check_wave_speed(wave_speed_c)
    kr = 2.0 * np.pi * grid.radius * freqs / wave_speed_c
    rings, azimuths = grid.rule.ring_shape
    half = azimuths // 2
    theta = grid.rule.theta[::azimuths]
    phi = grid.rule.phi[:half]
    sin_theta = np.sin(theta)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    field = np.zeros((rings, azimuths, freqs.size), dtype=complex)
    for src in sources:
        ux, uy, uz = src.unit_vector()
        polar = np.exp(1j * np.multiply.outer(np.cos(theta) * uz, kr))
        polar *= src.spectrum_on(freqs)
        lateral = ux * cos_phi + uy * sin_phi
        for j in range(rings):
            ring = np.exp(1j * np.multiply.outer(sin_theta[j] * lateral, kr))
            field[j, :half] += polar[j] * ring
            np.conjugate(ring, out=ring)
            ring *= polar[j]
            field[j, half:] += ring
    return field.reshape(rings * azimuths, freqs.size)


def theoretical_modes(
    sources: Sequence[PlaneWaveSource],
    radius: float,
    freqs,
    N: int,
    *,
    wave_speed_c: float = _SPEED_OF_LIGHT,
) -> ModeSpectrum:
    """Jacobi-Anger mode coefficients of a plane-wave superposition.

    alpha_nm(omega) = sum over sources of 4 pi i^n A(omega) conj(Y_nm(y));
    Psi_nm = alpha_nm j_n(omega R / c).  The returned spectrum keeps the
    j_n(omega R / c) table, so excitation_power needs no second evaluation.
    """
    N = require_index("analysis degree", N)
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be finite and > 0, got {radius!r}")
    freqs = _check_freqs(freqs)
    _check_wave_speed(wave_speed_c)
    z = 2.0 * np.pi * freqs * radius / wave_speed_c
    bessel = np.stack([sph_bessel_j(n, z) for n in range(N + 1)])

    alpha = np.zeros(((N + 1) ** 2, freqs.size), dtype=complex)
    for src in sources:
        amp = src.spectrum_on(freqs)
        y_conj = harmonic_matrix(
            N, np.array([src.theta]), np.array([src.phi])
        ).conj()[:, 0]
        alpha += 4.0 * np.pi * y_conj[:, None] * amp[None, :]
    n = flat_degrees(N)
    # i^n from a table stays exact where complex powers round off.
    phase = np.array([1j**k for k in range(4)])[n % 4]
    coeffs = phase[:, None] * alpha * bessel[n]
    return ModeSpectrum(radius=radius, freqs=freqs, coeffs=coeffs, bessel=bessel)


def analyze_modes(
    field: np.ndarray, grid: SphericalGrid, N: int, freqs
) -> ModeSpectrum:
    """Project a sampled field onto Y_nm by quadrature, up to degree N.

    The rule is a product of rings and uniform azimuths, so the projection
    splits (the fast spherical-harmonic transform of Driscoll & Healy 1994):
    an FFT over each ring's azimuths gives bin m mod P = sum_k f e^{-i m phi_k},
    and each order m then sums those bins over the rings against the
    weighted conj(Y_nm(theta_j, 0)), n = |m|..N.  No (N+1)^2 x nodes basis
    is formed.

    Raises ResolutionError when N exceeds the rule's max_degree (the
    projection would alias); callers must additionally budget max_degree >=
    N + field content degree for exactness.
    """
    N = require_index("analysis degree", N)
    freqs = _check_freqs(freqs)
    field = np.asarray(field, dtype=complex)
    if field.shape != (len(grid.rule), freqs.size):
        raise DomainError(
            f"field shape {field.shape} does not match (nodes, freqs) = "
            f"({len(grid.rule)}, {freqs.size})"
        )
    if N > grid.rule.max_degree:
        raise ResolutionError(
            f"analysis degree {N} exceeds the rule's max_degree "
            f"{grid.rule.max_degree}; the projection would alias"
        )
    rings, azimuths = grid.rule.ring_shape
    bins = np.fft.fft(field.reshape(rings, azimuths, freqs.size), axis=1)
    # harmonic_matrix returns a fresh array, so weight it in place.
    polar = harmonic_matrix(N, grid.rule.theta[::azimuths], np.zeros(rings))
    np.conjugate(polar, out=polar)
    polar *= grid.rule.weights[::azimuths]
    coeffs = np.empty(((N + 1) ** 2, freqs.size), dtype=complex)
    degrees = np.arange(N + 1)
    for m in range(-N, N + 1):
        n = degrees[abs(m) :]
        rows = n * n + n + m
        coeffs[rows] = polar[rows] @ bins[:, m % azimuths]
    return ModeSpectrum(radius=grid.radius, freqs=freqs, coeffs=coeffs)


def add_noise(field: np.ndarray, grid: SphericalGrid, noise: NoiseModel) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise per node and frequency.

    Node q gets variance sigma0_sq / w_q, which makes every projected mode
    coefficient's noise variance exactly sigma0_sq and exactly white across
    modes.  Counter-based generator: bitwise reproducible for a fixed seed.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[0] != len(grid.rule):
        raise DomainError(
            f"field has {field.shape[0]} rows but the grid has {len(grid.rule)} nodes"
        )
    if noise.sigma0_sq == 0:
        return field.copy()
    rng = np.random.Generator(np.random.Philox(noise.seed))
    std = np.sqrt(noise.sigma0_sq / (2.0 * grid.rule.weights))
    shape = field.shape
    eta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return field + std.reshape((-1,) + (1,) * (field.ndim - 1)) * eta


def mode_snr(signal: ModeSpectrum, noise: NoiseModel) -> np.ndarray:
    """Per-mode SNR curves |Psi_nm(omega)|^2 / sigma0_sq.

    Since Psi_nm = alpha_nm j_n(omega R / c), this equals
    |alpha_nm|^2 |j_n|^2 / sigma0_sq, the deterministic-source form of the
    mode-domain SNR.
    """
    if noise.sigma0_sq == 0:
        raise DomainError("mode SNR is undefined for sigma0_sq = 0")
    return (np.abs(signal.coeffs) ** 2) / noise.sigma0_sq


def empirical_critical_frequency(
    snr: np.ndarray, freqs, threshold_gamma: float, n: int
) -> float:
    """Smallest grid frequency at which mode n is detectable.

    Scans max over m of SNR_nm(omega) against the threshold; returns +inf
    when the mode never reaches it on the grid.
    """
    freqs = _check_freqs(freqs)
    snr = np.asarray(snr, dtype=float)
    n = require_index("mode index", n)
    if threshold_gamma <= 0 or not math.isfinite(threshold_gamma):
        raise DomainError(f"threshold must be finite and > 0, got {threshold_gamma!r}")
    if snr.ndim != 2 or snr.shape[1] != freqs.size:
        raise DomainError(
            f"snr must have shape ((N+1)^2, {freqs.size}), got {snr.shape}"
        )
    lo, hi = n * n, (n + 1) ** 2
    if hi > snr.shape[0]:
        raise DomainError(
            f"mode {n} is outside the spectrum (max degree "
            f"{math.isqrt(snr.shape[0]) - 1})"
        )
    detectable = np.max(snr[lo:hi, :], axis=0) >= threshold_gamma
    hits = np.nonzero(detectable)[0]
    if hits.size == 0:
        return math.inf
    return float(freqs[hits[0]])


def parseval_check(
    field: np.ndarray, grid: SphericalGrid, spectrum: ModeSpectrum
) -> float:
    """Worst per-frequency relative gap between node-domain power and
    mode-domain power.

    Computes | integral |field|^2 dOmega - sum_nm |Psi_nm|^2 | / (node power)
    at each frequency and returns the maximum; frequencies where the field
    is identically zero contribute zero (both powers vanish).
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[0] != len(grid.rule):
        raise DomainError(
            f"field has {field.shape[0]} rows but the grid has {len(grid.rule)} nodes"
        )
    if field.shape[1] != spectrum.freqs.size:
        raise DomainError("field and spectrum frequency grids differ in length")
    node_power = grid.rule.weights @ (np.abs(field) ** 2)
    mode_power = np.sum(np.abs(spectrum.coeffs) ** 2, axis=0)
    gap = np.abs(node_power - mode_power)
    out = np.zeros_like(gap)
    nz = node_power > 0
    out[nz] = gap[nz] / node_power[nz]
    return float(np.max(out)) if out.size else 0.0


def mode_cutoffs(scenario: Scenario, snr: np.ndarray, freqs) -> tuple[ModeCutoff, ...]:
    """Analytic and empirical cutoff of each mode n = 1..N of an SNR table
    of shape ((N+1)^2, F) on the grid freqs."""
    cutoffs = []
    for n in range(1, math.isqrt(np.shape(snr)[0])):
        f_hat = empirical_critical_frequency(snr, freqs, scenario.threshold_gamma, n)
        detected = not math.isinf(f_hat)
        f_n = critical_frequency(scenario, n)
        cutoffs.append(ModeCutoff(n, f_n, f_hat if detected else None, detected))
    return tuple(cutoffs)


def _raised_cosine_kernel(x: np.ndarray) -> np.ndarray:
    """Unit-band interpolation kernel with 1/t^3 tail decay.

    Spectrum cos^2(pi f) on |f| <= 1/2 (raised cosine), hence exactly
    band-limited; the fast tail decay is what keeps truncated sample sums
    accurate in the window interior.
    """
    return np.sinc(x) + 0.5 * np.sinc(x + 1.0) + 0.5 * np.sinc(x - 1.0)


def _reconstruction_error(band: ModeBand, t_eff: float, seed: int) -> float:
    """Interior relative L2 reconstruction error for a seeded in-band signal,
    using exactly floor(w_n t_eff) + 1 samples on [0, t_eff]."""
    w, w0 = band.w_n, band.w_0n
    wt = w * t_eff
    rng = np.random.Generator(np.random.Philox(seed))
    n_kernels = 8
    edges = np.linspace(0.18 * wt, 0.82 * wt, n_kernels + 1)
    centers = edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(0.2, 0.8, n_kernels)
    coeffs = rng.standard_normal(n_kernels) + 1j * rng.standard_normal(n_kernels)

    def baseband(u: np.ndarray) -> np.ndarray:
        acc = np.zeros(u.shape, dtype=complex)
        for c, u0 in zip(coeffs, centers):
            acc += c * _raised_cosine_kernel(u - u0)
        return acc

    ells = np.arange(0, int(math.floor(wt)) + 1)
    values = baseband(ells.astype(float)) * np.exp(2j * np.pi * w0 * ells / w)
    train = SampleTrain(values=values, ell_lo=0, ell_hi=int(ells[-1]), spacing=1.0 / w)
    t = np.linspace(0.1 * t_eff, 0.9 * t_eff, _RECONSTRUCTION_TIMES)
    truth = baseband(w * t) * np.exp(2j * np.pi * w0 * t)
    recon = reconstruct(train, band, t)
    return float(
        np.sqrt(np.mean(np.abs(recon - truth) ** 2))
        / np.sqrt(np.mean(np.abs(truth) ** 2))
    )


def _random_sources(count: int, freqs: np.ndarray, seed: int) -> list[PlaneWaveSource]:
    """count seeded plane waves, isotropic in direction, each with a flat
    spectrum of random phase."""
    rng = np.random.Generator(np.random.Philox(seed))
    sources = []
    for _ in range(count):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        sources.append(
            PlaneWaveSource(theta=theta, phi=phi, amplitude=np.full(freqs.size, phase))
        )
    return sources


def _bounded(name: str, value: float, tolerance: float) -> CheckedProperty:
    return CheckedProperty(name, value, tolerance, value <= tolerance)


def simulate(
    scenario: Scenario,
    *,
    sources: int,
    freq_points: int,
    quad_degree: int,
    seed: int,
    trials: int,
) -> SimulationResult:
    """Brute-force check of a scenario's mode structure.

    Synthesizes `sources` seeded plane waves on `freq_points` frequencies
    across the band, sampled by a quadrature of degree `quad_degree` (0 picks
    the required n_max + ceil(kR) + 20), and checks five properties against
    their tolerances: Jacobi-Anger consistency and Parseval (1e-8), the mode
    noise variance over `trials` noisy analyses (5/sqrt(trials)), one-sided
    detection cutoffs (one grid step) and sampling reconstruction (1e-2).

    Raises DomainError for R = 0, a band F0 +- W of zero width in floating
    point (W = 0 included), freq_points < 2 or trials < 1, or an R so small
    that F_{n_max} overflows, and ResolutionError for n_max above the
    largest Bessel order sph_bessel_j accepts, a degree below the required
    one, a field of more than FIELD_ELEMENT_LIMIT node x frequency entries or
    a reconstruction check of more than FIELD_ELEMENT_LIMIT sample x instant
    entries; both before any quadrature is built.
    """
    band_lo, band_hi = scenario.band
    if scenario.radius_R == 0:
        raise DomainError("simulation requires radius_R > 0")
    if not band_lo < band_hi:
        raise DomainError(
            "simulation requires a nonzero bandwidth (half_bandwidth_W > 0, b > 0) "
            f"that separates the band edges, got the band {scenario.band}"
        )
    if freq_points < 2 or trials < 1:
        raise DomainError(
            f"simulation needs freq_points >= 2 and trials >= 1, got "
            f"{freq_points} and {trials}"
        )

    _, n_max = truncation_indices(scenario)
    if n_max > _MAX_BESSEL_ORDER:
        raise ResolutionError(
            f"analysis degree n_max = {n_max} exceeds the largest supported "
            f"Bessel order {_MAX_BESSEL_ORDER}"
        )
    # F_n grows with n, so a finite F_{n_max} means every cutoff is finite.
    top_cutoff = critical_frequency(scenario, n_max)
    if not math.isfinite(top_cutoff):
        raise DomainError(
            f"critical frequency F_{n_max} of the top analysis mode is "
            f"{top_cutoff!r}: radius_R = {scenario.radius_R!r} is too small"
        )
    c = scenario.wave_speed_c
    k_max_r = 2.0 * math.pi * band_hi * scenario.radius_R / c
    n_field = math.ceil(k_max_r) + _JACOBI_GUARD
    required_degree = n_max + n_field
    quad_degree = quad_degree or required_degree
    if quad_degree < required_degree:
        raise ResolutionError(
            f"quadrature degree {quad_degree} is insufficient for kR = "
            f"{k_max_r:.3f} with analysis degree {n_max}; required degree is "
            f"{required_degree}"
        )
    nodes = (quad_degree + 1) * (2 * quad_degree + 2)
    if nodes * freq_points > FIELD_ELEMENT_LIMIT:
        raise ResolutionError(
            f"simulated field of {nodes} quadrature nodes x {freq_points} "
            f"frequencies exceeds the limit of {FIELD_ELEMENT_LIMIT} entries"
        )
    # The reconstruction check interpolates floor(w t_eff) + 1 samples at
    # _RECONSTRUCTION_TIMES instants, as one (samples x instants) matrix.
    t_eff = effective_time(scenario)
    wt = (band_hi - band_lo) * t_eff
    if not wt < FIELD_ELEMENT_LIMIT // _RECONSTRUCTION_TIMES:
        raise ResolutionError(
            f"reconstruction check of floor(w * t_eff) + 1 samples (w * t_eff = "
            f"{wt:.6g}) x {_RECONSTRUCTION_TIMES} instants exceeds the limit of "
            f"{FIELD_ELEMENT_LIMIT} entries"
        )

    grid = SphericalGrid(radius=scenario.radius_R, rule=make_quadrature(quad_degree))
    freqs = np.linspace(band_lo, band_hi, freq_points)
    freq_step = float(freqs[1] - freqs[0])
    waves = _random_sources(sources, freqs, seed)

    field = synthesize_field(waves, grid, freqs, wave_speed_c=c)
    theo = theoretical_modes(waves, scenario.radius_R, freqs, n_max, wave_speed_c=c)
    analyzed = analyze_modes(field, grid, n_max, freqs)
    theo_scale = float(np.max(np.abs(theo.coeffs)))
    jacobi_err = float(np.max(np.abs(analyzed.coeffs - theo.coeffs))) / theo_scale

    analyzed_full = analyze_modes(field, grid, n_field, freqs)
    parseval_err = parseval_check(field, grid, analyzed_full)

    noise = NoiseModel.calibrated(theo, scenario.snr_alpha_max, seed)

    # Noise-variance property: Monte Carlo on one frequency column; per-trial
    # seeds derive from the base seed so trials decorrelate deterministically.
    mid = freqs.size // 2
    column = field[:, [mid]]
    base = analyzed.coeffs[:, [mid]]
    acc = np.zeros(base.shape[0], dtype=float)
    for trial in range(trials):
        noisy = add_noise(column, grid, replace(noise, seed=seed + 1 + trial))
        nu = analyze_modes(noisy, grid, n_max, freqs[[mid]]).coeffs - base
        acc += np.abs(nu[:, 0]) ** 2
    sigma0_sq = noise.sigma0_sq
    noise_var_err = float(np.max(np.abs(acc / trials - sigma0_sq) / sigma0_sq))

    # Detectability: SNR curves from the analyzed (noiseless) spectrum; the
    # noise model enters through sigma0_sq.
    cutoffs = mode_cutoffs(scenario, mode_snr(analyzed, noise), freqs)
    one_sided = all(cutoff.one_sided(freq_step) for cutoff in cutoffs)

    recon_err = _reconstruction_error(
        ModeBand.from_edges(band_lo, band_hi), t_eff, seed + 10_000
    )

    return SimulationResult(
        freq_step=freq_step,
        quad_degree=quad_degree,
        required_degree=required_degree,
        sigma0_sq=sigma0_sq,
        empirical_cutoffs=cutoffs,
        properties=(
            _bounded("jacobi_anger_consistency", jacobi_err, 1e-8),
            _bounded("parseval", parseval_err, 1e-8),
            _bounded("mode_noise_variance", noise_var_err, 5.0 / math.sqrt(trials)),
            CheckedProperty("detectability_one_sided", one_sided, freq_step, one_sided),
            _bounded("reconstruction", recon_err, 1e-2),
        ),
    )
