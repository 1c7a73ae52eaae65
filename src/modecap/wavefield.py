"""Brute-force wavefield verification engine.

Synthesizes band-limited plane-wave fields at the nodes of a quadrature rule
on a sphere of given radius, expands them in spherical harmonics (both
analytically through the Jacobi-Anger expansion and numerically through
quadrature projection on the same rule), injects reproducible
circularly-symmetric white Gaussian noise, and measures per-mode SNR curves
so the closed-form critical frequencies can be checked against detection
thresholds empirically.  Only synthesis and the Jacobi-Anger expansion read
the radius; analysis and noise read the rule alone.  The analysis is a
semi-naive transform: a DFT over each ring's azimuths pruned to the kept
orders |m| <= N, then one sum over the rings per order.

Noise is generated per node with variance sigma0_sq / w_q (w_q the node's
quadrature weight); the projected mode-domain noise then has variance exactly
sigma0_sq and is exactly white across (n, m), because both follow from the
quadrature rule's harmonic-product exactness.

simulate runs the whole check for one scenario and returns a
SimulationResult with its five checked properties; verify_invariants checks
seven cross-module invariants on fixed grids.  Both report CheckedProperty
records.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dofcore import (
    NormalizedParams,
    Scenario,
    _is_pointlike,
    critical_frequency,
    dof_closed_form,
    dof_mode_sum,
    dof_normalized_breakdown,
    effective_time,
    truncation_indices,
)
from .errors import DomainError, ResolutionError, require_index
from .sampling import (
    ModeBand,
    SampleTrain,
    legendre_support_check,
    phi_inner,
    reconstruct,
)
from .specfun import (
    _MAX_BESSEL_ORDER,
    _sph_bessel_table,
    QuadratureRule,
    flat_degrees,
    harmonic_matrix,
    make_quadrature,
    sph_bessel_j,
    sph_bessel_j_bound,
)

__all__ = [
    "PlaneWaveSource",
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
    "verify_invariants",
]

_SPEED_OF_LIGHT = 299792458.0

# Degrees simulate keeps beyond ceil(kR) in a plane wave's Jacobi-Anger
# series; past kR, j_n(kR) falls off faster than geometrically.
_JACOBI_GUARD = 20

# Most complex entries (quadrature nodes x frequencies) a simulated field may
# hold: 160 MB.  Besides the field, its spectra and one polar table,
# simulate's temporaries are blocks of at most max(2 MiB, field bytes / 8),
# or of _MIN_DFT_COLUMNS frequencies where that is larger (_freq_blocks).
FIELD_ELEMENT_LIMIT = 10_000_000

# Floor of the byte bound on the analysis and Parseval temporaries of each
# frequency block; see _freq_blocks.
_BLOCK_FLOOR = 2 << 20

# Fewest frequencies per block of analyze_modes.  Each block's DFT packs the
# (2N+1) x P root table once per ring, so narrower blocks pay that more
# often: at N = 198, P = 730 and 16 frequencies the DFT took 0.54 s in blocks
# of 3 and 0.17 s in blocks of 8, against 0.18 s unblocked.
_MIN_DFT_COLUMNS = 8

# Consecutive grid frequencies that share one anchor in synthesize_field's
# angle addition; 16 = sqrt(256) balances anchors against offsets at
# simulate's 257-point grids.
_PHASE_BLOCK = 16

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
        if not np.all(np.isfinite(amp)):
            raise DomainError("source amplitude must be finite")
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
class ModeSpectrum:
    """Mode-domain field Psi_nm(r, omega): coeffs[(n*n + n + m), freq_index].

    `alpha` holds the plane-wave excitation alpha_nm(omega), with Psi_nm =
    i^n alpha_nm j_n(omega r / c), in the layout of coeffs, when the
    spectrum was built from it (theoretical_modes), and is None for a
    measured spectrum.
    """

    coeffs: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 2:
            raise DomainError(
                f"coeffs must have shape ((N+1)^2, freqs), got {coeffs.shape}"
            )
        side = math.isqrt(coeffs.shape[0])
        if side * side != coeffs.shape[0]:
            raise DomainError(
                f"coeffs first dimension {coeffs.shape[0]} is not a perfect square"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.alpha is not None:
            alpha = np.asarray(self.alpha, dtype=complex)
            if alpha.shape != coeffs.shape:
                raise DomainError(
                    f"alpha must have the shape of coeffs, {coeffs.shape}, got "
                    f"{alpha.shape}"
                )
            alpha.setflags(write=False)
            object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class NoiseModel:
    """White noise of per-mode power sigma0_sq from the generator seed.

    sigma0_sq = 0 is the noiseless degenerate case: add_noise is the
    identity and SNR is undefined.
    """

    sigma0_sq: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma0_sq) and self.sigma0_sq >= 0):
            raise DomainError(f"sigma0_sq must be >= 0, got {self.sigma0_sq!r}")
        object.__setattr__(self, "seed", require_index("seed", self.seed, 2**64 - 1))

    @classmethod
    def calibrated(
        cls, signal: ModeSpectrum, snr_alpha_max: float, seed: int
    ) -> "NoiseModel":
        """Noise that puts the peak excitation power max |alpha_nm|^2 of
        `signal` (a theoretical_modes spectrum) at the peak SNR
        snr_alpha_max."""
        if signal.alpha is None:
            raise DomainError(
                "calibrated noise needs the excitation alpha of theoretical_modes"
            )
        alpha_max_sq = float(np.max(np.abs(signal.alpha) ** 2))
        return cls(sigma0_sq=alpha_max_sq / snr_alpha_max, seed=seed)


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
    """A property simulate or verify_invariants checks: its measured value,
    the tolerance it is held to, and whether it held.  A numeric value
    passes when value <= tolerance; a bool value is the verdict itself."""

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


def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be finite and > 0, got {radius!r}")


def _check_wave_speed(wave_speed_c: float) -> None:
    if not (math.isfinite(wave_speed_c) and wave_speed_c > 0):
        raise DomainError(f"wave speed must be finite and > 0, got {wave_speed_c!r}")


def _cis(t: np.ndarray) -> np.ndarray:
    """e^{i t} for real t, from one cosine and one sine pass.  Each is within
    an ulp, as np.exp(1j * t) is, and together they took 62 against 79 us
    on a 47 x 57 table (2-core Intel Xeon, NumPy 2.4.6)."""
    out = np.empty(t.shape, dtype=complex)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def synthesize_field(
    sources: Sequence[PlaneWaveSource],
    rule: QuadratureRule,
    radius: float,
    freqs,
    *,
    wave_speed_c: float = _SPEED_OF_LIGHT,
) -> np.ndarray:
    """Superpose plane waves on the rule's nodes on the sphere of the given
    radius: sum of A(omega) e^{i k R x.y}.

    Returns a complex array of shape (nodes, frequencies).

    The field is built one mirror pair of rings at a time in the rule's
    ring-major layout (rings x P azimuths, P = 2*max_degree+2 even).  On
    ring j, azimuth k and source direction u the phase factors as

        e^{i k R cos(theta_j) u_z}
        * e^{i k R sin(theta_j) (u_x cos(phi_k) + u_y sin(phi_k))},

    so each source needs a polar factor per ring, which also carries
    A(omega), and one (P/2 x F) lateral table per mirror pair of rings.
    Node k + P/2 sits at phi_k + pi, where the second factor is the complex
    conjugate of its value at phi_k, so the other half of a ring costs a
    conjugate.  Ring T-1-j sits at pi - theta_j, where sin(theta) and so
    the second factor are the same, so the table of ring j <= (T-1)/2
    serves its mirror too; only the polar factor differs.  The equator ring
    of an odd ring count T is its own mirror.  The ring angles and the first
    P/2 azimuths come from the rule; both pairings hold to the 1e-12 rad to
    which QuadratureRule checks its layout (the uniform azimuths are what
    the azimuthal DFT of analyze_modes relies on as well).

    Each table e^{i x kR_f} is formed by angle addition (Press et al.,
    Numerical Recipes, 5.4): the grid kR_f = 2 pi R f / c is cut into
    blocks of _PHASE_BLOCK points, kR_f = kR_b + delta_f with kR_b the
    block's first point, and e^{i x kR_f} = e^{i x kR_b} e^{i x delta_f} is
    one product of two entries looked up from exact exponential tables over
    the anchors kR_b and over the D distinct offsets delta_f.  A mirror pair
    thus costs P/2 (ceil(F/_PHASE_BLOCK) + D) complex exponentials per
    source, plus 2 (ceil(F/_PHASE_BLOCK) + D) for its polar factors,
    instead of (P/2 + 2) F.  What makes the offsets repeat is an evenly
    spaced grid, which every simulate call builds with np.linspace: there the
    offsets agree from block to block up to a few last-bit variants, and at
    simulate's 257 points D is 37 on the simulate-trials band and 57 on the
    simulate-wide one, so 54 and 74 exponentials per azimuth instead of 257.
    On an irregular grid no offset repeats and the tables cost slightly more
    than one exponential per entry.  The anchors get exact values (their
    offset is 0), and elsewhere the product adds one rounding: against the
    node-by-node sum in 80-bit arithmetic, the field on those two
    benchmark grids (seeds 1 to 3) is within 1.3 to 2.4 eps kR_max
    sum max|A|, as was the synthesis with one exponential per entry.
    Temporaries are bounded by one ring, not the whole field; the first
    source writes each ring in place and the others add one term buffer.
    """
    if len(sources) == 0:
        raise DomainError("synthesize_field requires at least one source")
    _check_radius(radius)
    freqs = _check_freqs(freqs)
    _check_wave_speed(wave_speed_c)
    kr = 2.0 * np.pi * radius * freqs / wave_speed_c
    block_of = np.arange(kr.size) // _PHASE_BLOCK
    anchors = kr[::_PHASE_BLOCK]
    offsets, offset_of = np.unique(kr - anchors[block_of], return_inverse=True)
    rings, azimuths = rule.ring_shape
    half = azimuths // 2
    theta = rule.theta[::azimuths]
    phi = rule.phi[:half]
    sin_theta, cos_theta = np.sin(theta), np.cos(theta)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    waves = []
    for src in sources:
        ux, uy, uz = src.unit_vector()
        waves.append((uz, ux * cos_phi + uy * sin_phi, src.spectrum_on(freqs)))
    field = np.empty((rings, azimuths, freqs.size), dtype=complex)
    # Rows 0..P/2-1: the pair's lateral table; then one polar row per ring.
    tables = np.empty((half + 2, freqs.size), dtype=complex)
    ring = tables[:half]
    term = np.empty_like(tables)
    for j in range((rings + 1) // 2):
        pair = [j] if 2 * j == rings - 1 else [j, rings - 1 - j]
        for s, (uz, lateral, amp) in enumerate(waves):
            x = np.concatenate((sin_theta[j] * lateral, cos_theta[pair] * uz))
            # e^{i x kr} by angle addition: anchor times offset, both
            # gathered into the two ring-sized buffers, so the loop makes no
            # ring-sized temporary.  The indices are in range, so
            # mode="clip" changes nothing but lets take write to out
            # without buffering it.
            np.take(_cis(np.multiply.outer(x, anchors)), block_of, axis=1,
                    out=tables[: x.size], mode="clip")
            tables[: x.size] *= np.take(
                _cis(np.multiply.outer(x, offsets)), offset_of, axis=1,
                out=term[: x.size], mode="clip")
            polar = tables[half : x.size]
            polar *= amp
            for side in (slice(None, half), slice(half, None)):
                if side.start:
                    # Azimuth k + P/2 sits at phi_k + pi: the conjugate.
                    np.conjugate(ring, out=ring)
                for r, factor in zip(pair, polar):
                    if s == 0:
                        np.multiply(factor, ring, out=field[r, side])
                    else:
                        field[r, side] += np.multiply(factor, ring, out=term[:half])
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

    alpha_nm(omega) = sum over sources of 4 pi A(omega) conj(Y_nm(y));
    Psi_nm = i^n alpha_nm j_n(omega R / c).  The returned spectrum keeps
    alpha, which NoiseModel.calibrated reads.
    """
    N = require_index("analysis degree", N)
    _check_radius(radius)
    freqs = _check_freqs(freqs)
    _check_wave_speed(wave_speed_c)
    z = 2.0 * np.pi * freqs * radius / wave_speed_c
    bessel = _sph_bessel_table(N, z)

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
    return ModeSpectrum(coeffs=coeffs, alpha=alpha)


def _freq_blocks(
    field: np.ndarray, column_bytes: int, min_width: int = 1
) -> tuple[int, list[slice]]:
    """The widest block and the blocks of an even split of the frequency
    axis of a (nodes, F) field, such that column_bytes of temporaries per
    frequency stay within max(2 MiB, field bytes / 8) per block, or within
    min_width columns where that is larger.

    Widths differ by one at most, so no lone column trails wide blocks.
    """
    freq_count = field.shape[1]
    if not freq_count:
        return 0, []
    width = max(min_width, max(_BLOCK_FLOOR, field.nbytes // 8) // column_bytes)
    count = -(-freq_count // width)
    edges = [i * freq_count // count for i in range(count + 1)]
    return -(-freq_count // count), [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def analyze_modes(field: np.ndarray, rule: QuadratureRule, N: int) -> ModeSpectrum:
    """Project a field sampled on the rule's nodes, of shape (nodes, F) with
    F >= 1 frequencies, onto Y_nm by quadrature, up to degree N.

    The rule is a product of rings and uniform azimuths, so the projection
    splits (the semi-naive spherical-harmonic transform of Driscoll & Healy
    1994 and Healy et al. 2003): a DFT over each ring's P azimuths gives
    bin m = sum_k f e^{-i m phi_k} for the kept orders m = -N..N only, and
    each order m then sums those bins over the rings against the weighted
    conj(Y_nm(theta_j, 0)), n = |m|..N.  The DFT is one batched product with
    a (2N+1) x P table whose entries are the P roots of unity indexed by
    m k mod P, so no (N+1)^2 x nodes basis and no (rings, P, F) bins array
    is formed.  Y_nm(theta, 0) is real and Y_{n,-m}(theta, 0) =
    (-1)^m Y_nm(theta, 0), so the weighted polar rows of order m >= 0 serve
    orders m and -m in one real product.

    Both steps run over blocks of frequencies (_freq_blocks): besides the
    field, the returned spectrum and the (N+1)(N+2)/2 x rings weighted polar
    rows, the call holds one block's bins, at most max(2 MiB, field bytes /
    8) or the rings x (2N+1) bins of _MIN_DFT_COLUMNS = 8 frequencies where
    that is larger.

    The pruned DFT costs 8 (2N+1) P real flops per ring and frequency
    against an FFT's O(P log P), so it wins while N is small against P.
    On a 2-core EPYC with NumPy 2.4 and OpenBLAS the whole analysis took,
    against a full-ring FFT: 12 against 50 ms at degree 46, N = 16 and 257
    frequencies (simulate-wide's shape, where the prime factor 47 of
    P = 94 slows the FFT); 75 against 132 ms at degree 90, N = 41; within
    5% either way for one frequency column; 0.84 against 1.07 s at degree
    400, N = 100.  It lost at the quadrature cap, degree
    512 with N = 256 and 18 frequencies (7.3 against 6.6 s).  The azimuthal
    step alone lost at degree 250 with N = 125 and 250 (1.15x and 2.3x),
    at degree 400 with N = 200 (1.7x) and at degree 512 with N = 256
    (3.4x); there the shared polar work hides most of the difference.

    Raises DomainError for a field of any other shape, and ResolutionError
    when N exceeds the rule's max_degree (the projection would alias);
    callers must additionally budget max_degree >= N + field content degree
    for exactness.
    """
    N = require_index("analysis degree", N)
    field = np.asarray(field, dtype=complex)
    if field.ndim != 2 or field.shape[0] != len(rule) or field.shape[1] == 0:
        raise DomainError(
            f"field shape {field.shape} is not (nodes, freqs) = ({len(rule)}, F) "
            "with F >= 1"
        )
    if N > rule.max_degree:
        raise ResolutionError(
            f"analysis degree {N} exceeds the rule's max_degree "
            f"{rule.max_degree}; the projection would alias"
        )
    rings, azimuths = rule.ring_shape
    freq_count = field.shape[1]
    # Root table rows: 0 holds order 0 and 2m-1, 2m orders m and -m, the
    # latter times (-1)^m.
    k = np.arange(azimuths)
    roots = np.exp(-2j * np.pi * k / azimuths)
    row = np.arange(2 * N + 1)
    table = roots[np.multiply.outer((row + 1) // 2 * np.where(row % 2, 1, -1), k) % azimuths]
    table[2::4] *= -1.0
    # Flat rows n*n + n + m and n*n + n - m, n = m..N, of each order m >= 0.
    degrees = np.arange(N + 1)
    pronic = degrees * (degrees + 1)
    rows_of = [(pronic[m:] + m, pronic[m:] - m) for m in range(N + 1)]
    # Y_nm(theta, 0) is real: keep the weighted real rows of the orders
    # m >= 0, order after order, and drop the complex table before the bins
    # exist, so they never coexist with it or its build's temporaries.
    polar = harmonic_matrix(N, rule.theta[::azimuths], np.zeros(rings)).real
    weighted = polar[np.concatenate([plus for plus, _ in rows_of])]
    del polar
    weighted *= rule.weights[::azimuths]
    by_order = np.split(weighted, np.cumsum([plus.size for plus, _ in rows_of[:-1]]))
    rings_field = field.reshape(rings, azimuths, freq_count)
    widest, blocks = _freq_blocks(field, rings * (2 * N + 1) * 16, _MIN_DFT_COLUMNS)
    bins = np.empty(rings * (2 * N + 1) * widest, dtype=complex)
    coeffs = np.empty(((N + 1) ** 2, freq_count), dtype=complex)
    for block in blocks:
        width = block.stop - block.start
        part = bins[: rings * (2 * N + 1) * width].reshape(rings, 2 * N + 1, width)
        np.matmul(table, rings_field[:, :, block], out=part)
        # Y_{n,-m}(theta, 0) = (-1)^m Y_nm(theta, 0) and the table carries
        # the sign, so orders m and -m share one real product with the
        # polar rows of m, on the bins' real and imaginary parts alike.
        for m, ((plus, minus), polar_rows) in enumerate(zip(rows_of, by_order)):
            pair = part[:, max(2 * m - 1, 0) : 2 * m + 1].reshape(rings, -1)
            sums = (polar_rows @ pair.view(float)).view(complex)
            coeffs[plus, block] = sums[:, :width]
            if m:
                coeffs[minus, block] = sums[:, width:]
    return ModeSpectrum(coeffs=coeffs)


def add_noise(field: np.ndarray, rule: QuadratureRule, noise: NoiseModel) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise per node and frequency.

    Node q gets variance sigma0_sq / w_q, which makes every projected mode
    coefficient's noise variance exactly sigma0_sq and exactly white across
    modes.  Counter-based generator: bitwise reproducible for a fixed seed.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[0] != len(rule):
        raise DomainError(
            f"field has {field.shape[0]} rows but the rule has {len(rule)} nodes"
        )
    if noise.sigma0_sq == 0:
        return field.copy()
    rng = np.random.Generator(np.random.Philox(noise.seed))
    std = np.sqrt(noise.sigma0_sq / (2.0 * rule.weights))
    # The draws fill the real parts, then the imaginary ones, through one
    # float buffer: the generator writes only to contiguous arrays.
    draw = rng.standard_normal(field.shape)
    noisy = np.empty(field.shape, dtype=complex)
    noisy.real = draw
    noisy.imag = rng.standard_normal(out=draw)
    noisy *= std.reshape((-1,) + (1,) * (field.ndim - 1))
    noisy += field
    return noisy


def mode_snr(signal: ModeSpectrum, noise: NoiseModel) -> np.ndarray:
    """Per-mode SNR curves |Psi_nm(omega)|^2 / sigma0_sq.

    Since Psi_nm = i^n alpha_nm j_n(omega R / c), this equals
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
    field: np.ndarray, rule: QuadratureRule, spectrum: ModeSpectrum
) -> float:
    """Worst per-frequency relative gap between node-domain power and
    mode-domain power.

    Computes | integral |field|^2 dOmega - sum_nm |Psi_nm|^2 | / (node power)
    at each frequency and returns the maximum; frequencies where the field
    is identically zero contribute zero (both powers vanish).  Both powers
    are summed over the frequency blocks of analyze_modes, so the squared
    magnitudes take at most max(2 MiB, field bytes / 8), or one frequency
    column's where that is larger.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[0] != len(rule):
        raise DomainError(
            f"field has {field.shape[0]} rows but the rule has {len(rule)} nodes"
        )
    if field.shape[1] != spectrum.coeffs.shape[1]:
        raise DomainError("field and spectrum frequency grids differ in length")
    coeffs = spectrum.coeffs
    rows = max(field.shape[0], coeffs.shape[0])
    widest, blocks = _freq_blocks(field, 8 * rows)
    # |field|^2 and then |coeffs|^2 of one block at a time, in one buffer.
    buffer = np.empty(rows * widest)
    node_power = np.empty(field.shape[1])
    mode_power = np.empty(field.shape[1])
    for block in blocks:
        width = block.stop - block.start
        power = np.abs(field[:, block], out=buffer[: field.shape[0] * width].reshape(-1, width))
        node_power[block] = rule.weights @ np.square(power, out=power)
        power = np.abs(coeffs[:, block], out=buffer[: coeffs.shape[0] * width].reshape(-1, width))
        mode_power[block] = np.sum(np.square(power, out=power), axis=0)
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
    train = SampleTrain(values=values, ell_lo=0)
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


def _detectability(
    scenario: Scenario, signal: ModeSpectrum, noise: NoiseModel, freqs: np.ndarray
) -> tuple[tuple[ModeCutoff, ...], CheckedProperty]:
    """Each mode's cutoff from the SNR of `signal` under `noise` on the grid
    freqs, and the property that none is detected more than one grid step
    below its F_n."""
    step = float(freqs[1] - freqs[0])
    cutoffs = mode_cutoffs(scenario, mode_snr(signal, noise), freqs)
    one_sided = all(cutoff.one_sided(step) for cutoff in cutoffs)
    record = CheckedProperty("detectability_one_sided", one_sided, step, one_sided)
    return cutoffs, record


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

    Raises DomainError for a = F0 R / c = 0 (R = 0 included), a band F0 +- W
    of zero width in floating point (W = 0 included), sources < 1,
    freq_points < 2, trials < 1, a seed outside [0, 2**64 - 1 - trials] (the
    noise trials use seeds up to seed + trials), or an R so small that
    F_{n_max} overflows, and ResolutionError for n_max above the largest
    Bessel order sph_bessel_j accepts, a degree below the required one, a
    field of more than FIELD_ELEMENT_LIMIT node x frequency entries or a
    reconstruction check of more than FIELD_ELEMENT_LIMIT sample x instant
    entries; both before any quadrature is built.
    """
    band_lo, band_hi = scenario.band
    if _is_pointlike(scenario):
        raise DomainError("simulation requires a = F0 R / c > 0")
    if not band_lo < band_hi:
        raise DomainError(
            "simulation requires a nonzero bandwidth (half_bandwidth_W > 0, b > 0) "
            f"that separates the band edges, got the band {scenario.band}"
        )
    if sources < 1 or freq_points < 2 or trials < 1:
        raise DomainError(
            f"simulation needs sources >= 1, freq_points >= 2 and trials >= 1, "
            f"got {sources}, {freq_points} and {trials}"
        )
    seed = require_index("seed", seed, 2**64 - 1 - trials)

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

    rule = make_quadrature(quad_degree)
    freqs = np.linspace(band_lo, band_hi, freq_points)
    freq_step = float(freqs[1] - freqs[0])
    waves = _random_sources(sources, freqs, seed)

    field = synthesize_field(waves, rule, scenario.radius_R, freqs, wave_speed_c=c)
    # The n_field analysis goes first and its spectrum is dropped before the
    # n_max spectra exist, so no two analyses' spectra are live at once.
    parseval_err = parseval_check(field, rule, analyze_modes(field, rule, n_field))
    theo = theoretical_modes(waves, scenario.radius_R, freqs, n_max, wave_speed_c=c)
    analyzed = analyze_modes(field, rule, n_max)
    theo_scale = float(np.max(np.abs(theo.coeffs)))
    jacobi_err = float(np.max(np.abs(analyzed.coeffs - theo.coeffs))) / theo_scale
    noise = NoiseModel.calibrated(theo, scenario.snr_alpha_max, seed)
    # Each noise trial builds an n_max polar table, so free the two
    # theoretical spectra first.
    del theo

    # Noise-variance property: Monte Carlo on one frequency column; per-trial
    # seeds derive from the base seed so trials decorrelate deterministically.
    mid = freqs.size // 2
    column = field[:, [mid]]
    base = analyzed.coeffs[:, [mid]]
    acc = np.zeros(base.shape[0], dtype=float)
    for trial in range(trials):
        noisy = add_noise(column, rule, replace(noise, seed=seed + 1 + trial))
        nu = analyze_modes(noisy, rule, n_max).coeffs - base
        acc += np.abs(nu[:, 0]) ** 2
    sigma0_sq = noise.sigma0_sq
    noise_var_err = float(np.max(np.abs(acc / trials - sigma0_sq) / sigma0_sq))

    # Detectability: SNR curves from the analyzed (noiseless) spectrum; the
    # noise model enters through sigma0_sq.
    cutoffs, detectability = _detectability(scenario, analyzed, noise, freqs)

    recon_err = _reconstruction_error(ModeBand(band_lo, band_hi), t_eff, seed + 10_000)

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
            detectability,
            _bounded("reconstruction", recon_err, 1e-2),
        ),
    )


def _bessel_envelope_bound() -> CheckedProperty:
    """Largest |j_n(z)| / (sph_bessel_j_bound(n, z) + 1e-300) over n = 0..8,
    20, 50 and 321 points z in [0, 40]; inf if the bound of some n >= 1
    decreases in z.  The 1e-300 floor keeps z = 0, where the bound of every
    n >= 1 is zero, finite."""
    z = np.linspace(0.0, 40.0, 321)
    worst = 0.0
    for n in [*range(9), 20, 50]:
        bound = sph_bessel_j_bound(n, z)
        ratio = float(np.max(np.abs(sph_bessel_j(n, z)) / (bound + 1e-300)))
        decreasing = n >= 1 and np.any(np.diff(bound) < 0)
        worst = max(worst, math.inf if decreasing else ratio)
    return _bounded("bessel_envelope_bound", worst, 1 + 1e-12)


def _harmonic_gram_identity() -> CheckedProperty:
    """max |Gram - I| of the degree-10 harmonics under the degree-10 rule."""
    rule = make_quadrature(10)
    y = harmonic_matrix(10, rule.theta, rule.phi)
    gram = (y * rule.weights) @ y.conj().T
    err = float(np.max(np.abs(gram - np.eye(y.shape[0]))))
    return _bounded("harmonic_gram_identity", err, 1e-12)


def _phi_orthogonality() -> CheckedProperty:
    """Largest w_n |phi_inner - delta / w_n| over five index pairs of the
    band [10, 13] Hz."""
    band = ModeBand(10.0, 13.0)
    w = band.w_n
    worst = max(
        abs(phi_inner(ell, ellp, band, 50.0 / w) - (ell == ellp) / w) * w
        for ell, ellp in [(0, 0), (0, 1), (0, 3), (5, 5), (2, 7)]
    )
    return _bounded("phi_orthogonality", worst, 1e-6)


def _legendre_support_additivity() -> CheckedProperty:
    """Largest distance of the measured convolution support of a 1 ms signal
    from T + 2r/c at r = 0.3 m, n = 0, 1, 3, held to one grid step."""
    obs_t, r, c = 1e-3, 0.3, 3e8
    expected = obs_t + 2.0 * r / c
    worst = max(
        abs(legendre_support_check(np.ones_like, obs_t, r, n, c) - expected)
        for n in (0, 1, 3)
    )
    return _bounded("legendre_support_additivity", worst, r / c / 256.0 * (1 + 1e-6))


def _dof_ordering() -> CheckedProperty:
    """Largest ratio of the exact mode sum to the closed form over a grid of
    normalized points."""
    worst = 0.0
    for a, b, d, rho in itertools.product(
        (0.25, 0.7, 1.0, 2.5), (0.05, 0.3, 0.65, 1.0), (0.0, 1.0, 10.0),
        (1.0, 10.0, 1e3),
    ):
        s = NormalizedParams(a=a, b=b, d=d, rho=rho).to_scenario()
        worst = max(worst, dof_mode_sum(s) / dof_closed_form(s).total)
    return _bounded("dof_ordering", worst, 1 + 1e-12)


def _dof_consistency() -> CheckedProperty:
    """Largest relative gap between the SI and the normalized closed form,
    over a grid of normalized points realized at F0 = 370 MHz and
    c = 2.2e8 m/s; its rho = 1 points cover the high-SNR form."""
    worst = 0.0
    for a, b, d, rho in itertools.product(
        (0.3, 1.0, 2.0), (0.0, 0.4, 1.0), (0.0, 2.0), (0.5, 1.0, 20.0)
    ):
        p = NormalizedParams(a=a, b=b, d=d, rho=rho)
        s = p.to_scenario(mid_freq_F0=3.7e8, wave_speed_c=2.2e8)
        closed = dof_closed_form(s).total
        worst = max(worst, abs(closed - dof_normalized_breakdown(p).total) / closed)
    return _bounded("dof_consistency", worst, 1e-9)


def _detectability_one_sided() -> CheckedProperty:
    """Detectability of the Jacobi-Anger modes of one plane wave on a
    129-point grid, with noise calibrated to snr_alpha_max = 1e4."""
    scenario = Scenario(
        radius_R=0.5,
        mid_freq_F0=1.0,
        half_bandwidth_W=0.25,
        obs_time_T=2.0,
        wave_speed_c=1.0,
        threshold_gamma=1.0,
        snr_alpha_max=1e4,
    )
    freqs = np.linspace(*scenario.band, 129)
    theo = theoretical_modes(
        [PlaneWaveSource(theta=1.1, phi=0.4, amplitude=1.0)], scenario.radius_R, freqs,
        truncation_indices(scenario)[1], wave_speed_c=scenario.wave_speed_c,
    )
    noise = NoiseModel.calibrated(theo, scenario.snr_alpha_max, seed=1)
    return _detectability(scenario, theo, noise, freqs)[1]


def verify_invariants() -> tuple[CheckedProperty, ...]:
    """Seven cross-module invariants, each checked on a fixed grid, in this
    order:

    - bessel_envelope_bound: |j_n| lies under its increasing envelope;
    - harmonic_gram_identity: the quadrature makes the harmonics orthonormal;
    - phi_orthogonality: the interpolation basis is orthogonal with norm
      1/w_n;
    - legendre_support_additivity: the Legendre-kernel convolution of a
      T-long signal spans T + 2r/c;
    - dof_ordering: the exact mode sum never exceeds the closed form;
    - dof_consistency: the SI and the normalized closed forms agree;
    - detectability_one_sided: no mode is detected more than one grid step
      below its F_n.
    """
    return (
        _bessel_envelope_bound(),
        _harmonic_gram_identity(),
        _phi_orthogonality(),
        _legendre_support_additivity(),
        _dof_ordering(),
        _dof_consistency(),
        _detectability_one_sided(),
    )
