"""Unit tests for plane-wave synthesis, mode analysis, and noise projection.

The synthesis/analysis pair is checked against the direct expansion of a
plane wave in spherical modes (two independent routes through the code), a
closed form for the monopole row, and seeded Monte Carlo statistics.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from modecap import wavefield
from modecap.dofcore import NormalizedParams, Scenario, critical_frequency, \
    truncation_indices
from modecap.errors import DomainError, ResolutionError
from modecap.sampling import legendre_support_check
from modecap.specfun import QuadratureRule, flat_degrees, harmonic_matrix, \
    make_quadrature, sph_bessel_j
from modecap.wavefield import (
    FIELD_ELEMENT_LIMIT,
    ModeSpectrum,
    NoiseModel,
    PlaneWaveSource,
    add_noise,
    analyze_modes,
    empirical_critical_frequency,
    mode_snr,
    parseval_check,
    simulate,
    synthesize_field,
    theoretical_modes,
)


def test_monopole_row_closed_form() -> None:
    src = PlaneWaveSource(theta=1.2, phi=0.3, amplitude=1.0 + 0.0j)
    freqs = np.array([0.5, 1.0, 2.0])
    k_r = 2.0 * math.pi * freqs  # radius 1, unit wave speed
    spectrum = theoretical_modes([src], 1.0, freqs, 4, wave_speed_c=1.0)
    ref = math.sqrt(4.0 * math.pi) * sph_bessel_j(0, k_r)
    assert np.max(np.abs(spectrum.coeffs[0] - ref)) < 1e-13


def test_analysis_matches_direct_expansion() -> None:
    sources = [
        PlaneWaveSource(theta=0.9, phi=2.0, amplitude=1.0 + 0.5j),
        PlaneWaveSource(theta=2.4, phi=5.5, amplitude=-0.3 + 0.1j),
    ]
    k_r = 5.0
    freqs = np.array([k_r / (2.0 * math.pi)])
    n_cap = 10
    rule = make_quadrature(n_cap + math.ceil(k_r) + 20)
    field = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
    analyzed = analyze_modes(field, rule, n_cap)
    theory = theoretical_modes(sources, 1.0, freqs, n_cap, wave_speed_c=1.0)
    gap = np.linalg.norm(analyzed.coeffs - theory.coeffs)
    assert gap / np.linalg.norm(theory.coeffs) < 1e-10


def test_antipodal_pair_synthesizes_a_real_field() -> None:
    rule = make_quadrature(12)
    sources = [
        PlaneWaveSource(theta=0.8, phi=1.1, amplitude=1.0 + 0.0j),
        PlaneWaveSource(theta=math.pi - 0.8, phi=1.1 + math.pi,
                        amplitude=1.0 + 0.0j),
    ]
    field = synthesize_field(sources, rule, 0.5, np.array([2.0]), wave_speed_c=1.0)
    assert np.max(np.abs(field.imag)) < 1e-12 * np.max(np.abs(field))


def test_plane_wave_source_geometry_and_spectra() -> None:
    src = PlaneWaveSource(theta=math.pi / 2, phi=0.0, amplitude=2.0 - 1.0j)
    x, y, z = src.unit_vector()
    assert (x, y, z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
    freqs = np.array([1.0, 2.0, 3.0])
    assert np.all(src.spectrum_on(freqs) == 2.0 - 1.0j)
    shaped = PlaneWaveSource(theta=0.1, phi=0.2,
                             amplitude=np.array([1j, 2j, 3j]))
    assert np.all(shaped.spectrum_on(freqs) == np.array([1j, 2j, 3j]))
    with pytest.raises(DomainError):
        shaped.spectrum_on(np.array([1.0, 2.0]))


@pytest.mark.parametrize("amplitude", [np.nan, np.array([1.0, np.nan]),
                                       complex(math.inf, 0.0)])
def test_plane_wave_source_rejects_a_non_finite_amplitude(amplitude) -> None:
    with pytest.raises(DomainError, match="source amplitude must be finite"):
        PlaneWaveSource(theta=0.5, phi=0.5, amplitude=amplitude)


def test_synthesize_rejects_empty_and_bad_inputs() -> None:
    rule = make_quadrature(4)
    with pytest.raises(DomainError):
        synthesize_field([], rule, 1.0, np.array([1.0]), wave_speed_c=1.0)
    src = PlaneWaveSource(theta=0.0, phi=0.0)
    with pytest.raises(DomainError):
        synthesize_field([src], rule, 1.0, np.array([-1.0]), wave_speed_c=1.0)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="radius must be finite and > 0"):
            synthesize_field([src], rule, radius, np.array([1.0]), wave_speed_c=1.0)


def _direct_synthesis(sources, rule, radius, freqs, wave_speed_c):
    """Node-by-node sum of A(omega) e^{i k R x.y}: the reference for the
    ring-by-ring synthesis."""
    k = 2.0 * np.pi * freqs / wave_speed_c
    st = np.sin(rule.theta)
    nodes = np.column_stack(
        (st * np.cos(rule.phi), st * np.sin(rule.phi), np.cos(rule.theta))
    )
    field = np.zeros((len(rule), freqs.size), dtype=complex)
    for src in sources:
        amp = src.spectrum_on(freqs)
        projection = nodes @ src.unit_vector()
        field += amp[None, :] * np.exp(
            1j * radius * projection[:, None] * k[None, :]
        )
    return field


def _linspace_rule(degree: int) -> QuadratureRule:
    rule = make_quadrature(degree)
    rings, azimuths = rule.ring_shape
    ring_phi = np.linspace(0.0, 2.0 * np.pi, azimuths, endpoint=False)
    return QuadratureRule(theta=rule.theta, phi=np.tile(ring_phi, rings),
                          weights=rule.weights, max_degree=degree)


# At degree 24, linspace differs from 2*pi*k/P in the last bit on 25 of the
# 50 azimuths, and some phi_{k+P/2} - phi_k miss pi by 8.9e-16.
@pytest.mark.parametrize("rule", [make_quadrature(d) for d in (0, 1, 2, 7, 46)]
                         + [_linspace_rule(24)])
def test_synthesis_equals_the_direct_node_sum(rule: QuadratureRule) -> None:
    # Both grids start at f = 0 and reach kR = 2 pi * 11.5 * 1.0 / 1.0 = 72.
    # On the irregular one no frequency offset within a block repeats; the
    # evenly spaced one, like simulate's, shares its offsets between blocks.
    for freqs in (np.array([0.0, 0.3, 1.7, 4.0, 4.1, 9.0, 11.5]),
                  np.linspace(0.0, 11.5, 257)):
        rng = np.random.default_rng(len(rule))
        shaped = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        on_grid = 2.0 * np.pi * 3 / rule.ring_shape[1]
        sources = [
            PlaneWaveSource(theta=0.0, phi=0.0, amplitude=shaped),
            PlaneWaveSource(theta=math.pi, phi=1.3, amplitude=0.5 - 2.0j),
            PlaneWaveSource(theta=1.1, phi=on_grid, amplitude=shaped[::-1]),
            PlaneWaveSource(theta=2.2, phi=4.0,
                            amplitude=np.linspace(0.0, 1.0, freqs.size)),
        ]
        fast = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
        direct = _direct_synthesis(sources, rule, 1.0, freqs, 1.0)
        assert fast.shape == direct.shape == (len(rule), freqs.size)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


def _one_ring_at_a_time(sources, rule, radius, freqs, wave_speed_c):
    """The synthesis arithmetic before mirror rings shared an exponential:
    one exponential per ring, from that ring's own sin(theta)."""
    kr = 2.0 * np.pi * radius * freqs / wave_speed_c
    rings, azimuths = rule.ring_shape
    half = azimuths // 2
    theta = rule.theta[::azimuths]
    phi = rule.phi[:half]
    field = np.zeros((rings, azimuths, freqs.size), dtype=complex)
    for src in sources:
        ux, uy, uz = src.unit_vector()
        polar = np.exp(1j * np.multiply.outer(np.cos(theta) * uz, kr))
        polar *= src.spectrum_on(freqs)
        lateral = ux * np.cos(phi) + uy * np.sin(phi)
        for j in range(rings):
            ring = np.exp(1j * np.multiply.outer(np.sin(theta[j]) * lateral, kr))
            field[j, :half] += polar[j] * ring
            np.conjugate(ring, out=ring)
            ring *= polar[j]
            field[j, half:] += ring
    return field


def _mp_node_sum(sources, rule, freqs, q, f) -> complex:
    """Entry (q, f) of sum A(f) e^{i 2 pi f x_q.u} at mpmath's precision,
    from the double node angles, directions and amplitudes."""
    st = mpmath.sin(rule.theta[q])
    node = (st * mpmath.cos(rule.phi[q]), st * mpmath.sin(rule.phi[q]),
            mpmath.cos(rule.theta[q]))
    k = 2 * mpmath.pi * mpmath.mpf(freqs[f])
    total = mpmath.mpc(0)
    for src in sources:
        a = complex(src.spectrum_on(freqs)[f])
        projection = mpmath.fsum(mpmath.mpf(u) * x
                                 for u, x in zip(src.unit_vector(), node))
        total += mpmath.mpc(a.real, a.imag) * mpmath.expj(k * projection)
    return complex(total)


@pytest.mark.parametrize("degree", [7, 46])
def test_synthesis_moves_only_the_mirror_rings(degree: int) -> None:
    # Ring T-1-j reuses ring j's lateral table, and angle addition shares
    # exponentials across frequencies; neither moves the field by more than
    # rounding.
    rule = make_quadrature(degree)
    freqs = np.linspace(0.0, 11.0, 33)
    rng = np.random.default_rng(degree)
    shaped = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
    sources = [PlaneWaveSource(theta=0.3, phi=1.0, amplitude=shaped),
               PlaneWaveSource(theta=2.0, phi=4.0, amplitude=0.5 - 2.0j),
               PlaneWaveSource(theta=math.pi / 2, phi=0.2, amplitude=1.0)]
    rings, azimuths = rule.ring_shape
    fast = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
    fast = fast.reshape(rings, azimuths, freqs.size)
    old = _one_ring_at_a_time(sources, rule, 1.0, freqs, 1.0)
    assert np.max(np.abs(fast - old)) <= 1e-13 * np.max(np.abs(old))
    # Against 40-digit arithmetic on a seeded sample of entries, the error
    # stays within a few roundings of the largest phase, eps kR_max, per
    # unit of amplitude.  Over the whole field both this synthesis and the
    # one-ring-at-a-time arithmetic measured 1.1 (degree 7) and 1.9
    # (degree 46) times eps kR_max sum max|A|.
    scale = (np.finfo(float).eps * 2.0 * np.pi * freqs[-1]
             * sum(np.max(np.abs(src.spectrum_on(freqs))) for src in sources))
    fast = fast.reshape(rings * azimuths, freqs.size)
    sample = zip(rng.integers(0, len(rule), 256), rng.integers(0, freqs.size, 256))
    with mpmath.workdps(40):
        worst = max(abs(fast[q, f] - _mp_node_sum(sources, rule, freqs, q, f))
                    for q, f in sample)
    assert worst <= 3.0 * scale


def test_synthesis_allocates_little_beyond_its_field() -> None:
    rule = make_quadrature(46)
    freqs = np.linspace(0.0, 11.0, 257)
    sources = [PlaneWaveSource(theta=t, phi=p, amplitude=1.0 + 0.5j)
               for t, p in ((0.3, 1.0), (2.0, 4.0), (1.1, 0.2))]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        field = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert field.nbytes == 4418 * 257 * 16
    assert peak <= 1.25 * field.nbytes


def test_analysis_allocates_no_field_sized_temporary() -> None:
    rule = make_quadrature(46)
    rng = np.random.default_rng(46)
    shape = (len(rule), 257)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        analyze_modes(field, rule, 16)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # Only the 33 kept orders of each ring's 94 azimuths are ever binned.
    assert peak < 0.5 * field.nbytes


def _block_bound(field: np.ndarray) -> int:
    """The analysis and Parseval temporaries' bound: max(2 MiB, field / 8)."""
    return max(2 << 20, field.nbytes // 8)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _wide_field() -> tuple[QuadratureRule, np.ndarray]:
    """A random field on simulate-wide's rule: degree 46, 257 frequencies."""
    rng = np.random.default_rng(30)
    rule = make_quadrature(46)
    shape = (len(rule), 257)
    return rule, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_analysis_temporaries_stay_within_the_block_bound() -> None:
    # simulate-wide's n_field analysis, N = 30; unblocked, its bins alone
    # took 11.2 MiB.
    rule, field = _wide_field()
    spectrum = []
    peak = _traced_peak(lambda: spectrum.append(analyze_modes(field, rule, 30)))
    # Besides the returned spectrum, the weighted polar rows of the orders
    # m >= 0 stay for the whole call.
    polar = 31 * 32 // 2 * rule.ring_shape[0] * 8
    assert peak <= _block_bound(field) + spectrum[0].coeffs.nbytes + polar


def test_parseval_temporaries_stay_within_the_block_bound() -> None:
    # Unblocked, |field|^2 alone took 8.7 MiB.
    rule, field = _wide_field()
    spectrum = analyze_modes(field, rule, 30)
    assert _traced_peak(lambda: parseval_check(field, rule, spectrum)) <= _block_bound(field)


def test_simulate_holds_little_beyond_its_field() -> None:
    # simulate-wide's configuration: a field of 4418 nodes x 257 frequencies.
    scenario = NormalizedParams(a=1.0, b=0.5, d=10.0, rho=100.0).to_scenario()

    def run() -> None:
        simulate(scenario, sources=3, freq_points=257, quad_degree=0, seed=1, trials=8)

    run()
    # The unblocked analysis peaked at 1.99 times the field.
    assert _traced_peak(run) < 1.5 * 4418 * 257 * 16


def _per_order_analysis(field, rule, N):
    """The unblocked semi-naive transform: all bins at once, then one
    complex product per order m = -N..N against the weighted conj(Y_nm)."""
    rings, azimuths = rule.ring_shape
    k = np.arange(azimuths)
    table = np.exp(-2j * np.pi * k / azimuths)[np.multiply.outer(np.arange(-N, N + 1), k) % azimuths]
    polar = harmonic_matrix(N, rule.theta[::azimuths], np.zeros(rings)).conj()
    polar *= rule.weights[::azimuths]
    bins = np.matmul(table, field.reshape(rings, azimuths, field.shape[1]))
    coeffs = np.empty(((N + 1) ** 2, field.shape[1]), dtype=complex)
    for m in range(-N, N + 1):
        n = np.arange(abs(m), N + 1)
        coeffs[n * n + n + m] = polar[n * n + n + m] @ bins[:, m + N]
    return coeffs


# Below 16 MiB of field the bound is 2 MiB, so at degree 46 one block
# holds 2 MiB // (47 rings x (2N+1) x 16 bytes) frequencies: 164 at N = 8
# and 45 at N = 30.  One more takes two blocks.  At N = 0 that would take a
# 197 MB field.
@pytest.mark.parametrize(
    ("N", "freqs", "blocks"),
    [(N, F, 1) for N in (0, 8, 30) for F in (1, 17)]
    + [(0, 257, 1), (8, 257, 2), (30, 257, 6), (8, 165, 2), (30, 46, 2)],
)
def test_blocked_analysis_equals_the_per_order_reference(N: int, freqs: int, blocks: int) -> None:
    rule = make_quadrature(46)
    rng = np.random.default_rng(1000 * N + freqs)
    shape = (len(rule), freqs)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    column_bytes = 47 * (2 * N + 1) * 16
    assert len(wavefield._freq_blocks(field, column_bytes, wavefield._MIN_DFT_COLUMNS)[1]) == blocks
    fast = analyze_modes(field, rule, N).coeffs
    ref = _per_order_analysis(field, rule, N)
    assert np.max(np.abs(fast - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_parseval_of_an_empty_frequency_axis_is_zero() -> None:
    rule = make_quadrature(4)
    field = np.zeros((len(rule), 0), dtype=complex)
    spectrum = ModeSpectrum(coeffs=np.zeros((1, 0), dtype=complex))
    assert parseval_check(field, rule, spectrum) == 0.0


@pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_wave_speed_is_a_domain_error(speed) -> None:
    rule = make_quadrature(4)
    src = PlaneWaveSource(theta=0.5, phi=0.5)
    freqs = np.array([0.0, 1.0])
    calls = [
        lambda: synthesize_field([src], rule, 1.0, freqs, wave_speed_c=speed),
        lambda: theoretical_modes([src], 1.0, freqs, 3, wave_speed_c=speed),
        lambda: legendre_support_check(lambda t: np.ones_like(t), 1.0, 1.0, 2,
                                       wave_speed_c=speed),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="wave speed must be finite and > 0"):
                call()


def test_analyze_rejects_insufficient_quadrature() -> None:
    rule = make_quadrature(6)
    field = np.zeros((len(rule), 1), dtype=complex)
    with pytest.raises(ResolutionError):
        analyze_modes(field, rule, 7)
    # Too few rows, a 1-D field and a field with no frequency column.
    for bad in (field[:-1], field[:, 0], field[:, :0]):
        with pytest.raises(DomainError, match="is not \\(nodes, freqs\\)"):
            analyze_modes(bad, rule, 3)


def _dense_projection(field, rule, N):
    return (harmonic_matrix(N, rule.theta, rule.phi).conj() * rule.weights) @ field


@pytest.mark.parametrize(
    ("degree", "column_counts", "analysis_degrees"),
    [
        # N = max_degree reaches order P/2 - 1, the highest the rule resolves.
        pytest.param(3, (1, 7), (0, 2, 3), id="3"),
        pytest.param(12, (1, 7), (0, 2, 12), id="12"),
        # simulate-wide's rule and its n_max and n_field analyses.
        pytest.param(46, (1, 5), (16, 30), id="46"),
    ],
)
def test_analysis_equals_the_dense_quadrature_projection(
    degree: int, column_counts: tuple[int, ...], analysis_degrees: tuple[int, ...]
) -> None:
    rng = np.random.default_rng(degree)
    rule = make_quadrature(degree)
    for columns in column_counts:
        shape = (len(rule), columns)
        field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for N in analysis_degrees:
            fast = analyze_modes(field, rule, N).coeffs
            dense = _dense_projection(field, rule, N)
            assert fast.shape == dense.shape == ((N + 1) ** 2, columns)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(fast - dense)) <= 1e-12 * scale


def test_mode_spectrum_validation() -> None:
    good = ModeSpectrum(coeffs=np.zeros((9, 2), dtype=complex))
    assert good.coeffs.shape == (9, 2) and good.alpha is None
    with pytest.raises(DomainError):
        ModeSpectrum(coeffs=np.zeros((8, 2), dtype=complex))
    with pytest.raises(DomainError):
        ModeSpectrum(coeffs=np.zeros(9, dtype=complex))
    with pytest.raises(DomainError):
        ModeSpectrum(coeffs=np.zeros((9, 2), dtype=complex),
                     alpha=np.ones((2, 2)))


def test_theoretical_modes_keep_the_excitation_alpha() -> None:
    src = PlaneWaveSource(theta=0.7, phi=1.9, amplitude=0.5 - 2.0j)
    # At f = 0 every j_n with n >= 1 vanishes, but alpha does not.
    freqs = np.array([0.0, 0.4, 1.3])
    n_cap = 6
    spectrum = theoretical_modes([src], 1.0, freqs, n_cap, wave_speed_c=1.0)
    y_conj = harmonic_matrix(n_cap, np.array([0.7]), np.array([1.9])).conj()
    alpha = 4.0 * np.pi * y_conj * np.full(3, 0.5 - 2.0j)[None, :]
    assert np.array_equal(spectrum.alpha, alpha)
    n = flat_degrees(n_cap)
    bessel = np.stack([sph_bessel_j(k, 2.0 * math.pi * freqs) for k in n])
    i_to_n = np.array([1, 1j, -1, -1j])[n % 4]
    assert np.array_equal(spectrum.coeffs, i_to_n[:, None] * alpha * bessel)
    noise = NoiseModel.calibrated(spectrum, 50.0, seed=4)
    assert noise.sigma0_sq == float(np.max(np.abs(alpha) ** 2)) / 50.0


def test_calibrated_noise_puts_the_peak_excitation_at_the_snr() -> None:
    src = PlaneWaveSource(theta=0.7, phi=1.9, amplitude=0.5 - 2.0j)
    spectrum = theoretical_modes([src], 1.0, np.array([0.4, 1.3]), 4,
                                 wave_speed_c=1.0)
    noise = NoiseModel.calibrated(spectrum, 50.0, seed=4)
    assert noise.sigma0_sq == float(np.max(np.abs(spectrum.alpha) ** 2)) / 50.0
    assert noise.seed == 4
    analyzed = ModeSpectrum(coeffs=spectrum.coeffs)
    with pytest.raises(DomainError, match="excitation alpha"):
        NoiseModel.calibrated(analyzed, 50.0, seed=4)


def test_noise_is_deterministic_per_seed() -> None:
    rule = make_quadrature(5)
    field = np.zeros((len(rule), 4), dtype=complex)
    a = add_noise(field, rule, NoiseModel(sigma0_sq=0.5, seed=11))
    b = add_noise(field, rule, NoiseModel(sigma0_sq=0.5, seed=11))
    c = add_noise(field, rule, NoiseModel(sigma0_sq=0.5, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noiseless_model_returns_field_unchanged() -> None:
    rule = make_quadrature(4)
    field = np.full((len(rule), 2), 1.5 - 0.5j)
    out = add_noise(field, rule, NoiseModel(sigma0_sq=0.0, seed=3))
    assert np.array_equal(out, field)
    assert out is not field


def test_projected_noise_variance_and_whiteness() -> None:
    trials = 2000
    sigma0_sq = 0.25
    rule = make_quadrature(8)
    noise = NoiseModel(sigma0_sq=sigma0_sq, seed=7)
    silent = np.zeros((len(rule), trials), dtype=complex)
    spectrum = analyze_modes(add_noise(silent, rule, noise), rule, 5)
    nu = spectrum.coeffs
    variances = np.mean(np.abs(nu) ** 2, axis=1)
    assert np.max(np.abs(variances - sigma0_sq)) / sigma0_sq < 0.08
    cov = (nu @ nu.conj().T) / trials
    off = np.abs(cov - np.diag(np.diag(cov)))
    assert np.max(off) / sigma0_sq < 4.0 / math.sqrt(trials)


def test_noise_model_validation() -> None:
    for sigma0_sq in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            NoiseModel(sigma0_sq=sigma0_sq, seed=0)
    for seed in (-1, 2**64, 1.0):
        with pytest.raises(DomainError):
            NoiseModel(sigma0_sq=0.1, seed=seed)
    quiet = NoiseModel(sigma0_sq=0.0, seed=2**64 - 1)
    assert (quiet.sigma0_sq, quiet.seed) == (0.0, 2**64 - 1)


def test_mode_snr_scales_with_noise_floor() -> None:
    coeffs = np.array([[2.0 + 0.0j], [0.0j], [1.0j], [0.0j]])
    spectrum = ModeSpectrum(coeffs=coeffs)
    snr = mode_snr(spectrum, NoiseModel(sigma0_sq=0.5, seed=0))
    assert snr[0, 0] == pytest.approx(8.0, rel=1e-15)
    assert snr[2, 0] == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        mode_snr(spectrum, NoiseModel(sigma0_sq=0.0, seed=0))


def test_empirical_cutoff_scans_orders_within_the_mode() -> None:
    freqs = np.array([1.0, 2.0, 3.0, 4.0])
    snr = np.zeros((4, 4))
    snr[2, 2] = 5.0  # one order of mode 1 crosses at the third frequency
    assert empirical_critical_frequency(snr, freqs, 1.0, 1) == 3.0
    assert empirical_critical_frequency(snr, freqs, 6.0, 1) == math.inf
    assert empirical_critical_frequency(snr, freqs, 1.0, 0) == math.inf
    with pytest.raises(DomainError):
        empirical_critical_frequency(snr, freqs, 1.0, 2)
    with pytest.raises(DomainError):
        empirical_critical_frequency(snr, freqs, 0.0, 1)


def test_parseval_identity_and_truncation_sensitivity() -> None:
    sources = [PlaneWaveSource(theta=1.0, phi=0.5, amplitude=1.0 + 0.0j)]
    k_r = 6.0
    freqs = np.array([k_r / (2.0 * math.pi)])
    rule = make_quadrature(40)
    field = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
    complete = analyze_modes(field, rule, 32)
    assert parseval_check(field, rule, complete) < 1e-10
    truncated = analyze_modes(field, rule, 3)
    assert parseval_check(field, rule, truncated) > 1e-3


def test_empirical_cutoffs_stay_above_analytic_cutoffs() -> None:
    # High-SNR pipeline where a real subset of modes crosses the threshold:
    # every detected onset must sit at or above its analytic cutoff (the
    # analytic curve is one-sided by construction).
    s = NormalizedParams(a=1.0, b=0.5, d=1.0, rho=1e6).to_scenario(
        mid_freq_F0=1.0, wave_speed_c=1.0)
    n_min, n_max = truncation_indices(s)
    half_w = s.half_bandwidth_W
    freqs = np.linspace(s.mid_freq_F0 - half_w, s.mid_freq_F0 + half_w, 513)
    delta_f = 2.0 * half_w / 512.0
    k_max = 2.0 * math.pi * freqs[-1] * s.radius_R / s.wave_speed_c
    rule = make_quadrature(n_max + math.ceil(k_max) + 20)
    src = PlaneWaveSource(theta=0.7, phi=1.9, amplitude=1.0 + 0.0j)
    field = synthesize_field([src], rule, s.radius_R, freqs,
                             wave_speed_c=s.wave_speed_c)
    spectrum = analyze_modes(field, rule, n_max)
    y_src = harmonic_matrix(n_max, np.array([src.theta]), np.array([src.phi]))
    alpha_max_sq = float(np.max(np.abs(4.0 * math.pi * y_src) ** 2))
    noise = NoiseModel(sigma0_sq=alpha_max_sq / s.snr_alpha_max, seed=1)
    snr = mode_snr(spectrum, noise)
    detected = 0
    for n in range(1, n_max + 1):
        f_hat = empirical_critical_frequency(snr, freqs, s.threshold_gamma, n)
        if math.isfinite(f_hat):
            detected += 1
        assert f_hat >= critical_frequency(s, n) - delta_f, n
    assert n_max == 20
    assert detected == 14  # frozen: non-degenerate split of the mode range


_SIM_SETTINGS = {"sources": 2, "freq_points": 17, "quad_degree": 0, "seed": 3,
                 "trials": 4}


@pytest.mark.parametrize("d", [120.0, 0.0])
def test_simulate_passes_each_property_by_its_tolerance(d: float) -> None:
    # d = 0 leaves too few samples for the reconstruction check, so that
    # property fails while the other four hold.
    s = NormalizedParams(a=0.5, b=0.25, d=d, rho=100.0).to_scenario()
    result = simulate(s, **_SIM_SETTINGS)
    assert result.quad_degree == result.required_degree == 32
    assert result.freq_step == pytest.approx(0.5 / 16, rel=1e-12)
    names = [p.name for p in result.properties]
    assert names == ["jacobi_anger_consistency", "parseval",
                     "mode_noise_variance", "detectability_one_sided",
                     "reconstruction"]
    for prop in result.properties:
        if isinstance(prop.value, bool):
            assert prop.passed is prop.value
        else:
            assert prop.passed is (prop.value <= prop.tolerance)
    passed = {p.name: p.passed for p in result.properties}
    assert passed.pop("reconstruction") is (d > 0)
    assert all(passed.values())
    n_max = truncation_indices(s)[1]
    cutoffs = result.empirical_cutoffs
    assert [c.n for c in cutoffs] == list(range(1, n_max + 1))
    for c in cutoffs:
        assert c.analytic_Fn == critical_frequency(s, c.n)
        assert c.detected is (c.empirical_Fn is not None)
        assert c.one_sided(result.freq_step)
    assert any(c.detected for c in cutoffs)


def test_simulate_rejects_a_pointlike_or_zero_band_scenario() -> None:
    base = NormalizedParams(a=0.5, b=0.25, d=120.0, rho=100.0).to_scenario()
    for kwargs in ({"radius_R": 0.0}, {"half_bandwidth_W": 0.0}):
        fields = dict(vars(base), **kwargs)
        with pytest.raises(DomainError):
            simulate(Scenario(**fields), **_SIM_SETTINGS)
    for bad in ({"freq_points": 1}, {"trials": 0}):
        with pytest.raises(DomainError):
            simulate(base, **dict(_SIM_SETTINGS, **bad))


def test_simulate_checks_seed_and_sources_before_building_a_quadrature(
        monkeypatch) -> None:
    def build(degree):
        raise AssertionError(f"quadrature of degree {degree} was built")

    monkeypatch.setattr(wavefield, "make_quadrature", build)
    s = NormalizedParams(a=0.5, b=0.25, d=120.0, rho=100.0).to_scenario()
    trials = _SIM_SETTINGS["trials"]
    # The noise trials seed their generators with seed + 1 .. seed + trials.
    for bad in ({"seed": -1}, {"seed": 2**64 - trials}, {"seed": 2**64 - 1},
                {"seed": 1.0}, {"sources": 0}):
        with pytest.raises(DomainError):
            simulate(s, **dict(_SIM_SETTINGS, **bad))
    with pytest.raises(AssertionError, match="quadrature"):
        simulate(s, **dict(_SIM_SETTINGS, seed=2**64 - 1 - trials))


def test_simulate_checks_its_resolution_before_building_a_quadrature(
        monkeypatch) -> None:
    def build(degree):
        raise AssertionError(f"quadrature of degree {degree} was built")

    monkeypatch.setattr(wavefield, "make_quadrature", build)
    s = NormalizedParams(a=0.5, b=0.25, d=120.0, rho=100.0).to_scenario()
    with pytest.raises(ResolutionError, match="required degree is 32"):
        simulate(s, **dict(_SIM_SETTINGS, quad_degree=31))
    # Degree 32 has 33 x 66 = 2178 nodes.
    too_many = FIELD_ELEMENT_LIMIT // 2178 + 1
    with pytest.raises(ResolutionError, match=str(FIELD_ELEMENT_LIMIT)):
        simulate(s, **dict(_SIM_SETTINGS, freq_points=too_many))
    with pytest.raises(AssertionError, match="degree 32"):
        simulate(s, **dict(_SIM_SETTINGS, freq_points=too_many - 1))
