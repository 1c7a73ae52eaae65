"""Unit tests for the bandpass sampling and reconstruction machinery.

Closed-form references: a flat band spectrum transforms to a modulated sinc,
whose samples are w_n at l = 0 and 0 elsewhere, and a cos^2-shaped spectrum
to half the raised-cosine kernel, compared point-by-point between samples.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecap.errors import DomainError
from modecap.sampling import (
    ModeBand,
    SampleTrain,
    fourier_coefficients,
    legendre_support_check,
    phi_basis,
    phi_inner,
    reconstruct,
)


def _flat(omega: np.ndarray) -> np.ndarray:
    return np.ones_like(omega)


def _flat_signal(band: ModeBand, t: np.ndarray, ell_range: tuple[int, int]):
    """The flat-spectrum time signal, rebuilt from its sample train."""
    train = fourier_coefficients(_flat, band, ell_range)
    return reconstruct(train, band, t)


def test_flat_spectrum_gives_modulated_sinc() -> None:
    band = ModeBand(9.5, 10.5)
    t = np.linspace(-4.0, 4.0, 401)
    got = _flat_signal(band, t, (-6, 6))
    ref = np.sinc(t) * np.exp(2j * np.pi * 10.0 * t)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_wider_band_scales_amplitude_and_rate() -> None:
    band = ModeBand(100.0, 103.0)  # w_n = 3
    t = np.linspace(-1.0, 1.0, 201)
    got = _flat_signal(band, t, (-5, 5))
    ref = 3.0 * np.sinc(3.0 * t) * np.exp(2j * np.pi * 101.5 * t)
    assert np.max(np.abs(got - ref)) < 1e-10 * 3.0


def test_cos_squared_spectrum_gives_raised_cosine_kernel() -> None:
    band = ModeBand(10.0, 11.0)
    spectrum = lambda omega: np.cos(
        np.pi * (omega / (2.0 * np.pi) - band.w_0n)) ** 2
    train = fourier_coefficients(spectrum, band, (-6, 6))
    t = train.ells / band.w_n
    # Half the raised-cosine kernel, sampled: 1/2 at l = 0, 1/4 at l = +-1.
    kernel = np.sinc(t) + 0.5 * np.sinc(t + 1.0) + 0.5 * np.sinc(t - 1.0)
    ref = 0.5 * kernel * np.exp(2j * np.pi * band.w_0n * t)
    assert np.max(np.abs(train.values - ref)) < 1e-12


def test_mode_band_validation() -> None:
    for lo, hi in ((10.25, 9.75), (math.nan, 10.0), (10.0, math.inf),
                   (-1e308, 1e308), (1e308, 1.5e308)):
        with pytest.raises(DomainError):
            ModeBand(lo, hi)
    band = ModeBand(3.0, 5.5)
    assert band.w_n == 2.5 and band.w_0n == 4.25


def test_coefficients_are_scaled_signal_samples() -> None:
    # Flat spectrum: psi(t) = w sinc(w t) carrier, so psi(l / w) is w at
    # l = 0 and 0 elsewhere, whatever the width w sets for amplitude and rate.
    for lo, hi, tol in ((9.5, 10.5, 1e-12), (100.0, 103.0, 1e-10 * 3.0)):
        band = ModeBand(lo, hi)
        train = fourier_coefficients(_flat, band, (-3, 6))
        ref = np.zeros(10, dtype=complex)
        ref[3] = band.w_n
        assert np.max(np.abs(train.values - ref)) < tol
        assert np.array_equal(train.ells, np.arange(-3, 7))


def test_coefficient_range_and_band_validation() -> None:
    band = ModeBand(9.5, 10.5)
    with pytest.raises(DomainError):
        fourier_coefficients(_flat, band, (4, 2))
    point = ModeBand(10.0, 10.0)
    with pytest.raises(DomainError):
        fourier_coefficients(_flat, point, (0, 5))


def test_phi_basis_interpolates_kronecker() -> None:
    band = ModeBand(4.0, 6.0)
    w = band.w_n
    for ell in (-2, 0, 5):
        at_own = phi_basis(ell, ell / w, band)
        assert at_own == pytest.approx(1.0, rel=1e-15)
        for other in (-1, 1, 4):
            if other != ell:
                assert abs(phi_basis(ell, other / w, band)) < 1e-15
    t = np.linspace(-1.0, 1.0, 101)
    vals = phi_basis(2, t, band)
    ref = np.exp(2j * np.pi * band.w_0n * (t - 2 / w)) * np.sinc(w * t - 2)
    assert np.max(np.abs(vals - ref)) < 1e-14
    with pytest.raises(DomainError):
        phi_basis(0, 0.0, ModeBand(5.0, 5.0))


def test_phi_inner_diagonal_and_off_diagonal() -> None:
    band = ModeBand(4.0, 6.0)
    window = 40.0  # 80 rate units
    diag = phi_inner(3, 3, band, window)
    assert diag == pytest.approx(1.0 / band.w_n, rel=1e-7)
    for ellp in (4, 5, 8):
        off = phi_inner(3, ellp, band, window)
        assert abs(off) * band.w_n < 1e-6


def test_phi_inner_is_translation_invariant() -> None:
    band = ModeBand(10.0, 11.5)
    window = 50.0
    for delta in (0, 1, 4):
        first = phi_inner(0, delta, band, window)
        shifted = phi_inner(7, 7 + delta, band, window)
        assert abs(first - shifted) < 1e-15


def test_phi_inner_rejects_short_windows() -> None:
    band = ModeBand(4.0, 6.0)  # w_n = 2 -> minimum window 25 s
    with pytest.raises(DomainError):
        phi_inner(0, 1, band, 20.0)
    with pytest.raises(DomainError):
        phi_inner(0, 1, band, math.inf)


def test_reconstruct_interpolates_through_samples() -> None:
    band = ModeBand(9.5, 10.5)
    rng = np.random.Generator(np.random.Philox(5))
    values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    train = SampleTrain(values=values, ell_lo=0)
    got = reconstruct(train, band, train.ells / band.w_n)
    assert np.max(np.abs(got - values)) < 1e-12


def test_reconstruct_matches_signal_between_samples() -> None:
    band = ModeBand(10.0, 11.0)
    spectrum = lambda omega: np.cos(
        np.pi * (omega / (2.0 * np.pi) - band.w_0n)) ** 2
    train = fourier_coefficients(spectrum, band, (-30, 30))
    t = np.linspace(-2.0, 2.0, 101)
    # The transform of the cos^2 spectrum: half the raised-cosine kernel.
    kernel = lambda x: np.sinc(x) + 0.5 * np.sinc(x + 1.0) + 0.5 * np.sinc(x - 1.0)
    ref = 0.5 * kernel(band.w_n * t) * np.exp(2j * np.pi * band.w_0n * t)
    got = reconstruct(train, band, t)
    # Kernel tails decay like 1/t^3, so +-30 samples leave ~1e-4 truncation.
    assert np.max(np.abs(got - ref)) < 1e-3
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 5e-4


def test_sample_train_validation() -> None:
    for values in (np.zeros(0, dtype=complex), np.zeros((2, 2), dtype=complex)):
        with pytest.raises(DomainError):
            SampleTrain(values=values, ell_lo=0)
    train = SampleTrain(values=np.arange(3, dtype=complex), ell_lo=-1)
    assert len(train) == 3
    assert np.array_equal(train.ells, [-1, 0, 1])
    with pytest.raises(ValueError):
        train.values[0] = 9.0


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    ell=st.integers(min_value=-20, max_value=20),
    u=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_phi_basis_is_bounded_by_one(ell: int, u: float) -> None:
    band = ModeBand(7.0, 9.5)
    assert abs(phi_basis(ell, u, band)) <= 1.0 + 1e-12


def test_support_degenerate_cases_are_exact() -> None:
    assert legendre_support_check(lambda x: np.ones_like(x), 1.5, 0.0, 4) == 1.5
    r, c = 0.3, 3e8
    assert legendre_support_check(
        lambda x: np.ones_like(x), 0.0, r, 2, c) == 2 * r / c


def test_support_equals_window_plus_transit_for_every_mode() -> None:
    obs_t, r, c = 1e-3, 0.3, 3e8
    dt = (r / c) / 256.0
    expected = obs_t + 2 * r / c
    for n in (0, 1, 3):
        measured = legendre_support_check(
            lambda x: np.ones_like(x), obs_t, r, n, c)
        assert abs(measured - expected) <= dt * (1 + 1e-6), n


def test_support_check_validation() -> None:
    ones = lambda x: np.ones_like(x)
    with pytest.raises(DomainError):
        legendre_support_check(ones, 1.0, 0.1, -1)
    with pytest.raises(DomainError):
        legendre_support_check(ones, 1.0, 0.1, 1.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        legendre_support_check(ones, 1.0, -0.1, 1)
    with pytest.raises(DomainError):
        legendre_support_check(ones, -1.0, 0.1, 1)
    with pytest.raises(DomainError):
        legendre_support_check(ones, 1.0, 0.1, 1, 0.0)
