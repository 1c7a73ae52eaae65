"""Unit tests for the degrees-of-freedom bound computations.

Pinned totals are frozen from an independent 60-digit evaluation of the
closed formula (in its unexpanded bracket arrangement) and of the
term-by-term mode sum; both are noted inline.
"""
from __future__ import annotations

import dataclasses
import math
import pickle
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modecap.dofcore import (
    EPI,
    DofBreakdown,
    NormalizedParams,
    Scenario,
    bandwidth_arrays,
    bandwidth_profile,
    critical_frequency,
    dof_asymptotic,
    dof_closed_form,
    dof_mode_sum,
    dof_normalized_breakdown,
    effective_time,
    truncation_indices,
)
from modecap.errors import DomainError

_PINNED = NormalizedParams(a=1.0, b=0.5, d=1.0, rho=1.0)
# 60-digit references for the pinned point.
_PINNED_CLOSED = 524.74645548678633
_PINNED_SUMMED = 462.32236660016855
# Second frozen point exercising rho != 1: a=0.8, b=0.25, d=2, rho=4.
_SECOND = NormalizedParams(a=0.8, b=0.25, d=2.0, rho=4.0)
_SECOND_CLOSED = 275.98283882814129
_SECOND_SUMMED = 240.22512035311837


def test_epi_constant() -> None:
    assert EPI == math.e * math.pi
    assert EPI == pytest.approx(8.539734222673566, abs=1e-15)


def test_pinned_point_breakdown() -> None:
    out = dof_normalized_breakdown(_PINNED)
    assert out.d1 == 196.0  # (n_max + 1)^2 with n_max = 13, exact
    assert out.d2 == pytest.approx(108.0, rel=1e-12)
    assert out.d3 == pytest.approx(_PINNED_CLOSED - 196.0 - 108.0, rel=1e-12)
    assert out.total == pytest.approx(_PINNED_CLOSED, rel=1e-12)
    assert out.t_eff == pytest.approx(3.0, rel=1e-12)  # d + 2a in unit-F0 time


def test_pinned_point_mode_sum_and_indices() -> None:
    s = _PINNED.to_scenario()
    assert truncation_indices(s) == (5, 13)
    assert dof_mode_sum(s) == pytest.approx(_PINNED_SUMMED, rel=1e-12)


def test_second_point_both_routes() -> None:
    total = dof_normalized_breakdown(_SECOND).total
    assert total == pytest.approx(_SECOND_CLOSED, rel=1e-12)
    s = _SECOND.to_scenario()
    assert truncation_indices(s) == (6, 10)
    assert dof_mode_sum(s) == pytest.approx(_SECOND_SUMMED, rel=1e-12)


def test_zero_duration_window_still_counts_transit_time() -> None:
    # d = 0 leaves t_eff = 2a, so the bound stays above the spatial term.
    p = NormalizedParams(a=1.0, b=0.5, d=0.0, rho=1.0)
    total = dof_normalized_breakdown(p).total
    assert total == pytest.approx(415.16430365785756, rel=1e-12)


def test_narrowband_collapse_is_exact() -> None:
    for a, expected in ((0.5, 36.0), (1.0, 100.0), (2.0, 361.0)):
        p = NormalizedParams(a=a, b=0.0, d=1.0, rho=1.0)
        assert dof_normalized_breakdown(p).total == expected
        s = p.to_scenario()
        assert dof_closed_form(s).total == expected
        assert dof_mode_sum(s) == expected


def test_pointlike_region_reduces_to_time_bandwidth_product() -> None:
    # R = 0 is an ordinary point: one full-band spatial mode and 2WT + 1 on
    # every route, at any SNR (at rho = 1000 the general index formula would
    # give n_max = 4 for a = 0).  Warnings are errors here, so the division
    # by R = 0 inside bandwidth_arrays must stay silent.
    for snr in (1.0, 0.5, 1000.0):
        s = Scenario(radius_R=0.0, mid_freq_F0=10.0, half_bandwidth_W=2.0,
                     obs_time_T=3.0, snr_alpha_max=snr)
        closed = dof_closed_form(s)
        assert (closed.d1, closed.d2, closed.d3, closed.total, closed.t_eff) == (
            1.0, 12.0, 0.0, 13.0, 3.0)  # d2 = 2 W T
        assert dof_asymptotic(s) == closed
        assert dof_mode_sum(s) == 13.0
        assert truncation_indices(s) == (0, 0)
        cols = bandwidth_arrays(s)
        assert (cols.n_min, cols.n_max, cols.n.tolist()) == (0, 0, [0])
        assert cols.critical_freq_Fn.tolist() == [0.0]
        assert cols.eff_bandwidth_Wn.tolist() == [4.0]  # the band [8, 12]
        assert len(bandwidth_profile(s).per_mode) == 1
        assert critical_frequency(s, 0) == 0.0
        with pytest.raises(DomainError):
            critical_frequency(s, 1)


def test_normalized_breakdown_at_a_zero_is_pointlike() -> None:
    p = NormalizedParams(a=0.0, b=0.5, d=2.0, rho=100.0)
    out = dof_normalized_breakdown(p)
    assert (out.d1, out.d2, out.d3, out.total, out.t_eff) == (1.0, 2.0, 0.0, 3.0, 2.0)


def test_asymptotic_levels_the_detection_threshold() -> None:
    s = Scenario(radius_R=2.0, mid_freq_F0=5.0, half_bandwidth_W=1.0,
                 obs_time_T=4.0, wave_speed_c=10.0, threshold_gamma=2.0,
                 snr_alpha_max=8.0)
    leveled = Scenario(radius_R=2.0, mid_freq_F0=5.0, half_bandwidth_W=1.0,
                       obs_time_T=4.0, wave_speed_c=10.0, threshold_gamma=8.0,
                       snr_alpha_max=8.0)
    out = dof_asymptotic(s)
    ref = dof_closed_form(leveled)
    assert out.total == pytest.approx(ref.total, rel=1e-14)
    assert dof_closed_form(s).total > out.total  # rho = 4 grants extra modes


def test_mode_zero_cutoff_is_zero_even_off_unit_snr() -> None:
    s = Scenario(radius_R=1.0, mid_freq_F0=1.0, half_bandwidth_W=0.5,
                 obs_time_T=1.0, wave_speed_c=1.0, snr_alpha_max=100.0)
    assert critical_frequency(s, 0) == 0.0
    # Low orders clamp to zero while the SNR margin exceeds them ...
    assert critical_frequency(s, 1) == 0.0  # 1 < ln(100)/2
    # ... and the first order past the margin comes out positive.
    assert critical_frequency(s, 3) == pytest.approx(
        (3.0 - 0.5 * math.log(100.0)) / EPI, rel=1e-12)


def test_critical_frequency_frozen_value() -> None:
    s = _PINNED.to_scenario(mid_freq_F0=1.0, wave_speed_c=1.0)
    assert critical_frequency(s, 10) == pytest.approx(
        1.1709966304863832, rel=1e-12)


def test_bandwidth_profile_structure() -> None:
    s = _PINNED.to_scenario(mid_freq_F0=1.0, wave_speed_c=1.0)
    profile = bandwidth_profile(s)
    assert profile.n_min == 5 and profile.n_max == 13
    assert len(profile.per_mode) == 14
    full_w = 2.0 * s.half_bandwidth_W
    lo, hi = s.band
    for entry in profile.per_mode:
        assert 0.0 <= entry.eff_bandwidth_Wn <= full_w + 1e-12
        if entry.n <= profile.n_min:
            assert entry.eff_bandwidth_Wn == pytest.approx(full_w, rel=1e-12)
        else:
            # The width of the usable band [max(F0 - W, F_n), F0 + W].
            usable = hi - min(max(lo, entry.critical_freq_Fn), hi)
            assert entry.eff_bandwidth_Wn == pytest.approx(usable, abs=1e-12)
    # Frozen cutoff-narrowed entry and the midpoint hi - W_n/2 of its band.
    e10 = profile.per_mode[10]
    assert e10.eff_bandwidth_Wn == pytest.approx(0.32900336951361679, rel=1e-10)
    assert hi - 0.5 * e10.eff_bandwidth_Wn == pytest.approx(
        1.3354983152431916, rel=1e-12)
    # Widths never grow with n past the full-band plateau.
    widths = [e.eff_bandwidth_Wn for e in profile.per_mode]
    for prev, cur in zip(widths[profile.n_min:], widths[profile.n_min + 1:]):
        assert cur <= prev + 1e-12


def test_zero_bandwidth_profile_is_all_point_bands() -> None:
    s = NormalizedParams(a=1.0, b=0.0, d=1.0, rho=1.0).to_scenario()
    profile = bandwidth_profile(s)
    assert profile.n_min == profile.n_max == 9
    assert all(e.eff_bandwidth_Wn == 0.0 for e in profile.per_mode)


def _scalar_profile(s: Scenario) -> list[tuple]:
    """(n, F_n, W_n) rows from the per-mode Python loop bandwidth_profile ran
    before its array path, with critical_frequency's scalar arithmetic
    written out; full-band rows count W_n = 2W exactly."""
    n_min, n_max = truncation_indices(s)
    half_log = 0.5 * math.log(s.snr_ratio)
    lo, hi = s.band
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            fn = 0.0
        else:
            fn = max(0.0, (n - half_log) * s.wave_speed_c / (EPI * s.radius_R))
        # A partial-band mode spans [min(max(lo, F_n), hi), hi].
        w_n = 2.0 * s.half_bandwidth_W if n <= n_min else hi - min(max(lo, fn), hi)
        rows.append((n, fn, w_n))
    return rows


def _bits(rows) -> list[tuple]:
    """Rows with every float as its exact hex form, so -0.0 != 0.0."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row)
            for row in rows]


def _assert_columns_match_scalar_path(s: Scenario) -> None:
    cols = bandwidth_arrays(s)
    assert (cols.n_min, cols.n_max) == truncation_indices(s)
    columns = zip(*(getattr(cols, f).tolist() for f in (
        "n", "critical_freq_Fn", "eff_bandwidth_Wn")))
    expected = _bits(_scalar_profile(s))
    assert _bits(columns) == expected
    assert [critical_frequency(s, n).hex() for n in range(cols.n_max + 1)] == [
        row[1] for row in expected]
    profile = bandwidth_profile(s)
    assert _bits(
        (e.n, e.critical_freq_Fn, e.eff_bandwidth_Wn)
        for e in profile.per_mode) == expected


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    a=st.one_of(st.floats(1e-4, 40.0),
                st.sampled_from([5e-324, 1e-320, 1e-300, 1e-12])),
    b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    log_rho=st.floats(-14.0, 18.0),
    log_f0=st.floats(-3.0, 25.0),
    log_c=st.floats(-3.0, 20.0),
)
def test_bandwidth_arrays_equal_the_scalar_path_bit_for_bit(
        a, b, log_rho, log_f0, log_c) -> None:
    # log_rho spans rho < 1 and half_log above every low n (up to 9).
    f0, c = math.exp(log_f0), math.exp(log_c)
    radius = a * c / f0
    assume(radius > 0.0)
    s = Scenario(radius_R=radius, mid_freq_F0=f0, half_bandwidth_W=b * f0,
                 obs_time_T=1.0, wave_speed_c=c,
                 snr_alpha_max=math.exp(log_rho))
    assume(truncation_indices(s)[1] <= 2000)
    _assert_columns_match_scalar_path(s)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    a=st.one_of(st.floats(1e-4, 40.0), st.sampled_from([1e-300, 1e-12])),
    b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    log_rho=st.floats(-14.0, 18.0),
    log_f0=st.floats(-3.0, 25.0),
    log_c=st.floats(-3.0, 20.0),
    log_t=st.floats(-30.0, 5.0),
)
def test_mode_sum_equals_the_per_mode_loop_bit_for_bit(
        a, b, log_rho, log_f0, log_c, log_t) -> None:
    f0, c = math.exp(log_f0), math.exp(log_c)
    radius = a * c / f0
    assume(radius > 0.0)
    s = Scenario(radius_R=radius, mid_freq_F0=f0, half_bandwidth_W=b * f0,
                 obs_time_T=math.exp(log_t), wave_speed_c=c,
                 snr_alpha_max=math.exp(log_rho))
    n_max = truncation_indices(s)[1]
    assume(n_max <= 2000)
    t_eff = effective_time(s)
    # The sum bandwidth_profile's rows gave, left to right.
    expected = float(sum((2 * row[0] + 1) * (row[2] * t_eff + 1.0)
                         for row in _scalar_profile(s)))
    assert dof_mode_sum(s).hex() == expected.hex()


def test_bandwidth_arrays_at_the_float_range_edges() -> None:
    # A subnormal radius sends F_n to inf; a huge radius and wave speed give
    # inf / inf = NaN, which max(0.0, .) turns into 0.  A band edge F0 + W
    # near the float maximum must not overflow either.  None may warn.
    tiny = NormalizedParams(a=1e-320, b=0.5, d=1.0, rho=2.0).to_scenario()
    huge = Scenario(radius_R=1e308, mid_freq_F0=1.0, half_bandwidth_W=0.5,
                    obs_time_T=1.0, wave_speed_c=1e308)
    top = Scenario(radius_R=5e-324, mid_freq_F0=1e308, half_bandwidth_W=1e300,
                   obs_time_T=1e-20, wave_speed_c=1.0)
    # F0 + W overflows to inf.  In `over` every mode is full band with F_n =
    # inf; in `partial` mode 1 is a partial-band row whose inf - inf is NaN,
    # as in the scalar arithmetic.
    over = Scenario(radius_R=1e-310, mid_freq_F0=1.7e308, half_bandwidth_W=8.5e307,
                    obs_time_T=0.0, wave_speed_c=1e20, threshold_gamma=1e-300,
                    snr_alpha_max=1e5)
    partial = Scenario(radius_R=1e-310, mid_freq_F0=1.7e308, half_bandwidth_W=1.7e308,
                       obs_time_T=0.0, wave_speed_c=1e300, threshold_gamma=1e300,
                       snr_alpha_max=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (tiny, huge, top, over, partial):
            _assert_columns_match_scalar_path(s)
        assert dof_mode_sum(over) == 124609.0
        assert math.isnan(bandwidth_arrays(partial).eff_bandwidth_Wn[1])
        assert math.isinf(bandwidth_arrays(tiny).critical_freq_Fn[1])
        assert not bandwidth_arrays(huge).critical_freq_Fn.any()
        assert math.isinf(bandwidth_arrays(top).critical_freq_Fn[-1])


@pytest.mark.parametrize("radius", [0.0, 0.5])
def test_full_band_rows_count_exactly_two_w(radius: float) -> None:
    # W << F0: (F0 + W) - (F0 - W) would give 0.00246906280518, not 2W.
    w = 1.2345e-3
    s = Scenario(radius_R=radius, mid_freq_F0=1e9, half_bandwidth_W=w,
                 obs_time_T=1e6)
    cols = bandwidth_arrays(s)
    assert cols.n_min == cols.n_max
    assert cols.eff_bandwidth_Wn.tolist() == [2 * w] * (cols.n_min + 1)
    # Every mode is full band, so the mode sum is d1 plus d2's 2W T_eff term.
    bound = dof_closed_form(s)
    assert dof_mode_sum(s) == pytest.approx(bound.d1 + bound.d2, rel=1e-14)


def test_normalization_roundtrip() -> None:
    s = Scenario(radius_R=0.7, mid_freq_F0=3.4e8, half_bandwidth_W=1.1e8,
                 obs_time_T=2.5e-6, threshold_gamma=1.5, snr_alpha_max=6.0)
    p = NormalizedParams.from_scenario(s)
    back = NormalizedParams.from_scenario(p.to_scenario(
        mid_freq_F0=s.mid_freq_F0, wave_speed_c=s.wave_speed_c))
    assert back.a == pytest.approx(p.a, rel=1e-12)
    assert back.b == pytest.approx(p.b, rel=1e-12)
    assert back.d == pytest.approx(p.d, rel=1e-12)
    assert back.rho == pytest.approx(p.rho, rel=1e-12)


def test_normalized_indices_equal_the_scenario_route() -> None:
    # At F0 = c = 1, to_scenario gives R = a and from_scenario gives back a,
    # b and rho bit for bit, so the two routes must agree exactly.
    rng = random.Random(1)
    a_values = [0.0, 5e-324] + sorted(
        math.exp(rng.uniform(math.log(0.05), math.log(3000.0))) for _ in range(40))
    # The breakdowns agree too, field for field, or raise the same error:
    # compute and simulate take a normalized point by its to_scenario().
    def breakdown(route, point):
        try:
            bd = route(point)
        except DomainError as exc:
            return str(exc)
        return {k: float.hex(v) for k, v in dataclasses.asdict(bd).items()}

    for a in a_values:
        for b in (0.0, 0.5, 1.0):
            for rho in (1e-3, 1.0, 1e4):
                for d in (0.0, 1.0, 1e308):
                    p = NormalizedParams(a=a, b=b, d=d, rho=rho)
                    s = p.to_scenario()
                    assert NormalizedParams.from_scenario(s) == p
                    assert truncation_indices(p) == truncation_indices(s)
                    assert (breakdown(dof_normalized_breakdown, p)
                            == breakdown(dof_closed_form, s))
    assert truncation_indices(NormalizedParams(a=0.0, b=1.0, d=1.0, rho=1e4)) == (0, 0)
    huge = NormalizedParams(a=1e300, b=0.5, d=1.0, rho=1.0)
    messages = []
    for point in (huge, huge.to_scenario()):
        with pytest.raises(DomainError) as err:
            truncation_indices(point)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("degrees of freedom overflow")


def test_effective_time() -> None:
    s = Scenario(radius_R=3.0, mid_freq_F0=100.0, half_bandwidth_W=10.0,
                 obs_time_T=0.25, wave_speed_c=12.0)
    assert effective_time(s) == pytest.approx(0.25 + 0.5, rel=1e-15)


@settings(deadline=None, max_examples=250, derandomize=True)
@given(
    a=st.floats(min_value=0.01, max_value=20.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    d=st.floats(min_value=0.0, max_value=50.0),
    rho=st.floats(min_value=1.0, max_value=1e3),
)
def test_mode_sum_never_exceeds_closed_form_at_high_snr(
        a: float, b: float, d: float, rho: float) -> None:
    # The closed form upper-bounds the discrete sum it integrates, provided
    # the threshold is not above the SNR ceiling (rho >= 1).
    s = NormalizedParams(a=a, b=b, d=d, rho=rho).to_scenario()
    assert dof_mode_sum(s) <= dof_closed_form(s).total * (1 + 1e-12) + 1e-9


def test_mode_sum_can_exceed_closed_form_below_unit_snr_ratio() -> None:
    # Regression pin: with the threshold above the SNR ceiling (rho < 1) the
    # integral comparison underlying the closed form no longer dominates the
    # sum, which is why the property above restricts to rho >= 1.
    s = NormalizedParams(a=0.1, b=1.0, d=2.0, rho=0.5).to_scenario()
    summed, closed = dof_mode_sum(s), dof_closed_form(s).total
    assert summed == pytest.approx(16.192901296329325, rel=1e-12)
    assert closed == pytest.approx(15.781534230716785, rel=1e-12)
    assert summed > closed


@settings(deadline=None, max_examples=250, derandomize=True)
@given(
    a=st.floats(min_value=0.0, max_value=10.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    d=st.floats(min_value=0.0, max_value=20.0),
    rho=st.floats(min_value=0.1, max_value=1e3),
    f0=st.floats(min_value=1e-3, max_value=1e9),
    c=st.floats(min_value=1e-2, max_value=3e8),
)
def test_normalized_and_dimensional_routes_agree(
        a: float, b: float, d: float, rho: float, f0: float, c: float) -> None:
    p = NormalizedParams(a=a, b=b, d=d, rho=rho)
    direct = dof_normalized_breakdown(p).total
    s = p.to_scenario(mid_freq_F0=f0, wave_speed_c=c)
    # An a > 0 whose radius underflows to R = 0 is a different point.
    assume(a == 0.0 or s.radius_R > 0.0)
    assert dof_closed_form(s).total == pytest.approx(direct, rel=1e-9)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    a=st.floats(min_value=0.01, max_value=10.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    d=st.floats(min_value=0.0, max_value=20.0),
    rho=st.floats(min_value=0.1, max_value=1e3),
)
def test_breakdown_components_are_consistent(
        a: float, b: float, d: float, rho: float) -> None:
    out = dof_normalized_breakdown(NormalizedParams(a=a, b=b, d=d, rho=rho))
    assert out.d1 >= 1.0
    assert out.d2 >= 0.0 and out.d3 >= 0.0
    assert out.total == pytest.approx(out.d1 + out.d2 + out.d3, rel=1e-12)
    assert out.t_eff == pytest.approx(d + 2 * a, rel=1e-12)


def test_growing_fractional_bandwidth_can_shrink_the_bound() -> None:
    # Regression pin for a ceiling artifact: stepping b across a truncation
    # boundary revokes a full-band mode granted at the lower b, so the total
    # drops.  The trend check in the acceptance suite reports this same
    # behavior as a failed monotonicity criterion.
    lo = dof_normalized_breakdown(NormalizedParams(a=0.4, b=0.80, d=2.0, rho=2.0)).total
    hi = dof_normalized_breakdown(NormalizedParams(a=0.4, b=0.85, d=2.0, rho=2.0)).total
    assert lo == pytest.approx(195.61000584110516, rel=1e-12)
    assert hi == pytest.approx(182.28552139381162, rel=1e-12)
    assert hi < lo


def test_scenario_validation() -> None:
    with pytest.raises(DomainError):
        Scenario(radius_R=-1.0, mid_freq_F0=1.0, half_bandwidth_W=0.1,
                 obs_time_T=1.0)
    with pytest.raises(DomainError):
        Scenario(radius_R=1.0, mid_freq_F0=1.0, half_bandwidth_W=1.5,
                 obs_time_T=1.0)  # band extends below zero frequency
    with pytest.raises(DomainError):
        Scenario(radius_R=1.0, mid_freq_F0=1.0, half_bandwidth_W=0.1,
                 obs_time_T=-2.0)
    with pytest.raises(DomainError):
        Scenario(radius_R=1.0, mid_freq_F0=1.0, half_bandwidth_W=0.1,
                 obs_time_T=1.0, wave_speed_c=0.0)
    with pytest.raises(DomainError):
        Scenario(radius_R=1.0, mid_freq_F0=1.0, half_bandwidth_W=0.1,
                 obs_time_T=1.0, threshold_gamma=0.0)
    with pytest.raises(DomainError):
        Scenario(radius_R=1.0, mid_freq_F0=math.nan, half_bandwidth_W=0.1,
                 obs_time_T=1.0)


def test_normalized_validation() -> None:
    for fields, message in [
        ({"a": -0.1}, "a must be >= 0, got -0.1"),
        ({"b": 1.2}, "b must lie in [0, 1], got 1.2"),
        ({"b": -0.0, "d": -1.0}, "d must be >= 0, got -1.0"),
        ({"rho": 0.0}, "rho must be > 0, got 0.0"),
        ({"rho": -0.0}, "rho must be > 0, got -0.0"),
        ({"d": math.inf}, "d must be finite, got inf"),
        ({"a": math.nan}, "a must be finite, got nan"),
        ({"b": -math.inf}, "b must be finite, got -inf"),
        # Every field is checked for finiteness before any range.
        ({"a": -1.0, "rho": math.nan}, "rho must be finite, got nan"),
        ({"a": -1.0, "b": 2.0}, "a must be >= 0, got -1.0"),
        # Numbers of other types are checked as the floats they convert to.
        ({"a": -1}, "a must be >= 0, got -1.0"),
        ({"b": np.float64(1.5)}, "b must lie in [0, 1], got 1.5"),
    ]:
        values = {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0, **fields}
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            NormalizedParams(**values)
    # Such numbers are stored as those floats; floats are stored as given.
    p = NormalizedParams(a=True, b=1, d=np.float64(2.5), rho=3)
    assert [(type(x), x) for x in dataclasses.astuple(p)] == [
        (float, 1.0), (float, 1.0), (float, 2.5), (float, 3.0)]
    p = NormalizedParams(a=-0.0, b=-0.0, d=5e-324, rho=5e-324)
    assert [math.copysign(1.0, x) for x in (p.a, p.b)] == [-1.0, -1.0]
    assert (p.d, p.rho) == (5e-324, 5e-324)


def test_normalized_params_is_a_slotted_frozen_value() -> None:
    # Slots keep the points a sweep builds small; a point has no __dict__,
    # so vars(p) raises TypeError, and is otherwise an ordinary dataclass.
    p = NormalizedParams(a=1.0, b=0.5, d=2.0, rho=3.0)
    with pytest.raises(TypeError):
        vars(p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 2.0  # type: ignore[misc]
    assert dataclasses.asdict(p) == {"a": 1.0, "b": 0.5, "d": 2.0, "rho": 3.0}
    q = dataclasses.replace(p, a=4.0)
    assert q == NormalizedParams(a=4.0, b=0.5, d=2.0, rho=3.0) != p
    assert hash(p) == hash(NormalizedParams(a=1.0, b=0.5, d=2.0, rho=3.0))
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(DomainError):
        dataclasses.replace(p, b=1.5)


def test_breakdown_rejects_inconsistent_totals() -> None:
    with pytest.raises(DomainError):
        DofBreakdown(d1=1.0, d2=1.0, d3=1.0, total=4.0, t_eff=1.0)
    with pytest.raises(DomainError):
        DofBreakdown(d1=-1.0, d2=1.0, d3=1.0, total=1.0, t_eff=1.0)
    for fields, named in [
        # A NaN compares false, so the sign and sum checks alone pass these.
        ({"d1": math.nan}, "d1 is nan"),
        ({"total": math.nan}, "total is nan"),
        # The total is checked first: an overflowing part overflows it too.
        ({"d1": math.inf, "total": math.inf}, "total is inf"),
        ({"t_eff": math.inf}, "t_eff is inf"),
    ]:
        values = {"d1": 0.0, "d2": 1.0, "d3": 1.0, "total": 2.0, "t_eff": 1.0, **fields}
        with pytest.raises(DomainError, match=f"^degrees of freedom overflow: {named}$"):
            DofBreakdown(**values)
    # Finite fields whose sum overflows are fine.
    DofBreakdown(d1=1e308, d2=0.0, d3=0.0, total=1e308, t_eff=1e308)


def test_scenario_derived_properties() -> None:
    s = Scenario(radius_R=1.0, mid_freq_F0=10.0, half_bandwidth_W=2.0,
                 obs_time_T=1.0, threshold_gamma=2.0, snr_alpha_max=10.0)
    assert s.snr_ratio == pytest.approx(5.0, rel=1e-15)
    assert s.band == (8.0, 12.0)
