"""End-to-end acceptance checks for the degrees-of-freedom bound machinery.

Each test covers one numbered acceptance criterion, emits exactly one
PASS/FAIL verdict line (shown in the "acceptance criteria" block of the
terminal summary), and then asserts, so the emitted verdict always matches
the pytest outcome.  Derived reference values are frozen from independent
high-precision evaluations (power series / 60-digit arithmetic of the closed
formulas) and noted inline.
"""
from __future__ import annotations

import math
import time

import numpy as np

from conftest import record_verdict

from modecap.dofcore import (
    EPI,
    NormalizedParams,
    Scenario,
    bandwidth_arrays,
    critical_frequency,
    dof_asymptotic,
    dof_closed_form,
    dof_mode_sum,
    dof_normalized_breakdown,
    truncation_indices,
)
from modecap.sampling import ModeBand, SampleTrain, fourier_coefficients, \
    legendre_support_check, phi_inner, reconstruct
from modecap.specfun import harmonic_matrix, make_quadrature, sph_bessel_j, \
    sph_bessel_j_bound
from modecap.wavefield import (
    NoiseModel,
    PlaneWaveSource,
    add_noise,
    analyze_modes,
    empirical_critical_frequency,
    mode_snr,
    synthesize_field,
    theoretical_modes,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} — {detail}"
    print(line)
    record_verdict(line)


def test_criterion_01_shannon_reduction() -> None:
    t0 = time.perf_counter()
    worst = 0.0
    for half_w, obs_t in ((0.5, 2.0), (2.5, 4.0), (12.5, 8.0)):
        s = Scenario(radius_R=0.0, mid_freq_F0=2.0 * half_w,
                     half_bandwidth_W=half_w, obs_time_T=obs_t)
        out = dof_asymptotic(s)
        expected = 2.0 * half_w * obs_t + 1.0
        worst = max(worst, abs(out.total - expected) / expected)
        assert out.t_eff == obs_t
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(1, "shannon-reduction", ok,
             f"max rel err {worst:.3e} (tol 1e-9); {elapsed:.2f}s < 1s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_narrowband_reduction() -> None:
    t0 = time.perf_counter()
    results = []
    for a in (0.5, 1.0, 2.0):
        s = Scenario(radius_R=a, mid_freq_F0=1.0, half_bandwidth_W=0.0,
                     obs_time_T=1.0, wave_speed_c=1.0)
        expected = float((math.ceil(EPI * a) + 1) ** 2)
        closed = dof_closed_form(s).total
        summed = dof_mode_sum(s)
        results.append((a, closed, summed, expected))
    elapsed = time.perf_counter() - t0
    exact = all(c == e and m == e for _, c, m, e in results)
    ok = exact and elapsed < 1.0
    shown = ", ".join(f"a={a:g}:{int(e)}" for a, _, _, e in results)
    _verdict(2, "narrowband-reduction", ok,
             f"exact integer match on both routes ({shown}); {elapsed:.2f}s < 1s")
    for a, closed, summed, expected in results:
        assert closed == expected, (a, closed, expected)
        assert summed == expected, (a, summed, expected)
    assert elapsed < 1.0


def test_criterion_03_pinned_operating_point() -> None:
    # Frozen 60-digit reference evaluations of the two routes at
    # a=1, b=0.5, d=1, rho=1.
    closed_ref = 524.74645548678633
    summed_ref = 462.32236660016855
    t0 = time.perf_counter()
    p = NormalizedParams(a=1.0, b=0.5, d=1.0, rho=1.0)
    s = p.to_scenario()
    n_min, n_max = truncation_indices(s)
    closed = dof_normalized_breakdown(p).total
    summed = dof_mode_sum(s)
    elapsed = time.perf_counter() - t0
    ok = (
        n_min == 5
        and n_max == 13
        and abs(closed - 524.75) <= 0.5
        and abs(summed - 462.3) <= 0.5
        and summed <= closed
        and abs(closed - closed_ref) <= 1e-9 * closed_ref
        and abs(summed - summed_ref) <= 1e-9 * summed_ref
        and elapsed < 1.0
    )
    _verdict(3, "pinned-operating-point", ok,
             f"n=[{n_min},{n_max}] closed {closed:.6f} summed {summed:.6f}; "
             f"{elapsed:.2f}s < 1s")
    assert (n_min, n_max) == (5, 13)
    assert abs(closed - 524.75) <= 0.5
    assert abs(summed - 462.3) <= 0.5
    assert summed <= closed
    assert abs(closed - closed_ref) <= 1e-9 * closed_ref
    assert abs(summed - summed_ref) <= 1e-9 * summed_ref
    assert elapsed < 1.0


def test_criterion_04_parameter_trends() -> None:
    # Checks, over the full published grid, that the bound is nondecreasing
    # in each parameter separately and that doubling the radius parameter
    # grows the bound by at most 4.5x for a >= 1.
    t0 = time.perf_counter()
    a_vals = np.linspace(0.0, 2.0, 21)
    b_vals = np.linspace(0.0, 1.0, 21)
    d_vals = (0.5, 1.0, 2.0)
    r_vals = (0.5, 1.0, 2.0)
    grid = np.empty((21, 21, 3, 3))
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            for k, d in enumerate(d_vals):
                for l, rho in enumerate(r_vals):
                    grid[i, j, k, l] = dof_normalized_breakdown(
                        NormalizedParams(a=float(a), b=float(b), d=d, rho=rho)
                    ).total
    # Allow only float-roundoff slack when testing monotonicity.
    slack = 1e-9 * (1.0 + np.abs(grid))

    failures: list[str] = []

    def check_axis(label: str, axis: int) -> None:
        lead = [slice(None)] * 4
        trail = [slice(None)] * 4
        lead[axis] = slice(1, None)
        trail[axis] = slice(None, -1)
        hi, lo = grid[tuple(lead)], grid[tuple(trail)]
        bad = hi < lo - slack[tuple(trail)]
        if bad.any():
            n_bad = int(bad.sum())
            drop = lo - hi
            idx = np.unravel_index(int(np.argmax(np.where(bad, drop, -np.inf))),
                                   drop.shape)
            coords = list(idx)
            pt = {
                "a": a_vals[coords[0]],
                "b": b_vals[coords[1]],
                "d": d_vals[coords[2]],
                "rho": r_vals[coords[3]],
            }
            failures.append(
                f"nondecreasing in {label}: {n_bad} grid steps decrease "
                f"(worst drop {drop[idx]:.4f} stepping {label} up from "
                f"a={pt['a']:.2f}, b={pt['b']:.2f}, d={pt['d']:g}, "
                f"rho={pt['rho']:g})"
            )

    check_axis("a", 0)
    check_axis("b", 1)
    check_axis("d", 2)
    check_axis("rho", 3)

    n_pairs = 0
    n_over = 0
    worst_ratio = 0.0
    worst_at = ""
    for a in a_vals[a_vals >= 1.0 - 1e-12]:
        for b in b_vals:
            for d in d_vals:
                for rho in r_vals:
                    base = dof_normalized_breakdown(
                        NormalizedParams(a=float(a), b=float(b), d=d, rho=rho)).total
                    doubled = dof_normalized_breakdown(
                        NormalizedParams(a=float(2 * a), b=float(b), d=d, rho=rho)).total
                    n_pairs += 1
                    ratio = doubled / base
                    if ratio > 4.5:
                        n_over += 1
                        if ratio > worst_ratio:
                            worst_ratio = ratio
                            worst_at = (f"a={a:.2f}, b={b:.2f}, d={d:g}, "
                                        f"rho={rho:g}")
    if n_over:
        failures.append(
            f"doubling ratio <= 4.5 for a >= 1: {n_over}/{n_pairs} pairs "
            f"exceed it (max {worst_ratio:.4f} at {worst_at})"
        )

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = ("all four monotonicity axes and the doubling ratio hold"
              if not failures else "; ".join(failures))
    _verdict(4, "parameter-trends", ok, f"{detail}; {elapsed:.2f}s < 10s")
    assert not failures, "\n".join(failures)
    assert elapsed < 10.0


def test_criterion_05_bessel_envelope() -> None:
    t0 = time.perf_counter()
    z = np.linspace(0.1, 100.0, 1000)
    worst = 0.0
    for n in range(61):
        j = np.abs(sph_bessel_j(n, z))
        bound = sph_bessel_j_bound(n, z) * (1.0 + 1e-12)
        over = j - bound
        worst = max(worst, float(over.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 5.0
    _verdict(5, "bessel-envelope", ok,
             f"|j_n(z)| <= envelope for n in [0,60] on 1000-pt grid "
             f"(max excess {worst:.3e}); {elapsed:.2f}s < 5s")
    assert worst <= 0.0
    assert elapsed < 5.0


def test_criterion_06_harmonic_orthonormality() -> None:
    t0 = time.perf_counter()
    degree = 15
    rule = make_quadrature(degree)
    yx = harmonic_matrix(degree, rule.theta, rule.phi)
    gram = (yx * rule.weights) @ yx.conj().T
    err = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-10 and elapsed < 5.0
    _verdict(6, "harmonic-orthonormality", ok,
             f"Gram deviation {err:.3e} (tol 1e-10) at degree {degree}; "
             f"{elapsed:.2f}s < 5s")
    assert err <= 1e-10
    assert elapsed < 5.0


def test_criterion_07_planewave_round_trip() -> None:
    t0 = time.perf_counter()
    sources = [
        PlaneWaveSource(theta=0.7, phi=1.9, amplitude=1.0 + 0.0j),
        PlaneWaveSource(theta=2.2, phi=4.4, amplitude=0.6 - 0.8j),
    ]
    worst = 0.0
    for k_r in (1.0, 5.0, 10.0):
        freq = k_r / (2.0 * math.pi)  # radius 1, unit wave speed
        n_cap = math.ceil(k_r) + 5
        rule = make_quadrature(n_cap + math.ceil(k_r) + 20)
        freqs = np.array([freq])
        field = synthesize_field(sources, rule, 1.0, freqs, wave_speed_c=1.0)
        analyzed = analyze_modes(field, rule, n_cap)
        theory = theoretical_modes(sources, 1.0, freqs, n_cap, wave_speed_c=1.0)
        gap = np.linalg.norm(analyzed.coeffs - theory.coeffs)
        ref = np.linalg.norm(theory.coeffs)
        worst = max(worst, float(gap / ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict(7, "planewave-round-trip", ok,
             f"analyze(synthesize) vs direct expansion, max rel err "
             f"{worst:.3e} (tol 1e-8) over kR in {{1,5,10}}; "
             f"{elapsed:.2f}s < 30s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_08_noise_projection_statistics() -> None:
    t0 = time.perf_counter()
    trials = 10_000
    sigma0_sq = 0.25
    rule = make_quadrature(8)
    noise = NoiseModel(sigma0_sq=sigma0_sq, seed=7)
    silent = np.zeros((len(rule), trials), dtype=complex)
    noisy = add_noise(silent, rule, noise)
    spectrum = analyze_modes(noisy, rule, 5)
    nu = spectrum.coeffs  # one row per (n, m) with n <= 5, one column per trial
    variances = np.mean(np.abs(nu) ** 2, axis=1)
    var_err = float(np.max(np.abs(variances - sigma0_sq)) / sigma0_sq)
    cov = (nu @ nu.conj().T) / trials
    off = cov - np.diag(np.diag(cov))
    corr = float(np.max(np.abs(off)) / sigma0_sq)
    corr_limit = 3.0 / math.sqrt(trials)
    elapsed = time.perf_counter() - t0
    ok = var_err <= 0.05 and corr < corr_limit and elapsed < 60.0
    _verdict(8, "noise-projection-statistics", ok,
             f"variance within {var_err:.3%} of sigma0^2 on all 36 modes "
             f"(tol 5%), max cross-correlation {corr:.4f} < {corr_limit:.4f}; "
             f"{elapsed:.2f}s < 60s")
    assert var_err <= 0.05
    assert corr < corr_limit
    assert elapsed < 60.0


def test_criterion_09_cutoff_one_sidedness() -> None:
    t0 = time.perf_counter()
    s = NormalizedParams(a=1.0, b=0.5, d=1.0, rho=1.0).to_scenario(
        mid_freq_F0=1.0, wave_speed_c=1.0)
    n_min, n_max = truncation_indices(s)
    assert n_max == 13
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
    violations = []
    for n in range(1, n_max + 1):
        f_hat = empirical_critical_frequency(snr, freqs, s.threshold_gamma, n)
        f_n = critical_frequency(s, n)
        if math.isfinite(f_hat):
            detected += 1
        if not f_hat >= f_n - delta_f:
            violations.append((n, f_hat, f_n))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    _verdict(9, "cutoff-one-sidedness", ok,
             f"empirical cutoff >= analytic cutoff - 2W/512 for n in [1,13]; "
             f"{detected}/13 modes cross threshold at this SNR (inequality "
             f"holds vacuously for the rest); {elapsed:.2f}s < 30s")
    assert not violations, violations
    assert elapsed < 30.0


def test_criterion_10_basis_orthogonality() -> None:
    t0 = time.perf_counter()
    s = NormalizedParams(a=1.0, b=0.5, d=1.0, rho=1.0).to_scenario(
        mid_freq_F0=1.0, wave_speed_c=1.0)
    cols = bandwidth_arrays(s)
    lo, hi = s.band
    fn = cols.critical_freq_Fn.tolist()
    pairs = []
    for n in (3, 10):  # one full-band mode, one cutoff-narrowed mode
        # The usable band [max(F0 - W, F_n), F0 + W]; all of it up to n_min.
        pairs.append(ModeBand(lo if n <= cols.n_min else min(max(lo, fn[n]), hi), hi))
    assert (pairs[0].w_n, pairs[0].w_0n) != (pairs[1].w_n, pairs[1].w_0n)
    worst = 0.0
    for band in pairs:
        window = 64.0 / band.w_n
        for ell in range(11):
            for ellp in range(ell, 11):
                val = phi_inner(ell, ellp, band, window)
                target = 1.0 / band.w_n if ell == ellp else 0.0
                worst = max(worst, abs(val - target) * band.w_n)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict(10, "basis-orthogonality", ok,
             f"Gram of phi_l, l in [0,10], within {worst:.3e} relative of "
             f"identity/w_n (tol 1e-6) for two (w_n, w_0n) pairs; "
             f"{elapsed:.2f}s < 10s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def _raised_cosine(x: np.ndarray) -> np.ndarray:
    return np.sinc(x) + 0.5 * np.sinc(x + 1.0) + 0.5 * np.sinc(x - 1.0)


def test_criterion_11_sampling_reconstruction() -> None:
    t0 = time.perf_counter()
    band = ModeBand(10.0, 11.0)
    w, w0 = band.w_n, band.w_0n

    # Coefficient/sample identity against the analytic transform of a
    # cos^2-shaped band spectrum, psi(t) = raised_cosine(w t)/2 * carrier.
    spectrum = lambda omega: np.cos(np.pi * (omega / (2.0 * np.pi) - w0)) ** 2
    train = fourier_coefficients(spectrum, band, (0, 40))
    ells = train.ells.astype(float)
    closed = 0.5 * _raised_cosine(ells) * np.exp(2j * np.pi * w0 * ells / w)
    identity_err = float(np.max(np.abs(train.values - closed))
                         / np.max(np.abs(closed)))

    # Reconstruction of a seeded in-band signal from floor(w_n T_eff) + 1
    # samples, interior relative L2; repeating with half the samples must
    # degrade past 5% (negative control).
    t_eff = 60.0
    wt = w * t_eff
    rng = np.random.Generator(np.random.Philox(20240201))
    n_kernels = 8
    edges = np.linspace(0.18 * wt, 0.82 * wt, n_kernels + 1)
    centers = edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(
        0.2, 0.8, n_kernels)
    coeffs = rng.standard_normal(n_kernels) + 1j * rng.standard_normal(n_kernels)

    def baseband(u: np.ndarray) -> np.ndarray:
        acc = np.zeros(np.shape(u), dtype=complex)
        for c, u0 in zip(coeffs, centers):
            acc += c * _raised_cosine(u - u0)
        return acc

    n_samples = int(math.floor(wt)) + 1
    ell_grid = np.arange(n_samples)
    values = baseband(ell_grid.astype(float)) * np.exp(
        2j * np.pi * w0 * ell_grid / w)
    t = np.linspace(0.1 * t_eff, 0.9 * t_eff, 512)
    truth = baseband(w * t) * np.exp(2j * np.pi * w0 * t)

    def rel_l2(train_in: SampleTrain) -> float:
        rec = reconstruct(train_in, band, t)
        return float(np.sqrt(np.mean(np.abs(rec - truth) ** 2)
                             / np.mean(np.abs(truth) ** 2)))

    err_full = rel_l2(SampleTrain(values=values, ell_lo=0))
    n_half = n_samples // 2
    err_half = rel_l2(SampleTrain(values=values[:n_half], ell_lo=0))
    elapsed = time.perf_counter() - t0
    ok = (identity_err <= 1e-8 and err_full <= 0.01 and err_half > 0.05
          and elapsed < 10.0)
    _verdict(11, "sampling-reconstruction", ok,
             f"coefficient identity {identity_err:.3e} (tol 1e-8); "
             f"{n_samples}-sample reconstruction {err_full:.3e} <= 1%; "
             f"{n_half}-sample control {err_half:.3f} > 5%; "
             f"{elapsed:.2f}s < 10s")
    assert identity_err <= 1e-8
    assert err_full <= 0.01
    assert err_half > 0.05
    assert elapsed < 10.0


def test_criterion_12_support_additivity() -> None:
    t0 = time.perf_counter()
    wave_speed = 3e8
    worst_steps = 0.0
    for obs_t, radius in ((1e-3, 0.3), (5e-4, 0.15)):
        dt = (radius / wave_speed) / 256.0
        expected = obs_t + 2.0 * radius / wave_speed
        for n in (0, 1, 3, 8):
            measured = legendre_support_check(
                lambda x: np.ones_like(x), obs_t, radius, n, wave_speed)
            worst_steps = max(worst_steps, abs(measured - expected) / dt)
    elapsed = time.perf_counter() - t0
    # One grid step, with float slack for subtracting O(T) time stamps.
    ok = worst_steps <= 1.0 + 1e-6 and elapsed < 10.0
    _verdict(12, "support-additivity", ok,
             f"convolution support = T + 2r/c within {worst_steps:.3f} grid "
             f"steps (limit 1) for n in {{0,1,3,8}}, two (T, r) pairs; "
             f"{elapsed:.2f}s < 10s")
    assert worst_steps <= 1.0 + 1e-6
    assert elapsed < 10.0
