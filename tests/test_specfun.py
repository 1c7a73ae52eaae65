"""Unit tests for the special-function layer.

Reference values are frozen from independent evaluations: the spherical
Bessel power series summed in 60-digit arithmetic (cross-checked against the
half-integer cylindrical Bessel route), the log-gamma form of the envelope,
and closed-form Legendre polynomials.  The accuracy contracts are checked
against 60-digit mpmath, and the harmonic basis also against
scipy.special.sph_harm_y, which the package used to call and which stays a
test-only reference.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from modecap import specfun
from modecap.errors import DomainError, ResolutionError
from modecap.specfun import (
    QuadratureRule,
    flat_degrees,
    harmonic_matrix,
    legendre_p,
    make_quadrature,
    sph_bessel_j,
    sph_bessel_j_bound,
)

# (n, z, j_n(z)) frozen from a 60-digit power-series evaluation; the two
# largest orders come from the half-integer cylindrical Bessel route at 80
# digits (the series loses all precision to cancellation there).
_BESSEL_TABLE = [
    (0, 0.5, 0.958851077208406),
    (1, 1.0, 0.30116867893975679),
    (2, 3.7, 0.29766960887405134),
    (5, 2.0, 0.0026351697702441173),
    (10, 12.5, 0.10511031149281574),
    (25, 20.0, 0.0018775092797676986),
    (60, 45.0, 2.5210242793596717e-6),
    (3, 0.001, 9.5238089947090073e-12),
    (120, 80.0, 1.7648688925103673e-14),
    (200, 150.0, 5.5193131111327919e-15),
    # From mpmath besselj at 100 digits: next to the 18th zero of j_0, and a
    # tiny argument where scipy.special.spherical_jn underflows to 0.
    (0, 56.54882744137207, 2.8236970125961472e-06),
    (1, 1.3386097621135514e-220, 4.462032540378505e-221),
]

# (n, z, sqrt(pi)/2 * (z/2)^n / Gamma(n + 3/2)) frozen at 60 digits.
_BOUND_TABLE = [
    (0, 0.5, 1.0),
    (1, 1.0, 0.33333333333333333),
    (2, 3.7, 0.91266666666666675),
    (5, 2.0, 0.0030784030784030784),
    (10, 12.5, 6.7735947161516389),
    (25, 20.0, 0.11259015407937041),
    (60, 45.0, 0.018473372955498179),
    (3, 0.001, 9.5238095238095244e-12),
    (120, 80.0, 2.1301295528889603e-8),
    (200, 150.0, 0.081579498952715723),
]

# (n, x, P_n(x)) frozen from exact closed forms / 60-digit evaluation.
_LEGENDRE_TABLE = [
    (7, 0.3, -0.22407298125000002),
    (30, -0.77, 0.019143285168207066),
    (4, 0.95, 0.55408984374999965),
]


def test_bessel_matches_frozen_series_values() -> None:
    for n, z, ref in _BESSEL_TABLE:
        got = sph_bessel_j(n, z)
        assert got == pytest.approx(ref, rel=1e-12), (n, z)


def test_bessel_bound_matches_frozen_values() -> None:
    for n, z, ref in _BOUND_TABLE:
        got = sph_bessel_j_bound(n, z)
        assert got == pytest.approx(ref, rel=1e-12), (n, z)


def test_bessel_special_values_and_shapes() -> None:
    assert sph_bessel_j(0, 0.0) == 1.0
    assert sph_bessel_j(3, 0.0) == 0.0
    z = np.linspace(0.0, 30.0, 301)
    j0 = sph_bessel_j(0, z)
    assert j0.shape == z.shape
    assert np.allclose(j0, np.sinc(z / np.pi), rtol=0, atol=1e-15)
    assert isinstance(sph_bessel_j(2, 1.5), float)
    matrix = sph_bessel_j(4, z.reshape(7, 43))
    assert matrix.shape == (7, 43)


def _bessel_points(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded orders n <= 200 and arguments: a quarter each on the decaying
    side (1e-3 <= z <= n), around the turning point (z from n/2 to 2n), on
    the oscillating side (n <= z <= 1e6) and in the series range (z < 1e-3)."""
    rng = np.random.default_rng(20261019)
    n = rng.integers(0, 201, count)
    top = np.log10(np.maximum(n, 1))
    u = rng.uniform(0.0, 1.0, count)
    family = np.arange(count) % 4
    z = np.select(
        [family == 0, family == 1, family == 2],
        [10.0 ** (-3.0 + u * (top + 3.0)), np.maximum(n, 1) * (0.5 + 1.5 * u),
         10.0 ** (top + u * (6.0 - top))],
        10.0 ** (-8.0 + 5.0 * u))
    return n, z


def _mpmath_jy(n: int, z: float) -> tuple[float, float]:
    """j_n(z) and y_n(z) from the half-integer cylindrical functions at 60
    digits, rounded to doubles."""
    with mpmath.workdps(60):
        x = mpmath.mpf(z)
        scale = mpmath.sqrt(mpmath.pi / (2 * x))
        order = n + mpmath.mpf(1) / 2
        return float(scale * mpmath.besselj(order, x)), float(scale * mpmath.bessely(order, x))


def test_bessel_meets_its_accuracy_contract_against_mpmath() -> None:
    # The sph_bessel_j docstring: 2e-13 relative away from the zeros of j_n,
    # 1e-15 of the local amplitude sqrt(j_n^2 + y_n^2) near them, and 1e-321
    # absolute below the smallest normal double.
    orders, args = _bessel_points(400)
    regimes = set()
    for n, z in zip(orders.tolist(), args.tolist()):
        j, y = _mpmath_jy(n, z)
        err = abs(sph_bessel_j(n, z) - j)
        amplitude = math.hypot(j, y)
        if z > n and abs(j) < 1e-2 * amplitude:
            regimes.add("near a zero")
            assert err <= 1e-15 * amplitude, (n, z)
        elif abs(j) >= np.finfo(float).tiny:
            regimes.add("z > n" if z > n else "z <= n")
            assert err <= 2e-13 * abs(j), (n, z)
        else:
            regimes.add("subnormal")
            assert err <= 1e-321, (n, z)
    assert regimes == {"near a zero", "z > n", "z <= n", "subnormal"}


def test_bessel_three_term_recurrence_closes() -> None:
    z = np.linspace(0.05, 120.0, 977)
    for n in (1, 5, 17, 40, 80):
        lhs = sph_bessel_j(n - 1, z) + sph_bessel_j(n + 1, z)
        rhs = (2 * n + 1) / z * sph_bessel_j(n, z)
        scale = np.maximum(np.abs(lhs), np.abs(rhs)) + 1e-300
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-8, n


def test_bessel_rejects_bad_arguments() -> None:
    with pytest.raises(DomainError):
        sph_bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        sph_bessel_j(201, 1.0)
    with pytest.raises(DomainError):
        sph_bessel_j(2.0, 1.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        sph_bessel_j(2, -0.5)
    with pytest.raises(DomainError):
        sph_bessel_j(2, math.inf)


def test_bessel_bound_rejects_an_order_beyond_the_float_range() -> None:
    with pytest.raises(DomainError, match="too large"):
        sph_bessel_j_bound(10**400, 1.0)
    # An order a float holds keeps its value; Gamma(n + 3/2) overflows from
    # n = 2.5e305 on, so the bound is 0 wherever z/2 <= 1.
    assert sph_bessel_j_bound(10**306, 1.0) == 0.0
    assert sph_bessel_j_bound(2**1023, [0.0, 2.0]).tolist() == [0.0, 0.0]
    # There n log(z/2) can overflow too; the bound still takes the sign of
    # log(z/2) - log Gamma(n + 3/2) / n, with no NaN and no warning.
    assert sph_bessel_j_bound(10**306, 1e300) == 0.0
    assert sph_bessel_j_bound(10**306, 1.7e308) == math.inf


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    n=st.integers(min_value=0, max_value=150),
    z=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_bessel_envelope_dominates(n: int, z: float) -> None:
    assert abs(sph_bessel_j(n, z)) <= sph_bessel_j_bound(n, z) * (1 + 1e-12)


def test_legendre_matches_frozen_values() -> None:
    for n, x, ref in _LEGENDRE_TABLE:
        assert legendre_p(n, x) == pytest.approx(ref, rel=1e-13), (n, x)


def test_legendre_matches_numpy_series_evaluation() -> None:
    x = np.linspace(-1.0, 1.0, 513)
    for n in (0, 1, 6, 12):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        ref = np.polynomial.legendre.legval(x, coeffs)
        assert np.max(np.abs(legendre_p(n, x) - ref)) < 1e-12, n


def test_legendre_endpoints_exact() -> None:
    for n in range(12):
        assert legendre_p(n, 1.0) == 1.0
        assert legendre_p(n, -1.0) == (-1.0) ** n


def test_legendre_rejects_out_of_range() -> None:
    with pytest.raises(DomainError):
        legendre_p(3, 1.5)
    with pytest.raises(DomainError):
        legendre_p(-2, 0.5)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    n=st.integers(min_value=0, max_value=60),
    x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_legendre_bounded_by_one(n: int, x: float) -> None:
    assert abs(legendre_p(n, x)) <= 1.0 + 1e-12


# The harmonic_matrix docstring's contract: within 2e-14 of the table's
# largest magnitude, against sph_harm_y and against mpmath.
_HARMONIC_TOL = 2e-14


def test_flat_layout() -> None:
    # Mode (n, m) sits at row n*n + n + m: orders -n..n of each degree in turn.
    rows = [n * n + n + m for n in range(5) for m in range(-n, n + 1)]
    assert rows == list(range(25))
    degrees = flat_degrees(4)
    assert degrees.tolist() == [n for n in range(5) for _ in range(2 * n + 1)]
    # Lower degrees are a prefix, so (N+1)^2 leading rows are degree N's layout.
    assert np.array_equal(degrees[:9], flat_degrees(2))
    theta = np.array([0.4, 1.1, 2.9])
    phi = np.array([0.0, 2.5, 5.1])
    matrix = harmonic_matrix(4, theta, phi)
    assert matrix.shape == (25, 3)
    for n, m in [(0, 0), (2, -2), (3, 1), (4, -4), (4, 4)]:
        ref = sph_harm_y(n, m, theta, phi)
        assert np.max(np.abs(matrix[n * n + n + m] - ref)) <= _HARMONIC_TOL * np.max(
            np.abs(matrix)), (n, m)


def test_harmonic_matrix_known_values() -> None:
    y00 = harmonic_matrix(0, np.array([0.3]), np.array([1.2]))
    assert y00[0, 0] == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)
    # Positive-m harmonics carry the Condon-Shortley sign (-1)^m; Y_11 is row 3.
    y11 = harmonic_matrix(1, np.array([math.pi / 2]), np.array([0.0]))[3, 0]
    assert y11.real == pytest.approx(-math.sqrt(3 / (8 * math.pi)), rel=1e-12)
    assert y11.imag == pytest.approx(0.0, abs=1e-15)
    theta = np.linspace(0.0, math.pi, 11)
    y10 = harmonic_matrix(1, theta, np.zeros_like(theta))[2]
    ref = math.sqrt(3 / (4 * math.pi)) * np.cos(theta)
    assert np.max(np.abs(y10 - ref)) < 1e-14


def _direct_harmonic_matrix(max_degree: int, theta, phi) -> np.ndarray:
    """One sph_harm_y call per (mode, point): the unseparated reference."""
    n = np.repeat(np.arange(max_degree + 1), 2 * np.arange(max_degree + 1) + 1)
    m = np.arange(n.size) - n * (n + 1)
    return sph_harm_y(n[:, None], m[:, None], np.asarray(theta)[None, :],
                      np.asarray(phi)[None, :])


def _seeded_points(count: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20240611)
    theta = np.arccos(rng.uniform(-1.0, 1.0, count))
    return theta, rng.uniform(0.0, 2 * np.pi, count)


_RULE_46 = make_quadrature(46)
# a=3's polar table: degree 41 on the 91 rings of the degree-90 rule, one
# azimuth of the rule per ring.
_RULE_90 = make_quadrature(90)
_RINGS_90 = (_RULE_90.theta[:: 2 * 90 + 2], _RULE_90.phi[: 2 * 90 + 2 : 2])


def _pole_points() -> tuple[np.ndarray, np.ndarray]:
    """Both poles, the subnormal and the last double short of pi, then seeded."""
    edge = np.array([0.0, math.pi, 5e-324, np.nextafter(math.pi, 0.0)])
    theta, phi = _seeded_points(6)
    return np.concatenate([edge, theta]), np.concatenate([phi[:4], phi])


@pytest.mark.parametrize(
    ("max_degree", "theta", "phi"),
    [
        pytest.param(30, _RULE_46.theta, _RULE_46.phi, id="rule46-degree30"),
        pytest.param(12, *_seeded_points(300), id="scattered"),
        pytest.param(7, np.full(6, 0.7), np.linspace(0.0, 6.0, 6),
                     id="shared-theta"),
        pytest.param(7, np.linspace(0.1, 3.0, 6), np.full(6, 2.2),
                     id="shared-phi"),
        pytest.param(9, np.array([1.1]), np.array([0.4]), id="single-point"),
        pytest.param(200, *_pole_points(), id="degree200-poles"),
        pytest.param(41, *_RINGS_90, id="rule90-rings-degree41"),
    ],
)
def test_harmonic_matrix_equals_direct_evaluation_exactly(
    max_degree: int, theta: np.ndarray, phi: np.ndarray
) -> None:
    # "Exactly" means within the docstring's rounding contract: the
    # recurrence is not SciPy's, so its last bits differ from sph_harm_y.  A
    # seeded sample of entries is also checked against 60-digit mpmath.
    matrix = harmonic_matrix(max_degree, theta, phi)
    scale = np.max(np.abs(matrix))
    direct = _direct_harmonic_matrix(max_degree, theta, phi)
    assert np.max(np.abs(matrix - direct)) <= _HARMONIC_TOL * scale
    rng = np.random.default_rng(max_degree)
    n = flat_degrees(max_degree)
    for row, col in zip(rng.integers(0, n.size, 40), rng.integers(0, theta.size, 40)):
        m = row - n[row] * (n[row] + 1)
        with mpmath.workdps(60):
            ref = complex(mpmath.spherharm(int(n[row]), int(m), mpmath.mpf(float(theta[col])),
                                           mpmath.mpf(float(phi[col]))))
        assert abs(matrix[row, col] - ref) <= _HARMONIC_TOL * scale, (row, col)


def _gathered_harmonic_matrix(max_degree: int, theta, phi) -> np.ndarray:
    """The full (N+1)^2 x points gather of the polar table, times the
    azimuthal factor: harmonic_matrix before it went degree by degree."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    theta_u, theta_at = np.unique(theta, return_inverse=True)
    phi_u, phi_at = np.unique(phi, return_inverse=True)
    n = flat_degrees(max_degree)
    m = np.abs(np.arange(n.size) - n * (n + 1))
    polar = specfun._polar_table(max_degree, theta_u)[(n * (n + 1) // 2 + m)[:, None],
                                                      theta_at.ravel()]
    orders = np.arange(-max_degree, max_degree + 1)
    azimuth = np.exp(1j * orders[:, None] * phi_u[None, :])[:, phi_at.ravel()]
    azimuth[(max_degree + 1) % 2 : max_degree : 2] *= -1.0
    out = np.empty(polar.shape, dtype=complex)
    for k in range(max_degree + 1):
        rows = slice(k * k, (k + 1) ** 2)
        np.multiply(polar[rows], azimuth[max_degree - k : max_degree + k + 1], out=out[rows])
    return out


@pytest.mark.parametrize("max_degree", [0, 1, 2, 8, 41, 100])
def test_harmonic_matrix_equals_the_full_gather_bit_for_bit(max_degree: int) -> None:
    rule = make_quadrature(max_degree + 2)
    rings, azimuths = rule.ring_shape
    theta, phi = _seeded_points(40)
    point_sets = [
        (rule.theta[::azimuths], np.zeros(rings)),
        (rule.theta[::azimuths], rule.phi[:rings]),
        (theta, phi),
        (np.array([0.0, math.pi, -0.0, 0.0, math.pi, 1.2]),
         np.array([0.3, -0.0, 0.0, -0.0, 2.0, -0.0])),
    ]
    for theta, phi in point_sets:
        fast = harmonic_matrix(max_degree, theta, phi)
        assert fast.tobytes() == _gathered_harmonic_matrix(max_degree, theta, phi).tobytes()


def test_harmonic_matrix_edited_in_place_never_changes_a_later_call() -> None:
    rule = make_quadrature(20)
    theta, phi = rule.theta[::42], np.zeros(21)
    first = harmonic_matrix(12, theta, phi)
    expected = first.copy()
    # A caller that conjugates and weights its table in place, as the mode
    # analysis does, leaves later calls alone.
    np.conjugate(first, out=first)
    first *= 3.0
    assert harmonic_matrix(12, theta, phi).tobytes() == expected.tobytes()
    harmonic_matrix(30, theta, phi)
    assert harmonic_matrix(12, theta, phi).tobytes() == expected.tobytes()


def test_polar_table_peaks_near_its_own_size() -> None:
    # The recurrence forms each a_nm cos(theta) in its own table row, so no
    # temporary as large as the table exists beside it.
    theta = np.linspace(0.01, 3.1, 151)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = specfun._polar_table(150, theta)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


@pytest.mark.parametrize("degree", [-1, 2.5, True, "3", None])
def test_harmonic_matrix_rejects_a_bad_degree(degree) -> None:
    with pytest.raises(DomainError, match="max_degree"):
        harmonic_matrix(degree, np.array([0.5]), np.array([0.5]))


@pytest.mark.parametrize(
    ("theta", "phi"),
    [
        pytest.param([0.5, math.nan], [0.1, 0.2], id="nan-theta"),
        pytest.param([0.5, 1.0], [0.1, math.inf], id="inf-phi"),
        pytest.param([-math.inf], [0.1], id="inf-theta"),
        pytest.param([0.5], [math.nan], id="nan-phi"),
    ],
)
def test_harmonic_matrix_rejects_non_finite_angles(theta, phi) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            harmonic_matrix(3, np.array(theta), np.array(phi))


def test_quadrature_weights_and_exactness() -> None:
    rule = make_quadrature(6)
    assert len(rule) == len(rule.theta) == len(rule.weights)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(
        4 * math.pi, rel=1e-14)
    ones = np.ones(len(rule))
    assert rule.weights @ ones == pytest.approx(4 * math.pi, rel=1e-13)
    cos2 = np.cos(rule.theta) ** 2
    assert rule.weights @ cos2 == pytest.approx(4 * math.pi / 3, rel=1e-13)


def test_quadrature_gram_identity() -> None:
    rule = make_quadrature(10)
    yx = harmonic_matrix(10, rule.theta, rule.phi)
    gram = (yx * rule.weights) @ yx.conj().T
    assert np.max(np.abs(gram - np.eye(121))) < 1e-12


def test_quadrature_arrays_are_read_only() -> None:
    rule = make_quadrature(3)
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_quadrature_rejects_bad_degrees() -> None:
    with pytest.raises(DomainError):
        make_quadrature(-1)
    with pytest.raises(ResolutionError):
        make_quadrature(513)


def _rule_arrays(degree: int) -> dict:
    rule = make_quadrature(degree)
    return {"theta": rule.theta.copy(), "phi": rule.phi.copy(),
            "weights": rule.weights.copy(), "max_degree": degree}


# One ring, an even and an odd ring count, and the largest supported degree.
@pytest.mark.parametrize("degree", [0, 1, 2, 7, 46, 90, 512])
def test_quadrature_rule_accepts_the_product_layout(degree: int) -> None:
    rule = QuadratureRule(**_rule_arrays(degree))
    assert rule.ring_shape == (degree + 1, 2 * degree + 2)
    assert len(rule) == (degree + 1) * (2 * degree + 2)
    # Ring T-1-j mirrors ring j far inside the 1e-12 rad the rule checks
    # (4.4e-16 at worst over degrees 0..512); an odd T's middle ring is the
    # equator.
    rings = rule.theta[:: 2 * degree + 2]
    assert np.max(np.abs(rings[::-1] - (math.pi - rings))) <= 1e-15
    # Azimuths built another way agree to rounding and are accepted.
    arrays = _rule_arrays(degree)
    arrays["phi"] = np.tile(np.linspace(0.0, 2 * math.pi, 2 * degree + 2,
                                        endpoint=False), degree + 1)
    assert QuadratureRule(**arrays).max_degree == degree


def test_quadrature_rule_rejects_nodes_off_the_product_layout() -> None:
    rng = np.random.default_rng(5)
    base = _rule_arrays(4)
    size = len(base["theta"])
    order = rng.permutation(size)
    shuffled = dict(base, theta=base["theta"][order], phi=base["phi"][order],
                    weights=base["weights"][order])
    # Swapping a ring with its mirror keeps every mirror pair, so that is
    # allowed; swapping two rings that are not mirrors is not.
    rings = np.arange(size).reshape(5, 10)
    mirrored = rings[[4, 1, 2, 3, 0]].ravel()
    QuadratureRule(**dict(base, theta=base["theta"][mirrored],
                          weights=base["weights"][mirrored]))
    rings = rings[[1, 0, 2, 3, 4]].ravel()
    swapped = dict(base, theta=base["theta"][rings], weights=base["weights"][rings])
    # Ring 1 moved as a whole: theta stays constant along it, but ring 3 no
    # longer mirrors it.
    moved_ring = base["theta"].copy()
    moved_ring[10:20] += 1e-9
    # Move one ring's nodes by a quarter step in azimuth, keeping the weights.
    skewed_phi = base["phi"].copy()
    skewed_phi[10:20] += 0.25 * (2 * math.pi / 10)
    # Same total weight, but not constant along ring 0.
    ragged_w = base["weights"].copy()
    ragged_w[0] *= 1.5
    ragged_w[1] -= 0.5 * base["weights"][0]
    ragged_theta = base["theta"].copy()
    ragged_theta[3] += 1e-9
    bad = [
        shuffled,
        swapped,
        dict(base, theta=moved_ring),
        dict(base, theta=base["theta"][:-1], phi=base["phi"][:-1],
             weights=base["weights"][:-1]),
        dict(base, max_degree=3),
        dict(base, phi=skewed_phi),
        dict(base, phi=base["phi"] + 1e-9),
        dict(base, weights=ragged_w),
        dict(base, theta=ragged_theta),
        dict(base, theta=base["theta"].reshape(5, 10)),
        dict(base, max_degree=-1),
        dict(base, max_degree=4.0),
    ]
    for arrays in bad:
        with pytest.raises(DomainError):
            QuadratureRule(**arrays)
