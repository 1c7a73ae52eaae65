"""Scenario model and closed-form degrees-of-freedom results.

Everything here is exact arithmetic on scenario parameters: effective
observation time, per-mode critical frequencies and effective bandwidths,
truncation indices, and the three degrees-of-freedom (DoF) computations --
the exact mode sum, the closed-form upper bound with its d1/d2/d3 breakdown,
and the noise-threshold-free asymptotic form.

Conventions fixed across the module:
  * natural logarithm throughout;
  * standard ceiling (exact integers map to themselves);
  * DoF values are reals, never rounded to integers;
  * mode 0 always spans the full band regardless of the threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .errors import DomainError, ResolutionError, require_index

if TYPE_CHECKING:
    from numpy import ndarray as _Array
else:
    # NumPy loads only inside the functions that use it, so at run time, where
    # typing.get_type_hints reads them, the array annotations resolve to Any.
    _Array = Any

__all__ = [
    "EPI",
    "Scenario",
    "NormalizedParams",
    "ModeEntry",
    "ModeBandwidthProfile",
    "ModeBandArrays",
    "DofBreakdown",
    "effective_time",
    "critical_frequency",
    "truncation_indices",
    "bandwidth_arrays",
    "bandwidth_profile",
    "dof_mode_sum",
    "dof_closed_form",
    "dof_normalized_breakdown",
    "dof_asymptotic",
]

# e * pi, the constant relating mode index to critical frequency.
EPI = math.e * math.pi

# Most modes (n_max + 1) a per-mode table may hold.  As JSON rows of a
# compute report they are about 110 bytes and 1.2 us each: a fresh compute of
# 999,152 rows (a = 7.8e4, b = 0.5) writes 111 MB in 1.4 s at 84 MiB peak RSS
# on a 2-core host.
MODE_TABLE_LIMIT = 1_000_000

# Mode indices stay below this, so their squares stay below the float
# maximum, 1.8e308.
_INDEX_LIMIT = 1e154


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Scenario:
    """Physical observation scenario.

    Parameters
    ----------
    radius_R : float
        Radius of the spherical observation region, meters, >= 0.
    mid_freq_F0 : float
        Mid-band frequency, hertz, > 0.
    half_bandwidth_W : float
        Half bandwidth, hertz; the signal band is [F0 - W, F0 + W] and
        0 <= W <= F0 keeps it nonnegative.
    obs_time_T : float
        Observation time, seconds, >= 0.
    wave_speed_c : float
        Propagation speed, meters/second, > 0.
    threshold_gamma : float
        Detection threshold as a linear power ratio, > 0.
    snr_alpha_max : float
        Maximum SNR of the signal spectrum as a linear power ratio, > 0.
    """

    radius_R: float
    mid_freq_F0: float
    half_bandwidth_W: float
    obs_time_T: float
    wave_speed_c: float = 299792458.0
    threshold_gamma: float = 1.0
    snr_alpha_max: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "radius_R",
            "mid_freq_F0",
            "half_bandwidth_W",
            "obs_time_T",
            "wave_speed_c",
            "threshold_gamma",
            "snr_alpha_max",
        ):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.radius_R < 0:
            raise DomainError(f"radius_R must be >= 0, got {self.radius_R}")
        if self.mid_freq_F0 <= 0:
            raise DomainError(f"mid_freq_F0 must be > 0, got {self.mid_freq_F0}")
        if not 0 <= self.half_bandwidth_W <= self.mid_freq_F0:
            raise DomainError(
                "half_bandwidth_W must satisfy 0 <= W <= F0, got "
                f"W={self.half_bandwidth_W}, F0={self.mid_freq_F0}"
            )
        if self.obs_time_T < 0:
            raise DomainError(f"obs_time_T must be >= 0, got {self.obs_time_T}")
        if self.wave_speed_c <= 0:
            raise DomainError(f"wave_speed_c must be > 0, got {self.wave_speed_c}")
        if self.threshold_gamma <= 0:
            raise DomainError(
                f"threshold_gamma must be > 0, got {self.threshold_gamma}"
            )
        if self.snr_alpha_max <= 0:
            raise DomainError(
                f"snr_alpha_max must be > 0, got {self.snr_alpha_max}"
            )

    @property
    def snr_ratio(self) -> float:
        """rho = snr_alpha_max / threshold_gamma."""
        return self.snr_alpha_max / self.threshold_gamma

    @property
    def band(self) -> tuple[float, float]:
        """The signal band [F0 - W, F0 + W] in hertz."""
        return (
            self.mid_freq_F0 - self.half_bandwidth_W,
            self.mid_freq_F0 + self.half_bandwidth_W,
        )


@dataclass(frozen=True, slots=True)
class NormalizedParams:
    """Dimensionless scenario: a = F0 R / c, b = W / F0, d = F0 T, rho."""

    a: float
    b: float
    d: float
    rho: float

    def __post_init__(self) -> None:
        a, b, d, rho = self.a, self.b, self.d, self.rho
        # Four floats already in range, a sweep's every point, need no
        # conversion; a NaN fails every comparison and takes the checks.
        if (type(a) is type(b) is type(d) is type(rho) is float
                and 0.0 <= a < math.inf and 0.0 <= b <= 1.0
                and 0.0 <= d < math.inf and 0.0 < rho < math.inf):
            return
        for name in ("a", "b", "d", "rho"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.a < 0:
            raise DomainError(f"a must be >= 0, got {self.a}")
        if not 0 <= self.b <= 1:
            raise DomainError(f"b must lie in [0, 1], got {self.b}")
        if self.d < 0:
            raise DomainError(f"d must be >= 0, got {self.d}")
        if self.rho <= 0:
            raise DomainError(f"rho must be > 0, got {self.rho}")

    @classmethod
    def from_scenario(cls, s: Scenario) -> "NormalizedParams":
        """Dimensionless combinations of a Scenario."""
        return cls(
            a=s.mid_freq_F0 * s.radius_R / s.wave_speed_c,
            b=s.half_bandwidth_W / s.mid_freq_F0,
            d=s.mid_freq_F0 * s.obs_time_T,
            rho=s.snr_ratio,
        )

    def to_scenario(
        self, mid_freq_F0: float = 1.0, wave_speed_c: float = 1.0
    ) -> Scenario:
        """A Scenario realizing these dimensionless parameters.

        The choice of mid_freq_F0 and wave_speed_c fixes the unit system;
        from_scenario(to_scenario(p)) == p for any valid choice.
        """
        return Scenario(
            radius_R=self.a * wave_speed_c / mid_freq_F0,
            mid_freq_F0=mid_freq_F0,
            half_bandwidth_W=self.b * mid_freq_F0,
            obs_time_T=self.d / mid_freq_F0,
            wave_speed_c=wave_speed_c,
            threshold_gamma=1.0,
            snr_alpha_max=self.rho,
        )


@dataclass(frozen=True)
class ModeEntry:
    """Per-mode row of a ModeBandwidthProfile: the mode index n, its critical
    frequency F_n and its effective bandwidth W_n."""

    n: int
    critical_freq_Fn: float
    eff_bandwidth_Wn: float


@dataclass(frozen=True)
class ModeBandwidthProfile:
    """Truncation indices plus the per-mode effective bands of a scenario."""

    n_min: int
    n_max: int
    per_mode: tuple[ModeEntry, ...]


@dataclass(frozen=True)
class ModeBandArrays:
    """A ModeBandwidthProfile held as NumPy columns, one element per mode
    n = 0..n_max: n, critical_freq_Fn and eff_bandwidth_Wn, each the
    ModeEntry field of the same name."""

    n_min: int
    n_max: int
    n: _Array
    critical_freq_Fn: _Array
    eff_bandwidth_Wn: _Array


@dataclass(frozen=True)
class DofBreakdown:
    """DoF total split into spatial (d1), full-band (d2) and partial-band
    (d3) contributions, with the effective time used.

    Raises DomainError("degrees of freedom overflow: <field> is <value>")
    for the first non-finite field, so an overflowed bound never exists.
    """

    d1: float
    d2: float
    d3: float
    total: float
    t_eff: float

    def __post_init__(self) -> None:
        d1, d2, d3, total, t_eff = self.d1, self.d2, self.d3, self.total, self.t_eff
        # A NaN or an inf in any field makes the sum non-finite; the sum
        # alone keeps the check cheap on the sweep's per-point path.  total
        # is named first, since an overflowing part makes it inf, and t_eff
        # next, since it can overflow on its own at W = 0.
        if not math.isfinite(total + t_eff + d1 + d2 + d3):
            for name, value in (("total", total), ("t_eff", t_eff), ("d1", d1),
                                ("d2", d2), ("d3", d3)):
                if not math.isfinite(value):
                    raise DomainError(f"degrees of freedom overflow: {name} is {value!r}")
        if min(d1, d2, d3, total) < 0:
            raise DomainError("DoF components must be >= 0")
        if abs(total - (d1 + d2 + d3)) > 1e-9 * max(1.0, abs(total)):
            raise DomainError("total must equal d1 + d2 + d3")


def effective_time(s: Scenario) -> float:
    """Effective observation time T + 2R/c (seconds).

    Extends the raw window by the wavefront transit time across the region;
    independent of frequency, bandwidth, and threshold.  Returns inf where
    the sum overflows, as at R = 1e20 with c = 1e-300.
    """
    return s.obs_time_T + 2.0 * s.radius_R / s.wave_speed_c


def _is_pointlike(s: Scenario) -> bool:
    """Whether a = F0 R / c, as from_scenario computes it, is 0: then the
    region is pointlike and has mode 0 only.  That holds at R = 0 and at an
    R so small that F0 R / c underflows."""
    return s.mid_freq_F0 * s.radius_R / s.wave_speed_c == 0


def _critical_frequencies(s: Scenario, n):
    """max(0, (n - ln(rho)/2) c / (e pi R)) for a mode index n, as a float, or
    an integer array of them, without the n = 0 case.

    np.where(x > 0, x, 0) is Python's max(0.0, x), so a NaN (inf / inf at a
    huge R, 0 / 0 at R = 0) gives 0 either way; overflow to inf at a tiny R
    and division by R = 0 are silent.
    """
    import numpy as np

    half_log = 0.5 * math.log(s.snr_ratio)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = (n - half_log) * s.wave_speed_c / (EPI * s.radius_R)
    return np.where(x > 0.0, x, 0.0)


def critical_frequency(s: Scenario, n: int) -> float:
    """Critical frequency F_n below which mode n falls under the threshold.

    F_n = max(0, n c / (e pi R) + (c / (2 e pi R)) ln(gamma / snr_alpha_max)),
    natural log, except F_0 = 0 unconditionally (mode 0 is always full-band),
    a = 0 included.

    Returns inf where F_n overflows the float range, as at R = 5e-324 with
    F0 = c = 1: mode n then turns on at no finite frequency.

    Raises DomainError for n >= 1 at a = F0 R / c = 0 (a pointlike region
    has mode 0 only), where rho = snr_alpha_max / threshold_gamma underflows
    to 0, and for an n too large to convert to a float.
    """
    n = require_index("mode index", n)
    if n == 0:
        return 0.0
    if _is_pointlike(s):
        raise DomainError(
            f"critical frequency of mode {n} is undefined at a = F0 R / c = 0: a "
            "pointlike region has mode 0 only"
        )
    if s.snr_ratio == 0:
        raise DomainError("rho = snr_alpha_max / threshold_gamma must be > 0, got 0.0")
    try:
        index = float(n)
    except OverflowError:
        raise DomainError("mode index is too large to convert to a float") from None
    return float(_critical_frequencies(s, index))


def _indices(a: float, b: float, rho: float) -> tuple[int, int]:
    """Truncation indices on dimensionless parameters.

    Raises DomainError when n_max would reach _INDEX_LIMIT: the closed form
    squares it, and (e pi a)^2, as floats.
    """
    half_log = 0.5 * math.log(rho)
    epi_a = EPI * a
    top = epi_a * (1.0 + b) + half_log
    if top >= _INDEX_LIMIT:
        raise DomainError(
            f"degrees of freedom overflow: n_max would be {top:.6g}, not below "
            f"{_INDEX_LIMIT:g} (a = {a!r})"
        )
    n_min = max(0, math.ceil(epi_a * (1.0 - b) + half_log))
    n_max = max(n_min, math.ceil(top))
    return n_min, n_max


def truncation_indices(s: Scenario | NormalizedParams) -> tuple[int, int]:
    """(n_min, n_max): the last full-band mode index and the last mode with
    any usable bandwidth.

    Takes a Scenario or a NormalizedParams; n_min and n_max depend only on
    a, b and rho.  (0, 0) at a = 0, where a pointlike region has mode 0
    only.  A NormalizedParams gives what its to_scenario() gives.  Raises
    DomainError when n_max would reach 1e154.
    """
    # A NormalizedParams comes first: it is the sweep's hot path.
    p = s if isinstance(s, NormalizedParams) else NormalizedParams.from_scenario(s)
    if p.a == 0:
        return 0, 0
    return _indices(p.a, p.b, p.rho)


def bandwidth_arrays(s: Scenario) -> ModeBandArrays:
    """Critical frequencies F_n and effective bandwidths W_n of the modes
    n = 0..n_max, as NumPy columns.

    Branches over the mode index n:
      * n <= n_min: full band, W_n = 2W exactly (not the difference of the
        band edges F0+W and F0-W, which cancels when W << F0);
      * n_min < n <= n_max: W_n = F0+W - min(max(F0-W, F_n), F0+W), the
        width of the usable band [max(F0-W, F_n), F0+W] (0 when the clamp
        bites).

    Every element equals, bit for bit, the Python scalar arithmetic of
    critical_frequency and of the per-mode max/min clamps.  At a = 0,
    n_min = n_max = 0, so the table is the single full-band row of mode 0.
    Where F0 + W overflows to inf, a partial-band row whose F_n is inf has
    W_n = inf - inf = NaN, as in that scalar arithmetic; dof_mode_sum
    refuses it.

    Raises ResolutionError above MODE_TABLE_LIMIT modes, before building
    any column.
    """
    import numpy as np

    n_min, n_max = truncation_indices(s)
    if n_max + 1 > MODE_TABLE_LIMIT:
        raise ResolutionError(
            f"mode table at n_max = {n_max} would have {n_max + 1} rows, above the "
            f"limit of {MODE_TABLE_LIMIT}; the closed-form bound needs no table"
        )
    lo, hi = s.band
    n = np.arange(n_max + 1)
    fn = _critical_frequencies(s, n)
    fn[0] = 0.0
    # fn holds no NaN and no -0.0, so clip is Python's min(max(lo, fn), hi).
    # Only the partial-band rows are clamped.  Where F0 + W overflows to inf,
    # a row whose F_n is inf gives inf - inf = NaN, as the scalar arithmetic
    # does, without a warning.
    eff = np.full(n_max + 1, 2.0 * s.half_bandwidth_W)
    partial = eff[n_min + 1 :]
    with np.errstate(invalid="ignore"):
        np.subtract(hi, np.clip(fn[n_min + 1 :], lo, hi, out=partial), out=partial)
    return ModeBandArrays(
        n_min=n_min,
        n_max=n_max,
        n=n,
        critical_freq_Fn=fn,
        eff_bandwidth_Wn=eff,
    )


def bandwidth_profile(s: Scenario) -> ModeBandwidthProfile:
    """bandwidth_arrays as a tuple of ModeEntry rows (see there)."""
    cols = bandwidth_arrays(s)
    per_mode = tuple(
        map(
            ModeEntry,
            cols.n.tolist(),
            cols.critical_freq_Fn.tolist(),
            cols.eff_bandwidth_Wn.tolist(),
        )
    )
    return ModeBandwidthProfile(n_min=cols.n_min, n_max=cols.n_max, per_mode=per_mode)


def dof_mode_sum(s: Scenario) -> float:
    """Exact mode-by-mode DoF count sum((2n+1) (W_n T_eff + 1), n=0..n_max).

    Always at most dof_closed_form(s).total when the ratio
    snr_alpha_max/threshold_gamma is >= 1.  Each full-band mode n <= n_min
    counts W_n = 2W, the 2W of d2, so at a = 0 the sum is the one term
    2WT + 1 and equals the closed form.

    Raises DomainError("degrees of freedom overflow: mode sum is <value>")
    when the sum is not finite: where T_eff overflows to inf (a W_n of 0
    then gives 0 * inf = NaN) or a W_n is NaN (see bandwidth_arrays).
    Raises ResolutionError above MODE_TABLE_LIMIT modes, as bandwidth_arrays
    does, before summing any.
    """
    bands = bandwidth_arrays(s)
    t_eff = effective_time(s)
    total = float(
        sum(
            (2 * n + 1) * (w * t_eff + 1.0)
            for n, w in zip(bands.n.tolist(), bands.eff_bandwidth_Wn.tolist())
        )
    )
    if not math.isfinite(total):
        raise DomainError(f"degrees of freedom overflow: mode sum is {total!r}")
    return total


def _pointlike(two_wt: float, t_eff: float) -> DofBreakdown:
    """The a = 0 breakdown: one spatial mode carrying 2WT + 1
    degrees of freedom, with two_wt = 2WT and t_eff = T."""
    return DofBreakdown(d1=1.0, d2=two_wt, d3=0.0, total=two_wt + 1.0, t_eff=t_eff)


def _breakdown(
    a: float, b: float, rho: float, t_eff: float, wt2: float
) -> DofBreakdown:
    """Closed-form bound from dimensionless parameters.

    wt2 = 2 W T_eff is passed in the caller's unit system so the stored
    breakdown keeps its scale; algebraically wt2 = 2 b (2 a + d).
    """
    n_min, n_max = _indices(a, b, rho)
    epi_a = EPI * a
    d1 = float((n_max + 1) ** 2)
    d2 = max(0.0, wt2 * (n_min + 1) ** 2)
    bracket = (
        2.0 * epi_a ** 2 * (b - b * b / 3.0)
        + epi_a * (2.0 - b)
        + math.log(rho) * (epi_a * b + 1.0)
    )
    d3 = max(0.0, wt2 * bracket)
    return DofBreakdown(d1, d2, d3, d1 + d2 + d3, t_eff)


def dof_closed_form(s: Scenario) -> DofBreakdown:
    """Closed-form upper bound on the DoF with its d1/d2/d3 breakdown.

    d1 = (n_max+1)^2 counts spatial modes; d2 = 2 W T_eff (n_min+1)^2 counts
    the full-band modes' time-bandwidth content; d3 bounds the partial-band
    tail.  Each component is clamped at 0.  At a = F0 R / c = 0 (a
    pointlike region) the bound is exact: d1 = 1, d2 = 2WT, d3 = 0 and
    t_eff = T.  Raises DomainError when a field overflows (see DofBreakdown).
    """
    p = NormalizedParams.from_scenario(s)
    if p.a == 0:
        return _pointlike(2.0 * s.half_bandwidth_W * s.obs_time_T, s.obs_time_T)
    t_eff = effective_time(s)
    wt2 = 2.0 * s.half_bandwidth_W * t_eff
    return _breakdown(p.a, p.b, p.rho, t_eff, wt2)


def dof_normalized_breakdown(p: NormalizedParams) -> DofBreakdown:
    """Closed-form bound on dimensionless parameters, with breakdown.

    t_eff is reported in mid-band periods: d + 2a.  At a = 0 this is the
    pointlike case: d1 = 1, d2 = 2 b d, d3 = 0 and t_eff = d.
    """
    if p.a == 0:
        return _pointlike(2.0 * p.b * p.d, p.d)
    t_eff = p.d + 2.0 * p.a
    wt2 = 2.0 * p.b * (2.0 * p.a + p.d)
    return _breakdown(p.a, p.b, p.rho, t_eff, wt2)


def dof_asymptotic(s: Scenario) -> DofBreakdown:
    """High-SNR DoF bound: the threshold equals the peak SNR (rho = 1).

    Drops every noise-threshold term from the closed form.  Valid for all
    R >= 0: a = 0 returns exactly 2WT + 1, and T = 0 keeps the pure
    spatial-plus-transit content.
    """
    return dof_closed_form(replace(s, threshold_gamma=s.snr_alpha_max))
