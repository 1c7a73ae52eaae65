"""Command-line front end.

Subcommands:
  compute   evaluate one scenario (SI or dimensionless) and report the DoF
            bound with its breakdown and per-mode bandwidth table;
  sweep     evaluate a grid of dimensionless parameters to CSV (or JSON);
  simulate  report compute's fields for the point plus the result of
            wavefield.simulate, the brute-force pipeline (synthesize ->
            noise -> analyze -> SNR -> empirical cutoffs, with Parseval and
            reconstruction checks), with pass/fail per property;
  verify    run the cross-module invariant suite and exit nonzero on any
            failing property.

Configs are JSON files holding exactly one of a "scenario" block (SI units)
or a "normalized" block (a, b, d, rho), plus optional "sweep" grids and a
"simulation" block.  Exit codes: 0 success, 2 config/parse, 3 domain,
4 input/output, 5 resolution.  All numeric report fields are printed with 12
significant digits, and outputs are byte-stable for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .dofcore import (
    DofBreakdown,
    NormalizedParams,
    Scenario,
    bandwidth_arrays,
    dof_asymptotic,
    dof_closed_form,
    dof_mode_sum,
    dof_normalized_breakdown,
    dof_special_cases,
    truncation_indices,
)
from .errors import ConfigError, DomainError, ModecapError, ResolutionError

# sampling, specfun and wavefield import SciPy; simulate and verify, the only
# commands that use them, import them when they run, so compute and sweep
# start at NumPy's import cost.

__all__ = ["main", "cmd_compute", "cmd_sweep", "cmd_simulate", "cmd_verify"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_RESOLUTION = 5

_CSV_HEADER = "a,b,d,rho,n_min,n_max,t_eff,d1,d2,d3,dof_total"

_SCENARIO_REQUIRED = {"radius_R", "mid_freq_F0", "half_bandwidth_W", "obs_time_T"}
_SCENARIO_OPTIONAL = {"wave_speed_c", "threshold_gamma", "snr_alpha_max"}
# The keys of a normalized point and of a sweep grid.
_POINT_KEYS = {"a", "b", "d", "rho"}
_SIMULATION_KEYS = {"sources", "freq_points", "quad_degree", "seed", "trials"}
_TOP_KEYS = {"scenario", "normalized", "sweep", "simulation"}

# Most rows a JSON mode table may hold (n_max + 1); about 110 bytes each.
MODE_TABLE_LIMIT = 1_000_000

# Most points a sweep grid may hold; each is a NormalizedParams and a report
# row, about 0.9 KB and 10 us apiece.
SWEEP_POINT_LIMIT = 1_000_000

# Most plane-wave sources and noise trials simulate runs; each source is one
# synthesis pass over the whole field and each trial one noisy analysis.
MAX_SOURCES = 256
MAX_TRIALS = 4096

# Most sweep threads MODECAP_THREADS may ask for.  The sweep starts one OS
# thread per chunk, so an unbounded value could start one per grid point.
MAX_THREADS = 64


def _round12(x: float) -> float:
    """Round to the 12 significant digits that get printed."""
    return float(f"{float(x):.12g}")


def _rounded(value: Any) -> Any:
    """value with every float in it, at any depth, rounded by _round12."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return _round12(value) if isinstance(value, float) else value


# ---------------------------------------------------------------------------
# Config handling


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """json object hook: a repeated key is an error, not last-wins."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate config key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    # Besides JSONDecodeError, json.loads raises ValueError for an integer
    # literal above 4300 digits and RecursionError for very deep nesting.
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "scenario" in cfg and "normalized" in cfg:
        raise ConfigError(
            "config must contain exactly one of 'scenario' or 'normalized', not both"
        )
    return cfg


def _block(
    cfg: dict, name: str, required: Iterable[str], optional: Iterable[str] = ()
) -> dict | None:
    """cfg[name], or None when the config has no such block.

    Raises ConfigError when the block is not an object, holds a key outside
    required | optional, or lacks a required key.
    """
    block = cfg.get(name)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{name} is missing required keys: {sorted(missing)}")
    return block


def _number(block: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{block}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # An integer literal beyond the float range; 1e400 reads as inf and
        # fails the same finiteness check downstream.
        raise DomainError(f"{block}.{key} must be finite, got an integer "
                          "literal beyond the float range") from None


def _require_point(cfg: dict) -> tuple[Scenario, NormalizedParams | None]:
    """The config's point as a Scenario, plus its NormalizedParams when it
    came as a normalized block (then realized with F0 = c = 1)."""
    block = _block(cfg, "normalized", _POINT_KEYS)
    if block is not None:
        params = NormalizedParams(
            **{k: _number("normalized", k, v) for k, v in block.items()}
        )
        return params.to_scenario(), params
    block = _block(cfg, "scenario", _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL)
    if block is None:
        raise ConfigError(
            "config must contain exactly one of 'scenario' or 'normalized'"
        )
    return Scenario(**{k: _number("scenario", k, v) for k, v in block.items()}), None


def _build_sweep(cfg: dict) -> dict[str, list[float]]:
    block = _block(cfg, "sweep", _POINT_KEYS)
    if block is None:
        raise ConfigError("sweep command requires a 'sweep' block with grids")
    grids: dict[str, list[float]] = {}
    for key, values in block.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key} must be a nonempty list")
        grids[key] = [_number("sweep", key, v) for v in values]
    return grids


def _build_simulation(cfg: dict, seed_override: int | None) -> dict[str, int]:
    block = _block(cfg, "simulation", (), _SIMULATION_KEYS)
    if block is None:
        raise ConfigError("simulate command requires a 'simulation' block")
    out = {"sources": 3, "freq_points": 257, "quad_degree": 0, "seed": 1, "trials": 64}
    for key, value in block.items():
        if key == "quad_degree" and value == "auto":
            out[key] = 0
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"simulation.{key} must be an integer, got {value!r}")
        out[key] = value
    if seed_override is not None:
        out["seed"] = seed_override
    if out["quad_degree"] < 0:
        raise ConfigError(
            "simulation.quad_degree must be >= 0 (0 or \"auto\" picks the degree), "
            f"got {out['quad_degree']}"
        )
    if not 1 <= out["sources"] <= MAX_SOURCES:
        raise ConfigError(
            f"simulation.sources must be between 1 and {MAX_SOURCES}, "
            f"got {out['sources']}"
        )
    if out["freq_points"] < 2:
        raise ConfigError("simulation.freq_points must be >= 2")
    if not 2 <= out["trials"] <= MAX_TRIALS:
        raise ConfigError(
            f"simulation.trials must be between 2 and {MAX_TRIALS}, "
            f"got {out['trials']}"
        )
    if not 0 <= out["seed"] < 2**63:
        raise ConfigError("simulation.seed must be a nonnegative 63-bit integer")
    return out


def _thread_count() -> int:
    raw = os.environ.get("MODECAP_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MODECAP_THREADS must be an integer, got {raw!r}") from exc
    if not 1 <= value <= MAX_THREADS:
        raise ConfigError(
            f"MODECAP_THREADS must be between 1 and {MAX_THREADS}, got {value}"
        )
    return value


def _write_output(text: str, out_path: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Report writing


@dataclass(frozen=True)
class _Rows:
    """A report's list of fixed-schema rows, held as equal-length columns.

    _serialize_report writes it as the list of row objects it stands for,
    with each float column rounded by _round12.
    """

    floats: Mapping[str, Sequence[float]]
    ints: Mapping[str, Sequence[int]]


# What json.dumps writes for a _Rows value; _serialize_report replaces it.
_ROWS_MARK = "\0rows"
_ROWS_TOKEN = json.dumps(_ROWS_MARK)


def _json_floats(values: Sequence[float]) -> list[str]:
    """repr(_round12(x)) for each finite x in `values`, formatting each x
    once, with "%.12g" % x.

    For a normal double, a decimal of at most 12 significant digits is the
    only decimal that short within half an ulp of its nearest double, so
    repr, the shortest round trip, prints the digits "%.12g" prints.  The
    two texts differ only in layout:
    - "%.12g" drops a trailing ".0" (3.0 prints "3", -0.0 "-0"), so a text
      without "." or "e" gets ".0" appended;
    - "%.12g" writes exponents 12 to 15 in exponent form, which repr writes
      positionally, and rounds 999999999999.5 up to "1e+12": such texts,
      every |x| >= 1e11, take repr(float(text));
    - below about 1e-312, in the subnormal range, repr can print fewer
      digits (5e-324 for "4.94065645841e-324"): every |x| < 1e-300 takes
      repr(float(text)) too.
    """
    values = np.asarray(values, dtype=float)
    texts = ["%.12g" % x for x in values.tolist()]
    magnitude = np.abs(values)
    for i in np.flatnonzero((magnitude >= 1e11) | (magnitude < 1e-300)).tolist():
        texts[i] = repr(float(texts[i]))
    return [t if "." in t or "e" in t else t + ".0" for t in texts]


def _rows_json(rows: _Rows, indent: str) -> str:
    """`rows` as json.dumps(indent=2, sort_keys=True) writes the row list
    when its opening line is indented by `indent`."""
    texts = {}
    for key, column in rows.floats.items():
        values = np.asarray(column, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise DomainError(f"report holds a non-finite number: {key} is {bad!r}")
        texts[key] = _json_floats(values)
    for key, column in rows.ints.items():
        texts[key] = list(map(str, column))
    keys = sorted(texts)
    columns = [texts[k] for k in keys]
    if not columns[0]:
        return "[]"
    field = indent + "    %s: %%s"
    template = (
        indent + "  {\n"
        + ",\n".join(field % json.dumps(k) for k in keys)
        + "\n" + indent + "  }"
    )
    body = ",\n".join(template % row for row in zip(*columns, strict=True))
    return "[\n" + body + "\n" + indent + "]"


def _floats_in(value: Any, path: str = "") -> Iterator[tuple[str, float]]:
    """(key path, x) for each float x in `value`, in json.dumps's sort_keys
    order."""
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _floats_in(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _floats_in(item, f"{path}[{i}]")


def _serialize_report(report: dict) -> str:
    """Strict JSON text of `report`, as json.dumps(indent=2, sort_keys=True)
    writes it; each _Rows value is written by _rows_json."""
    tables: list[_Rows] = []

    def mark(value: Any) -> str:
        if not isinstance(value, _Rows):
            name = type(value).__name__
            raise TypeError(f"Object of type {name} is not JSON serializable")
        tables.append(value)
        return _ROWS_MARK

    try:
        text = json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False, default=mark
        )
    except ValueError as exc:
        found = next(((path, x) for path, x in _floats_in(report)
                      if not math.isfinite(x)), None)
        if found is None:
            raise
        raise DomainError("report holds a non-finite number: %s is %r" % found) from exc
    parts = text.split(_ROWS_TOKEN)
    for i, table in enumerate(tables):
        line = parts[i][parts[i].rfind("\n") + 1:]
        parts[i] += _rows_json(table, line[: len(line) - len(line.lstrip(" "))])
    return "".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Point evaluation shared by compute, sweep and simulate


def _check_finite(bd: DofBreakdown) -> DofBreakdown:
    # The components are nonnegative, so a finite total means finite parts.
    if not math.isfinite(bd.total):
        raise DomainError(f"degrees of freedom overflow: total is {bd.total!r}")
    return bd


def _normalized_point(p: NormalizedParams) -> tuple[int, int, DofBreakdown]:
    """(n_min, n_max, breakdown) in dimensionless units, a = 0 included."""
    bd = _check_finite(dof_normalized_breakdown(p))
    if p.a == 0:
        return 0, 0, bd
    n_min, n_max = truncation_indices(p.to_scenario())
    return n_min, n_max, bd


def _scenario_point(s: Scenario) -> tuple[int, int, DofBreakdown]:
    special = dof_special_cases(s)
    if special is not None:
        return 0, 0, _check_finite(special)
    n_min, n_max = truncation_indices(s)
    return n_min, n_max, _check_finite(dof_closed_form(s))


def _mode_table(s: Scenario, n_max: int) -> _Rows:
    """Per-mode rows (n, F_n, W_n), one per mode up to n_max.

    Raises ResolutionError above MODE_TABLE_LIMIT rows, before building any.
    """
    if n_max + 1 > MODE_TABLE_LIMIT:
        raise ResolutionError(
            f"mode table at n_max = {n_max} would have {n_max + 1} rows, above the "
            f"limit of {MODE_TABLE_LIMIT}; compute --format csv reports the bound "
            "without it"
        )
    if s.radius_R == 0:
        return _Rows(
            floats={
                "critical_freq_Fn": [0.0],
                "eff_bandwidth_Wn": [2.0 * s.half_bandwidth_W],
            },
            ints={"n": [0]},
        )
    bands = bandwidth_arrays(s)
    return _Rows(
        floats={
            "critical_freq_Fn": bands.critical_freq_Fn,
            "eff_bandwidth_Wn": bands.eff_bandwidth_Wn,
        },
        ints={"n": bands.n},
    )


def _evaluate_point(
    scenario: Scenario, params: NormalizedParams | None
) -> tuple[NormalizedParams, int, int, DofBreakdown]:
    """A _require_point result in dimensionless form, with its n_min, n_max
    and breakdown in the units the config gave it."""
    if params is not None:
        return (params, *_normalized_point(params))
    n_min, n_max, bd = _scenario_point(scenario)
    return NormalizedParams.from_scenario(scenario), n_min, n_max, bd


def _point_report(
    cfg: dict, scenario: Scenario, params: NormalizedParams | None
) -> dict[str, Any]:
    """The report fields compute and simulate share: the echoed point block,
    the truncation indices, t_eff, the DoF breakdown and the mode table."""
    _, n_min, n_max, bd = _evaluate_point(scenario, params)
    block = "scenario" if params is None else "normalized"
    return {
        "inputs": {block: dict(cfg[block])},
        "n_min": n_min,
        "n_max": n_max,
        "t_eff": _round12(bd.t_eff),
        "dof": _rounded(asdict(bd)),
        "mode_table": _mode_table(scenario, n_max),
    }


# One sweep or compute CSV row, each float printed to 12 significant digits.
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g"


def _csv_row(
    p: NormalizedParams, n_min: int, n_max: int, bd: DofBreakdown
) -> str:
    return _CSV_ROW % (p.a, p.b, p.d, p.rho, n_min, n_max,
                       bd.t_eff, bd.d1, bd.d2, bd.d3, bd.total)


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    scenario, params = _require_point(cfg)
    if args.format == "csv":
        text = _CSV_HEADER + "\n" + _csv_row(*_evaluate_point(scenario, params)) + "\n"
    else:
        text = _serialize_report(_point_report(cfg, scenario, params))
    _write_output(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    grids = _build_sweep(cfg)
    count = math.prod(len(axis) for axis in grids.values())
    if count > SWEEP_POINT_LIMIT:
        raise ResolutionError(
            f"sweep grid of {count} points exceeds the limit of "
            f"{SWEEP_POINT_LIMIT} points"
        )
    points = [
        NormalizedParams(a=a, b=b, d=d, rho=rho)
        for a in grids["a"]
        for b in grids["b"]
        for d in grids["d"]
        for rho in grids["rho"]
    ]

    def evaluate(
        chunk: list[NormalizedParams],
    ) -> list[tuple[NormalizedParams, int, int, DofBreakdown]]:
        return [(p, *_normalized_point(p)) for p in chunk]

    # One contiguous, in-order chunk per thread: a future per point costs
    # more in the pool's locks than the closed form itself.  The first
    # failing chunk holds the first failing point, so errors stay in grid order.
    threads = _thread_count()
    size = math.ceil(len(points) / threads)
    chunks = [points[i:i + size] for i in range(0, len(points), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = [row for rows in pool.map(evaluate, chunks) for row in rows]

    if args.format == "json":
        params, n_mins, n_maxs, bds = zip(*results)
        rows = _Rows(
            floats={
                "a": [p.a for p in params],
                "b": [p.b for p in params],
                "d": [p.d for p in params],
                "rho": [p.rho for p in params],
                "t_eff": [bd.t_eff for bd in bds],
                "d1": [bd.d1 for bd in bds],
                "d2": [bd.d2 for bd in bds],
                "d3": [bd.d3 for bd in bds],
                "dof_total": [bd.total for bd in bds],
            },
            ints={"n_min": n_mins, "n_max": n_maxs},
        )
        _write_output(_serialize_report({"rows": rows}), args.out)
        return EXIT_OK

    lines = [_CSV_HEADER]
    lines.extend(_csv_row(p, n_min, n_max, bd) for p, n_min, n_max, bd in results)
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import wavefield

    cfg = _load_config(args.config)
    scenario, params = _require_point(cfg)
    sim = _build_simulation(cfg, args.seed)
    result = wavefield.simulate(scenario, **sim)
    report = _point_report(cfg, scenario, params)
    report["simulation"] = _rounded({**sim, **asdict(result)})
    _write_output(_serialize_report(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_bessel_bound() -> tuple[bool, str]:
    from . import specfun

    z = np.linspace(0.0, 40.0, 321)
    worst = 0.0
    for n in list(range(9)) + [20, 50]:
        j = np.abs(specfun.sph_bessel_j(n, z))
        bound = specfun.sph_bessel_j_bound(n, z)
        if np.any(j > bound * (1 + 1e-12) + 1e-300):
            return False, f"envelope violated at n={n}"
        if n >= 1 and np.any(np.diff(bound) < 0):
            return False, f"envelope not increasing at n={n}"
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(bound > 0, j / bound, 0.0)
        worst = max(worst, float(np.max(ratio)))
    return True, f"max |j_n|/bound = {worst:.6f} over n<=50, z<=40"


def _verify_harmonic_gram() -> tuple[bool, str]:
    from . import specfun

    rule = specfun.make_quadrature(10)
    y = specfun.harmonic_matrix(10, rule.theta, rule.phi)
    gram = (y * rule.weights) @ y.conj().T
    err = float(np.max(np.abs(gram - np.eye(y.shape[0]))))
    return err <= 1e-12, f"max |Gram - I| = {err:.3e}"


def _verify_phi_orthogonality() -> tuple[bool, str]:
    from . import sampling

    band = sampling.ModeBand.from_edges(10.0, 13.0)
    w = band.w_n
    worst = 0.0
    for ell, ellp in [(0, 0), (0, 1), (0, 3), (5, 5), (2, 7)]:
        value = sampling.phi_inner(ell, ellp, band, 50.0 / w)
        target = 1.0 / w if ell == ellp else 0.0
        worst = max(worst, abs(value - target) * w)
    return worst <= 1e-6, f"max scaled deviation = {worst:.3e}"


def _verify_legendre_support() -> tuple[bool, str]:
    from . import sampling

    obs_t, r, c = 1e-3, 0.3, 3e8
    dt = (r / c) / 256.0
    expected = obs_t + 2.0 * r / c
    worst = 0.0
    for n in (0, 1, 3):
        measured = sampling.legendre_support_check(
            lambda x: np.ones_like(x), obs_t, r, n, c
        )
        worst = max(worst, abs(measured - expected))
    return worst <= dt * (1 + 1e-6), f"max |support error| = {worst:.3e} s (step {dt:.3e})"


def _verify_dof_ordering() -> tuple[bool, str]:
    worst = 0.0
    for a in (0.25, 0.7, 1.0, 2.5):
        for b in (0.05, 0.3, 0.65, 1.0):
            for d in (0.0, 1.0, 10.0):
                for rho in (1.0, 10.0, 1e3):
                    s = NormalizedParams(a=a, b=b, d=d, rho=rho).to_scenario()
                    ratio = dof_mode_sum(s) / dof_closed_form(s).total
                    worst = max(worst, ratio)
    return worst <= 1.0 + 1e-12, f"max mode_sum/closed_form = {worst:.12f}"


def _verify_dof_consistency() -> tuple[bool, str]:
    worst = 0.0
    for a in (0.3, 1.0, 2.0):
        for b in (0.0, 0.4, 1.0):
            for d in (0.0, 2.0):
                for rho in (0.5, 1.0, 20.0):
                    p = NormalizedParams(a=a, b=b, d=d, rho=rho)
                    s = p.to_scenario(mid_freq_F0=3.7e8, wave_speed_c=2.2e8)
                    closed = dof_closed_form(s).total
                    normalized = dof_normalized_breakdown(p).total
                    worst = max(worst, abs(closed - normalized) / closed)
                    leveled = dof_closed_form(
                        replace(s, threshold_gamma=s.snr_alpha_max)
                    ).total
                    gap = abs(leveled - dof_asymptotic(s).total) / leveled
                    worst = max(worst, gap)
    return worst <= 1e-9, f"max relative inconsistency = {worst:.3e}"


def _verify_detectability() -> tuple[bool, str]:
    from . import wavefield

    scenario = Scenario(
        radius_R=0.5,
        mid_freq_F0=1.0,
        half_bandwidth_W=0.25,
        obs_time_T=2.0,
        wave_speed_c=1.0,
        threshold_gamma=1.0,
        snr_alpha_max=1e4,
    )
    _, n_max = truncation_indices(scenario)
    c = scenario.wave_speed_c
    freqs = np.linspace(scenario.band[0], scenario.band[1], 129)
    sources = [wavefield.PlaneWaveSource(theta=1.1, phi=0.4, amplitude=1.0)]
    theo = wavefield.theoretical_modes(
        sources, scenario.radius_R, freqs, n_max, wave_speed_c=c
    )
    noise = wavefield.NoiseModel.calibrated(theo, scenario.snr_alpha_max, seed=1)
    step = float(freqs[1] - freqs[0])
    for cut in wavefield.mode_cutoffs(scenario, wavefield.mode_snr(theo, noise), freqs):
        if not cut.one_sided(step):
            return False, (
                f"mode {cut.n} detected at {cut.empirical_Fn:.6g} < F_n - step = "
                f"{cut.analytic_Fn - step:.6g}"
            )
    return True, f"empirical cutoffs one-sided for n = 1..{n_max}"


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("bessel_envelope_bound", _verify_bessel_bound),
        ("harmonic_gram_identity", _verify_harmonic_gram),
        ("phi_orthogonality", _verify_phi_orthogonality),
        ("legendre_support_additivity", _verify_legendre_support),
        ("dof_ordering", _verify_dof_ordering),
        ("dof_consistency", _verify_dof_consistency),
        ("detectability_one_sided", _verify_detectability),
    ]
    lines = []
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append("verify: " + ("all properties hold" if all_ok else "FAILURES present"))
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so they exit 2
    with one stderr line instead of a usage block."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {' '.join(message.splitlines())}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modecap",
        allow_abbrev=False,
        description=(
            "Degrees-of-freedom bounds for band-limited wavefields observed "
            "over finite spherical and temporal windows"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags its handler reads; a config-driven
    # one also takes --config and --format, defaulting to the first format.
    def command(
        name: str, run: Callable[[argparse.Namespace], int], summary: str,
        formats: Sequence[str] = (),
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(run=run)
        if formats:
            p.add_argument("--config", required=True, help="path to JSON config")
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")
        p.add_argument("--out", default="-", help="output path (default -, stdout)")
        return p

    command("compute", cmd_compute, "evaluate one scenario", ("json", "csv"))
    command("sweep", cmd_sweep, "evaluate a dimensionless grid", ("csv", "json"))
    simulate = command("simulate", cmd_simulate,
                       "run the wavefield verification pipeline", ("json",))
    simulate.add_argument("--seed", type=int, help="override the simulation seed")
    command("verify", cmd_verify, "run the invariant suite")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help, the one flag that exits
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ModecapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
