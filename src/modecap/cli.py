"""Command-line front end.

Subcommands:
  compute   evaluate one scenario (SI or dimensionless) and report the DoF
            bound with its breakdown and per-mode bandwidth table;
  sweep     evaluate a grid of dimensionless parameters to CSV (or JSON);
  simulate  report compute's fields for the point plus the result of
            wavefield.simulate, the brute-force pipeline (synthesize ->
            noise -> analyze -> SNR -> empirical cutoffs, with Parseval and
            reconstruction checks), with pass/fail per property;
  verify    print the records of wavefield.verify_invariants, the
            cross-module invariant suite, and exit 1 on any failing property.

Configs are JSON files holding exactly one of a "scenario" block (SI units)
or a "normalized" block (a, b, d, rho), plus optional "sweep" grids and a
"simulation" block.  Exit codes: 0 success, 2 config/parse, 3 domain,
4 input/output, 5 resolution.  Every computed number in a report is printed
with 12 significant digits; the "inputs" block repeats the config's point
block as parsed, unrounded, because those are the numbers computed on.
Outputs are byte-stable for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .dofcore import (
    DofBreakdown,
    NormalizedParams,
    Scenario,
    bandwidth_arrays,
    dof_closed_form,
    dof_normalized_breakdown,
    truncation_indices,
)
from .errors import ConfigError, DomainError, ModecapError, ResolutionError

# NumPy and the numeric layers (sampling, specfun, wavefield) are
# imported by the code that uses them: NumPy by the JSON row writer and the
# mode table, wavefield, which loads the other layers, by simulate and
# verify.  So compute --format csv and sweep --format csv run on the
# standard library, errors and dofcore alone.

__all__ = ["main", "cmd_compute", "cmd_sweep", "cmd_simulate", "cmd_verify"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_RESOLUTION = 5

_CSV_HEADER = "a,b,d,rho,n_min,n_max,t_eff,d1,d2,d3,dof_total"

_SCENARIO_REQUIRED = {"radius_R", "mid_freq_F0", "half_bandwidth_W", "obs_time_T"}
_SCENARIO_OPTIONAL = {"wave_speed_c", "threshold_gamma", "snr_alpha_max"}
# The keys of a normalized point and of a sweep grid, whose rows run through
# a slowest and rho fastest.
_POINT_KEYS = ("a", "b", "d", "rho")
_SIMULATION_KEYS = {"sources", "freq_points", "quad_degree", "seed", "trials"}
_TOP_KEYS = {"scenario", "normalized", "sweep", "simulation"}

# Most points a sweep grid may hold.  A CSV sweep holds each point's report
# line, about 65 bytes, and nothing else of it, and spends about 9 us a
# point: a fresh 1,000,000-point sweep takes 8.8 s at 86 MiB peak RSS on a
# 2-core host.  A JSON sweep writes about 240 bytes a point and holds the
# whole text until every point is done: 1,000,000 points take 16.5 s at
# 267 MiB.
SWEEP_POINT_LIMIT = 1_000_000

# Rows a report formats into one text piece, in a JSON row list or a sweep.
# Each block of a sweep's grid is one pool task, so a pool thread holds the
# results of one block at a time, and the blocks do not depend on the thread
# count.
_BLOCK_ROWS = 256

# Most plane-wave sources and noise trials simulate runs; each source is one
# synthesis pass over the whole field and each trial one noisy analysis.
MAX_SOURCES = 256
MAX_TRIALS = 4096


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


def _require_point(cfg: dict) -> Scenario:
    """The config's point as a Scenario; a normalized block is realized with
    F0 = c = 1, where from_scenario gives its a, b, d and rho back exactly."""
    block = _block(cfg, "normalized", _POINT_KEYS)
    if block is not None:
        return NormalizedParams(
            **{k: _number("normalized", k, v) for k, v in block.items()}
        ).to_scenario()
    block = _block(cfg, "scenario", _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL)
    if block is None:
        raise ConfigError(
            "config must contain exactly one of 'scenario' or 'normalized'"
        )
    return Scenario(**{k: _number("scenario", k, v) for k, v in block.items()})


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
    # The config's own seed is checked even when --seed replaces it.
    for source, seed in (("simulation.seed", out["seed"]), ("--seed", seed_override)):
        if seed is not None and not 0 <= seed < 2**63:
            raise ConfigError(f"{source} must be a nonnegative 63-bit integer")
    if seed_override is not None:
        out["seed"] = seed_override
    return out


def _write_output(pieces: Iterable[str], out_path: str) -> None:
    """Write the report's text pieces, in order, to out_path ("-" is stdout).

    The report is never joined into one string: each piece is encoded and
    written on its own, and may be formatted only as it is taken.  Callers
    finish every evaluation and check first, so a failing point or report
    leaves no output file.
    """
    if out_path == "-":
        sys.stdout.writelines(pieces)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


# ---------------------------------------------------------------------------
# Report writing


# What json.dumps writes for a row table; _serialize_report replaces it.
_ROWS_MARK = "\0rows"
_ROWS_TOKEN = json.dumps(_ROWS_MARK)

# The kinds of float _row_blocks tells apart, and the format of each.
_EXACT, _PLAIN, _OTHER = 0, 1, 2
_KIND_FORMATS = ("%.1f", "%.12g", "%s")


def _float_kinds(values: Any) -> Any:
    """_EXACT, _PLAIN or _OTHER for each float of the array `values`."""
    import numpy as np

    magnitude = np.abs(values)
    gap = np.abs(values - np.rint(values))
    below = magnitude < 1e11
    kinds = np.full(values.shape, _OTHER, dtype=np.int8)
    kinds[below & (gap == 0)] = _EXACT
    kinds[below & (magnitude >= 1e-300) & (gap > 1e-10 * magnitude)] = _PLAIN
    return kinds


@functools.lru_cache(maxsize=64)
def _block_template(fields: tuple[tuple[str, str], ...], rows: int) -> str:
    """The text of `rows` row objects, as json.dumps(indent=2) writes them in
    the list of a top-level key, with each row holding the (key, format)
    `fields` in order: one format directive per value."""
    row = (
        "    {\n"
        + ",\n".join(f"      {json.dumps(key).replace('%', '%%')}: {fmt}"
                     for key, fmt in fields)
        + "\n    }"
    )
    return ",\n".join([row] * rows)


def _row_blocks(
    floats: Mapping[str, Sequence[float]], ints: Mapping[str, Sequence[int]]
) -> Iterator[str]:
    """The list of row objects that the equal-length columns `floats` and
    `ints` stand for, as json.dumps(indent=2, sort_keys=True) writes its items
    under a top-level key, with each float rounded by _round12: an iterator
    over the text of blocks of _BLOCK_ROWS rows.

    The columns are checked here, when the call is made: a non-finite float
    raises DomainError before any block exists.  The blocks are formatted as
    they are taken, each by one % over a row template repeated once per row,
    so the whole text is never held at once.

    Each float x prints as repr(_round12(x)).  Most floats are one of two
    kinds whose text one format directive gives:
    - exact: x == rint(x) and |x| < 1e11.  An integer-valued float below
      1e11 has at most 11 digits, so _round12 leaves it unchanged and repr
      prints its digits and ".0", as "%.1f" does (-0.0 prints "-0.0");
    - plain: 1e-300 <= |x| < 1e11 and |x - rint(x)| > 1e-10·|x|.  For a
      normal double, a decimal of at most 12 significant digits is the only
      decimal that short within half an ulp of its nearest double, so repr,
      the shortest round trip, prints the digits "%.12g" prints, and below
      1e11 both write exponent form exactly below 1e-4.  (Subnormals are
      why the floor is there: repr prints 5e-324 for "4.94065645841e-324".)
      "%.12g" drops the "." only when its 12-digit rounding R is an
      integer.  That rounding moves x by at most half a unit of its 12th
      digit, at most 5e-12·|x|, so then |x - rint(x)| <= |x - R| <=
      5e-12·|x|, which the mask excludes.  So "%.12g" % x is
      repr(_round12(x));
    - every other float (|x| >= 1e11, 0 < |x| < 1e-300, or a non-integer
      within 1e-10·|x| of an integer) goes in as its repr(_round12(x))
      text by "%s".
    In a block where every value of a column has the same kind, the
    template holds that kind's format for the column and the values go in
    as floats.  A column whose kind changes within the block goes in as
    repr(_round12(x)) texts, which are right for every kind.
    """
    import numpy as np

    size = _BLOCK_ROWS
    arrays = {}
    for key, column in floats.items():
        values = np.asarray(column, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise DomainError(f"report holds a non-finite number: {key} is {bad!r}")
        arrays[key] = values
    lengths = {len(column) for column in (*arrays.values(), *ints.values())}
    if len(lengths) > 1:
        raise ValueError(f"row table columns differ in length: {sorted(lengths)}")
    length = max(lengths, default=0)
    keys = sorted([*arrays, *ints])
    # Each float column's kind in each block, _OTHER where the kind changes.
    kinds = {}
    if length:
        starts = np.arange(0, length, size)
        for key, values in arrays.items():
            kind = _float_kinds(values)
            first = np.minimum.reduceat(kind, starts)
            kinds[key] = np.where(
                first == np.maximum.reduceat(kind, starts), first, _OTHER).tolist()

    def block(index: int) -> str:
        start = index * size
        stop = min(start + size, length)
        fields, columns = [], []
        for key in keys:
            if key in arrays:
                kind = kinds[key][index]
                values = arrays[key][start:stop].tolist()
                columns.append([repr(_round12(x)) for x in values]
                               if kind == _OTHER else values)
                fields.append((key, _KIND_FORMATS[kind]))
            else:
                column = ints[key][start:stop]
                columns.append(column.tolist() if hasattr(column, "tolist") else column)
                fields.append((key, "%d"))
        # Row by row, the values in key order.
        flat: list[Any] = [None] * (len(keys) * (stop - start))
        for j, column in enumerate(columns):
            flat[j::len(keys)] = column
        return _block_template(tuple(fields), stop - start) % tuple(flat)

    return map(block, range(math.ceil(length / size)))


def _list_pieces(blocks: Iterable[str]) -> Iterator[str]:
    """A JSON list, as json.dumps(indent=2) writes it under a top-level key,
    from the text of its items in blocks."""
    separator = "[\n"
    for block in blocks:
        yield separator
        yield block
        separator = ",\n"
    yield "[]" if separator == "[\n" else "\n  ]"


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


def _serialize_report(report: dict) -> Iterator[str]:
    """Strict JSON text of `report`, as json.dumps(indent=2, sort_keys=True)
    writes it, in pieces.  A top-level Iterator value is a row table: the
    text of its list items in blocks, as _row_blocks gives them, written in
    the list's framing as they are taken.

    _row_blocks checks a row table's columns when it is called, and every
    other value is checked in this call, before the first piece is taken: a
    report that holds a non-finite number raises DomainError before
    _write_output opens its file.
    """
    tables = sorted(key for key, value in report.items() if isinstance(value, Iterator))
    plain = {**report, **dict.fromkeys(tables, _ROWS_MARK)}
    try:
        text = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        found = next(((path, x) for path, x in _floats_in(plain)
                      if not math.isfinite(x)), None)
        if found is None:
            raise
        raise DomainError("report holds a non-finite number: %s is %r" % found) from exc
    parts = text.split(_ROWS_TOKEN)
    pieces: list[Iterable[str]] = []
    for before, key in zip(parts, tables):
        pieces += [before], _list_pieces(report[key])
    pieces.append([parts[-1] + "\n"])
    return itertools.chain.from_iterable(pieces)


# ---------------------------------------------------------------------------
# Point evaluation shared by compute, sweep and simulate


def _mode_table(s: Scenario) -> Iterator[str]:
    """Per-mode rows (n, F_n, W_n), one per mode up to n_max, as _row_blocks
    gives them.

    Raises ResolutionError above dofcore.MODE_TABLE_LIMIT rows, before
    building any.
    """
    bands = bandwidth_arrays(s)
    return _row_blocks(
        floats={
            "critical_freq_Fn": bands.critical_freq_Fn,
            "eff_bandwidth_Wn": bands.eff_bandwidth_Wn,
        },
        ints={"n": bands.n},
    )


def _evaluate_point(s: Scenario) -> tuple[NormalizedParams, int, int, DofBreakdown]:
    """A _require_point result in dimensionless form, with its n_min, n_max
    and breakdown in the scenario's units: for a normalized block, realized
    at F0 = c = 1, those of dof_normalized_breakdown, bit for bit."""
    return (NormalizedParams.from_scenario(s), *truncation_indices(s),
            dof_closed_form(s))


def _point_report(cfg: dict, s: Scenario) -> dict[str, Any]:
    """The report fields compute and simulate share: the echoed point block,
    the truncation indices, t_eff, the DoF breakdown and the mode table.

    The echo repeats the config's block as parsed, unrounded: those are the
    numbers the point was computed from."""
    _, n_min, n_max, bd = _evaluate_point(s)
    block = "normalized" if "normalized" in cfg else "scenario"
    return {
        "inputs": {block: dict(cfg[block])},
        "n_min": n_min,
        "n_max": n_max,
        "t_eff": _round12(bd.t_eff),
        "dof": _rounded(asdict(bd)),
        "mode_table": _mode_table(s),
    }


# One sweep or compute CSV line, each float printed to 12 significant digits:
# the point's a, b, d and rho, then _CSV_TAIL.
_CSV_TAIL = "%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g\n"
_CSV_ROW = "%.12g," * 4 + _CSV_TAIL


def _csv_row(
    p: NormalizedParams, n_min: int, n_max: int, bd: DofBreakdown
) -> str:
    return _CSV_ROW % (p.a, p.b, p.d, p.rho, n_min, n_max,
                       bd.t_eff, bd.d1, bd.d2, bd.d3, bd.total)


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    s = _require_point(cfg)
    if args.format == "csv":
        pieces = [_CSV_HEADER + "\n", _csv_row(*_evaluate_point(s))]
    else:
        pieces = _serialize_report(_point_report(cfg, s))
    _write_output(pieces, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _check_grid(axes: Sequence[Sequence[float]]) -> None:
    """Raise the error of the first invalid point of the (a, b, d, rho) grid
    `axes`, in grid order, if it has one, by building 1 + sum(len - 1)
    points: point 0, then each other value of rho, of d, of b and of a in
    turn, with the other axes at index 0.

    NormalizedParams checks each field on its own, so a grid point is valid
    exactly when each of its values is.  The first invalid point in grid
    order lies on the earliest axis line through point 0 (rho, then d, b, a)
    that holds an invalid value, unless point 0 itself is invalid; its other
    values are those of point 0, so it raises the message it raises here.
    """
    origin = [axis[0] for axis in axes]
    NormalizedParams(*origin)
    for i in reversed(range(len(axes))):
        for value in axes[i][1:]:
            NormalizedParams(*origin[:i], value, *origin[i + 1:])


def _block_rows(
    axes: Sequence[Sequence[float]], labels: Sequence[Sequence[Any]],
    start: int, stop: int,
) -> list[tuple[Any, ...]]:
    """The grid points start..stop-1 of the (a, b, d, rho) grid `axes`, in
    grid order, evaluated: one row per point in _CSV_HEADER's order, whose
    a, b, d and rho are the point's entries in `labels`, laid out as `axes`.

    n_min and n_max depend on a, b and rho alone, so truncation_indices runs
    once per distinct (a, b, rho) of the block, at its first point: any
    error still comes from the first failing point.  Each point's
    NormalizedParams is built here, on the caller's thread.
    """
    a, b, d, rho = axes
    a_labels, b_labels, d_labels, rho_labels = labels
    rows = []
    k = start
    pair = None
    while k < stop:
        row, first = divmod(k, len(rho))
        end = min(stop, k + len(rho) - first)
        i_ab, i_d = divmod(row, len(d))
        i_a, i_b = divmod(i_ab, len(b))
        if (i_a, i_b) != pair:
            pair = (i_a, i_b)
            indices: list[tuple[int, int] | None] = [None] * len(rho)
        a_i, b_i, d_i = a[i_a], b[i_b], d[i_d]
        head = a_labels[i_a], b_labels[i_b], d_labels[i_d]
        for i_r in range(first, first + end - k):
            p = NormalizedParams(a_i, b_i, d_i, rho[i_r])
            n = indices[i_r]
            if n is None:
                n = indices[i_r] = truncation_indices(p)
            bd = dof_normalized_breakdown(p)
            rows.append((*head, rho_labels[i_r], *n,
                         bd.t_eff, bd.d1, bd.d2, bd.d3, bd.total))
        k = end
    return rows


def _sweep_csv(
    axes: Sequence[Sequence[float]], axis_texts: Sequence[Sequence[str]],
    start: int, stop: int,
) -> str:
    """The CSV lines of the grid points start..stop-1, with each axis value's
    text "%.12g," from `axis_texts`."""
    line = "%s%s%s%s" + _CSV_TAIL
    return "".join([line % row for row in _block_rows(axes, axis_texts, start, stop)])


def _sweep_json(axes: Sequence[Sequence[float]], start: int, stop: int) -> str:
    """The JSON row objects of the grid points start..stop-1, at most
    _BLOCK_ROWS of them, as one block of the report's "rows" list."""
    rows = _block_rows(axes, axes, start, stop)
    columns = dict(zip(_CSV_HEADER.split(","), zip(*rows)))
    ints = {key: columns.pop(key) for key in ("n_min", "n_max")}
    (text,) = _row_blocks(floats=columns, ints=ints)
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    grids = _build_sweep(cfg)
    axes = [grids[key] for key in _POINT_KEYS]
    count = math.prod(map(len, axes))
    if count > SWEEP_POINT_LIMIT:
        raise ResolutionError(
            f"sweep grid of {count} points exceeds the limit of "
            f"{SWEEP_POINT_LIMIT} points"
        )
    _check_grid(axes)
    # One pool task per block: a future per point costs more in the pool's
    # locks than the closed form itself.  Each task builds and evaluates its
    # own points.  pool.map yields the blocks' text in grid order and raises
    # the first failing block's error, so every block is done, or the first
    # error in grid order raised, before anything is written.
    if args.format == "json":
        text = functools.partial(_sweep_json, axes)
    else:
        axis_texts = [["%.12g," % x for x in axis] for axis in axes]
        text = functools.partial(_sweep_csv, axes, axis_texts)
    starts = range(0, count, _BLOCK_ROWS)
    stops = [min(start + _BLOCK_ROWS, count) for start in starts]
    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        texts = list(pool.map(text, starts, stops))
    if args.format == "json":
        pieces = _serialize_report({"rows": iter(texts)})
    else:
        pieces = [_CSV_HEADER + "\n", *texts]
    _write_output(pieces, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import wavefield

    cfg = _load_config(args.config)
    s = _require_point(cfg)
    sim = _build_simulation(cfg, args.seed)
    result = wavefield.simulate(s, **sim)
    report = _point_report(cfg, s)
    report["simulation"] = _rounded({**sim, **asdict(result)})
    _write_output(_serialize_report(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import wavefield

    properties = wavefield.verify_invariants()
    lines = [
        f"{'PASS' if p.passed else 'FAIL'} {p.name}: value "
        f"{json.dumps(_rounded(p.value))}, tolerance {float(p.tolerance)!r}"
        for p in properties
    ]
    all_ok = all(p.passed for p in properties)
    lines.append("verify: " + ("all properties hold" if all_ok else "FAILURES present"))
    _write_output(["\n".join(lines) + "\n"], args.out)
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
