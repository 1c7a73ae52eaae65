"""Correctness oracle for each workload's report.

Each check takes the generated config and the report bytes of one
invocation and returns a list of problems (empty when the report is right).
Expected values come from the public `dofcore` functions at the same point,
printed or rounded to the CLI's 12 significant digits.
"""
from __future__ import annotations

import json

from modecap.dofcore import (
    DofBreakdown,
    NormalizedParams,
    bandwidth_profile,
    dof_closed_form,
    dof_normalized_breakdown,
    truncation_indices,
)

CSV_HEADER = "a,b,d,rho,n_min,n_max,t_eff,d1,d2,d3,dof_total"

# Simulate properties that are deterministic for a fixed config and seed:
# each must pass on every workload.
DETERMINISTIC_PROPERTIES = (
    "jacobi_anger_consistency",
    "parseval",
    "detectability_one_sided",
    "reconstruction",
)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} in the report")


def strict_json(text: str) -> object:
    """Parse `text` as JSON that holds no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _load_report(data: bytes, problems: list[str]) -> dict | None:
    try:
        report = strict_json(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        problems.append(f"report is not strict JSON: {exc}")
        return None
    if not isinstance(report, dict):
        problems.append("report root is not a JSON object")
        return None
    return report


def _check_dof(report: dict, n_min: int, n_max: int, bd: DofBreakdown, problems: list[str]) -> None:
    if report.get("n_min") != n_min or report.get("n_max") != n_max:
        problems.append(
            f"indices (n_min, n_max) = ({report.get('n_min')}, {report.get('n_max')}), "
            f"dofcore gives ({n_min}, {n_max})"
        )
    expected = {k: _round12(getattr(bd, k)) for k in ("d1", "d2", "d3", "total", "t_eff")}
    if report.get("dof") != expected:
        problems.append(f"dof block {report.get('dof')} != dofcore {expected}")


def check_sweep(config: dict, data: bytes) -> list[str]:
    """Header exact; one row per grid point, in nested a, b, d, rho order,
    each equal to the point recomputed through dofcore."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        return [f"report is not UTF-8: {exc}"]
    if lines[-1] != "":
        return ["report does not end with a newline"]
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return [f"header is {lines[0] if lines else ''!r}, expected {CSV_HEADER!r}"]
    grid = config["sweep"]
    points = [(a, b, d, rho) for a in grid["a"] for b in grid["b"] for d in grid["d"] for rho in grid["rho"]]
    rows = lines[1:]
    if len(rows) != len(points):
        return [f"{len(rows)} rows, expected {len(points)}"]
    problems = []
    for i, ((a, b, d, rho), row) in enumerate(zip(points, rows)):
        p = NormalizedParams(a=a, b=b, d=d, rho=rho)
        bd = dof_normalized_breakdown(p)
        n_min, n_max = truncation_indices(p.to_scenario())
        expected = ",".join(
            [_fmt(a), _fmt(b), _fmt(d), _fmt(rho), str(n_min), str(n_max)]
            + [_fmt(v) for v in (bd.t_eff, bd.d1, bd.d2, bd.d3, bd.total)]
        )
        if row != expected:
            problems.append(f"row {i + 1} is {row!r}, dofcore gives {expected!r}")
            if len(problems) >= 5:
                break
    return problems


def check_compute(config: dict, data: bytes) -> list[str]:
    """Strict JSON; n_min, n_max, the dof block and every mode-table row
    (n_max + 1 of them) agree with dofcore."""
    problems: list[str] = []
    report = _load_report(data, problems)
    if report is None:
        return problems
    p = NormalizedParams(**config["normalized"])
    s = p.to_scenario()
    n_min, n_max = truncation_indices(s)
    _check_dof(report, n_min, n_max, dof_normalized_breakdown(p), problems)
    table = report.get("mode_table")
    if not isinstance(table, list) or len(table) != n_max + 1:
        size = len(table) if isinstance(table, list) else None
        problems.append(f"mode_table has {size} rows, expected n_max + 1 = {n_max + 1}")
        return problems
    for entry, row in zip(bandwidth_profile(s).per_mode, table):
        expected = {
            "n": entry.n,
            "critical_freq_Fn": _round12(entry.critical_freq_Fn),
            "eff_bandwidth_Wn": _round12(entry.eff_bandwidth_Wn),
        }
        if row != expected:
            problems.append(f"mode_table row {row} != dofcore {expected}")
            break
    return problems


def _within(value: object, tolerance: object) -> bool:
    """A property's value agrees with a pass: true, or a number <= tolerance."""
    if isinstance(value, bool):
        return value
    numbers = (int, float)
    return isinstance(value, numbers) and isinstance(tolerance, numbers) and value <= tolerance


def check_simulate(config: dict, data: bytes, count_noise_variance: bool) -> tuple[list[str], dict]:
    """Strict JSON; n_min, n_max and dof agree with dofcore; the
    deterministic properties pass and hold against their tolerance.

    Returns (problems, notes).  `mode_noise_variance` is a Monte Carlo test:
    each mode's variance estimate is chi^2(2 trials) / (2 trials), so at a
    fixed tolerance it fails by chance on some seeds (about 0.08% of seeds at
    64 trials over 81 modes, about 5% at 8 trials over 289 modes).  It counts
    as a failure only when `count_noise_variance` is set; otherwise its value
    and verdict are returned in `notes`.
    """
    problems: list[str] = []
    notes: dict = {}
    report = _load_report(data, problems)
    if report is None:
        return problems, notes
    s = NormalizedParams(**config["normalized"]).to_scenario()
    n_min, n_max = truncation_indices(s)
    _check_dof(report, n_min, n_max, dof_closed_form(s), problems)
    sim = report.get("simulation")
    if not isinstance(sim, dict):
        problems.append("report has no simulation block")
        return problems, notes
    props = {p.get("name"): p for p in sim.get("properties", []) if isinstance(p, dict)}
    required = DETERMINISTIC_PROPERTIES + (("mode_noise_variance",) if count_noise_variance else ())
    for name in required:
        prop = props.get(name)
        if prop is None:
            problems.append(f"property {name} is missing")
        elif prop.get("passed") is not True or not _within(prop.get("value"), prop.get("tolerance")):
            problems.append(
                f"property {name}: passed {prop.get('passed')}, value {prop.get('value')}, "
                f"tolerance {prop.get('tolerance')}"
            )
    if not count_noise_variance and "mode_noise_variance" in props:
        prop = props["mode_noise_variance"]
        notes["mode_noise_variance"] = {k: prop.get(k) for k in ("value", "tolerance", "passed")}
    return problems, notes


def check(workload: str, config: dict, data: bytes) -> tuple[list[str], dict]:
    """(problems, notes) for one report of `workload`."""
    if workload == "sweep-grid":
        return check_sweep(config, data), {}
    if workload == "compute-table":
        return check_compute(config, data), {}
    if workload == "simulate-trials":
        return check_simulate(config, data, count_noise_variance=True)
    if workload == "simulate-wide":
        # Not counted here: at 8 trials the Monte Carlo check fails by chance
        # on about 5% of seeds (see check_simulate).
        return check_simulate(config, data, count_noise_variance=False)
    raise ValueError(f"unknown workload {workload!r}")
