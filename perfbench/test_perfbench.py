"""Tests of the benchmark itself: the oracle, the tracer's self-time
arithmetic and wrapper installation, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SWEEP_SHAPE, WORKLOADS  # noqa: E402

from modecap import cli, dofcore, specfun, wavefield  # noqa: E402


def _report(tmp_path: Path, config: dict, *args: str) -> bytes:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([args[0], "--config", str(cfg), "--out", str(out), *args[1:]]) == 0
    return out.read_bytes()


SMALL_SWEEP = {"sweep": {"a": [0.3, 2.5], "b": [0.25, 1.0], "d": [1.0, 40.0], "rho": [3.0]}}
SMALL_COMPUTE = {"normalized": {"a": 2.0, "b": 0.5, "d": 3.0, "rho": 10.0}}
SMALL_SIMULATE = {
    "normalized": {"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0},
    "simulation": {"sources": 2, "freq_points": 33, "trials": 64},
}


@pytest.fixture(scope="module")
def simulate_report(tmp_path_factory) -> bytes:
    return _report(tmp_path_factory.mktemp("sim"), SMALL_SIMULATE, "simulate", "--seed", "5")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_accepts_real_reports(tmp_path, simulate_report):
    assert oracle.check_sweep(SMALL_SWEEP, _report(tmp_path, SMALL_SWEEP, "sweep")) == []
    assert oracle.check_compute(SMALL_COMPUTE, _report(tmp_path, SMALL_COMPUTE, "compute")) == []
    assert oracle.check_simulate(SMALL_SIMULATE, simulate_report, True) == ([], {})


def test_oracle_rejects_sweep_row_with_one_digit_changed(tmp_path):
    text = _report(tmp_path, SMALL_SWEEP, "sweep").decode()
    lines = text.split("\n")
    row = lines[3]
    last = row[-1]
    lines[3] = row[:-1] + ("1" if last != "1" else "2")
    problems = oracle.check_sweep(SMALL_SWEEP, "\n".join(lines).encode())
    assert len(problems) == 1 and "row 3" in problems[0]


def test_oracle_rejects_sweep_with_missing_row_or_wrong_header(tmp_path):
    text = _report(tmp_path, SMALL_SWEEP, "sweep").decode()
    lines = text.split("\n")
    assert oracle.check_sweep(SMALL_SWEEP, "\n".join(lines[:-2] + [""]).encode())
    assert oracle.check_sweep(SMALL_SWEEP, text.replace("dof_total", "total", 1).encode())


@pytest.mark.parametrize("name", oracle.DETERMINISTIC_PROPERTIES)
def test_oracle_rejects_simulate_report_with_property_false(simulate_report, name):
    report = json.loads(simulate_report)
    for prop in report["simulation"]["properties"]:
        if prop["name"] == name:
            prop["passed"] = False
    problems, _ = oracle.check_simulate(SMALL_SIMULATE, json.dumps(report).encode(), True)
    assert len(problems) == 1 and name in problems[0]


def test_oracle_counts_noise_variance_only_when_asked(simulate_report):
    report = json.loads(simulate_report)
    for prop in report["simulation"]["properties"]:
        if prop["name"] == "mode_noise_variance":
            prop["passed"] = False
    data = json.dumps(report).encode()
    problems, _ = oracle.check_simulate(SMALL_SIMULATE, data, count_noise_variance=True)
    assert len(problems) == 1
    problems, notes = oracle.check_simulate(SMALL_SIMULATE, data, count_noise_variance=False)
    assert problems == [] and notes["mode_noise_variance"]["passed"] is False


def test_oracle_rejects_pass_flag_that_contradicts_value(simulate_report):
    report = json.loads(simulate_report)
    for prop in report["simulation"]["properties"]:
        if prop["name"] == "parseval":
            prop["value"] = 1.0
    problems, _ = oracle.check_simulate(SMALL_SIMULATE, json.dumps(report).encode(), True)
    assert len(problems) == 1 and "parseval" in problems[0]


def test_oracle_rejects_nan(tmp_path, simulate_report):
    text = _report(tmp_path, SMALL_COMPUTE, "compute").decode()
    report = json.loads(text)
    report["mode_table"][-1]["eff_bandwidth_Wn"] = float("nan")
    problems = oracle.check_compute(SMALL_COMPUTE, json.dumps(report).encode())
    assert len(problems) == 1 and "NaN" in problems[0]

    report = json.loads(simulate_report)
    report["simulation"]["sigma0_sq"] = float("nan")
    problems, _ = oracle.check_simulate(SMALL_SIMULATE, json.dumps(report).encode(), True)
    assert len(problems) == 1 and "NaN" in problems[0]


def test_oracle_rejects_dof_disagreement(tmp_path):
    report = json.loads(_report(tmp_path, SMALL_COMPUTE, "compute"))
    report["dof"]["total"] += 1.0
    assert oracle.check_compute(SMALL_COMPUTE, json.dumps(report).encode())
    report = json.loads(_report(tmp_path, SMALL_COMPUTE, "compute"))
    report["mode_table"].pop()
    assert oracle.check_compute(SMALL_COMPUTE, json.dumps(report).encode())


# ---------------------------------------------------------------------------
# tracer


def _span(sid, parent, start, end, name="x.f", thread=1):
    return tracing.Span(sid, parent, 0, name, thread, start, end, None)


def test_self_time_with_nested_and_overlapping_threaded_children():
    spans = [
        _span(1, None, 0.0, 10.0, "cli.main"),
        # Nested child on the same thread, with a grandchild of its own.
        _span(2, 1, 1.0, 3.0, "dofcore.a"),
        _span(3, 2, 1.5, 2.0, "dofcore.b"),
        # Two pool threads whose children overlap each other: union 4..7.
        _span(4, 1, 4.0, 6.0, "dofcore.c", thread=2),
        _span(5, 1, 5.0, 7.0, "dofcore.c", thread=3),
        # A child reaching past its parent's end is clipped to it.
        _span(6, 1, 9.5, 10.5, "dofcore.d", thread=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 3.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[6] == pytest.approx(1.0)


def test_union_length_merges_touching_and_contained_intervals():
    assert tracing.union_length([(0, 2), (2, 3), (0.5, 1), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.union_length([(-1, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert tracing.union_length([], 0, 10) == 0.0


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (
        cli.dof_normalized_breakdown,
        dofcore.dof_normalized_breakdown,
        wavefield.harmonic_matrix,
        specfun.harmonic_matrix,
        cli.main,
    )
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.dof_normalized_breakdown is not originals[0]
        assert dofcore.dof_normalized_breakdown is cli.dof_normalized_breakdown
        assert wavefield.harmonic_matrix is not originals[2]
        assert specfun.harmonic_matrix is wavefield.harmonic_matrix
        assert cli.main is not originals[4]
    finally:
        t.uninstall()
    assert (
        cli.dof_normalized_breakdown,
        dofcore.dof_normalized_breakdown,
        wavefield.harmonic_matrix,
        specfun.harmonic_matrix,
        cli.main,
    ) == originals


def test_traced_sweep_attributes_pool_thread_spans_to_the_command(tmp_path, monkeypatch):
    monkeypatch.setenv("MODECAP_THREADS", "4")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    t = tracing.Tracer()
    t.install()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    finally:
        sys.setswitchinterval(old)
        t.uninstall()
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["cli.main"]
    (cmd,) = by_name["cli.cmd_sweep"]
    assert root.parent is None and cmd.parent == root.id
    points = len(SMALL_SWEEP["sweep"]["a"]) * 4
    assert len(by_name["dofcore.dof_normalized_breakdown"]) == points
    assert all(s.parent == cmd.id for s in by_name["dofcore.dof_normalized_breakdown"])
    assert any(s.thread != root.thread for s in by_name["dofcore.truncation_indices"])
    assert len({s.id for s in t.spans}) == len(t.spans)
    metrics = tracing.layer_metrics(t.spans, [0])
    assert metrics["dofcore.dof_normalized_breakdown.calls"] == points
    assert metrics["cli.self_s"] > 0


def test_traced_simulate_counts_basis_builds(tmp_path):
    config = dict(SMALL_SIMULATE, simulation={"sources": 2, "freq_points": 9, "trials": 3})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    finally:
        t.uninstall()
    m = tracing.layer_metrics(t.spans, [0])
    # analyze_modes: noiseless at n_max and n_field, then one per trial; each
    # builds its basis, as does theoretical_modes once per source.
    assert m["wavefield.analyze_modes.calls"] == 2 + 3
    assert m["specfun.harmonic_matrix.calls"] == 5 + 2
    # Distinct builds: two degrees on the grid plus one per source direction.
    assert m["specfun.harmonic_matrix.distinct_frac"] == pytest.approx(4 / 7)
    assert m["specfun.make_quadrature.nodes"] == (32 + 1) * (2 * 32 + 2)
    assert m["specfun.harmonic_matrix.self_s"] > 0


# ---------------------------------------------------------------------------
# workloads and BENCHMARK.json


def test_workload_configs_follow_the_seed():
    for w in WORKLOADS.values():
        assert w.make_config(7) == w.make_config(7)
    sweep = WORKLOADS["sweep-grid"].make_config(7)["sweep"]
    assert tuple(len(sweep[k]) for k in ("a", "b", "d", "rho")) == SWEEP_SHAPE
    assert sweep != WORKLOADS["sweep-grid"].make_config(8)["sweep"]
    assert all(0.05 <= a <= 20 for a in sweep["a"]) and all(0 < b <= 1 for b in sweep["b"])


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}


def test_tracer_lock_keeps_ids_unique_across_threads():
    t = tracing.Tracer()
    f = t._wrap("dofcore.f", lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [f() for _ in range(2000)]) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(t.spans) == 16000
    assert len({s.id for s in t.spans}) == 16000
