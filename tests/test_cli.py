"""End-to-end tests of the command-line interface.

All invocations go through main(argv) in-process; one test exercises the
installed console script.  Outputs are checked for exact exit codes, report
contents, and byte-level determinism.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modecap
from modecap import cli, specfun, wavefield
from modecap.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOLUTION,
    MAX_SOURCES,
    MAX_THREADS,
    MAX_TRIALS,
    MODE_TABLE_LIMIT,
    _build_simulation,
    _json_floats,
    _round12,
    _Rows,
    _serialize_report,
    main,
)
from modecap.dofcore import NormalizedParams, dof_normalized
from modecap.errors import DomainError
from modecap.wavefield import FIELD_ELEMENT_LIMIT

_PINNED_CONFIG = {"normalized": {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0}}
_SIM_CONFIG = {
    "normalized": {"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0},
    "simulation": {"sources": 2, "freq_points": 33, "trials": 16, "seed": 7},
}


def _write(tmp_path: Path, name: str, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def test_compute_pinned_point_report(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", _PINNED_CONFIG)
    out = tmp_path / "report.json"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["n_min"] == 5 and report["n_max"] == 13
    assert report["t_eff"] == pytest.approx(3.0)
    assert report["dof"]["d1"] == 196.0
    assert report["dof"]["total"] == pytest.approx(524.746455487, abs=5e-10)
    assert len(report["mode_table"]) == 14
    assert report["inputs"] == _PINNED_CONFIG
    entry = report["mode_table"][10]
    assert entry["n"] == 10
    assert entry["eff_bandwidth_Wn"] == pytest.approx(0.329003369514,
                                                      abs=1e-11)


def test_compute_pointlike_scenario_report(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {"scenario": {
        "radius_R": 0.0, "mid_freq_F0": 10.0, "half_bandwidth_W": 2.0,
        "obs_time_T": 3.0}})
    out = tmp_path / "report.json"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["n_min"] == 0 and report["n_max"] == 0
    assert report["dof"]["total"] == pytest.approx(13.0)
    assert len(report["mode_table"]) == 1
    assert report["mode_table"][0]["eff_bandwidth_Wn"] == pytest.approx(4.0)


def test_compute_csv_format(tmp_path: Path, capsys) -> None:
    cfg = _write(tmp_path, "cfg.json", _PINNED_CONFIG)
    assert main(["compute", "--config", cfg, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,d,rho,n_min,n_max,t_eff,d1,d2,d3,dof_total"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[4] == "5" and fields[5] == "13"
    assert float(fields[10]) == pytest.approx(524.746455487, abs=5e-10)


def test_sweep_orders_rows_and_is_deterministic(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [1.0, 0.5], "b": [0.25], "d": [1.0], "rho": [1.0, 2.0]}})
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 5
    # Rows iterate rho fastest and a slowest, in the given axis order.
    starts = [line.split(",")[:4] for line in lines[1:]]
    assert starts == [
        ["1", "0.25", "1", "1"],
        ["1", "0.25", "1", "2"],
        ["0.5", "0.25", "1", "1"],
        ["0.5", "0.25", "1", "2"],
    ]
    expected = dof_normalized(NormalizedParams(a=0.5, b=0.25, d=1.0, rho=2.0))
    assert float(lines[4].split(",")[10]) == pytest.approx(expected, rel=1e-11)


def test_sweep_json_format(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [1.0], "b": [0.0, 0.5], "d": [2.0], "rho": [1.0]}})
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [r["b"] for r in rows] == [0.0, 0.5]
    assert rows[0]["dof_total"] == pytest.approx(100.0)


def test_sweep_thread_count_does_not_change_output(
        tmp_path: Path, monkeypatch) -> None:
    # Seven points: no thread count from 2 to 6 divides them and 8 and
    # MAX_THREADS exceed them, so the chunks are uneven or hold one point each.
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [0.5, 1.0, 1.5, 4.0, 20.0, 0.05, 9.0], "b": [0.1], "d": [1.0],
        "rho": [50.0]}})
    for fmt in ("csv", "json"):
        outputs = []
        for threads in ("1", "2", "3", "8", str(MAX_THREADS)):
            monkeypatch.setenv("MODECAP_THREADS", threads)
            out = tmp_path / f"t{threads}.{fmt}"
            assert main(["sweep", "--config", cfg, "--format", fmt,
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert all(data == outputs[0] for data in outputs)
    assert len(json.loads(outputs[0])["rows"]) == 7
    monkeypatch.setenv("MODECAP_THREADS", "zero")
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


def test_thread_count_above_the_ceiling_exits_2(
        tmp_path: Path, monkeypatch, capsys) -> None:
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    # The check comes before any pool, so a pool here fails the test
    # instead of starting threads.
    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("MODECAP_THREADS", str(MAX_THREADS + 1))
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [1.0], "b": [0.5], "d": [1.0], "rho": [100.0]}})
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (f"config error: MODECAP_THREADS must be between 1 and "
                   f"{MAX_THREADS}, got {MAX_THREADS + 1}\n")


def test_sweep_grid_above_the_point_limit_exits_5(
        tmp_path: Path, monkeypatch, capsys) -> None:
    class PoolReached(Exception):
        pass

    def no_pool(*args, **kwargs):
        raise PoolReached

    built = itertools.count()
    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "NormalizedParams", lambda **point: next(built))

    def sweep(*shape: int) -> str:
        axes = {key: [1.0 / (i + 1) for i in range(size)]
                for key, size in zip(("a", "b", "d", "rho"), shape)}
        return _write(tmp_path, "cfg.json", {"sweep": axes})

    # 32^4 = 1,048,576 points: rejected before any point or thread exists.
    out = tmp_path / "out.csv"
    for fmt in ("csv", "json"):
        assert main(["sweep", "--config", sweep(32, 32, 32, 32), "--format", fmt,
                     "--out", str(out)]) == EXIT_RESOLUTION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("resolution error: ") and err.count("\n") == 1
        assert "1048576" in err and str(cli.SWEEP_POINT_LIMIT) in err
    assert next(built) == 0
    # A grid of exactly the limit goes on to build its points and its pool.
    with pytest.raises(PoolReached):
        main(["sweep", "--config", sweep(10, 10, 100, 100), "--out", str(out)])
    assert next(built) == cli.SWEEP_POINT_LIMIT + 1


def test_sweep_error_is_independent_of_thread_count(
        tmp_path: Path, monkeypatch, capsys) -> None:
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [1.0], "b": [0.5], "d": [1.0, 2.0, 3.0, 1e308, 5.0, 6.0, 7.0],
        "rho": [100.0]}})
    errors = []
    for threads in ("1", "3"):
        monkeypatch.setenv("MODECAP_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("domain error: ") and errors[0].count("\n") == 1


def test_duplicate_config_keys_exit_2(tmp_path: Path, capsys) -> None:
    normalized = _write(tmp_path, "n.json", (
        '{"normalized": {"a": 1, "a": 2, "b": 0.5, "d": 1, "rho": 1}}'))
    out = tmp_path / "report.json"
    assert main(["compute", "--config", normalized,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "'a'" in capsys.readouterr().err
    assert not out.exists()
    sweep = _write(tmp_path, "s.json", (
        '{"sweep": {"a": [1], "b": [0.5], "d": [1], "rho": [1], "rho": [2]}}'))
    assert main(["sweep", "--config", sweep, "--out", str(out)]) == EXIT_CONFIG
    assert "'rho'" in capsys.readouterr().err
    assert not out.exists()


def test_config_problems_exit_2(tmp_path: Path) -> None:
    missing = str(tmp_path / "nope.json")
    assert main(["compute", "--config", missing]) == EXIT_CONFIG
    bad_json = _write(tmp_path, "bad.json", "{not json")
    assert main(["compute", "--config", bad_json]) == EXIT_CONFIG
    both = _write(tmp_path, "both.json", {
        "scenario": {"radius_R": 1.0, "mid_freq_F0": 2.0,
                     "half_bandwidth_W": 0.5, "obs_time_T": 1.0},
        "normalized": {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0}})
    assert main(["compute", "--config", both]) == EXIT_CONFIG
    neither = _write(tmp_path, "neither.json", {})
    assert main(["compute", "--config", neither]) == EXIT_CONFIG
    unknown_top = _write(tmp_path, "top.json", {
        "normalized": {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0},
        "extra": 1})
    assert main(["compute", "--config", unknown_top]) == EXIT_CONFIG
    unknown_field = _write(tmp_path, "field.json", {
        "normalized": {"a": 1.0, "b": 0.5, "d": 1.0, "rho": 1.0, "q": 2.0}})
    assert main(["compute", "--config", unknown_field]) == EXIT_CONFIG
    missing_axis = _write(tmp_path, "axis.json", {"sweep": {
        "a": [1.0], "b": [0.5], "d": [1.0]}})
    assert main(["sweep", "--config", missing_axis]) == EXIT_CONFIG
    empty_axis = _write(tmp_path, "empty.json", {"sweep": {
        "a": [], "b": [0.5], "d": [1.0], "rho": [1.0]}})
    assert main(["sweep", "--config", empty_axis]) == EXIT_CONFIG
    sim_cfg = _write(tmp_path, "sim.json", _SIM_CONFIG)
    assert main(["simulate", "--config", sim_cfg,
                 "--format", "csv"]) == EXIT_CONFIG


def test_domain_problems_exit_3(tmp_path: Path) -> None:
    bad_b = _write(tmp_path, "b.json", {"normalized": {
        "a": 1.0, "b": 1.2, "d": 1.0, "rho": 1.0}})
    assert main(["compute", "--config", bad_b]) == EXIT_DOMAIN
    wide = _write(tmp_path, "w.json", {"scenario": {
        "radius_R": 1.0, "mid_freq_F0": 1.0, "half_bandwidth_W": 1.5,
        "obs_time_T": 1.0}})
    assert main(["compute", "--config", wide]) == EXIT_DOMAIN
    point_sim = _write(tmp_path, "p.json", {
        "normalized": {"a": 0.0, "b": 0.5, "d": 1.0, "rho": 1.0},
        "simulation": {"trials": 8}})
    assert main(["simulate", "--config", point_sim]) == EXIT_DOMAIN


def test_simulate_with_zero_bandwidth_exits_3(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {
        "normalized": {"a": 0.5, "b": 0.0, "d": 10.0, "rho": 100.0},
        "simulation": {"sources": 1, "freq_points": 5, "trials": 2}})
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()


def test_negative_quad_degree_exits_2(tmp_path: Path, capsys) -> None:
    negative = dict(_SIM_CONFIG)
    negative["simulation"] = dict(_SIM_CONFIG["simulation"], quad_degree=-1)
    cfg = _write(tmp_path, "cfg.json", negative)
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "quad_degree" in capsys.readouterr().err
    assert not out.exists()


def test_compute_with_overflowing_dof_exits_3(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {"normalized": {
        "a": 1.0, "b": 0.5, "d": 1e308, "rho": 100.0}})
    out = tmp_path / "report.json"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()  # no report holding Infinity or inf


def test_sweep_with_overflowing_dof_exits_3(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", {"sweep": {
        "a": [1.0], "b": [0.5], "d": [1.0, 1e308], "rho": [100.0]}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()  # no report holding Infinity or inf


def test_huge_a_exits_3(tmp_path: Path, capsys) -> None:
    huge = {"a": 1e300, "b": 0.5, "d": 1.0, "rho": 100.0}
    cfg = _write(tmp_path, "cfg.json", {"normalized": huge})
    out = tmp_path / "report.json"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    sweep = _write(tmp_path, "sweep.json", {
        "sweep": {k: [v] for k, v in huge.items()}})
    assert main(["sweep", "--config", sweep, "--format", "csv",
                 "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    assert capsys.readouterr().err.count("overflow") == 2


def test_out_dash_writes_stdout(tmp_path: Path, monkeypatch, capsys) -> None:
    cfg = _write(tmp_path, "cfg.json", _PINNED_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "--config", cfg, "--format", "csv",
                 "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("a,b,d,rho,")
    assert not (tmp_path / "-").exists()


def test_unwritable_output_exits_4(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", _PINNED_CONFIG)
    target = str(tmp_path / "no" / "such" / "dir" / "out.json")
    assert main(["compute", "--config", cfg, "--out", target]) == EXIT_IO


def test_insufficient_quadrature_exits_5(tmp_path: Path, capsys) -> None:
    shallow = dict(_SIM_CONFIG)
    shallow["simulation"] = dict(_SIM_CONFIG["simulation"], quad_degree=5)
    cfg = _write(tmp_path, "cfg.json", shallow)
    assert main(["simulate", "--config", cfg]) == EXIT_RESOLUTION
    err = capsys.readouterr().err
    assert "32" in err  # the degree the scenario actually needs


def test_simulate_small_run_passes_all_properties(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    sim = report["simulation"]
    assert sim["required_degree"] == 32
    assert sim["sigma0_sq"] > 0.0
    names = [p["name"] for p in sim["properties"]]
    assert names == ["jacobi_anger_consistency", "parseval",
                     "mode_noise_variance", "detectability_one_sided",
                     "reconstruction"]
    assert all(p["passed"] for p in sim["properties"])
    cutoffs = sim["empirical_cutoffs"]
    assert [c["n"] for c in cutoffs] == list(range(1, report["n_max"] + 1))
    detected = [c for c in cutoffs if c["detected"]]
    assert detected  # rho = 100 pushes several modes past the threshold
    for c in detected:
        assert c["empirical_Fn"] >= c["analytic_Fn"] - sim["freq_step"]


def test_simulate_evaluates_each_bessel_row_once(
        tmp_path: Path, monkeypatch) -> None:
    orders = []
    original = specfun.sph_bessel_j

    def counted(n, z):
        orders.append(n)
        return original(n, z)

    # wavefield binds the function by name, so patch both bindings.
    monkeypatch.setattr(specfun, "sph_bessel_j", counted)
    monkeypatch.setattr(wavefield, "sph_bessel_j", counted)
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert sorted(orders) == list(range(json.loads(out.read_text())["n_max"] + 1))


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--seed", "9",
                 "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    assert json.loads(out3.read_text())["simulation"]["seed"] == 9


def test_simulate_report_matches_the_dense_projection(
        tmp_path: Path, monkeypatch) -> None:
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    fast_out, dense_out = tmp_path / "fast.json", tmp_path / "dense.json"
    assert main(["simulate", "--config", cfg, "--out", str(fast_out)]) == EXIT_OK

    def dense(field, grid, N, freqs):
        rule = grid.rule
        basis = specfun.harmonic_matrix(N, rule.theta, rule.phi).conj() * rule.weights
        return wavefield.ModeSpectrum(radius=grid.radius, freqs=freqs,
                                      coeffs=basis @ field)

    monkeypatch.setattr(wavefield, "analyze_modes", dense)
    assert main(["simulate", "--config", cfg, "--out", str(dense_out)]) == EXIT_OK
    fast, ref = (json.loads(p.read_text()) for p in (fast_out, dense_out))
    # Only the round-off residuals may move, and only by round-off.
    for report in (fast, ref):
        props = {p["name"]: p for p in report["simulation"]["properties"]}
        report["residuals"] = [props[name].pop("value") for name in
                               ("jacobi_anger_consistency", "parseval")]
    for got, want in zip(fast.pop("residuals"), ref.pop("residuals")):
        assert abs(got - want) <= 1e-13
    assert fast == ref


def test_simulate_report_matches_the_direct_synthesis(
        tmp_path: Path, monkeypatch) -> None:
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    ring_out, direct_out = tmp_path / "ring.json", tmp_path / "direct.json"
    assert main(["simulate", "--config", cfg, "--out", str(ring_out)]) == EXIT_OK

    def direct(sources, grid, freqs, *, wave_speed_c):
        k = 2.0 * np.pi * freqs / wave_speed_c
        rule = grid.rule
        st = np.sin(rule.theta)
        nodes = np.column_stack(
            (st * np.cos(rule.phi), st * np.sin(rule.phi), np.cos(rule.theta)))
        field = np.zeros((len(rule), freqs.size), dtype=complex)
        for src in sources:
            projection = nodes @ src.unit_vector()
            field += src.spectrum_on(freqs)[None, :] * np.exp(
                1j * grid.radius * projection[:, None] * k[None, :])
        return field

    monkeypatch.setattr(wavefield, "synthesize_field", direct)
    assert main(["simulate", "--config", cfg, "--out", str(direct_out)]) == EXIT_OK
    ring, ref = (json.loads(p.read_text()) for p in (ring_out, direct_out))
    for report in (ring, ref):
        props = {p["name"]: p for p in report["simulation"]["properties"]}
        report["residuals"] = [props[name].pop("value") for name in
                               ("jacobi_anger_consistency", "parseval")]
    for got, want in zip(ring.pop("residuals"), ref.pop("residuals")):
        assert abs(got - want) <= 1e-13
    assert ring == ref


def _reached_quadrature(monkeypatch) -> type:
    """Make any quadrature build raise the returned exception type."""
    class Reached(Exception):
        pass

    def build(degree):
        raise Reached(degree)

    # simulate binds the function by name in wavefield.
    monkeypatch.setattr(wavefield, "make_quadrature", build)
    return Reached


def test_simulate_field_above_the_element_limit_exits_5(
        tmp_path: Path, monkeypatch, capsys) -> None:
    # A quadrature build would raise out of main, so this also shows the
    # run is rejected before the quadrature or the frequency grid exists.
    _reached_quadrature(monkeypatch)
    cfg = _write(tmp_path, "cfg.json", {
        "normalized": {"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0},
        "simulation": {"freq_points": 10_000_000_000_000}})
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RESOLUTION
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("resolution error: ") and err.count("\n") == 1
    # quad degree 32: 33 x 66 nodes.
    assert "2178" in err and "10000000000000" in err
    assert str(FIELD_ELEMENT_LIMIT) in err


@pytest.mark.parametrize("point, sim", [
    # The two simulate benchmark workloads and the a=3 config.
    ({"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0},
     {"sources": 3, "freq_points": 257, "trials": 64}),
    ({"a": 1.0, "b": 0.5, "d": 10.0, "rho": 100.0},
     {"sources": 3, "freq_points": 257, "trials": 8}),
    ({"a": 3.0, "b": 0.5, "d": 10.0, "rho": 100.0}, {"trials": 64}),
])
def test_simulate_limits_admit_the_reference_configs(
        tmp_path: Path, monkeypatch, point, sim) -> None:
    reached = _reached_quadrature(monkeypatch)
    cfg = _write(tmp_path, "cfg.json", {"normalized": point, "simulation": sim})
    with pytest.raises(reached):
        main(["simulate", "--config", cfg])


def test_simulate_source_and_trial_caps_exit_2(
        tmp_path: Path, monkeypatch, capsys) -> None:
    _reached_quadrature(monkeypatch)
    for key, cap in (("sources", MAX_SOURCES), ("trials", MAX_TRIALS)):
        assert _build_simulation({"simulation": {key: cap}}, None)[key] == cap
        for value in (cap + 1, 10**15):
            cfg = _write(tmp_path, "cfg.json", dict(
                _SIM_CONFIG, simulation=dict(_SIM_CONFIG["simulation"], **{key: value})))
            assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"simulation.{key}" in err and str(cap) in err


def test_simulate_above_the_bessel_order_cap_exits_5(
        tmp_path: Path, monkeypatch, capsys) -> None:
    reached = _reached_quadrature(monkeypatch)

    def synthesize(*args, **kwargs):
        raise AssertionError("the field was synthesized")

    monkeypatch.setattr(wavefield, "synthesize_field", synthesize)
    sim = {"sources": 16, "freq_points": 30}
    # n_max is 200 at a = 19.5, the largest order sph_bessel_j accepts.
    cfg = _write(tmp_path, "cfg.json", {
        "normalized": {"a": 19.5, "b": 0.2, "d": 1.0, "rho": 1.0}, "simulation": sim})
    with pytest.raises(reached):
        main(["simulate", "--config", cfg])
    # n_max is 205 at a = 20.
    cfg = _write(tmp_path, "cfg.json", {
        "normalized": {"a": 20.0, "b": 0.2, "d": 1.0, "rho": 1.0}, "simulation": sim})
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RESOLUTION
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("resolution error: ") and err.count("\n") == 1
    assert "n_max = 205" in err and "200" in err


def test_simulate_band_narrower_than_rounding_exits_3(tmp_path: Path, capsys) -> None:
    # 1 - b and 1 + b round to 1: the band has zero width though W > 0.
    for b in (5e-324, 1e-17):
        cfg = _write(tmp_path, "cfg.json", {
            "normalized": {"a": 0.5, "b": b, "d": 1.0, "rho": 100.0},
            "simulation": {"sources": 1, "freq_points": 5, "trials": 2}})
        assert main(["simulate", "--config", cfg]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "nonzero bandwidth" in err


def test_simulate_subnormal_radius_warns_nothing(
        tmp_path: Path, monkeypatch, capsys) -> None:
    # At a = 5e-324, n_max is 3 and F_3 = (3 - ln(rho)/2) c / (e pi R) is
    # inf, so simulate stops before it builds a quadrature.
    _reached_quadrature(monkeypatch)
    cfg = _write(tmp_path, "cfg.json", {
        "normalized": {"a": 5e-324, "b": 0.5, "d": 1.0, "rho": 100.0},
        "simulation": {"sources": 1, "freq_points": 5, "trials": 2}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert "critical frequency F_3" in err and "inf" in err


def test_non_finite_report_field_is_named(
        tmp_path: Path, monkeypatch, capsys) -> None:
    with pytest.raises(DomainError, match=re.escape("a.x[1].y[1] is -inf")):
        _serialize_report({"b": 1.0, "a": {"x": [1.0, {"y": (2.0, -math.inf)}]}})

    # A pipeline result that holds an inf names its field on the one line.
    real = wavefield.simulate

    def simulate(scenario, **sim):
        result = real(scenario, **sim)
        cutoff = dataclasses.replace(result.empirical_cutoffs[1], analytic_Fn=math.inf)
        cutoffs = (result.empirical_cutoffs[0], cutoff, *result.empirical_cutoffs[2:])
        return dataclasses.replace(result, empirical_cutoffs=cutoffs)

    monkeypatch.setattr(wavefield, "simulate", simulate)
    cfg = _write(tmp_path, "cfg.json", _small_simulation(_SIM_NORMALIZED, 1))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    assert capsys.readouterr().err == (
        "domain error: report holds a non-finite number: "
        "simulation.empirical_cutoffs[1].analytic_Fn is inf\n")


def test_simulate_reconstruction_above_the_element_limit_exits_5(
        tmp_path: Path, monkeypatch, capsys) -> None:
    # The reconstruction check would interpolate floor(w t_eff) + 1 samples
    # at 512 instants; w t_eff = d + 1 here.  A quadrature build raises out
    # of main, so the run is rejected before anything is allocated.
    reached = _reached_quadrature(monkeypatch)
    for d in (19_529.0, 19_530.0, 1e308):
        cfg = _write(tmp_path, "cfg.json", {
            "normalized": {"a": 0.5, "b": 0.5, "d": d, "rho": 100.0},
            "simulation": {"sources": 1, "freq_points": 5, "trials": 2}})
        if d == 19_529.0:  # 19,531 samples x 512 is just below the limit
            with pytest.raises(reached):
                main(["simulate", "--config", cfg])
            continue
        assert main(["simulate", "--config", cfg]) == EXIT_RESOLUTION
        err = capsys.readouterr().err
        assert err.startswith("resolution error: ") and err.count("\n") == 1
        assert "reconstruction" in err and str(FIELD_ELEMENT_LIMIT) in err


def test_verify_reports_every_property(capsys) -> None:
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.strip().splitlines()]
    passes = [line for line in lines if line.startswith("PASS ")]
    assert len(passes) == 7
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].endswith("all properties hold")


# sha256 of the verify text measured before its noise calibration and its
# orthogonality panels were shared with simulate and the band integrator.
# The Gram residual moves with the BLAS in use, so it is blanked.
_VERIFY_SIZE = 488
_VERIFY_SHA256 = "a5bf3f58635c9d280ca716260fd1ec94b79bdbbcaa238e08f8b37d50cce8d0ef"


def test_verify_bytes_match_the_golden_hash(tmp_path: Path) -> None:
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    text, count = re.subn(r"(max \|Gram - I\| = )\S+", r"\1null",
                          out.read_text())
    assert count == 1
    data = text.encode()
    assert len(data) == _VERIFY_SIZE
    assert hashlib.sha256(data).hexdigest() == _VERIFY_SHA256


def test_help_and_unknown_subcommand(tmp_path: Path, capsys) -> None:
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    cfg = _write(tmp_path, "cfg.json", _SIM_CONFIG)
    # Usage errors, and flags a subcommand does not take, are config errors
    # of one stderr line, not an argparse usage block.
    for argv in (["definitely-not-a-command"], [], ["compute"],
                 ["compute", "--config", cfg, "--bogus"],
                 ["compute", "--config", cfg, "--format", "xml"],
                 ["verify", "--seed", "1"], ["verify", "--format", "json"],
                 ["compute", "--config", cfg, "--seed", "1"],
                 ["sweep", "--config", cfg, "--seed", "1"],
                 ["simulate", "--config", cfg, "--format", "csv"],
                 # No prefix of a flag stands for the flag.
                 ["compute", "--conf", cfg],
                 ["compute", "--config", cfg, "--f", "csv"]):
        assert main(argv) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: modecap")
        assert captured.err.count("\n") == 1, argv


def test_integer_beyond_the_float_range_exits_3(tmp_path: Path, capsys) -> None:
    huge = "1" + "0" * 400
    out = tmp_path / "report.out"
    for command, text in (
            ("compute", '{"normalized": {"a": %s, "b": 0.5, "d": 1, "rho": 1}}' % huge),
            ("compute", '{"scenario": {"radius_R": 1, "mid_freq_F0": 2, '
                        '"half_bandwidth_W": 1, "obs_time_T": %s}}' % huge),
            ("sweep", '{"sweep": {"a": [1], "b": [0.5], "d": [1, %s], "rho": [1]}}' % huge)):
        cfg = _write(tmp_path, "cfg.json", text)
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "must be finite" in err


def test_integer_literal_above_4300_digits_exits_2(tmp_path: Path, capsys) -> None:
    cfg = _write(tmp_path, "cfg.json", (
        '{"normalized": {"a": 1%s, "b": 0.5, "d": 1, "rho": 1}}' % ("0" * 5000)))
    assert main(["compute", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "not valid JSON" in err


def test_deeply_nested_config_exits_2(tmp_path: Path, capsys) -> None:
    depth = 100_000
    cfg = _write(tmp_path, "cfg.json",
                 '{"normalized": %s%s}' % ("[" * depth, "]" * depth))
    assert main(["compute", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "not valid JSON" in err


def test_undecodable_config_exits_2(tmp_path: Path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"normalized": "\xff"}')
    assert main(["compute", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and err.count("\n") == 1


def test_console_script_entry_point(tmp_path: Path) -> None:
    cfg = _write(tmp_path, "cfg.json", _PINNED_CONFIG)
    out = tmp_path / "report.json"
    # The child imports the same package as this test, installed or not.
    src = str(Path(modecap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "modecap.cli", "compute", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["n_max"] == 13


def test_tiny_radius_with_infinite_cutoff_exits_3_without_warning(
        tmp_path: Path, capsys) -> None:
    # R = 1e-320 puts F_1 at inf: the bound is finite, the mode table is not.
    cfg = _write(tmp_path, "cfg.json", {"normalized": {
        "a": 1e-320, "b": 0.5, "d": 1.0, "rho": 2.0}})
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err


def test_mode_table_above_the_row_limit_exits_5(tmp_path: Path, capsys) -> None:
    # a = 1e5 has n_max = 1,280,963: a 142 MB table if it were written.
    cfg = _write(tmp_path, "cfg.json", {"normalized": {
        "a": 1e5, "b": 0.5, "d": 1.0, "rho": 100.0}})
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["compute", "--config", cfg, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOLUTION
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "1280963" in err and str(MODE_TABLE_LIMIT) in err
    assert main(["compute", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1].split(",")[5] == "1280963"


# Values whose 12-digit rounding and float repr are easy to get wrong.
_EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 1e16,
                123456789012.5, 999999999999.5, 1e11, 1e12, 1e15,
                9.999999999995e15, 2.2250738585072014e-308,
                2.225073858507201e-308, 1e-5, 1e-4, 3.0, -3.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_INTS = st.integers(-2**63, 2**63)


@st.composite
def _tables(draw):
    """(float keys, int keys, rows) for a random fixed-schema row list."""
    keys = draw(st.lists(st.text("abcdn_", min_size=1, max_size=6),
                         min_size=1, max_size=5, unique=True))
    is_int = draw(st.lists(st.booleans(), min_size=len(keys),
                           max_size=len(keys)))
    rows = draw(st.lists(
        st.tuples(*(_INTS if i else _FLOATS for i in is_int)), max_size=12))
    floats = [k for k, i in zip(keys, is_int) if not i]
    ints = [k for k, i in zip(keys, is_int) if i]
    return floats, ints, [dict(zip(keys, row)) for row in rows]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(table=_tables(), nested=st.booleans())
def test_row_writer_equals_the_generic_json_path(table, nested) -> None:
    floats, ints, rows = table
    columns = _Rows(floats={k: [r[k] for r in rows] for k in floats},
                    ints={k: [r[k] for r in rows] for k in ints})
    rounded = [{k: _round12(v) if k in floats else v for k, v in r.items()}
               for r in rows]

    def report(table_value):
        inner = {"rows": table_value, "n_max": 3, "z": [1.5, {"y": 2}]}
        return {"a": 0.25, "outer": inner} if nested else inner

    expected = json.dumps(report(rounded), indent=2, sort_keys=True) + "\n"
    assert _serialize_report(report(columns)) == expected


@settings(deadline=None, max_examples=2000, derandomize=True)
@given(xs=st.lists(st.one_of(_FLOATS, st.integers(-2**60, 2**60).map(float)),
                   max_size=8))
def test_json_floats_equal_the_repr_of_the_rounded_value(xs) -> None:
    assert _json_floats(xs) == [repr(_round12(x)) for x in xs]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_row_writer_rejects_non_finite_values(bad) -> None:
    rows = _Rows(floats={"x": [1.0, bad]}, ints={"n": [0, 1]})
    with pytest.raises(DomainError, match="non-finite"):
        _serialize_report({"rows": rows})


def _small_simulation(point: dict, seed: int) -> dict:
    return dict(point, simulation={"sources": 2, "freq_points": 17,
                                   "trials": 4, "seed": seed})


_SIM_NORMALIZED = {"normalized": {"a": 0.5, "b": 0.25, "d": 120.0, "rho": 100.0}}
_SIM_SCENARIO = {"scenario": {"radius_R": 0.15, "mid_freq_F0": 1e9,
                              "half_bandwidth_W": 2.5e8, "obs_time_T": 1.2e-7,
                              "snr_alpha_max": 100.0}}

# The two round-off residuals of a simulate report move with the BLAS and
# FFT in use, so a simulate report is hashed with their values blanked.
_RESIDUALS = re.compile(
    r'("name": "(?:jacobi_anger_consistency|parseval)",\n'
    r'(?:\s*"\w+": [^\n]*,\n){2}\s*"value": )[^\n]*')


def _without_residuals(data: bytes) -> bytes:
    text, count = _RESIDUALS.subn(r"\1null", data.decode())
    assert count == 2
    return text.encode()


# sha256 of reports measured before the mode table and sweep rows got their
# own writer, and for simulate before its pipeline moved out of the command
# line front end; any change to a printed byte changes these.  The CSV rows,
# and simulate at quadrature degree 46, were measured before the CSV row got
# one format template and the polar table one all-degree recurrence.
_SWEEP_GRID = {"sweep": {"a": [0, 0.05, 1.0, 3.7], "b": [0, 0.5, 1],
                         "d": [0, 2.5], "rho": [0.01, 1, 100]}}
# Each column of this grid prints all 12 significant digits somewhere.
_SWEEP_DIGITS = {"sweep": {"a": [0, 1 / 3, math.pi], "b": [0.5, 2 / 3, 1],
                           "d": [0, math.e], "rho": [0.01, 7 / 3]}}
_COMPUTE_POINT = {"normalized": {"a": 300, "b": 0.5, "d": 7, "rho": 50}}
_SIM_WIDE = {"normalized": {"a": 1.0, "b": 0.5, "d": 10.0, "rho": 100.0},
             "simulation": {"sources": 3, "freq_points": 17, "quad_degree": 46,
                            "trials": 8, "seed": 1}}
_GOLDEN = [
    ("compute", "json", _COMPUTE_POINT,
     418224, "4a59071fd7253a3219e876e31078d690168c043b031bd956dee124115cf8c470"),
    ("compute", "json", {"scenario": {"radius_R": 0.5, "mid_freq_F0": 3e9,
                                      "half_bandwidth_W": 1e9, "obs_time_T": 2e-8,
                                      "snr_alpha_max": 1000}},
     7080, "a1060177fd29c52237880d06bca1484947371f5a25590b3e25375de03444d07d"),
    ("sweep", "json", _SWEEP_GRID,
     15998, "e5a7e10dc694ccb01bd4626d3ac95059ce30f58060768fdddc735e0e74896a0f"),
    ("simulate", "json", _small_simulation(_SIM_NORMALIZED, 1),
     3100, "e360038ef15e4928b3c002b0198e9cab564b75c663aa726f52ae7b442af9422d"),
    ("simulate", "json", _small_simulation(_SIM_NORMALIZED, 2),
     3100, "c1f3204184d25b65684b50580d99280d8b22502efba03bc7b8d90d0086c42fb3"),
    ("simulate", "json", _small_simulation(_SIM_SCENARIO, 1),
     3291, "da9062ca7e69389a74feb321ad109cd60ad8b3362fe887ddce1f400d6e700e11"),
    ("simulate", "json", _small_simulation(_SIM_SCENARIO, 2),
     3284, "ec460d31dc0ca09c915c15f2c056164606b87ca3d3ab5259f71e933c468e2ea9"),
    ("compute", "csv", _COMPUTE_POINT,
     122, "a70ebf220241923b0f12ffa354596029db24a6ad4ad5a23d548a6198927c3eaa"),
    ("sweep", "csv", _SWEEP_DIGITS,
     3145, "724913248e847f277e03bbf78f9ffe4ce737975951fb2816945979f394542673"),
    ("simulate", "json", _SIM_WIDE,
     4994, "82b8115e9e5346a548c78bf1b269184cb452b17b8ccffb3888c3708c8b325322"),
]


@pytest.mark.parametrize("command, fmt, config, size, sha256", _GOLDEN,
                         ids=["compute-normalized", "compute-scenario",
                              "sweep-json", "simulate-normalized-seed1",
                              "simulate-normalized-seed2",
                              "simulate-scenario-seed1",
                              "simulate-scenario-seed2", "compute-csv",
                              "sweep-csv", "simulate-quad46"])
def test_report_bytes_match_the_golden_hash(
        tmp_path: Path, command, fmt, config, size, sha256) -> None:
    cfg = _write(tmp_path, "cfg.json", config)
    out = tmp_path / "report.out"
    assert main([command, "--config", cfg, "--format", fmt,
                 "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    if command == "simulate":
        data = _without_residuals(data)
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


# ---------------------------------------------------------------------------
# main() on generated configs and flags


class _Raw(str):
    """JSON text written as it is: literals json.dumps cannot write."""


class _Obj(tuple):
    """A JSON object as (key, value) pairs, so a key may repeat."""


def _json_text(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return json.dumps(value)


# Extremes: huge, tiny, subnormal, non-finite and big-integer numbers.  Each
# is an immediate rejection or keeps its point far below the mode-table,
# grid and field limits, alone or combined with the ordinary values below.
_EXTREMES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     1e300, 1.7976931348623157e308, 2**53 + 1, 2**64]),
    st.sampled_from(["1e400", "-1e400", "1e-400", "NaN", "-Infinity",
                     "1" + "0" * 400]).map(_Raw),
)
# Wrong types and extra nesting.
_JUNK = st.sampled_from([None, True, "1", [], [1.0], "auto", _Obj([("x", 1.0)])])
# Whole configs that are not a JSON object, or not JSON that Python reads.
_BAD_ROOTS = st.sampled_from([
    [], 1, _Obj([("normalized", _Raw("[" * 100_000 + "]" * 100_000))]),
    _Obj([("sweep", _Obj([("a", [_Raw("1" + "0" * 5000)])]))]),
])


# True about one draw in ten.  Hypothesis favours the low end of a range,
# so the common case sits there and the rare one at the top.
_RARELY = st.integers(0, 9).map(lambda k: k == 9)


@st.composite
def _mostly(draw, common, rare):
    """A draw from `common`, or rarely from `rare`."""
    return draw(rare if draw(_RARELY) else common)


def _values(low: float, high: float):
    """Mostly an ordinary number in [low, high]; else an extreme or junk."""
    return _mostly(st.floats(low, high), _mostly(_EXTREMES, _JUNK))


@st.composite
def _fields(draw, values: dict, optional=()):
    """An object holding `values`' keys, each drawn from its strategy; an
    optional key may be left out, and rarely a key is dropped, repeated or
    added."""
    pairs = [(key, draw(strategy)) for key, strategy in values.items()
             if key not in optional or draw(st.booleans())]
    if pairs and draw(_RARELY):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs = draw(st.sampled_from([pairs[:i] + pairs[i + 1:],
                                      pairs + [pairs[i]], pairs + [("q", 1.0)]]))
    return _Obj(pairs)


# Ordinary ranges of the normalized parameters; simulate keeps a <= 0.5.
_POINT_RANGES = {"a": (0.01, 4.0), "b": (0.01, 1.0), "d": (0.0, 4.0),
                 "rho": (0.01, 4.0)}


def _normalized(a_high: float):
    ranges = dict(_POINT_RANGES, a=(0.01, a_high))
    return _fields({key: _values(*bounds) for key, bounds in ranges.items()})


_SCENARIO_BLOCK = _fields(
    {"radius_R": _values(0.01, 4.0), "mid_freq_F0": _values(0.01, 4.0),
     "half_bandwidth_W": _values(0.0, 4.0), "obs_time_T": _values(0.0, 4.0),
     "wave_speed_c": _values(0.01, 4.0), "threshold_gamma": _values(0.01, 4.0),
     "snr_alpha_max": _values(0.01, 4.0)},
    optional=("wave_speed_c", "threshold_gamma", "snr_alpha_max"))

# Grids of at most 4 x 4 x 2 x 2 = 64 points.
_SWEEP_BLOCK = _fields({
    key: _mostly(st.lists(_values(*_POINT_RANGES[key]), min_size=1,
                          max_size=size), _JUNK)
    for key, size in (("a", 4), ("b", 4), ("d", 2), ("rho", 2))})

# Tiny simulations: sizes in range are small, and sizes out of range are
# rejected before anything runs.  Leaving out sources, freq_points or trials
# would run the defaults of 3, 257 and 64, so only seed and quad_degree may
# be left out.
_SIMULATION_BLOCK = _fields({
    "sources": _mostly(st.sampled_from([1, 2]),
                       st.sampled_from([0, MAX_SOURCES + 1, 10**30, True, 1.5])),
    "freq_points": _mostly(st.sampled_from([2, 5, 9]),
                           st.sampled_from([1, 10**13, "9"])),
    "trials": _mostly(st.sampled_from([2, 4]),
                      st.sampled_from([1, MAX_TRIALS + 1, None])),
    "quad_degree": _mostly(st.sampled_from(["auto", 0]),
                           st.sampled_from([5, 513, -1, 2.5, "x"])),
    "seed": _mostly(st.sampled_from([0, 7, 2**63 - 1]),
                    st.sampled_from([2**63, -1, False])),
}, optional=("quad_degree", "seed"))


@st.composite
def _invocations(draw):
    """(argv with {cfg}, {out} and {dir} placeholders, config text)."""
    command = draw(st.sampled_from(["compute", "sweep", "simulate", "verify"]))
    # simulate stays at a <= 0.5, and never gets a scenario block alone.
    points = {"normalized": _normalized(0.5 if command == "simulate" else 4.0),
              "scenario": _SCENARIO_BLOCK}
    kinds = [("normalized",)] * 2 if command == "simulate" else [
        ("normalized",), ("scenario",)]
    kinds = draw(_mostly(st.sampled_from(kinds), st.sampled_from(
        [("normalized", "scenario"), ()])))
    blocks = [(name, draw(points[name])) for name in kinds]
    for name, block in (("sweep", _SWEEP_BLOCK), ("simulation", _SIMULATION_BLOCK)):
        if not draw(_RARELY):
            blocks.append((name, draw(block)))
    if draw(_RARELY):
        blocks.append(("extra", {}))
    config = draw(_BAD_ROOTS) if draw(_RARELY) else _Obj(blocks)
    argv = [command]
    if not draw(_RARELY):
        argv += ["--config", "{cfg}"]
    if draw(st.booleans()):
        argv += ["--format", draw(_mostly(st.sampled_from(["json", "csv"]),
                                          st.just("xml")))]
    if draw(_RARELY):
        argv += ["--seed", draw(st.sampled_from(["3", "-1", str(2**63), "x"]))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["{out}", "{out}", "{dir}"]))]
    if draw(_RARELY):
        argv.append("--bogus")
    return argv, _json_text(config)


def _strict_json_number(text: str):
    raise AssertionError(f"report holds {text}")


def _check_report(argv: list[str], text: str) -> None:
    """text is what a successful run of argv wrote: a verify summary,
    well-formed CSV or strict JSON."""
    if argv[0] == "verify":
        assert text.endswith("verify: all properties hold\n")
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else (
        "csv" if argv[0] == "sweep" else "json")
    if fmt == "json":
        assert isinstance(
            json.loads(text, parse_constant=_strict_json_number), dict)
        return
    header, *rows = text.split("\n")[:-1]
    assert text.endswith("\n") and header == cli._CSV_HEADER and rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 11
        assert all(math.isfinite(float(field)) for field in fields)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(invocation=_invocations())
def test_main_on_generated_configs_and_flags(tmp_path_factory, invocation) -> None:
    template, config = invocation
    tmp = tmp_path_factory.mktemp("fuzz", numbered=True)
    cfg, out = tmp / "cfg.json", tmp / "report.out"
    cfg.write_text(config)
    paths = {"{cfg}": str(cfg), "{out}": str(out), "{dir}": str(tmp)}
    argv = [paths.get(arg, arg) for arg in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_RESOLUTION)
    if code != EXIT_OK:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert stdout.getvalue() == "" and not out.exists()
        return
    assert err == ""
    _check_report(argv, out.read_text() if "--out" in argv else stdout.getvalue())
