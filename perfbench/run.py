"""Benchmark for the `modecap` CLI: one workload, one seed, one fresh worker
process.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run generates the workload's config from
the seed under .bench_out/, times set-up in fresh interpreters, runs warm
`modecap.cli.main` invocations in a worker process for --seconds, checks
every report with the oracle, and prints a summary followed by one JSON
result line.  --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics from a run that alternates traced and untraced
invocations.  Everything the run writes goes under .bench_out/.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed for setup_s; the worker's own start is one of them.
SETUP_SAMPLES = 5
# Warm invocations a run measures at least, however long they take.
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _start_worker(src: Path, job: Path | None) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (start to "ready")."""
    argv = [sys.executable, str(HERE / "worker.py")] + ([str(job)] if job else [])
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (said {line!r}, exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "MODECAP_THREADS": os.environ.get("MODECAP_THREADS", f"unset (default min(8, cpus) = {min(8, cpus)})"),
        "git_commit": _git_commit(root),
    }


def _percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return "too few samples for a tail percentile"
    q = int(100 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return f"p{q} {value:.4f} s"


def run(workload_name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    import oracle

    workload = WORKLOADS[workload_name]
    # One directory per workload and mode, replaced by each run, so repeated
    # runs do not pile up reports and span files.
    work = root / ".bench_out" / f"{workload_name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.make_config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    job = {
        "src": str(root / "src"),
        "argv": workload.argv(str(config_path), str(work / "report.out"), seed),
        "out": str(work / "report.out"),
        "first_out": str(work / "first_report.out"),
        "spans_out": str(work / "spans.jsonl"),
        "seconds": seconds,
        "trace": trace,
        "min_samples": MIN_SAMPLES,
    }
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, t = _start_worker(root / "src", None)
            _finish(proc, deadline)
            setup.append(t)
    proc, t = _start_worker(root / "src", job_path)
    setup.append(t)
    result = json.loads(_finish(proc, deadline).splitlines()[-1])

    (work / "report.out").unlink(missing_ok=True)
    records = result["records"]
    first = (work / "first_report.out").read_bytes()
    problems, notes = oracle.check(workload_name, config, first)
    # An invocation fails on a nonzero exit, on bytes that differ from the
    # first report, or when the first report fails the oracle.
    failed = sum(
        1 for r in records if r["code"] != 0 or r["sha256"] != records[0]["sha256"] or problems
    )
    untraced = [r["elapsed_s"] for r in records[1:] if not r["traced"]]
    traced = [r["elapsed_s"] for r in records[1:] if r["traced"]]
    run_s = statistics.median(untraced)
    summary = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "why": workload.why,
        "argv": job["argv"],
        "environment": environment(root),
        "setup_s_samples": setup,
        "run_s_samples": untraced,
        "traced_run_s_samples": traced,
        "run_s_tail": _percentile_note(untraced),
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
        "deterministic": all(r["sha256"] == records[0]["sha256"] for r in records),
        "exit_codes": sorted({str(r["code"]) for r in records}),
        "notes": notes,
    }
    if trace:
        layers = dict(result["layers"])
        layers["cli.report_bytes"] = statistics.median(r["bytes"] for r in records if r["traced"])
        layers["trace.overhead_frac"] = (statistics.median(traced) - run_s) / run_s
        summary["layers"] = layers
    else:
        summary["e2e"] = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            # What one CLI run costs: the worker's peak over import and its
            # first invocation.  Later invocations only add heap
            # fragmentation, and their number depends on machine speed.
            "peak_rss_mb": records[0]["maxrss_mb"],
            "fail_frac": failed / len(records),
        }
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def _print_summary(s: dict) -> None:
    env = s["environment"]
    print(
        f"env: nproc {env['nproc']}, {env['cpu_model']}, Python {env['python']}, NumPy {env['numpy']}, "
        f"SciPy {env['scipy']}, BLAS {env['blas']} ({env['blas_threads']} threads), "
        f"MODECAP_THREADS {env['MODECAP_THREADS']}, commit {env['git_commit']}"
    )
    print(f"workload {s['workload']} (seed {s['seed']}): {s['why']}")
    if "e2e" in s:
        e = s["e2e"]
        print(f"  setup_s      {e['setup_s']:.4f} s    median of {len(s['setup_s_samples'])} fresh interpreters")
        print(f"  run_s        {e['run_s']:.4f} s    median of {len(s['run_s_samples'])} warm invocations; {s['run_s_tail']}")
        print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MiB")
        print(f"  fail_frac    {e['fail_frac']:.4g}    {s['failed']} of {s['attempted']} invocations")
    else:
        layers = s["layers"]
        for name, value in layers.items():
            print(f"  {name:46s} {value:.6g}")
        traced_s = statistics.median(s["traced_run_s_samples"])
        for kind, names in (
            ("layer", [n for n in layers if n.count(".") == 1 and n.endswith(".self_s")]),
            ("function", [n for n in layers if n.count(".") == 2 and n.endswith(".self_s")]),
        ):
            top = max(names, key=layers.get)
            print(f"  largest listed {kind} self time: {top} {layers[top]:.4f} s of a {traced_s:.4f} s traced invocation")
    for p in s["problems"]:
        print(f"  problem: {p}")
    for name, note in s["notes"].items():
        print(f"  recorded, not counted: {name} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "modecap" / "cli.py").is_file():
        print("perfbench: no src/modecap/cli.py here; run from the repository root", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        print("perfbench: --seed must be in [0, 2**63) and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        s = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_summary(s)
    if args.trace:
        metrics = {name: {"value": s["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
        metrics = {name: {"value": s["e2e"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
