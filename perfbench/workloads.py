"""The benchmark's workloads: each turns a seed into one config file for the
`modecap` CLI and the argument list that runs it.

The program sees only the generated config (and, for `simulate`, the seed
passed as `--seed`); the same seed always gives the same config bytes.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# a x b x d x rho grid of the sweep workload: 32,000 points.
SWEEP_SHAPE = (20, 20, 10, 8)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep_config(seed: int) -> dict:
    rng = random.Random(seed)
    n_a, n_b, n_d, n_rho = SWEEP_SHAPE
    return {
        "sweep": {
            "a": [_log_uniform(rng, 0.05, 20.0) for _ in range(n_a)],
            # 1 - U[0, 1) lies in (0, 1].
            "b": [1.0 - rng.random() for _ in range(n_b)],
            "d": [_log_uniform(rng, 0.1, 500.0) for _ in range(n_d)],
            "rho": [_log_uniform(rng, 1.0, 1e4) for _ in range(n_rho)],
        }
    }


def _compute_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "normalized": {
            "a": 3000.0,
            "b": 0.5,
            "d": _log_uniform(rng, 1.0, 100.0),
            "rho": _log_uniform(rng, 1.0, 1e4),
        }
    }


def _simulate_config(a: float, b: float, d: float, rho: float, trials: int) -> Callable[[int], dict]:
    def make(seed: int) -> dict:
        # The seed reaches the program as --seed, not through the config.
        return {
            "normalized": {"a": a, "b": b, "d": d, "rho": rho},
            "simulation": {
                "sources": 3,
                "freq_points": 257,
                "quad_degree": "auto",
                "trials": trials,
            },
        }

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[int], dict]

    def argv(self, config_path: str, out_path: str, seed: int) -> list[str]:
        """Arguments for `modecap.cli.main` running this workload."""
        argv = [self.command, "--config", config_path, "--out", out_path]
        if self.command == "simulate":
            return argv + ["--seed", str(seed)]
        return argv + ["--format", "csv" if self.command == "sweep" else "json"]


# A simulate workload comes first: those reach every layer, so a traced run
# of the first workload measures every per-layer time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-trials",
            "simulate",
            "README default simulate with 64 noise trials, each rebuilding the "
            "degree-8 harmonic basis",
            _simulate_config(0.5, 0.25, 120.0, 100.0, trials=64),
        ),
        Workload(
            "sweep-grid",
            "sweep",
            "32,000 O(1) closed-form points: the cli pool and row formatting, "
            "then dofcore; specfun and wavefield do nothing",
            _sweep_config,
        ),
        Workload(
            "compute-table",
            "compute",
            "one point at a=3000: about 38,430 per-mode bandwidth_profile rows "
            "and a 4 MB JSON report",
            _compute_config,
        ),
        Workload(
            "simulate-wide",
            "simulate",
            "larger kR: quadrature degree 46, few large basis builds, and "
            "about twice the memory",
            _simulate_config(1.0, 0.5, 10.0, 100.0, trials=8),
        ),
    )
}
