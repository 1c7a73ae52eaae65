"""Span tracing for the traced benchmark run, installed from outside the
package.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span, in every `modecap` module namespace that binds
the function: `cli` imports the `dofcore` functions by name and `wavefield`
imports `harmonic_matrix`, `sph_bessel_j` and `mode_indices` from `specfun`,
so wrapping only the defining module would miss those calls.  `uninstall`
puts the originals back; no file of the package is touched.

A span holds its name, start, end, parent and invocation id, plus work
counts computed from argument and result shapes.  Spans are kept in memory
and written out by the caller at the end of the run.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

# `errors` does no work and is not a layer.
LAYERS = ("cli", "dofcore", "specfun", "wavefield", "sampling")

# Every per-layer metric of the traced run: (name, unit, better).  Values are
# per warm invocation (the median over traced invocations).  flop and byte
# counts are computed from array shapes, not measured.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("dofcore.self_s", "s", "lower"),
    ("dofcore.dof_normalized_breakdown.calls", "count", "lower"),
    ("dofcore.truncation_indices.calls", "count", "lower"),
    ("dofcore.bandwidth_profile.self_s", "s", "lower"),
    ("dofcore.bandwidth_profile.modes", "count", "lower"),
    ("dofcore.critical_frequency.calls", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.harmonic_matrix.calls", "count", "lower"),
    ("specfun.harmonic_matrix.self_s", "s", "lower"),
    ("specfun.harmonic_matrix.entries", "count", "lower"),
    ("specfun.harmonic_matrix.distinct_frac", "ratio", "higher"),
    ("specfun.sph_bessel_j.calls", "count", "lower"),
    ("specfun.sph_bessel_j.self_s", "s", "lower"),
    ("specfun.make_quadrature.self_s", "s", "lower"),
    ("specfun.make_quadrature.nodes", "count", "lower"),
    ("wavefield.self_s", "s", "lower"),
    ("wavefield.analyze_modes.calls", "count", "lower"),
    ("wavefield.analyze_modes.self_s", "s", "lower"),
    ("wavefield.analyze_modes.flops", "flop", "lower"),
    ("wavefield.analyze_modes.bytes", "bytes", "lower"),
    ("wavefield.synthesize_field.self_s", "s", "lower"),
    ("wavefield.synthesize_field.node_freqs", "count", "lower"),
    ("wavefield.add_noise.calls", "count", "lower"),
    ("wavefield.add_noise.self_s", "s", "lower"),
    ("wavefield.theoretical_modes.self_s", "s", "lower"),
    ("wavefield.parseval_check.self_s", "s", "lower"),
    ("wavefield.empirical_critical_frequency.calls", "count", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("sampling.reconstruct.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Span(NamedTuple):
    id: int
    parent: int | None
    invocation: int
    name: str
    thread: int
    start: float
    end: float
    work: dict | None


# ---------------------------------------------------------------------------
# Work counts at the layer boundaries, from argument and result shapes.


def _harmonic_matrix_work(bound: dict, result: Any) -> dict:
    points = hashlib.blake2b(digest_size=8)
    for key in ("theta", "phi"):
        points.update(np.ascontiguousarray(bound[key], dtype=float).tobytes())
    # The key identifies one (degree, point set) build, for distinct_frac.
    return {"entries": int(result.size), "key": [int(bound["max_degree"]), points.hexdigest()]}


def _analyze_modes_work(bound: dict, result: Any) -> dict:
    modes, freqs = result.coeffs.shape
    nodes = bound["field"].shape[0]
    # Weighting the conjugated basis, then a complex (M x P) @ (P x F)
    # product at 8 real flops per multiply-add.  Bytes: the basis read, the
    # weighted copy written and read back, the field read, coeffs written.
    return {
        "flops": 2 * modes * nodes + 8 * modes * nodes * freqs,
        "bytes": 16 * (3 * modes * nodes + nodes * freqs + modes * freqs) + 8 * nodes,
    }


_WORK: dict[str, Callable[[dict, Any], dict]] = {
    "specfun.harmonic_matrix": _harmonic_matrix_work,
    "specfun.make_quadrature": lambda bound, result: {"nodes": len(result)},
    "dofcore.bandwidth_profile": lambda bound, result: {"modes": len(result.per_mode)},
    "wavefield.analyze_modes": _analyze_modes_work,
    "wavefield.synthesize_field": lambda bound, result: {"node_freqs": int(result.size)},
}


# ---------------------------------------------------------------------------
# Recording


class Tracer:
    """Records spans around the public functions of every layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        # Span stack of the thread that opened the current root span.  A span
        # opened on another thread with nothing open there (the sweep's pool
        # threads) is a child of that stack's innermost span, the one that
        # started the pool.
        self._origin: list[int] | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                sid = next(self._ids)
                origin = self._origin
                if stack:
                    parent = stack[-1]
                elif origin:
                    parent = origin[-1]
                else:
                    parent = None
                    self._origin = stack
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, time.perf_counter(), stack, None)
                raise
            end = time.perf_counter()
            counts = None
            if work is not None:
                counts = work(signature.bind(*args, **kwargs).arguments, result)
            self._close(sid, parent, name, start, end, stack, counts)
            return result

        return wrapper

    def _close(self, sid, parent, name, start, end, stack, work) -> None:
        span = Span(sid, parent, self.invocation, name, threading.get_ident(), start, end, work)
        with self._lock:
            # Under the lock: another thread may be reading this stack as
            # its origin.
            stack.pop()
            if parent is None:
                self._origin = None
            self.spans.append(span)

    def install(self) -> None:
        """Wrap every public layer function wherever a modecap module binds it."""
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"modecap.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "modecap" and not mod_name.startswith("modecap."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Analysis


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap one another (pool threads); the union counts the
    covered time once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span], invocations: list[int]) -> dict[str, float]:
    """Per-invocation layer metrics, as the median over `invocations`.

    Returns every PER_LAYER name except `cli.report_bytes` and
    `trace.overhead_frac`, which come from the invocation records.
    """
    selfs = self_times(spans)
    per_inv: dict[int, dict[str, float]] = {inv: defaultdict(float) for inv in invocations}
    builds: dict[int, set] = {inv: set() for inv in invocations}
    for s in spans:
        m = per_inv[s.invocation]
        m[s.name.split(".", 1)[0] + ".self_s"] += selfs[s.id]
        m[s.name + ".self_s"] += selfs[s.id]
        m[s.name + ".calls"] += 1
        for key, value in (s.work or {}).items():
            if key == "key":
                builds[s.invocation].add(tuple(value))
            else:
                m[f"{s.name}.{key}"] += value
    for inv, m in per_inv.items():
        calls = m["specfun.harmonic_matrix.calls"]
        m["specfun.harmonic_matrix.distinct_frac"] = len(builds[inv]) / calls if calls else 0.0
    return {
        name: statistics.median(per_inv[inv][name] for inv in invocations)
        for name, _, _ in PER_LAYER
        if name not in ("cli.report_bytes", "trace.overhead_frac")
    }
