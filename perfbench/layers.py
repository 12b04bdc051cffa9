"""Per-layer timing for the traced benchmark run, and fixed-size layer probes.

The layers are the package's modules. ``LayerTracer.install`` wraps the public
entry points listed in ``LAYERS`` from outside the package: it rebinds every
name in every ``zenoion`` module that refers to one of them (the modules
import their callees by name) and every function default that holds one
(``run_validate`` binds ``propagate_analytic`` as a default argument).

Each wrapped function records its call count, its busy time (wall time of
its outermost calls) and its self time (wall time minus the time of the
wrapped calls it made).
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = {
    "cli": ("main",),
    "config": ("load_config",),
    "fock": ("coupling_alpha", "coupling_beta", "chi_ratio", "factorial_ratio_root"),
    "dynamics": (
        "build_block",
        "propagate_analytic",
        "propagate_oracle",
        "level_probabilities",
        "survival_probability",
    ),
    "indicators": ("gqze_interval", "indicator_report"),
    "runner": ("run_evolve", "run_sweep", "run_validate", "write_csv"),
}

# The numeric twins of the closed-form indicators are timed as one group.
TWINS = (
    "min_survival_grid",
    "time_of_min_grid",
    "mean_survival_quadrature",
    "sub_threshold_measure_grid",
)

# Computed, not measured: survival_probability makes five elementwise float64
# passes (w*t, cos, +chi^2, /(chi^2+1), **2), each reading one array and
# writing one, so 10 arrays of 8 B are touched per time sample.
SURVIVAL_BYTES_PER_POINT = 8 * 10


class _Stats:
    __slots__ = ("calls", "busy", "own", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.own = 0.0
        self.depth = 0


class LayerTracer:
    """Call counts, busy and self time of the wrapped layer functions."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stats] = {}
        self.counters = {
            "dynamics.survival_probability.points": 0,
            "runner.write_csv.rows": 0,
            "runner.write_csv.bytes": 0,
        }
        self._open: list[float] = []  # wrapped time of the children of each open span

    def _timed(self, name: str, func):
        stats = self.stats.setdefault(name, _Stats())
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats.calls += 1
            stats.depth += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.own += elapsed - open_spans.pop()
                stats.depth -= 1
                if stats.depth == 0:
                    stats.busy += elapsed
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _counted(self, name: str, func):
        """Add the size counters of survival_probability and write_csv."""
        counters = self.counters
        if name == "dynamics.survival_probability":
            import numpy as np

            def survival_probability(chi, angular_frequency, t):
                counters["dynamics.survival_probability.points"] += int(np.size(t))
                return func(chi, angular_frequency, t)

            return survival_probability
        if name == "runner.write_csv":

            def write_csv(path, comment, header, rows):
                if hasattr(rows, "__len__"):
                    counters["runner.write_csv.rows"] += len(rows)
                else:
                    rows = _count_rows(rows, counters)
                func(path, comment, header, rows)
                counters["runner.write_csv.bytes"] += os.path.getsize(path)

            return write_csv
        return func

    def install(self) -> None:
        """Wrap every binding of the layer functions in the loaded package."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "zenoion" or name.startswith("zenoion.")
        ]
        replacement = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"zenoion.{layer}"]
            for name in names:
                original = getattr(module, name)
                qualified = f"{layer}.{name}"
                replacement[id(original)] = (
                    original,
                    self._timed(qualified, self._counted(qualified, original)),
                )
        indicators = sys.modules["zenoion.indicators"]
        for name in TWINS:
            original = getattr(indicators, name)
            replacement[id(original)] = (original, self._timed("indicators.twins", original))

        def swap(value):
            entry = replacement.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else value

        for module in modules:
            for attr, value in list(vars(module).items()):
                for func in _functions_of(value, module.__name__):
                    if func.__defaults__:
                        func.__defaults__ = tuple(swap(d) for d in func.__defaults__)
                    if func.__kwdefaults__:
                        func.__kwdefaults__ = {k: swap(d) for k, d in func.__kwdefaults__.items()}
                wrapped = swap(value)
                if wrapped is not value:
                    setattr(module, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.busy_s"] = stats.busy
            out[f"{name}.self_s"] = stats.own
        out.update(self.counters)
        out["dynamics.survival_probability.bytes_computed"] = (
            SURVIVAL_BYTES_PER_POINT * self.counters["dynamics.survival_probability.points"]
        )
        return out


def _count_rows(rows, counters):
    for row in rows:
        counters["runner.write_csv.rows"] += 1
        yield row


def _functions_of(value, module_name: str):
    """Plain functions defined in ``module_name``: the value itself, or the
    methods of a class defined there."""
    if inspect.isfunction(value) and value.__module__ == module_name:
        return [value]
    if inspect.isclass(value) and value.__module__ == module_name:
        return [v for v in vars(value).values() if inspect.isfunction(v)]
    return []


# --- fixed-size probes ------------------------------------------------------


def _median_time(call, repeats: int, per: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(per):
            call()
        samples.append((time.perf_counter() - start) / per)
    return statistics.median(samples)


def run_probes(out_dir: str) -> dict[str, float]:
    """Median wall time of single layer calls at the sizes of the ROADMAP
    baseline: gqze_interval at chi 1/20/100, one propagate_analytic call,
    survival_probability over 1e5 points, write_csv of 1e5 x 5 rows."""
    import numpy as np

    from zenoion.dynamics import (
        VibronicState,
        build_block,
        propagate_analytic,
        survival_probability,
    )
    from zenoion.fock import CouplingConstants, ModeVector, SidebandPattern
    from zenoion.indicators import gqze_interval
    from zenoion.runner import write_csv

    probes = {}
    for chi, repeats in ((1.0, 21), (20.0, 7), (100.0, 3)):
        probes[f"probe.gqze_interval.chi{chi:g}_s"] = _median_time(
            lambda: gqze_interval(chi, 1.0), repeats
        )
    block = build_block(
        ModeVector(2, 1, 0), SidebandPattern((1, 0, 0), (1, 1, 0)), CouplingConstants(1.0, 0.5)
    )
    state = VibronicState.basis_state(block.dimension, 0)
    probes["probe.propagate_analytic.call_s"] = _median_time(
        lambda: propagate_analytic(block, state, 0.8), 7, per=1000
    )
    times = np.linspace(0.0, 4.0 * math.pi, 100_000)
    probes["probe.survival_probability.points_1e5_s"] = _median_time(
        lambda: survival_probability(3.0, math.sqrt(10.0), times), 21
    )
    rows = [(t, 0.25, 0.25, 0.5, 0.0625) for t in times.tolist()]
    path = Path(out_dir) / "probe.csv"
    probes["probe.write_csv.rows_1e5_s"] = _median_time(
        lambda: write_csv(path, "probe", ("t", "p1", "p2", "p3", "s"), rows), 3
    )
    path.unlink()
    return probes
