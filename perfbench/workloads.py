"""The benchmark's workloads: CLI argv generated from a seed, and the checks
of each invocation's output.

Each workload yields groups of invocations; the measuring loop runs whole
groups, one child at a time, until its time is up. The checks recompute the
paper's closed forms here rather than importing them from the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    items: int  # work units this invocation completes, in the workload's items_unit
    params: dict = field(default_factory=dict)  # draws the output checks need


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        handle.readline()  # units comment
        header = handle.readline().strip().split(",")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, data


def _max_dev(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)), initial=0.0))


class SweepWide:
    """``zenoion sweep`` up to chi ~ 20: nearly all time is in the gqze search."""

    name = "sweep-wide"
    items_unit = "chi points"
    chi_step = 0.05

    def groups(self, seed: int, out_dir: str) -> Iterator[list[Invocation]]:
        # chi_max is drawn on the 0.05 grid from [18, 22] in pairs placed
        # symmetrically about 20. Sweep cost grows as chi_max^2, so the median
        # of whole pairs stays at the chi_max = 20 cost whatever the seed.
        rng = random.Random(seed)
        while True:
            offset = rng.randint(0, 40)
            group = []
            for steps in (400 - offset, 400 + offset):
                chi_max = steps * self.chi_step
                epsilon = rng.uniform(0.005, 0.05)
                threshold = rng.uniform(0.25, 1.0)
                argv = (
                    "sweep",
                    "--chi-step", repr(self.chi_step),
                    "--chi-max", repr(round(chi_max, 2)),
                    "--epsilon", repr(epsilon),
                    "--order-threshold", repr(threshold),
                    "--out", out_dir,
                )
                params = {"epsilon": epsilon, "points": steps + 1}
                group.append(Invocation(argv, steps + 1, params))
            yield group

    def check(self, inv: Invocation, stdout: str, out_dir: Path) -> list[str]:
        header, data = _read_csv(out_dir / "sweep.csv")
        col = {name: data[:, i] for i, name in enumerate(header)}
        problems = []
        if len(data) != inv.params["points"]:
            return [f"{len(data)} rows, expected {inv.params['points']}"]
        chi = col["chi"]
        if _max_dev(chi, np.round(np.arange(len(data)) * self.chi_step, 12)) > 1e-12:
            problems.append("chi column is not the requested grid")
        chi_sq = chi * chi
        w = np.sqrt(1.0 + chi_sq)  # unit 1-2 coupling
        expected = {
            "m": np.where(chi_sq > 1.0, ((chi_sq - 1.0) / (chi_sq + 1.0)) ** 2, 0.0),
            "t_m_scaled": np.where(
                chi_sq <= 1.0, np.arccos(np.clip(-chi_sq, -1.0, 1.0)), math.pi
            ) / w,
            "P_mean": (chi_sq * chi_sq + 0.5) / (1.0 + chi_sq) ** 2,
            "P2_mean": 0.5 / (1.0 + chi_sq),
            "P3_mean": 1.5 * chi_sq / (1.0 + chi_sq) ** 2,
            "S_scaled": _sub_threshold_time(chi_sq, w, inv.params["epsilon"]),
        }
        for name, values in expected.items():
            dev = _max_dev(col[name], values)
            if not dev <= 1e-10:
                problems.append(f"{name} deviates from the closed form by {dev:.3e}")
        present = chi > 0
        t_chi = col["t_chi_scaled"][present]
        gap = ((chi_sq[present] + np.cos(w[present] * t_chi)) / (chi_sq[present] + 1.0)) ** 2
        gap -= np.cos(t_chi) ** 2
        dev = _max_dev(gap, 0.0)
        if not dev <= 1e-9:
            problems.append(f"|gap(t_chi)| reaches {dev:.3e}")
        return problems

    def reached_layers(self, inv: Invocation) -> dict[str, int | None]:
        """Layer functions this invocation calls: exact call count, or None
        for "at least once"."""
        return {
            "cli.main": 1,
            "config.load_config": 1,
            "runner.run_sweep": 1,
            "indicators.indicator_report": inv.items,
            "indicators.gqze_interval": inv.items,
            "dynamics.survival_probability": None,
            "runner.write_csv": 1,
        }


def _sub_threshold_time(chi_sq: np.ndarray, w: np.ndarray, epsilon: float) -> np.ndarray:
    """Time per period below P_mean - epsilon, by inverting the survival
    formula: P < tau exactly when cos(wt) lies between -/+ sqrt(tau)(1 + chi^2)
    - chi^2."""
    tau = (chi_sq * chi_sq + 0.5) / (1.0 + chi_sq) ** 2 - epsilon
    root = np.sqrt(np.maximum(tau, 0.0))
    high = np.clip(root * (1.0 + chi_sq) - chi_sq, -1.0, 1.0)
    low = np.clip(-root * (1.0 + chi_sq) - chi_sq, -1.0, 1.0)
    return np.where(tau > 0.0, 2.0 * (np.arccos(low) - np.arccos(high)) / w, 0.0)


class Evolve1e5:
    """``zenoion evolve`` with 1e5 samples: the per-sample loop and CSV writing."""

    name = "evolve-1e5"
    items_unit = "time samples"
    samples = 100_000

    def groups(self, seed: int, out_dir: str) -> Iterator[list[Invocation]]:
        rng = random.Random(seed)
        while True:
            r = [rng.randint(0, 2) for _ in range(3)]
            l = [rng.randint(0, 2) for _ in range(3)]
            n = [ri + li + rng.randint(0, 3) for ri, li in zip(r, l)]
            # sqrt of the falling factorials n!/(n-r)! and (n-r)!/(n-r-l)!
            ratio_12 = math.sqrt(math.prod(math.perm(a, b) for a, b in zip(n, r)))
            ratio_23 = math.sqrt(
                math.prod(math.perm(a - b, c) for a, b, c in zip(n, r, l))
            )
            gamma1 = rng.uniform(0.5, 2.0)
            gamma2 = rng.uniform(0.5, 20.0) * gamma1 * ratio_12 / ratio_23
            chi = abs(gamma2 * ratio_23 / (gamma1 * ratio_12))
            argv = (
                "evolve",
                "--samples", str(self.samples),
                "--n", ",".join(map(str, n)),
                "--r", ",".join(map(str, r)),
                "--l", ",".join(map(str, l)),
                "--gamma1", repr(gamma1),
                "--gamma2", repr(gamma2),
                "--t-max", repr(rng.uniform(5.0, 25.0)),
                "--out", out_dir,
            )
            yield [Invocation(argv, self.samples, {"chi": chi})]

    def check(self, inv: Invocation, stdout: str, out_dir: Path) -> list[str]:
        header, data = _read_csv(out_dir / "evolve.csv")
        if header != ["t_scaled", "p1", "p2", "p3", "survival"]:
            return [f"unexpected header {header}"]
        if len(data) != self.samples:
            return [f"{len(data)} rows, expected {self.samples}"]
        t, p1, p2, p3, survival = data.T
        chi_sq = inv.params["chi"] ** 2
        closed = ((chi_sq + np.cos(math.sqrt(1.0 + chi_sq) * t)) / (chi_sq + 1.0)) ** 2
        problems = []
        dev = _max_dev(p1 + p2 + p3, 1.0)
        if not dev <= 1e-12:
            problems.append(f"p1 + p2 + p3 deviates from 1 by {dev:.3e}")
        dev = _max_dev(survival, closed)
        if not dev <= 1e-12:
            problems.append(f"survival deviates from the closed form by {dev:.3e}")
        return problems

    def reached_layers(self, inv: Invocation) -> dict[str, int | None]:
        """Layer functions this invocation calls: exact call count, or None
        for "at least once"."""
        return {
            "cli.main": 1,
            "config.load_config": 1,
            "runner.run_evolve": 1,
            "dynamics.build_block": 1,
            "fock.coupling_alpha": 1,
            "fock.coupling_beta": 1,
            "fock.chi_ratio": None,
            "fock.factorial_ratio_root": None,
            "dynamics.propagate_analytic": self.samples,
            "dynamics.level_probabilities": self.samples,
            "runner.write_csv": 1,
        }


class ValidateSeeds:
    """``zenoion validate`` over consecutive seeds: the correctness gate."""

    name = "validate-seeds"
    items_unit = "seeds"

    def groups(self, seed: int, out_dir: str) -> Iterator[list[Invocation]]:
        s = seed
        while True:
            yield [Invocation(("validate", "--seed", str(s)), 1)]
            s += 1

    def check(self, inv: Invocation, stdout: str, out_dir: Path) -> list[str]:
        if "overall: PASS" not in stdout:
            return ["validate did not report 'overall: PASS'"]
        return []

    def reached_layers(self, inv: Invocation) -> dict[str, int | None]:
        """Layer functions this invocation calls: exact call count, or None
        for "at least once"."""
        return {
            "cli.main": 1,
            "config.load_config": 1,
            "runner.run_validate": 1,
            "dynamics.build_block": None,
            "fock.coupling_alpha": None,
            "fock.coupling_beta": None,
            "fock.chi_ratio": None,
            "fock.factorial_ratio_root": None,
            "dynamics.propagate_analytic": None,
            "dynamics.propagate_oracle": None,
            "dynamics.level_probabilities": None,
            "dynamics.survival_probability": None,
            "indicators.twins": None,
        }


WORKLOADS = {w.name: w for w in (SweepWide(), Evolve1e5(), ValidateSeeds())}
