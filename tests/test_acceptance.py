"""Acceptance suite: one test per shipping criterion, each printing a
verdict line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import math
import random

import numpy as np
import pytest

from zenoion.config import load_config
from zenoion.dynamics import (
    VibronicState,
    build_block,
    classify_block,
    level_probabilities,
    propagate_analytic,
    propagate_oracle,
    survival_probability,
)
from zenoion.fock import CouplingConstants, ModeVector, SidebandPattern
from zenoion.indicators import (
    gqze_interval,
    mean_level_probabilities,
    mean_survival,
    mean_survival_quadrature,
    min_survival,
    min_survival_grid,
    poincare_time,
    sub_threshold_measure,
    sub_threshold_measure_grid,
    time_of_min,
    time_of_min_grid,
)
from zenoion.runner import random_cases, run_figures

from .oracles import series_term_oracle, sideband_series_term


def _verdict(number: int, description: str, checks) -> None:
    try:
        checks()
    except AssertionError:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def _randomized_blocks():
    """Three-chain cases whose coupling ratios sweep [0, 20] uniformly: the
    first 100 cases of two seeds, 200 in all."""
    return [
        case
        for seed in (20260810, 20260811)
        for case in random_cases(random.Random(seed))[:100]
    ]


def test_criterion_01_oracle_equivalence():
    def checks():
        worst = 0.0
        for block, state, time in _randomized_blocks():
            assert abs(block.chi) <= 20.0 + 1e-9
            left = propagate_analytic(block, state, time)
            right = propagate_oracle(block, state, time)
            worst = max(worst, float(np.max(np.abs(left.amplitudes - right.amplitudes))))
        assert worst <= 1e-10, f"max amplitude deviation {worst:.3e}"

    _verdict(1, "closed-form vs eigendecomposition propagation <= 1e-10", checks)


def test_criterion_02_unitarity_and_recurrence():
    def checks():
        for block, state, time in _randomized_blocks():
            evolved = propagate_analytic(block, state, time)
            assert abs(evolved.norm - 1.0) <= 1e-12
            period = 2 * math.pi / block.angular_frequency
            top = VibronicState.basis_state(3, 0)
            for t in (0.0, period):
                back = propagate_analytic(block, top, t)
                assert abs(abs(np.vdot(top.amplitudes, back.amplitudes)) ** 2 - 1.0) <= 1e-12

    _verdict(2, "norm 1 within 1e-12; survival returns to 1 at the period", checks)


def test_criterion_03_survival_minimum():
    def checks():
        for chi in np.logspace(-2, 2, 41):
            closed = min_survival(chi)
            grid = min_survival_grid(chi)
            assert abs(closed - grid) <= 1e-6, f"chi={chi}: {abs(closed - grid):.2e}"
        assert min_survival(1.0) == 0.0
        assert abs(min_survival(10.0) - (99 / 101) ** 2) <= 1e-12

    _verdict(3, "survival floor matches 1e5-sample grid within 1e-6", checks)


def test_criterion_04_first_minimum_time():
    def checks():
        for chi in (0.0, 0.3, 0.5, 1 / math.sqrt(2), 0.9, 0.99, 1.0, 1.01, 1.5, 2.0, 3.0, 10.0):
            gap = abs(time_of_min(chi) - time_of_min_grid(chi))
            assert gap <= 1e-7, f"chi={chi}: off by {gap:.2e}"
        grid = np.round(np.arange(301) * 0.01, 12).tolist()
        peak = max(grid, key=time_of_min)
        assert abs(peak - 1.0) <= 0.01

    _verdict(4, "first-minimum time matches bracketed argmin; peak at chi = 1", checks)


def test_criterion_05_survival_mean():
    def checks():
        specials = [0.0, 1 / math.sqrt(2), 1.0]
        for chi in np.concatenate([np.logspace(-2, 2, 21), specials]):
            gap = abs(mean_survival(chi) - mean_survival_quadrature(chi))
            assert gap <= 1e-14, f"chi={chi}: {gap:.2e}"
        grid = np.round(np.arange(20_001) * 1e-4, 12).tolist()
        means = [mean_survival(chi) for chi in grid]
        argmin = grid[means.index(min(means))]
        assert abs(argmin - 0.7071) <= 0.001
        assert abs(min(means) - 1 / 3) <= 1e-6
        rng = np.random.default_rng(1)
        for chi in rng.uniform(0.0, 50.0, 1000):
            assert abs(sum(mean_level_probabilities(chi)) - 1.0) <= 1e-12

    _verdict(5, "survival mean: quadrature, 1/3 minimum at 0.7071, unit sum", checks)


def test_criterion_06_hindering_interval():
    def checks():
        assert gqze_interval(0.0) is None
        for chi in (2.0, 5.0, 10.0):
            interval = gqze_interval(chi, order_threshold=0.5)
            assert interval is not None and interval.present
            assert interval.period_ratio >= 0.5
            w = math.sqrt(1.0 + chi * chi)
            times = np.linspace(0.0, interval.end, 20_001)[1:-1]
            hindered = survival_probability(chi, w, times)
            reference = survival_probability(0.0, 1.0, times)
            assert np.all(hindered > reference), f"chi={chi}: curve dips below reference"

    _verdict(6, "hindering interval of order T_p for chi in {2, 5, 10}", checks)


def test_criterion_07_sub_threshold_measure():
    def checks():
        ratios = []
        for chi in (2.0, 4.0, 8.0, 16.0):
            value = sub_threshold_measure(chi, 0.01)
            ratios.append(value / poincare_time(chi))
            if mean_survival(chi) - 0.01 < min_survival(chi):
                assert value == 0.0
        assert all(a >= b for a, b in zip(ratios, ratios[1:])), ratios
        assert sub_threshold_measure(10.0, 0.05) == 0.0
        for chi in (0.3, 0.7, 1.0, 2.0):
            closed = sub_threshold_measure(chi, 0.01)
            twin = sub_threshold_measure_grid(chi, 0.01)
            assert abs(closed - twin) <= 1e-8 * poincare_time(chi)

    _verdict(7, "sub-threshold time: decay, exact zeros, bisection agreement", checks)


def test_criterion_08_lamb_dicke_truncation():
    def checks():
        for eta in (0.02, 0.05, 0.1):
            for occupation in range(6):
                leading = sideband_series_term(eta, 0, occupation)
                correction = sideband_series_term(eta, 1, occupation)
                assert correction <= 0.05 * leading
                assert leading == pytest.approx(
                    series_term_oracle(eta, 0, occupation), rel=1e-12
                )
                assert correction == pytest.approx(
                    series_term_oracle(eta, 1, occupation), rel=1e-12
                )

    _verdict(8, "first-order truncation error <= 5% for eta <= 0.1, n <= 5", checks)


def test_criterion_09_block_classification():
    def checks():
        occupations = range(5)
        quanta = range(3)
        two_level = []
        for n in itertools.product(occupations, repeat=3):
            mode = ModeVector.of(n)
            for r in itertools.product(quanta, repeat=3):
                first = all(nv >= rv for nv, rv in zip(n, r))
                for l in itertools.product(quanta, repeat=3):
                    chain = classify_block(mode, SidebandPattern(r, l))
                    second = first and all(
                        nv - rv >= lv for nv, rv, lv in zip(n, r, l)
                    )
                    expected = 3 if second else (2 if first else 1)
                    assert len(chain) == expected, (n, r, l)
                    if expected == 2:
                        two_level.append((mode, SidebandPattern(r, l)))
        couplings = CouplingConstants(0.8 - 0.6j, 1.3)
        times = (-2.0, -0.4, 0.3, 1.7, 5.0)
        for mode, pattern in two_level[:: max(1, len(two_level) // 400)]:
            block = build_block(mode, pattern, couplings)
            rabi = abs(block.coupling_12)
            top = VibronicState.basis_state(2, 0)
            for t in times:
                p1 = level_probabilities(propagate_analytic(block, top, t))[0]
                assert abs(p1 - math.cos(rabi * t) ** 2) <= 1e-12

    _verdict(9, "exhaustive chain truncation; two-level blocks are pure Rabi", checks)


def test_criterion_10_figure_determinism(tmp_path):
    def checks():
        first = load_config(None, {"mode": "figures", "out": str(tmp_path / "a")})
        second = load_config(None, {"mode": "figures", "out": str(tmp_path / "b")})
        for one, two in zip(run_figures(first), run_figures(second)):
            assert one.read_bytes() == two.read_bytes(), one.name

    _verdict(10, "figure CSVs byte-identical across reruns", checks)
