"""Numeric twins of the closed-form hindering indicators, for cross-checking.

Each twin samples, bisects or integrates the survival probability, or
propagates the block by eigendecomposition; ``run_validate`` and the tests
compare it with its closed form in ``indicators``. The twins use numpy by
design and stay out of the package API. Of the private names of
``indicators`` they share three on purpose, and the test suite fails on any
other: the dense gqze twin's ``validate`` row has tolerance 0, so it runs
the windowed search's grid layout, bisection and tolerance
(``_gqze_search``, ``_bisect_gap``, ``_CROSSING_TOL``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dynamics import (
    _check_epsilon, _spectral_propagator, _state, build_block, level_probabilities,
    survival_probability,
)
from .fock import CouplingConstants, ModeVector, SidebandPattern
from .indicators import (
    _CROSSING_TOL, GqzeInterval, _bisect_gap, _gqze_search, angular_frequency, mean_survival,
    poincare_time,
)

__all__ = [
    "min_survival_grid", "time_of_min_grid", "mean_survival_quadrature",
    "sub_threshold_measure_grid", "gqze_interval_grid", "oracle_level_means",
]

# The most grid points the dense gqze twin may visit.
_MAX_SCAN_POINTS = 200_000_000

# Grid points per round, and rounds, of the bracketed argmin in
# ``time_of_min_grid``: each round shrinks the bracket by a factor of 511.5.
_ARGMIN_POINTS = 1024
_ARGMIN_ROUNDS = 3

# Grid points per chunk of the dense gqze scan: 64 KiB per float64
# temporary, below glibc's default 128 KiB mmap threshold, so the buffers are
# reused from the heap instead of being mapped and page-faulted in on every
# chunk.
_TWIN_CHUNK = 8192

# Trapezoid panels of the quadrature twins, ``mean_survival_quadrature`` and
# ``oracle_level_means``; both read it at call time.
_QUADRATURE_PANELS = 16

# Evenly spaced times per period of ``min_survival_grid``.
_MIN_GRID_SAMPLES = 100_000

# The block of ``oracle_level_means``: all three levels of the ground mode
# vector, carrier-driven.
_GROUND_MODE = ModeVector(0, 0, 0)
_CARRIER = SidebandPattern((0, 0, 0), (0, 0, 0))


def min_survival_grid(chi: float) -> float:
    """Grid minimum of the survival probability over one period, on
    _MIN_GRID_SAMPLES evenly spaced times from 0 (the period end excluded),
    read at call time.

    Each time i * (period / samples) is formed as ``np.linspace(0, period,
    samples, endpoint=False)`` forms it, and the whole grid is evaluated in
    one pass.

    The tests check ``min_survival`` against it, and the benchmark's layer
    tracer looks it up by name among its ``TWINS``, in ``indicators`` until
    it reads this module's ``__all__``; those two keep it.
    """
    samples = _MIN_GRID_SAMPLES
    times = np.arange(samples) * (poincare_time(chi) / samples)
    return float(survival_probability(chi, angular_frequency(chi), times).min())


def time_of_min_grid(chi: float) -> float:
    """First time the survival probability reaches its minimum, by a
    bracketed grid argmin over the first half period.

    The survival depends on time only through cos(wt), so it is symmetric
    about the half period and its first minimum lies in the first half,
    [0, T_p/2], where wt runs over [0, pi] and cos(wt) falls from 1 to -1.
    There the amplitude A = (chi^2 + cos(wt)) / (chi^2 + 1) falls too, and
    the survival A^2 is unimodal: it falls while A > 0 and rises once A < 0
    (A changes sign only for chi < 1; for chi >= 1 it falls all the way to
    T_p/2). So the two grid neighbours of a discrete argmin bracket the true
    minimum.

    Each of _ARGMIN_ROUNDS rounds lays out ``np.linspace`` of
    _ARGMIN_POINTS points over the current bracket, takes the first grid
    argmin, and shrinks the bracket to its two neighbours, clamped to
    [0, T_p/2]. The first bracket is [0, T_p/2]; the result is the argmin
    of the last round, 3,072 survival samples in all. The last round's
    grid step is 4 / 1023^3, about 4e-9, half periods. Where the minimum is
    flat (chi >= 1) the survival equals its floor to within rounding over a
    span of up to about 2e-8 (in units of 1/omega(0)), and the first grid
    point inside that span is returned.
    """
    w = angular_frequency(chi)
    low, high = 0.0, 0.5 * poincare_time(chi)
    last = _ARGMIN_POINTS - 1
    for _ in range(_ARGMIN_ROUNDS):
        times = np.linspace(low, high, _ARGMIN_POINTS)
        index = int(np.argmin(survival_probability(chi, w, times)))
        low, high = float(times[max(index - 1, 0)]), float(times[min(index + 1, last)])
    return float(times[index])


def mean_survival_quadrature(chi: float) -> float:
    """Trapezoidal period average of the survival probability, on
    _QUADRATURE_PANELS panels read at call time.

    The survival is a trigonometric polynomial in wt with harmonics 0, 1
    and 2 only, and an N-panel trapezoid over one period integrates harmonic
    k exactly unless N divides k. So the 16 panels, like any N >= 3, are
    exact up to rounding; N = 2 misses by 0.5 at chi = 0.
    """
    panels = _QUADRATURE_PANELS
    period = poincare_time(chi)
    w = angular_frequency(chi)
    times = np.linspace(0.0, period, panels + 1)
    probabilities = survival_probability(chi, w, times)
    weights = np.full(panels + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    return float(np.sum(weights * probabilities) / panels)


def sub_threshold_measure_grid(chi: float, epsilon: float) -> float:
    """Measure of the sub-threshold set {t in [0, T_p] : P(t) < mean -
    epsilon}, from the roots of P - threshold, each found by bisection.

    Nodes: 0, t*, T_p/2, T_p - t* and T_p, with t* = ``time_of_min_grid``.
    The survival depends on t only through cos(wt), and cos(wt) is monotone
    on [0, T_p/2] and on [T_p/2, T_p]; the survival is unimodal on each half
    (see ``time_of_min_grid``) with its minimum at t* and, by the symmetry
    t -> T_p - t, at T_p - t*. So P is monotone on each of the four pieces
    between consecutive nodes, and each piece holds at most one root of P -
    threshold, however narrow the sub-threshold set is. A piece whose ends
    are both below the threshold counts whole, and one whose ends are both
    at or above it counts nothing. Otherwise the piece's root is bisected
    with scalar ``survival_probability`` to its fixed point, where the
    midpoint of the bracket rounds onto one of its ends, and the part on the
    end below the threshold counts.

    The measure needs no grid, so a sub-threshold interval narrower than any
    grid cell, as when epsilon nears mean - floor, is not missed. t* may
    miss the minimum by up to about 2e-8, which matters only for a
    threshold within rounding of the floor.
    """
    epsilon = _check_epsilon(epsilon)
    period = poincare_time(chi)
    w = angular_frequency(chi)
    threshold = mean_survival(chi) - epsilon
    first = time_of_min_grid(chi)
    nodes = (0.0, first, 0.5 * period, period - first, period)
    below = (survival_probability(chi, w, np.array(nodes)) < threshold).tolist()
    total = 0.0
    for start, end, start_below, end_below in zip(nodes, nodes[1:], below, below[1:]):
        if start_below and end_below:
            total += end - start
        elif start_below:
            total += _threshold_crossing(chi, w, threshold, start, end) - start
        elif end_below:
            total += end - _threshold_crossing(chi, w, threshold, end, start)
    return total


def _threshold_crossing(
    chi: float, w: float, threshold: float, below: float, above: float
) -> float:
    """Bisect the crossing of ``threshold`` by the survival between
    ``below``, where it is below the threshold, and ``above``, where it is
    not, keeping each end on its side.

    Each halving either moves an end strictly inward, leaving fewer floats
    in the bracket, or rounds onto the end it would replace. The loop stops
    there, at the fixed point, so it always ends: for the brackets of
    ``sub_threshold_measure_grid``, within [0, 2 pi], typically after
    about 55 halvings.
    """
    while True:
        mid = 0.5 * (below + above)
        if survival_probability(chi, w, mid) < threshold:
            if mid == below:
                break
            below = mid
        else:
            if mid == above:
                break
            above = mid
    return 0.5 * (below + above)


def gqze_interval_grid(chi: float, order_threshold: float = 0.5) -> Optional[GqzeInterval]:
    """Dense-grid twin of ``gqze_interval``: samples the gap on every point of
    the same grid from index 1 to the end of the window (pi + h, padded by two
    points), brackets the first clearly negative point and bisects, or
    reports pi when no point is clearly negative. It does not rely on the
    lemma of ``gqze_interval``, and accepts the same chi range.

    The grid is evaluated in chunks of _TWIN_CHUNK points and the scan stops
    at the chunk holding the crossing, so its memory does not grow with chi.
    Its time still grows linearly in chi: the grid holds about 5,000 x chi
    points, and one of more than 2e8 points (chi above about 4e4) is a
    ``ValueError``.
    """
    return _gqze_search(_dense_scan, chi, order_threshold)


def _dense_scan(
    chi_value: float, w: float, step: float, first: int, last: int, half_angle: float
) -> float:
    """The crossing time found by the dense scan of ``gqze_interval_grid``.

    Every grid point from index 1 to ``last`` is evaluated, in order, in
    chunks of _TWIN_CHUNK points, up to the crossing; ``first`` and
    ``half_angle``, which shape the windowed scan, are not used. The
    bracket's left end is the last clearly positive point before the first
    clearly negative one (0 if there is none). With no clearly negative point
    up to ``last``, the result is pi. A ``last`` above 2e8 is a ``ValueError``.
    """
    if last > _MAX_SCAN_POINTS:
        raise ValueError(
            f"the dense gqze grid at chi = {chi_value:g} is too fine: the scan "
            f"would visit more than 2e8 grid points"
        )
    left = 0.0
    for lo in range(0, last, _TWIN_CHUNK):
        times = np.arange(lo + 1, min(lo + _TWIN_CHUNK, last) + 1) * step
        gap = survival_probability(chi_value, w, times) - survival_probability(0.0, 1.0, times)
        below = (gap < -_CROSSING_TOL).nonzero()[0]
        stop = int(below[0]) if below.size else gap.size
        positive = (gap[:stop] > _CROSSING_TOL).nonzero()[0]
        if positive.size:
            left = float(times[positive[-1]])
        if below.size:
            return _bisect_gap(chi_value, w, left, float(times[stop]))
    return math.pi


def oracle_level_means(chi: float) -> np.ndarray:
    """Trapezoidal period averages (P1, P2, P3) of the level populations,
    starting from level 1, of the block with c12 = 1 and c23 = chi,
    propagated by eigendecomposition, on _QUADRATURE_PANELS panels read
    at call time.

    The states at all panel edges are column 0 of the stacked spectral
    propagators, computed in one call; ``_state`` checks each one and
    ``level_probabilities`` reads it, as for every state. Like
    ``mean_survival_quadrature``, exact up to rounding for any panel count
    >= 3: each population has harmonics 0, 1 and 2 in wt only.
    """
    panels = _QUADRATURE_PANELS
    block = build_block(_GROUND_MODE, _CARRIER, CouplingConstants(1.0, chi))
    times = np.linspace(0.0, math.tau / block.angular_frequency, panels + 1)
    states = _spectral_propagator(block, times)[:, :, 0].tolist()
    populations = np.array([level_probabilities(_state(tuple(state))) for state in states])
    weights = np.full(panels + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    return weights @ populations / panels
