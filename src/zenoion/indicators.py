"""Closed-form hindering indicators of the three-level survival dynamics.

Every indicator is a function of the non-negative coupling ratio chi alone.
Frequencies are multiples of omega(0) and times multiples of 1/omega(0),
where omega(0), the magnitude of the 1-2 block coupling (hbar = 1), is the
angular frequency of the chi = 0 reference two-level problem.

Every closed form takes one scalar chi, runs as Python float arithmetic and
returns Python floats; an array or a list chi is a ``ValueError``. A grid
of chi takes one call per point, so ``sweep`` rows and the figure columns
come from the same code.

Each closed form has a grid, bisection or quadrature twin used for
cross-checking; the twins sample the survival probability directly and
share no algebra with the closed forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _finite_chi, _scalar, _scalar_chi, survival_probability

# The package API; the numeric twins stay out and are imported by name.
__all__ = [
    "GqzeInterval",
    "IndicatorReport",
    "poincare_time",
    "min_survival",
    "time_of_min",
    "mean_survival",
    "mean_level_probabilities",
    "sub_threshold_measure",
    "gqze_interval",
    "indicator_report",
]

# Rounding can push the tiny small-t gap of the gqze search a few ulp
# negative; only a gap beyond this bound counts as clearly signed.
_CROSSING_TOL = 1e-13

# The largest float x whose square x * x is finite.
_LARGEST_SQUARABLE = math.sqrt(sys.float_info.max)

# Scalar gaps the certified-skip scan of a gqze window evaluates before it
# hands the rest of the window to the chunked search. Near a touch the
# certified skip shrinks to one grid point, and this bounds the cost there.
_MAX_SKIP_EVALUATIONS = 64

# What a certified skip subtracts from _CROSSING_TOL to cover the rounding
# of two computed gaps and of the slope bound (see ``gqze_interval``).
_SKIP_MARGIN = 1e-14

# Grid points per hindered period of both gqze searches. Every window then
# holds 5,006 to 7,077 points with a step of at most 2 pi / 10,000, as the
# skip scan's rounding bound needs (see ``gqze_interval``).
_POINTS_PER_PERIOD = 10_000

# Grid points in the first chunk of the chunked gqze search; every further
# chunk is twice as long, so the search stops soon after its hit. Chunks of
# 1024, 2048 and 4096 points cover any window.
_FIRST_CHUNK = 1024

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
# ``runner._oracle_level_means``; both read it at call time.
_QUADRATURE_PANELS = 16

# Evenly spaced times per period of ``min_survival_grid``.
_MIN_GRID_SAMPLES = 100_000


def angular_frequency(chi):
    """Block angular frequency sqrt(1 + chi^2)."""
    _, chi_sq = _scalar_chi(chi)
    return math.sqrt(1.0 + chi_sq)


def poincare_time(chi):
    """Recurrence period 2 pi / sqrt(1 + chi^2).

    One full Rabi cycle of the block; the survival probability returns to 1
    exactly here.
    """
    return math.tau / angular_frequency(chi)


def min_survival(chi):
    """Absolute minimum of the survival probability over one period.

    Zero while chi <= 1 (the survival still touches zero); for chi > 1 the
    floor rises as ((chi^2 - 1) / (chi^2 + 1))^2 and tends to 1, which is
    the sharpest signature of the hindered evolution.

    Next to chi = 1, where chi^2 - 1 < 2^-7, chi^2 - 1 is formed as
    (chi - 1) (chi + 1): chi^2 has lost the low bits that the difference
    would keep, and chi - 1 is exact there.
    """
    chi, chi_sq = _scalar_chi(chi)
    if chi_sq <= 1.0:
        return 0.0
    gap = chi_sq - 1.0
    if gap < 2.0**-7:
        gap = (chi - 1.0) * (chi + 1.0)
    root = gap / (chi_sq + 1.0)
    return root * root


def time_of_min(chi):
    """First time the survival probability reaches its absolute minimum.

    arccos(-chi^2) / w for chi <= 1 (where the survival first touches zero)
    and pi / w for chi > 1 (the bottom of the cosine), w = sqrt(1 + chi^2).
    Continuous at chi = 1, where it is also maximal.

    The arccos is libm's ``math.acos``: numpy picks its ``arccos`` kernel by
    CPU, and with AVX-512 it differs from libm in the last bit on some
    inputs, so t_m would depend on the host. Next to chi = 1, where
    1 - chi^2 < 2^-7, arccos(-chi^2) is ill-conditioned and the rounded
    chi^2 has lost the bits of 1 - chi^2; the phase is formed there as
    pi - 2 arcsin(sqrt((1 - chi) (1 + chi) / 2)), in which 1 - chi is exact.
    """
    chi, chi_sq = _scalar_chi(chi)
    if chi_sq > 1.0:
        phase = math.pi
    elif 1.0 - chi_sq < 2.0**-7:
        phase = math.pi - 2.0 * math.asin(math.sqrt((1.0 - chi) * (1.0 + chi) / 2.0))
    else:
        phase = math.acos(-chi_sq)
    return phase / math.sqrt(1.0 + chi_sq)


def mean_survival(chi):
    """Period-averaged survival probability, P1 of
    ``mean_level_probabilities``.

    Minimal, with value 1/3, at chi = 1/sqrt(2); tends to 1 as chi grows.
    """
    return mean_level_probabilities(chi)[0]


def mean_level_probabilities(chi):
    """Period-averaged populations of the three levels, starting from |n, 1>.

    (P1, P2, P3) = ((chi^4 + 1/2) / (1 + chi^2)^2,
                    1 / (2 (1 + chi^2)),
                    (3/2) chi^2 / (1 + chi^2)^2),
    which sum to 1 identically. The middle and bottom forms follow from
    period-averaging the squared evolution amplitudes; the test suite pins
    them against direct quadrature.
    """
    _, chi_sq = _scalar_chi(chi)
    scale = 1.0 + chi_sq
    middle = 0.5 / scale
    if chi_sq <= _LARGEST_SQUARABLE:
        return (chi_sq * chi_sq + 0.5) / (scale * scale), middle, 1.5 * chi_sq / (scale * scale)
    # chi^4 overflows from chi ~ 1.2e77: there divide by 1 + chi^2 before
    # squaring.
    share = chi_sq / scale
    inverse = 1.0 / scale
    return share * share + 0.5 * inverse * inverse, middle, 1.5 * share * inverse


def _check_epsilon(epsilon) -> float:
    """``epsilon`` as a float: a ``_scalar``, and a ``ValueError`` unless it
    is finite and > 0, None included."""
    epsilon = _scalar(epsilon, "epsilon")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and > 0")
    return epsilon


def sub_threshold_measure(chi: float, epsilon: float) -> float:
    """Total time per period spent below mean survival minus ``epsilon``.

    Lebesgue measure of {t in [0, T_p] : P(t) < mean - epsilon}, computed by
    inverting the survival formula through arccos. Writing tau for the
    threshold, P(t) < tau exactly when cos(wt) lies strictly between
    -sqrt(tau) (1 + chi^2) - chi^2 and +sqrt(tau) (1 + chi^2) - chi^2; both
    roots matter when chi < 1 (the pre-squared amplitude changes sign there)
    and each bound is clipped to the cosine range before the angular measure
    2 (arccos(low) - arccos(high)) is taken. Returns 0 once the threshold
    falls to or below the survival floor.

    Raises ``ValueError`` unless ``epsilon`` is finite and > 0, unless chi
    is finite and >= 0 with a finite chi^2, and for an array or list chi or
    epsilon: both must be scalars.
    """
    epsilon = _check_epsilon(epsilon)
    chi, chi_sq = _scalar_chi(chi)
    return _measure_below(chi_sq, mean_survival(chi) - epsilon)


def _measure_below(chi_sq: float, threshold: float) -> float:
    """The measure of ``sub_threshold_measure`` from chi^2 and the threshold
    mean - epsilon, so that ``indicator_report`` reuses its mean."""
    if threshold <= 0.0:
        return 0.0
    root = math.sqrt(threshold)
    cos_high = min(1.0, max(-1.0, root * (1.0 + chi_sq) - chi_sq))
    cos_low = min(1.0, max(-1.0, -root * (1.0 + chi_sq) - chi_sq))
    angle = math.acos(cos_low) - math.acos(cos_high)
    return 2.0 * angle / math.sqrt(1.0 + chi_sq)


@dataclass(frozen=True)
class GqzeInterval:
    """First interval [0, end] on which the hindered survival stays above
    the uncoupled reference, with its length in units of the hindered
    period."""

    end: float
    period_ratio: float
    present: bool


def gqze_interval(chi: float, order_threshold: float = 0.5) -> Optional[GqzeInterval]:
    """Locate the first time the hindered survival falls back to the
    chi = 0 reference curve.

    Both curves start at 1 with the same quadratic decay, and for chi > 0
    the quartic term keeps the hindered curve strictly above the reference
    near t = 0. The hindering counts as present when the crossing lies at
    least ``order_threshold`` hindered periods out; chi = 0 reproduces the
    reference exactly and yields no interval.

    Crossing in (pi/2, pi]: the lemma below leaves no crossing in [0, pi/2],
    and at t = pi the reference is cos^2(pi) = 1, while the hindered survival
    ((chi^2 + cos(w pi)) / (chi^2 + 1))^2 is at most 1, and equals 1 only
    when w = sqrt(1 + chi^2) is an even integer. So the gap is <= 0 at pi,
    and the first crossing lies in (pi/2, pi] for every chi. An even w is a
    touch, not a crossing: at w = 2 (chi = sqrt(3)) the gap is
    (sin^2(t) / 2)^2 >= 0. With w > 2 for chi > sqrt(3), t_chi / T_p =
    t_chi w / (2 pi) > w / 4 > 1/2, so the hindering is present at the
    default threshold for every chi > sqrt(3).

    Window: the reference is cos^2(t), and the hindered curve never drops
    below its floor m(chi), so a crossing needs cos^2(t) > m, which confines
    it to windows of half-width h = arccos(sqrt(m)) around k pi. The search
    samples the grid of ``gqze_interval_grid`` (10,000 points per hindered
    period, _POINTS_PER_PERIOD) only in window k = 1, out to pi + h and
    padded by two points a side. The crossing can fall between the last
    grid point at or below pi and the next one (chi = 9.95), so the scan
    runs past pi. For chi <= 1, m = 0 and the window spans pi/2 to 3 pi/2;
    for large chi it holds about 0.64 hindered periods. Every window holds
    5,006 to 7,077 points, so the cost does not grow with chi.

    Lemma: the gap is never negative for t in [0, pi/2], whatever chi. With
    w = sqrt(1 + chi^2) >= 1 and x = t/2 in [0, pi/4], |sin(wx)| <= w sin x:
    if wx <= pi, d/dx (w sin x - sin wx) = w (cos x - cos wx) >= 0 (cosine
    decreases on [0, pi] and x <= wx), and both sides vanish at x = 0; if
    wx > pi/2, Jordan's inequality sin x >= 2x/pi gives w sin x >= 2wx/pi
    >= 1. Squaring, 1 - cos(wt) = 2 sin^2(wt/2) <= 2 w^2 sin^2(t/2) =
    w^2 (1 - cos t), i.e. chi^2 + cos(wt) >= (1 + chi^2) cos t >= 0, so the
    hindered survival is at least cos^2(t). The first clearly negative point
    therefore lies past pi/2.

    Scan: the scan looks for the first grid point whose gap is clearly
    negative (below tol = 1e-13; rounding alone makes the tiny small-t gap a
    few ulp negative). It starts at the window start, which for chi up to
    about 1 lies a few points at or before pi/2 (none of them clearly
    negative, by the lemma). At grid index k, time t = k step, it forms the
    gap g on Python floats with the arithmetic of ``_bisect_gap``. Unless g
    is clearly negative it goes on to index max(k + 1, floor((t + s) /
    step)), with s = (g + tol - margin) / L; every index it passes over is
    certified not clearly negative, as shown below. After 64 gaps
    (_MAX_SKIP_EVALUATIONS) it hands the rest of the window, from the next
    index, to the chunked search.

    Skip bound: write H = (chi^2 + cos wt) / (chi^2 + 1), so the gap is G =
    H^2 - cos^2 t. Then |H| <= 1, |H'| = w |sin wt| / (1 + chi^2) <= 1 / w
    and |sin 2t| <= 2 |sin t|, so |G'| <= 2 / w + 2 |sin t|. Every window
    point lies within h + 3 steps of pi, so between two of them |G'| <= L =
    2 / w + 2 sin(min(h + 3 step, pi/2)). If each computed gap is within e
    of G at its time, a grid point j past k with t_j - t_k <= s has computed
    gap >= G(t_j) - e >= G(t_k) - L s - e >= g - 2e - (g + tol - margin) =
    -tol + margin - 2e, which is not clearly negative once margin >= 2e.

    Rounding: with u = 2^-53, w t is rounded by at most u w t, each cosine
    by u and every other operation by u of its result, so a computed gap
    lies within e = (2t + 11) u of G. The step is at most 2 pi / 10,000
    (w >= 1), so every window time is below 3 pi/2 + 0.002, t < 4.72, and
    e < 2.4e-15. The rounding of L, of w^2 against 1 + chi^2 and of the
    window ends loosens the bound by a few ulp, under 1e-15 over a skip
    since L s <= 1 + tol. So margin = 1e-14 (_SKIP_MARGIN) covers two gaps.
    The grid indices stay below 5e10 (at most about 0.75 w 10,000, with w
    below 6.4e6), so the roundings of t + s, of its quotient by step and of
    the grid times move an index by less than one: the index the scan lands
    on may lie just past the certified span, but it is evaluated, not
    passed over. So the scan finds the first clearly negative grid point of
    the dense scan. Near a touch the gap decays like (pi - t)^4 and the
    certified step shrinks to one point; the 64-gap budget bounds the cost
    there.

    Chunks: the chunked search (``_chunked_search``), the search's one numpy
    path, runs forward in chunks of 1024, 2048 and 4096 grid points, which
    cover any window, and stops at the first chunk holding a clearly
    negative gap; the points past that chunk are never computed. It forms
    the gap as the dense scan does, from two ``survival_probability`` calls.

    Bracket: the crossing is bracketed by the first clearly negative point
    and the last clearly positive grid point before it, refined by bisection
    on Python floats (``_bisect_gap``). The left end (``_bracket_left``) is
    found by walking back from the point before the crossing, down to index
    1 at most, on Python floats with the gap arithmetic of ``_bisect_gap``;
    it is 0 if no point is clearly positive. So the bracket is that of
    ``gqze_interval_grid`` at every chi, and no numpy kernel picks its left
    end. On the sweep grid of 0.05 steps to chi = 20 the left end is the
    point just before the crossing at every chi. The walk is longest where
    the gap stays within the tolerance far back from the crossing: at chi
    below about 2e-6, where no gap before pi/2 clears the tolerance and it
    reaches index 1, and at some chi above about 8e4. The longest walks
    found form about 3,600 gaps: 3,563 at chi = 3.3e-7, where the left end
    is 0, and 3,598 at chi = 5373932.526323148. The bisection stops at its
    fixed point, where a halving no longer moves the bracket.

    Touch: if no point of the window is clearly negative, the gap never
    clearly changes sign before pi, where it is <= 0: the curves touch, or
    cross within the tolerance, and the crossing is reported at pi exactly.

    Range: chi = 0, or chi^2 > 1e-13 (chi above about 3.2e-7) with a floor
    clear of 1, i.e. 1 - m(chi) > 1e-13 (chi below about 6.3e6). Outside
    that range the gap cannot be told from rounding at the 1e-13 tolerance
    and ``ValueError`` is raised; the upper bound is checked before chi^2 is
    formed, so no overflow occurs for any finite chi.

    chi must be a scalar: an array or a list, even of one element, is a
    ``ValueError`` ("chi must be a scalar, got an array of shape (2,)"),
    raised before the range checks.
    """
    return _gqze_search(_window_scan, chi, order_threshold)


def _window_scan(
    chi_value: float, w: float, step: float, first: int, last: int, half_angle: float
) -> float:
    """The crossing time found by the certified-skip scan of the grid indices
    first, ..., last in ``gqze_interval``, whose window has half-width
    ``half_angle`` about pi. After _MAX_SKIP_EVALUATIONS gaps the rest of the
    window goes to ``_chunked_search``; the bracket's left end comes from
    ``_bracket_left``."""
    index, crossing = first, None
    chi_sq = chi_value * chi_value
    scale = chi_sq + 1.0
    # L, the bound on |G'| between window points, of the ``gqze_interval`` proof.
    angle = min(half_angle + 3.0 * step, 0.5 * math.pi)
    slope = 2.0 / w + 2.0 * math.sin(angle)
    reach = _CROSSING_TOL - _SKIP_MARGIN
    cos = math.cos
    for _ in range(_MAX_SKIP_EVALUATIONS):
        if index > last:
            break
        t = index * step
        hindered = (chi_sq + cos(w * t)) / scale
        reference = cos(t)
        gap = hindered * hindered - reference * reference
        if gap < -_CROSSING_TOL:
            crossing = index
            break
        index = max(index + 1, math.floor((t + (gap + reach) / slope) / step))
    if crossing is None:
        crossing = _chunked_search(chi_value, w, step, index, last)
        if crossing is None:
            return math.pi
    left = _bracket_left(chi_value, w, step, crossing)
    return _bisect_gap(chi_value, w, left * step, crossing * step)


def _bracket_left(chi_value: float, w: float, step: float, crossing: int) -> int:
    """The last grid index before ``crossing`` whose gap is clearly positive,
    or 0 if there is none: the left end of the gqze bracket.

    It walks back from ``crossing`` - 1 to index 1 on Python floats, one gap
    at a time, with the arithmetic of ``_bisect_gap``, so no numpy call and
    no CPU-specific kernel picks the left end; the Bracket paragraph of
    ``gqze_interval`` bounds the walk.
    """
    chi_sq = chi_value * chi_value
    scale = chi_sq + 1.0
    cos = math.cos
    for index in range(crossing - 1, 0, -1):
        t = index * step
        hindered = (chi_sq + cos(w * t)) / scale
        reference = cos(t)
        if hindered * hindered - reference * reference > _CROSSING_TOL:
            return index
    return 0


def _chunked_search(
    chi_value: float, w: float, step: float, start: int, stop: int
) -> Optional[int]:
    """The first grid index from ``start`` to ``stop``, both included, whose
    gap is clearly negative; None if there is none.

    It is the gqze window scan's fallback once the certified skips have spent
    their budget, and the one numpy search of ``gqze_interval``. The indices
    run forward in chunks of _FIRST_CHUNK points, each chunk twice as long as
    the one before, up to the chunk that holds the hit; no point past it is
    computed. A window of at most 7,168 points takes three chunks at most.
    Each chunk's gap is that of ``_dense_scan``, hindered minus reference
    ``survival_probability``.
    """
    size = _FIRST_CHUNK
    while start <= stop:
        high = min(stop, start + size - 1)
        times = np.arange(start, high + 1) * step
        gap = survival_probability(chi_value, w, times) - survival_probability(0.0, 1.0, times)
        hits = (gap < -_CROSSING_TOL).nonzero()[0]
        if hits.size:
            return start + int(hits[0])
        start, size = high + 1, 2 * size
    return None


def _window_half_angle(chi: float) -> float:
    """arccos(sqrt(m(chi))), the reference phase half-width of the windows
    where a crossing can occur; raises ``ValueError`` once 1 - m(chi) is
    within _CROSSING_TOL of 0.

    For chi > 1, sqrt(m) = (chi^2 - 1) / (chi^2 + 1) is the cosine of
    2 atan(1 / chi), whose sine gives 1 - m = (2 / (chi + 1/chi))^2; both
    forms avoid chi^2, so they neither lose precision nor overflow.
    """
    if chi <= 1.0:
        return 0.5 * math.pi
    if (2.0 / (chi + 1.0 / chi)) ** 2 <= _CROSSING_TOL:
        raise ValueError(
            f"chi = {chi:g} is too large: the survival floor lies within "
            f"{_CROSSING_TOL:g} of 1, so the hindering-interval crossing cannot "
            f"be resolved in float64 (chi must stay below about "
            f"{2.0 / math.sqrt(_CROSSING_TOL):.2g})"
        )
    return 2.0 * math.atan(1.0 / chi)


def _check_chi_floor(chi: float) -> None:
    """Raise ``ValueError`` for a chi > 0 too small for the crossing to be
    resolved.

    To first order in chi^2 the gap is 2 chi^2 cos(t)(1 - cos(t) -
    (t/2) sin(t)) in reference phase t, so it scales as chi^2: its first
    positive lobe peaks near 0.06 chi^2 and its first negative lobe near
    -4 chi^2. Once chi^2 <= _CROSSING_TOL the first crossing is no longer
    clearly signed, and later lobes, which grow with t, would report a
    crossing far beyond it. The counterpart of the 1 - m(chi) bound in
    ``_window_half_angle``.
    """
    if chi * chi <= _CROSSING_TOL:
        raise ValueError(
            f"chi = {chi:g} is too small: chi^2 <= {_CROSSING_TOL:g}, so the "
            f"hindered and reference survival curves stay within rounding of "
            f"each other and the hindering-interval crossing cannot be resolved "
            f"in float64 (chi must be 0 or above about {math.sqrt(_CROSSING_TOL):.2g})"
        )


def _bisect_gap(chi: float, w: float, left: float, right: float) -> float:
    """Bisect the gap's sign change in [left, right], keeping ``left`` where
    the gap is > 0 and ``right`` where it is not.

    Each halving either moves an end strictly inward, leaving fewer floats
    in the bracket, or rounds onto the end it would replace. The loop stops
    there, at the fixed point, so it always ends, as ``_threshold_crossing``
    does: for the brackets of the gqze searches within 55 halvings.

    The gap is formed inline on Python floats, bit for bit
    ``survival_probability(chi, w, t) - survival_probability(0.0, 1.0, t)``:
    each term is the same float64 operations in the same order, squares
    included (x * x). ``math.cos`` matching numpy's array ``cos`` is checked
    by the test suite, not assumed.
    """
    chi_sq = chi * chi
    scale = chi_sq + 1.0
    cos = math.cos
    while True:
        mid = 0.5 * (left + right)
        hindered = (chi_sq + cos(w * mid)) / scale
        reference = cos(mid)
        if hindered * hindered - reference * reference > 0.0:
            if mid == left:
                break
            left = mid
        else:
            if mid == right:
                break
            right = mid
    return 0.5 * (left + right)


@dataclass(frozen=True)
class IndicatorReport:
    """Every hindering indicator for one coupling ratio, in the module's
    units: the frequency in omega(0), the times in 1/omega(0)."""

    chi: float
    angular_frequency: float
    poincare_period: float
    survival_min: float
    time_of_min: float
    survival_mean: float
    level2_mean: float
    level3_mean: float
    epsilon: float
    sub_threshold_time: float
    gqze: Optional[GqzeInterval]

    def __post_init__(self) -> None:
        total = self.survival_mean + self.level2_mean + self.level3_mean
        if abs(total - 1.0) > 1e-12:
            raise ValueError("mean level probabilities must sum to 1")
        if not 0.0 <= self.survival_min <= self.survival_mean <= 1.0:
            raise ValueError("survival floor must not exceed the survival mean")
        if not 0.0 <= self.sub_threshold_time <= self.poincare_period * (1.0 + 1e-12):
            raise ValueError("sub-threshold time must lie within one period")


def indicator_report(
    chi: float,
    epsilon: float,
    order_threshold: float = 0.5,
) -> IndicatorReport:
    """Assemble the full indicator set for one coupling ratio.

    The hindering interval is found first: it checks chi and rejects one
    beyond its resolvable range before any other indicator forms chi^2. An
    array or list chi is a ``ValueError``, as in ``gqze_interval``: chi must
    be a scalar. So is an ``epsilon`` that is not a scalar, finite and > 0,
    None included; the report stores it as a float.
    """
    gqze = gqze_interval(chi, order_threshold)
    epsilon = _check_epsilon(epsilon)
    chi_value = float(chi)
    mean, level2, level3 = mean_level_probabilities(chi_value)
    return IndicatorReport(
        chi=chi_value,
        angular_frequency=angular_frequency(chi_value),
        poincare_period=poincare_time(chi_value),
        survival_min=min_survival(chi_value),
        time_of_min=time_of_min(chi_value),
        survival_mean=mean,
        level2_mean=level2,
        level3_mean=level3,
        epsilon=epsilon,
        sub_threshold_time=_measure_below(chi_value * chi_value, mean - epsilon),
        gqze=gqze,
    )


# --- numeric twins -------------------------------------------------------
#
# The functions below sample the survival probability directly and act as
# independent cross-checks of the closed forms above. run_validate and the
# test suite compare the two routes; neither side may be dropped.


def min_survival_grid(chi: float) -> float:
    """Grid minimum of the survival probability over one period, on
    _MIN_GRID_SAMPLES evenly spaced times from 0 (the period end excluded),
    read at call time.

    Each time i * (period / samples) is formed as ``np.linspace(0, period,
    samples, endpoint=False)`` forms it, and the whole grid is evaluated in
    one pass.

    The tests check ``min_survival`` against it, and the benchmark's layer
    tracer looks it up by name among its ``TWINS``; those two keep it.
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


def _gqze_search(scan, chi, order_threshold) -> Optional[GqzeInterval]:
    """Check the arguments of a gqze search, lay out the grid both scans
    sample, and report the crossing time that ``scan(chi, w, step, first,
    last, h)`` finds.

    The grid is step, 2 step, ..., with _POINTS_PER_PERIOD points per
    hindered period, read at call time. The window scan runs over the grid
    indices first, ..., last: ``last`` is ceil((pi + h) / step) + 2, with h
    = ``_window_half_angle(chi)``, and ``first`` is floor((pi - h) / step) -
    2, at least 1. For chi up to about 1 that lies a few points at or before
    pi/2, where the lemma of ``gqze_interval`` leaves no gap clearly
    negative. The dense scan runs from index 1 to ``last``. None at chi = 0;
    ``ValueError`` for an ``order_threshold`` that is not a scalar in (0, 1]
    (None included), and for a chi that is not a scalar, not finite and >= 0
    (None included), or outside the resolvable range of ``gqze_interval``,
    raised before chi^2 is formed."""
    threshold = _scalar(order_threshold, "order_threshold")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("order_threshold must lie in (0, 1]")
    chi_value = _finite_chi(chi)
    # The upper range check runs before chi^2 is formed; every chi it lets
    # pass lies below about 6.3e6, whose square cannot overflow.
    half_angle = _window_half_angle(chi_value)
    if chi_value == 0.0:
        return None
    _check_chi_floor(chi_value)
    w = math.sqrt(1.0 + chi_value * chi_value)
    hindered_period = math.tau / w  # never longer than the reference period 2 pi
    step = hindered_period / _POINTS_PER_PERIOD
    spacing, reach = math.pi / step, half_angle / step
    first, last = max(math.floor(spacing - reach) - 2, 1), math.ceil(spacing + reach) + 2
    end = scan(chi_value, w, step, first, last, half_angle)
    ratio = end / hindered_period
    return GqzeInterval(end, ratio, ratio >= threshold)
