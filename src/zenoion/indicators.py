"""Closed-form hindering indicators of the three-level survival dynamics.

Every indicator is a function of the non-negative coupling ratio chi alone.
Frequencies are multiples of omega(0) and times multiples of 1/omega(0),
where omega(0), the magnitude of the 1-2 block coupling (hbar = 1), is the
angular frequency of the chi = 0 reference two-level problem.

Every closed form takes one scalar chi, runs as Python float arithmetic and
returns Python floats; an array or a list chi is a ``ValueError``. Public
entry points check each input once; private forms take checked floats. One
call per chi makes ``sweep`` rows and the figure columns from the same code.

Each closed form has a numeric twin for cross-checking in ``twins``, not
imported at load; the dense gqze twin shares three private names of this
module on purpose: ``_gqze_search``, ``_bisect_gap`` and ``_CROSSING_TOL``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _check_epsilon, _finite_chi, _scalar, _scalar_chi, survival_probability

# The package API; the numeric twins live in ``twins``, outside it.
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


def __getattr__(name):
    """The twins that the benchmark's layer tracer looks up here by name (its
    ``TWINS``), from ``twins`` (PEP 562), until the tracer reads
    ``twins.__all__``; imported on call, as ``twins`` imports this module."""
    if name in ("min_survival_grid", "time_of_min_grid", "mean_survival_quadrature",
                "sub_threshold_measure_grid"):
        from . import twins

        return getattr(twins, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    return _min_survival(*_scalar_chi(chi))


def _min_survival(chi: float, chi_sq: float) -> float:
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
    return _time_of_min(*_scalar_chi(chi))


def _time_of_min(chi: float, chi_sq: float) -> float:
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
    return _level_means(_scalar_chi(chi)[1])


def _level_means(chi_sq: float) -> tuple[float, float, float]:
    scale = 1.0 + chi_sq
    middle = 0.5 / scale
    if chi_sq <= _LARGEST_SQUARABLE:
        return (chi_sq * chi_sq + 0.5) / (scale * scale), middle, 1.5 * chi_sq / (scale * scale)
    # chi^4 overflows from chi ~ 1.2e77: there divide by 1 + chi^2 before
    # squaring.
    share = chi_sq / scale
    inverse = 1.0 / scale
    return share * share + 0.5 * inverse * inverse, middle, 1.5 * share * inverse


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
    _, chi_sq = _scalar_chi(chi)
    return _measure_below(chi_sq, _level_means(chi_sq)[0] - epsilon)


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

    Ends: where the gap cannot be told from rounding at the 1e-13 tolerance,
    t_chi comes from its asymptotic law, exact to rounding there, and no grid
    is laid out, so every finite chi has a t_chi. At chi^2 <= 1e-13 (chi
    below 3.2e-7), t_chi = pi/2 + (1/2 - pi/8) chi^2, with a next term (pi/8
    - 3/8) chi^4 below 2e-28. At chi > 1 with 1 - m = (2 / (chi + 1/chi))^2
    <= 1e-13 (chi above 6.3e6), t_chi = pi - X / chi of ``_large_chi_end``
    to about 0.6 / chi^3, with X bisected only until t_chi stops moving.

    chi must be a scalar: an array or a list, even of one element, is a
    ``ValueError`` ("chi must be a scalar, got an array of shape (2,)").
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
    Each chunk's gap is that of ``twins._dense_scan``, hindered minus reference
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
    where a crossing can occur. For chi > 1, sqrt(m) = (chi^2 - 1) / (chi^2
    + 1) is the cosine of 2 atan(1 / chi), a form that loses no precision."""
    return 0.5 * math.pi if chi <= 1.0 else 2.0 * math.atan(1.0 / chi)


def _large_chi_end(chi: float, w: float) -> float:
    """The large-chi law t_chi = pi - X / chi of ``gqze_interval``, with w =
    hypot(1, chi). With x = chi (pi - t) and phi = (pi/2)(w mod 2), the gap
    near pi is (x^2 - 4 sin^2(phi - x/2)) / chi^2 to leading order, so it
    first turns negative at the root X in [0, 2] of x = 2 |sin(phi - x/2)|:
    X = 0, a touch at pi, where w is even. x - 2 |sin(phi - x/2)| never
    falls, so X is bisected until pi - x / chi, which never rises with x, is
    the same at both ends: the value at X's fixed point, which every bracket
    holds. w mod 2 is fmod(chi, 2) + 1 / (chi + w), as chi^2 may overflow;
    the sum may reach 2, which |sin| does not see.
    """
    phi = 0.5 * math.pi * (math.fmod(chi, 2.0) + 1.0 / (chi + w))
    low, high = 0.0, 2.0
    while True:
        end = math.pi - low / chi
        if end == math.pi - high / chi:
            return end
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return math.pi - mid / chi
        if mid < 2.0 * abs(math.sin(phi - 0.5 * mid)):
            low = mid
        else:
            high = mid


def _bisect_gap(chi: float, w: float, left: float, right: float) -> float:
    """Bisect the gap's sign change in [left, right], keeping ``left`` where
    the gap is > 0 and ``right`` where it is not.

    Each halving either moves an end strictly inward, leaving fewer floats
    in the bracket, or rounds onto the end it would replace. The loop stops
    there, at the fixed point, so it always ends, as ``twins._threshold_crossing``
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

    chi is checked first, once: one whose square overflows is a ``ValueError``
    before any search runs, and so is an array or list chi. So is an
    ``epsilon`` that is not a scalar, finite and > 0, None included; the
    report stores it as a float.
    """
    chi_value, chi_sq = _scalar_chi(chi)
    gqze = gqze_interval(chi_value, order_threshold)
    epsilon = _check_epsilon(epsilon)
    w = math.sqrt(1.0 + chi_sq)
    mean, level2, level3 = _level_means(chi_sq)
    return IndicatorReport(
        chi=chi_value,
        angular_frequency=w,
        poincare_period=math.tau / w,
        survival_min=_min_survival(chi_value, chi_sq),
        time_of_min=_time_of_min(chi_value, chi_sq),
        survival_mean=mean,
        level2_mean=level2,
        level3_mean=level3,
        epsilon=epsilon,
        sub_threshold_time=_measure_below(chi_sq, mean - epsilon),
        gqze=gqze,
    )


def _gqze_search(scan, chi, order_threshold) -> Optional[GqzeInterval]:
    """Check the arguments of a gqze search and report the crossing time:
    from the end laws of ``gqze_interval`` outside the grid search's range,
    and otherwise as ``scan(chi, w, step, first, last, h)`` finds it.

    The grid is step, 2 step, ..., with _POINTS_PER_PERIOD points per
    hindered period, read at call time. The window scan runs over the grid
    indices first, ..., last: ``last`` is ceil((pi + h) / step) + 2, with h
    = ``_window_half_angle(chi)``, and ``first`` is floor((pi - h) / step) -
    2, at least 1. For chi up to about 1 that lies a few points at or before
    pi/2, where the lemma of ``gqze_interval`` leaves no gap clearly
    negative. The dense scan runs from index 1 to ``last``. None at chi = 0;
    ``ValueError`` for an ``order_threshold`` that is not a scalar in (0, 1]
    (None included), and for a chi that is not a scalar, not finite and >= 0
    (None included)."""
    threshold = _scalar(order_threshold, "order_threshold")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("order_threshold must lie in (0, 1]")
    chi_value = _finite_chi(chi)
    if chi_value == 0.0:
        return None
    chi_sq = chi_value * chi_value  # inf past about 1.3e154, and then unused
    if chi_sq <= _CROSSING_TOL:
        w = math.sqrt(1.0 + chi_sq)
        end = 0.5 * math.pi + (0.5 - 0.125 * math.pi) * chi_sq
    elif chi_value > 1.0 and (2.0 / (chi_value + 1.0 / chi_value)) ** 2 <= _CROSSING_TOL:
        w = math.hypot(1.0, chi_value)
        end = _large_chi_end(chi_value, w)
    else:
        half_angle = _window_half_angle(chi_value)
        w = math.sqrt(1.0 + chi_sq)
        step = math.tau / w / _POINTS_PER_PERIOD
        spacing, reach = math.pi / step, half_angle / step
        first, last = max(math.floor(spacing - reach) - 2, 1), math.ceil(spacing + reach) + 2
        end = scan(chi_value, w, step, first, last, half_angle)
    hindered_period = math.tau / w  # never longer than the reference period 2 pi
    ratio = end / hindered_period
    return GqzeInterval(end, ratio, ratio >= threshold)
