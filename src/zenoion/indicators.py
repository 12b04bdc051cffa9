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
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _check_scalar, _scalar_chi, survival_probability

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

# Grid points in the first chunk of the chunked gqze search, forward to the
# crossing and back to the bracket's left end; every further chunk is twice
# as long, up to _MAX_CHUNK, so the search stops soon after its hit and no
# chunk outgrows 512 KiB per float64 temporary. The left end mostly lies just
# before the crossing: _FIRST_SEED_CHUNK points back are walked on Python
# floats first, and only the grid further back is searched in chunks.
_FIRST_CHUNK = 1024
_FIRST_SEED_CHUNK = 16
_MAX_CHUNK = 1 << 16

# The most grid points one gqze scan may visit.
_MAX_SCAN_POINTS = 200_000_000

# Grid points per round, and rounds, of the bracketed argmin in
# ``time_of_min_grid``: each round shrinks the bracket by a factor of 511.5.
_ARGMIN_POINTS = 1024
_ARGMIN_ROUNDS = 3

# Grid points per chunk of the full-grid twins, ``min_survival_grid`` and
# the dense gqze scan: 64 KiB per float64 temporary, below glibc's default
# 128 KiB mmap threshold, so the buffers are reused from the heap instead of
# being mapped and page-faulted in on every call.
_TWIN_CHUNK = 8192


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
    """
    _, chi_sq = _scalar_chi(chi)
    if chi_sq <= 1.0:
        return 0.0
    root = (chi_sq - 1.0) / (chi_sq + 1.0)
    return root * root


def time_of_min(chi):
    """First time the survival probability reaches its absolute minimum.

    arccos(-chi^2) / w for chi <= 1 (where the survival first touches zero)
    and pi / w for chi > 1 (the bottom of the cosine), w = sqrt(1 + chi^2).
    Continuous at chi = 1, where it is also maximal.

    The arccos is libm's ``math.acos``: numpy picks its ``arccos`` kernel by
    CPU, and with AVX-512 it differs from libm in the last bit on some
    inputs, so t_m would depend on the host.
    """
    _, chi_sq = _scalar_chi(chi)
    phase = math.acos(-chi_sq) if chi_sq <= 1.0 else math.pi
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
    """``epsilon`` as a float; ``ValueError`` unless it is finite and > 0."""
    epsilon = float(epsilon)
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
    is finite and >= 0 with a finite chi^2, and for an array chi: chi must be
    a scalar.
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


def gqze_interval(
    chi: float,
    order_threshold: float = 0.5,
    points_per_period: int = 10_000,
) -> Optional[GqzeInterval]:
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
    samples the grid of ``gqze_interval_grid`` (``points_per_period`` points
    per hindered period) only in window k = 1, out to pi + h and padded by
    two points a side. The crossing can fall between the last grid point at
    or below pi and the next one (chi = 9.95), so the scan runs past pi.
    For chi <= 1, m = 0 and the window spans pi/2 to 3 pi/2; for large chi
    it holds about 0.6 hindered periods, so the cost no longer grows with
    chi.

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
    index, to the chunked search; a window of at most 64 points goes to the
    chunked search whole.

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
    lies within e = (2t + 11) u of G. A window of more than 64 points has a
    step below pi/58, so t < 4.9 and e < 2.4e-15. The rounding of L, of
    w^2 against 1 + chi^2 and of the window ends loosens the bound by a few
    ulp, under 1e-15 over a skip since L s <= 1 + tol. So margin = 1e-14
    (_SKIP_MARGIN) covers two gaps. The grid indices stay below about 1e15
    (the window holds at most 2e8 points and h > 3e-7), so the roundings of
    t + s, of its quotient by step and of the grid times move an index by
    less than one: the index the scan lands on may lie just past the
    certified span, but it is evaluated, not passed over. So the scan finds
    the first clearly negative grid point of the dense scan. Near a touch
    the gap decays like (pi - t)^4 and the certified step shrinks to one
    point; the 64-gap budget bounds the cost there.

    Chunks: the chunked search (``_chunked_search``) runs forward in chunks
    of 1024, 2048, 4096, ... grid points, at most 65536, and stops at the
    first chunk holding a clearly negative gap; the points past that chunk
    are never computed. The reference cos^2(t) is formed inline with one
    cosine and one product, bit for bit ``survival_probability(0.0, 1.0,
    t)``; the hindered curve is ``survival_probability``.

    Bracket: the crossing is bracketed by the first clearly negative point
    and the last clearly positive grid point before it, refined by bisection
    on Python floats (``_bisect_gap``). The left end (``_bracket_left``) is
    found by walking back from the point before the crossing on Python
    floats, with the gap arithmetic of ``_bisect_gap``, for at most 16
    points; on the sweep grid of 0.05 steps to chi = 20 it is the point just
    before the crossing at every chi. Only if none of those 16 points is
    clearly positive does the chunked search take the rest of the grid,
    backward in chunks of 16, 32, 64, ... points down to index 1; the left
    end is 0 if no point there is clearly positive. So the bracket is that
    of ``gqze_interval_grid`` at every chi. The bisection stops at its fixed
    point, where a halving no longer moves the bracket, and so returns the
    same float as a fixed 80 halvings after about 40 of them.

    Touch: if no point of the window is clearly negative, the gap never
    clearly changes sign before pi, where it is <= 0: the curves touch, or
    cross within the tolerance, and the crossing is reported at pi exactly.

    Range: chi = 0, or chi^2 > 1e-13 (chi above about 3.2e-7) with a floor
    clear of 1, i.e. 1 - m(chi) > 1e-13 (chi below about 6.3e6). Outside
    that range the gap cannot be told from rounding at the 1e-13 tolerance
    and ``ValueError`` is raised; the upper bound is checked before chi^2 is
    formed, so no overflow occurs for any finite chi. A window of more than
    2e8 grid points is a ``ValueError`` too. The bound counts the window
    only: the search for the bracket's left end may also go back over the
    grid before it. Past its 16-point walk that is the backward chunked
    search, which reaches as far as index 1 at chi below about 2e-6, where
    no gap before pi/2 clears the tolerance.

    chi must be a scalar: an array or a list, even of one element, is a
    ``ValueError`` ("chi must be a scalar, got an array of shape (2,)"),
    raised before the range checks.
    """
    return _gqze_search(_window_scan, chi, order_threshold, points_per_period)


def _window_scan(chi_value: float, w: float, step: float, first: int, last: int) -> float:
    """The crossing time found by the certified-skip scan of the grid indices
    first, ..., last in ``gqze_interval``. After _MAX_SKIP_EVALUATIONS gaps
    the rest of the window goes to the forward ``_chunked_search``, and so
    does the whole of a window no longer than that; the bracket's left end
    comes from ``_bracket_left``."""
    index, crossing = first, None
    if last - first >= _MAX_SKIP_EVALUATIONS:
        chi_sq = chi_value * chi_value
        scale = chi_sq + 1.0
        # L, the bound on |G'| between window points, of the ``gqze_interval`` proof.
        angle = min(_window_half_angle(chi_value) + 3.0 * step, 0.5 * math.pi)
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

    The gaps of the _FIRST_SEED_CHUNK points before ``crossing`` are formed
    on Python floats, one at a time, with the arithmetic of ``_bisect_gap``;
    only if none of them is clearly positive do the indices further back,
    down to 1, go to the backward ``_chunked_search``.
    """
    chi_sq = chi_value * chi_value
    scale = chi_sq + 1.0
    cos = math.cos
    stop = max(crossing - _FIRST_SEED_CHUNK, 1)
    for index in range(crossing - 1, stop - 1, -1):
        t = index * step
        hindered = (chi_sq + cos(w * t)) / scale
        reference = cos(t)
        if hindered * hindered - reference * reference > _CROSSING_TOL:
            return index
    left = _chunked_search(chi_value, w, step, stop - 1, 1, forward=False)
    return 0 if left is None else left


def _chunked_search(
    chi_value: float, w: float, step: float, start: int, stop: int, forward: bool = True
) -> Optional[int]:
    """The first grid index from ``start`` towards ``stop``, both included,
    whose gap is clearly negative going forward or clearly positive going
    back; None if there is none.

    Forward, it is the gqze window scan's fallback once the certified skips
    have spent their budget. Back, it is the numpy tail of the bracket's
    left end: ``_bracket_left`` hands it the grid past its 16-point scalar
    walk. At 10,000 points per period that happens below chi of about 2e-6,
    and at some chi above about 8e4, where the gap stays within the
    tolerance for more than 16 points before the crossing.

    The indices run in chunks of _FIRST_CHUNK points forward and
    _FIRST_SEED_CHUNK back, each chunk twice as long as the one before, at
    most _MAX_CHUNK, up to the chunk that holds the hit; no point past it is
    computed.
    """
    size = _FIRST_CHUNK if forward else _FIRST_SEED_CHUNK
    while (start <= stop) if forward else (start >= stop):
        if forward:
            low, high = start, min(stop, start + size - 1)
        else:
            low, high = max(stop, start - size + 1), start
        gap = _gaps(chi_value, w, _grid_times(low, high, step))
        hits = (gap < -_CROSSING_TOL if forward else gap > _CROSSING_TOL).nonzero()[0]
        if hits.size:
            return low + int(hits[0] if forward else hits[-1])
        start, size = high + 1 if forward else low - 1, min(2 * size, _MAX_CHUNK)
    return None


def _grid_times(first: int, last: int, step: float) -> np.ndarray:
    """Times of the grid indices first, ..., last: each index times ``step``.

    The indices are built as floats, which skips numpy's int64 -> float64
    cast; every index is below 2^53, so it converts exactly and each time has
    the bits of ``np.arange(first, last + 1) * step``.
    """
    return np.arange(float(first), last + 1.0) * step


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


def _gaps(chi_value: float, w: float, times: np.ndarray) -> np.ndarray:
    """Hindered minus reference survival on an array of times, as the gqze
    scan forms it.

    The chi = 0 reference is bit for bit survival_probability(0.0, 1.0,
    times): multiplying by 1.0, adding 0.0 and dividing by 1.0 are exact,
    and an array square is x * x.
    """
    reference = np.cos(times)
    reference *= reference
    gap = survival_probability(chi_value, w, times)
    gap -= reference
    return gap


def _bisect_gap(chi: float, w: float, left: float, right: float) -> float:
    """Bisect the gap's sign change in [left, right]: at most 80 halvings,
    keeping ``left`` where the gap is > 0 and ``right`` where it is not.

    Fixed point: once ``mid`` equals the endpoint it would replace (the
    bracket is down to adjacent floats, or halving rounds back onto it), the
    assignment leaves the state unchanged, and so does every later
    iteration. Stopping there returns the same ``0.5 * (left + right)`` as
    all 80 halvings; it happens after about 40 of them.

    The gap is formed inline on Python floats, bit for bit
    ``survival_probability(chi, w, t) - survival_probability(0.0, 1.0, t)``:
    each term is the same float64 operations in the same order, squares
    included (x * x). ``math.cos`` matching numpy's array ``cos`` is checked
    by the test suite, not assumed.
    """
    chi_sq = chi * chi
    scale = chi_sq + 1.0
    cos = math.cos
    for _ in range(80):
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
    be a scalar.
    """
    gqze = gqze_interval(chi, order_threshold)
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
        epsilon=float(epsilon),
        sub_threshold_time=_measure_below(chi_value * chi_value, mean - _check_epsilon(epsilon)),
        gqze=gqze,
    )


# --- numeric twins -------------------------------------------------------
#
# The functions below sample the survival probability directly and act as
# independent cross-checks of the closed forms above. run_validate and the
# test suite compare the two routes; neither side may be dropped.


def _twin_chunks(count: int):
    """Yield the half-open index ranges [lo, hi) that cover 0, ..., count - 1
    in order, _TWIN_CHUNK indices each (the last one shorter)."""
    for lo in range(0, count, _TWIN_CHUNK):
        yield lo, min(lo + _TWIN_CHUNK, count)


def _check_resolution(name: str, value) -> int:
    """``value`` as an int, or ``ValueError`` naming ``name`` unless it is an
    integer >= 1."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def min_survival_grid(chi: float, samples: int = 100_000) -> float:
    """Grid minimum of the survival probability over one period, on
    ``samples`` evenly spaced times from 0 (the period end excluded).

    Each time i * (period / samples) is formed as ``np.linspace(0, period,
    samples, endpoint=False)`` forms it; the grid is evaluated in chunks of
    _TWIN_CHUNK points and the minimum kept across them.

    ``run_validate`` no longer calls it: it reads the floor at the
    bracketed argmin of ``time_of_min_grid``, which places the first
    minimum to about 1e-8 from 3,072 samples. It stays for the tests and
    for the benchmark's layer tracer, which looks up each twin by name.
    """
    samples = _check_resolution("samples", samples)
    period = poincare_time(chi)
    w = angular_frequency(chi)
    step = period / samples
    lowest = math.inf
    for lo, hi in _twin_chunks(samples):
        probabilities = survival_probability(chi, w, _grid_times(lo, hi - 1, step))
        lowest = min(lowest, float(probabilities.min()))
    return lowest


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


def mean_survival_quadrature(chi: float, panels: int = 16) -> float:
    """Trapezoidal period average of the survival probability.

    The survival is a trigonometric polynomial in wt with harmonics 0, 1
    and 2 only, and an N-panel trapezoid over one period integrates harmonic
    k exactly unless N divides k. So the default 16 panels, like any
    N >= 3, are exact up to rounding; N = 2 misses by 0.5 at chi = 0.
    """
    panels = _check_resolution("panels", panels)
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


def gqze_interval_grid(
    chi: float,
    order_threshold: float = 0.5,
    points_per_period: int = 10_000,
) -> Optional[GqzeInterval]:
    """Dense-grid twin of ``gqze_interval``: samples the gap on every point of
    the same grid from index 1 to the end of the window (pi + h, padded by two
    points), brackets the first clearly negative point and bisects, or
    reports pi when no point is clearly negative. It does not rely on the
    lemma of ``gqze_interval``, and accepts the same chi range.

    The grid is evaluated in chunks of _TWIN_CHUNK points and the scan stops
    at the chunk holding the crossing, so its memory does not grow with chi.
    Its time still grows linearly in chi; a grid of more than 2e8 points is
    a ``ValueError``.
    """
    return _gqze_search(_dense_scan, chi, order_threshold, points_per_period, dense=True)


def _dense_scan(chi_value: float, w: float, step: float, first: int, last: int) -> float:
    """The crossing time found by the dense scan of ``gqze_interval_grid``.

    Every grid point from index 1 to ``last`` is evaluated, in order, in
    chunks of _TWIN_CHUNK points, up to the crossing; ``first``, where the
    windowed scan starts, is not used. The bracket's left end is the last
    clearly positive point before the first clearly negative one (0 if there
    is none). With no clearly negative point up to ``last``, the result is
    pi.
    """
    left = 0.0
    for lo, hi in _twin_chunks(last):
        times = _grid_times(lo + 1, hi, step)
        gap = survival_probability(chi_value, w, times) - survival_probability(0.0, 1.0, times)
        below = (gap < -_CROSSING_TOL).nonzero()[0]
        stop = int(below[0]) if below.size else gap.size
        positive = (gap[:stop] > _CROSSING_TOL).nonzero()[0]
        if positive.size:
            left = float(times[positive[-1]])
        if below.size:
            return _bisect_gap(chi_value, w, left, float(times[stop]))
    return math.pi


def _gqze_search(
    scan, chi, order_threshold, points_per_period, dense=False
) -> Optional[GqzeInterval]:
    """Check the arguments of a gqze search, lay out the grid both scans
    sample, and report the crossing time that ``scan(chi, w, step, first,
    last)`` finds.

    The grid is step, 2 step, ..., with ``points_per_period`` points per
    hindered period. The window scan runs over the grid indices first, ...,
    last: ``last`` is ceil((pi + h) / step) + 2, with h =
    ``_window_half_angle(chi)``, and ``first`` is floor((pi - h) / step) - 2,
    at least 1. For chi up to about 1 that lies a few points at or before
    pi/2, where the lemma of ``gqze_interval`` leaves no gap clearly
    negative. The dense scan runs from index 1 to ``last``. A scan that
    would visit more than 2e8 points, the whole grid if ``dense`` and the
    window otherwise (the Range paragraph of ``gqze_interval``), or a grid
    too fine to count, is a ``ValueError``. None at chi = 0; ``ValueError``
    for a chi that is not a scalar, or outside the resolvable range of
    ``gqze_interval``, raised before chi^2 is formed."""
    if not 0.0 < order_threshold <= 1.0:
        raise ValueError("order_threshold must lie in (0, 1]")
    if not (
        isinstance(points_per_period, numbers.Real)
        and math.isfinite(points_per_period)
        and points_per_period > 0
    ):
        raise ValueError(f"points_per_period must be finite and > 0, got {points_per_period!r}")
    _check_scalar(chi)
    # The upper range check runs first; a nan or negative chi passes it and
    # is rejected by _scalar_chi.
    half_angle = _window_half_angle(float(chi))
    chi_value, chi_sq = _scalar_chi(chi)
    if chi_value == 0.0:
        return None
    _check_chi_floor(chi_value)
    w = math.sqrt(1.0 + chi_sq)
    hindered_period = math.tau / w  # never longer than the reference period 2 pi
    step = hindered_period / points_per_period
    spacing, reach = math.pi / step, half_angle / step
    if not math.isfinite(spacing + reach):
        raise _grid_too_large(chi_value, points_per_period)
    first, last = max(math.floor(spacing - reach) - 2, 1), math.ceil(spacing + reach) + 2
    if last - (1 if dense else first) + 1 > _MAX_SCAN_POINTS:
        raise _grid_too_large(chi_value, points_per_period)
    end = scan(chi_value, w, step, first, last)
    ratio = end / hindered_period
    return GqzeInterval(end, ratio, ratio >= order_threshold)


def _grid_too_large(chi: float, points_per_period) -> ValueError:
    return ValueError(
        f"the gqze grid at chi = {chi:g} and points_per_period = "
        f"{points_per_period!r} is too fine: the scan would visit more than 2e8 "
        f"grid points"
    )
