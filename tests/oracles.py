"""Independent brute-force oracles for the test suite.

States are sparse kets: dicts mapping occupation tuples to complex
amplitudes. Operators act by literal ladder rules, one quantum at a time,
so these share no code (and no algebra shortcuts) with the package. The
exceptions are ``scalar_gap``, ``array_gap``, ``bisect_gap_oracle``,
``large_chi_end_oracle`` and the whole-grid twins, reference routes through
the package's own ``survival_probability`` or bisection arithmetic, and
``int_triple_reference`` at the end, the full check of occupation triples.
``sideband_series_term`` is the closed form of one Lamb-Dicke series term;
only the tests use it, checked against the ladder route of
``series_term_oracle``.
"""

from __future__ import annotations

import math

import numpy as np

from zenoion import indicators
from zenoion.dynamics import survival_probability
from zenoion.fock import ModeVector
from zenoion.indicators import angular_frequency, poincare_time

Ket = dict[tuple[int, ...], complex]


def ket(occupations: tuple[int, ...]) -> Ket:
    return {tuple(int(v) for v in occupations): 1.0 + 0.0j}


def lower(state: Ket, mode: int) -> Ket:
    """Apply the annihilation rule a|m> = sqrt(m)|m-1> on one mode."""
    out: Ket = {}
    for occ, amp in state.items():
        m = occ[mode]
        if m == 0:
            continue
        target = occ[:mode] + (m - 1,) + occ[mode + 1 :]
        out[target] = out.get(target, 0.0) + amp * math.sqrt(m)
    return out


def raise_(state: Ket, mode: int) -> Ket:
    """Apply the creation rule adag|m> = sqrt(m+1)|m+1> on one mode."""
    out: Ket = {}
    for occ, amp in state.items():
        m = occ[mode]
        target = occ[:mode] + (m + 1,) + occ[mode + 1 :]
        out[target] = out.get(target, 0.0) + amp * math.sqrt(m + 1)
    return out


def amplitude(state: Ket, occupations: tuple[int, ...]) -> complex:
    return state.get(tuple(int(v) for v in occupations), 0.0 + 0.0j)


def falling_root_oracle(n: tuple[int, int, int], d: tuple[int, int, int]) -> float:
    """<n - d| a_x^dx a_y^dy a_z^dz |n> by repeated single-quantum lowering."""
    state = ket(n)
    for mode, count in enumerate(d):
        for _ in range(count):
            state = lower(state, mode)
    target = tuple(nv - dv for nv, dv in zip(n, d))
    return float(amplitude(state, target).real)


def series_term_oracle(eta: float, j: int, n: int) -> float:
    """|<n+1| a^j (adag)^(j+1) |n>| * eta^(2j+1) / (j! (j+1)!), one mode."""
    state = ket((n,))
    for _ in range(j + 1):
        state = raise_(state, 0)
    for _ in range(j):
        state = lower(state, 0)
    element = abs(amplitude(state, (n + 1,)))
    return eta ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1)) * element


def sideband_series_term(lamb_dicke: float, order: int, occupation: int) -> float:
    """Magnitude of one term of the first-sideband coupling series.

    Term ``j = order`` connects |n> to |n + 1> through j lowerings after
    j + 1 raisings, carrying the weight eta^(2j+1) / (j! (j+1)!). The j = 0
    value, eta * sqrt(n + 1), is the coupling retained in the Lamb-Dicke
    truncation; the j = 1 over j = 0 ratio bounds the truncation error.
    """
    eta = float(lamb_dicke)
    j = int(order)
    n = int(occupation)
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError("lamb_dicke must be finite and >= 0")
    if j != order or j < 0:
        raise ValueError("order must be a non-negative integer")
    if n != occupation or n < 0:
        raise ValueError("occupation must be a non-negative integer")
    # <n+1| a^j (a^dag)^(j+1) |n>: raise j+1 times, then lower j times.
    amplitude_sq = 1.0
    level = n
    for _ in range(j + 1):
        level += 1
        amplitude_sq *= level
    for _ in range(j):
        amplitude_sq *= level
        level -= 1
    weight = eta ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1))
    return weight * math.sqrt(amplitude_sq)


def hamiltonian(block) -> np.ndarray:
    """Dense tridiagonal block matrix (interaction picture, hbar = 1)."""
    h = np.zeros((block.dimension, block.dimension), dtype=complex)
    if block.dimension >= 2:
        h[0, 1] = block.coupling_12
        h[1, 0] = np.conj(block.coupling_12)
    if block.dimension == 3:
        h[1, 2] = block.coupling_23
        h[2, 1] = np.conj(block.coupling_23)
    return h


def expm_oracle(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) through numpy's Hermitian eigensolver (third route)."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    phases = np.exp(-1j * eigenvalues * t)
    return (eigenvectors * phases) @ eigenvectors.conj().T


def scalar_gap(chi_sq: float, w: float, t: float) -> float:
    """Hindered minus reference survival at one time, on Python floats, as
    the package's bisection forms it inline."""
    hindered = (chi_sq + math.cos(w * t)) / (chi_sq + 1.0)
    reference = math.cos(t)
    return hindered * hindered - reference * reference


def array_gap(chi: float, w: float, t: float) -> float:
    """Hindered minus reference survival at one time, each taken from a
    one-element array through ``survival_probability``'s numpy path, so a
    comparison with the package's Python-float arithmetic checks
    ``math.cos`` against numpy's ``cos``."""
    times = np.array([t])
    hindered = survival_probability(chi, w, times)[0]
    return float(hindered - survival_probability(0.0, 1.0, times)[0])


def bisect_gap_oracle(chi: float, w: float, left: float, right: float) -> float:
    """The hindering-interval bisection in its first form: always 80
    halvings, each taking the gap from ``array_gap`` (numpy's array path).
    The package's early-exiting scalar bisection must return the same float
    bit for bit."""
    for _ in range(80):
        mid = 0.5 * (left + right)
        if array_gap(chi, w, mid) > 0.0:
            left = mid
        else:
            right = mid
    return 0.5 * (left + right)


def large_chi_end_oracle(chi: float, w: float) -> float:
    """The large-chi law of ``gqze_interval`` in its first form: X bisected
    in [0, 2] down to its own float grid, where a halving no longer moves
    the bracket. The package's early-stopping bisection must return the same
    float bit for bit."""
    phi = 0.5 * math.pi * (math.fmod(chi, 2.0) + 1.0 / (chi + w))
    low, high = 0.0, 2.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return math.pi - mid / chi
        if mid < 2.0 * abs(math.sin(phi - 0.5 * mid)):
            low = mid
        else:
            high = mid


# --- whole-grid numeric twins ---------------------------------------------
#
# The full-grid twins in whole-grid form: each builds its whole grid as one
# array. The package's twins must return the same floats bit for bit: the
# dense gqze scan evaluates its grid in chunks, and ``min_survival_grid``
# forms its grid from integer indices instead of ``np.linspace``.


def min_survival_grid_reference(chi: float, samples: int = 100_000) -> float:
    period = poincare_time(chi)
    w = angular_frequency(chi)
    times = np.linspace(0.0, period, samples, endpoint=False)
    return float(np.min(survival_probability(chi, w, times)))


def _dense_scan_reference(chi_value, w, step, first, last, half_angle):
    times = np.arange(1, last + 1) * step
    gap = survival_probability(chi_value, w, times) - survival_probability(0.0, 1.0, times)
    below = np.nonzero(gap < -1e-13)[0]
    if not below.size:
        return math.pi
    first = int(below[0])
    positive_before = np.nonzero(gap[:first] > 1e-13)[0]
    left = float(times[positive_before[-1]]) if positive_before.size else 0.0
    return indicators._bisect_gap(chi_value, w, left, float(times[first]))


def gqze_interval_grid_reference(chi: float, order_threshold: float = 0.5):
    """The dense gqze twin on its whole grid at once, through the package's
    argument checks, grid layout and bisection (``_bisect_gap`` is pinned to
    ``bisect_gap_oracle`` on its own)."""
    return indicators._gqze_search(_dense_scan_reference, chi, order_threshold)


# The occupation-triple check with no fast path: ``fock._int_triple``'s full
# check, word for word. The package's version must accept and reject the
# same inputs, with the same results and messages.


def int_triple_reference(value, what: str) -> tuple[int, int, int]:
    if isinstance(value, ModeVector):
        return value.components
    try:
        items = tuple(value)
    except TypeError:
        raise TypeError(f"{what} must be an iterable of three integers") from None
    if len(items) != 3:
        raise ValueError(f"{what} needs exactly 3 components, got {len(items)}")
    out = []
    for component in items:
        as_int = int(component)
        if as_int != component:
            raise ValueError(f"{what} components must be integers, got {component!r}")
        if as_int < 0:
            raise ValueError(f"{what} components must be >= 0, got {as_int}")
        out.append(as_int)
    return (out[0], out[1], out[2])
