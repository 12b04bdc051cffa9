"""Independent brute-force oracles for the test suite.

States are sparse kets: dicts mapping occupation tuples to complex
amplitudes. Operators act by literal ladder rules, one quantum at a time,
so these share no code (and no algebra shortcuts) with the package. The
exception is ``bisect_gap_oracle``, a reference route through the package's
own ``survival_probability``.
"""

from __future__ import annotations

import math

import numpy as np

from zenoion.dynamics import survival_probability

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


def bisect_gap_oracle(chi: float, w: float, left: float, right: float) -> float:
    """The hindering-interval bisection in its first form: always 80
    halvings, each taking the gap from two 0-d ``survival_probability``
    calls. The package's early-exiting scalar bisection must return the
    same float bit for bit."""

    def gap(t: float) -> float:
        return survival_probability(chi, w, t) - survival_probability(0.0, 1.0, t)

    for _ in range(80):
        mid = 0.5 * (left + right)
        if gap(mid) > 0.0:
            left = mid
        else:
            right = mid
    return 0.5 * (left + right)
