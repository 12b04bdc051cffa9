"""Invariant blocks of the sideband interaction and their exact propagators.

The interaction Hamiltonian is block diagonal over chains
|n, 1> -> |n - r, 2> -> |n - r - l, 3| that truncate at the first
non-existent occupation. Every block is at most 3 x 3 and tridiagonal, so
its time evolution is available in closed form; an independent
eigendecomposition propagator is kept alongside as a cross-check.

Evolution is computed in the interaction picture. The free-evolution phase
cancels from every observable handled here (survival probabilities, level
populations, relative phases within one block), so lab-frame phases are out
of scope.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .fock import (
    CouplingConstants,
    ModeVector,
    SidebandPattern,
    coupling_alpha,
    coupling_beta,
    chi_ratio,
)

__all__ = [
    "BlockSystem",
    "VibronicState",
    "classify_block",
    "build_block",
    "propagate_analytic",
    "propagate_oracle",
    "survival_probability",
    "level_probabilities",
]

BasisLabel = tuple[ModeVector, int]

_NORM_TOL = 1e-9


def classify_block(n: ModeVector, pattern: SidebandPattern) -> tuple[BasisLabel, ...]:
    """Ordered basis chain of the invariant subspace containing |n, 1>; its
    length is the block dimension.

    The chain is one dimensional when any n_i - r_i < 0, two dimensional
    when n - r exists but some n_i - r_i - l_i < 0, and three dimensional
    when the full chain exists.
    """
    n = ModeVector.of(n)
    labels: list[BasisLabel] = [(n, 1)]
    if n.can_remove(pattern.r):
        middle = n.remove(pattern.r)
        labels.append((middle, 2))
        if middle.can_remove(pattern.l):
            labels.append((middle.remove(pattern.l), 3))
    return tuple(labels)


class _ClosedFormConstants(NamedTuple):
    """Constants of one block's closed-form propagator, in units of the
    block frequency w: a = coupling_12 / w and b = coupling_23 / w (b = 0 in
    two-level blocks), both of modulus at most 1."""

    norm: float  # sqrt(norm_sq), about 1
    norm_sq: float  # |a|^2 + |b|^2
    a_sq: float  # |a|^2
    b_sq: float  # |b|^2
    ia: complex  # -i a
    ib: complex  # -i b
    ab: complex  # a b


@dataclass(frozen=True)
class BlockSystem:
    """One invariant block: basis chain, couplings and derived frequencies.

    ``coupling_12`` and ``coupling_23`` are the tridiagonal matrix elements,
    0j when the corresponding transition leaves the block; ``dimension``
    says which levels exist. ``angular_frequency`` is the coupling norm
    sqrt(|c12|^2 + |c23|^2) because hbar = 1, so it is 0 on a one-level
    block.
    """

    dimension: int
    basis_labels: tuple[BasisLabel, ...]
    coupling_12: complex
    coupling_23: complex
    angular_frequency: float

    @property
    def chi(self) -> Optional[complex]:
        """Coupling ratio of the block; 0 for two-level blocks, None for
        one-level blocks. Raises DegenerateCouplingError when the 1-2
        coupling vanishes."""
        if self.dimension == 1:
            return None
        return chi_ratio(self.coupling_12, self.coupling_23)

    @property
    def is_degenerate(self) -> bool:
        """True when level 1 is decoupled and the ratio-based indicators
        do not apply."""
        return self.dimension >= 2 and self.coupling_12 == 0

    @cached_property
    def _closed_form(self) -> _ClosedFormConstants:
        """Constants of ``propagate_analytic`` for blocks of dimension 2 or 3
        with a nonzero frequency, computed on first use and kept in the
        instance ``__dict__`` (they are not fields, so equality and hashing
        only see the couplings).

        Dividing the couplings by w first keeps every constant near 1, so no
        finite frequency overflows, underflows or divides by zero here.
        ``norm_sq`` is the sum of the two squares, so the t = 0 propagator
        is the exact identity.
        """
        w = self.angular_frequency
        a = complex(self.coupling_12) / w
        b = complex(self.coupling_23) / w
        a_sq = abs(a) ** 2
        b_sq = abs(b) ** 2
        norm_sq = a_sq + b_sq
        return _ClosedFormConstants(
            math.sqrt(norm_sq), norm_sq, a_sq, b_sq, -1j * a, -1j * b, a * b
        )


def build_block(
    n: ModeVector, pattern: SidebandPattern, couplings: CouplingConstants
) -> BlockSystem:
    """Assemble the invariant block for |n, 1> under the given drive.

    A missing target state truncates the chain (it never raises), and the
    coupling of each transition that leaves it is 0j; the couplings of the
    surviving transitions scale with the square-rooted falling-factorial
    factors of the occupations involved.
    """
    chain = classify_block(n, pattern)
    dimension = len(chain)
    alpha = coupling_alpha(couplings.gamma1, n, pattern.r) if dimension >= 2 else 0j
    beta = coupling_beta(couplings.gamma2, chain[1][0], pattern.l) if dimension == 3 else 0j
    return BlockSystem(
        dimension=dimension,
        basis_labels=chain,
        coupling_12=alpha,
        coupling_23=beta,
        angular_frequency=math.hypot(abs(alpha), abs(beta)),  # hbar = 1
    )


class VibronicState:
    """Complex amplitudes over one block's basis chain, unit norm.

    ``values`` holds the amplitudes as a tuple of 1 to 3 Python complex
    numbers, the one stored copy; the closed-form propagator and
    ``level_probabilities`` work on it directly. ``amplitudes`` is the same
    vector as a read-only complex array, built from ``values`` anew on each
    access. States are immutable: assigning any attribute raises.

    The constructor takes anything ``np.array(..., dtype=complex)`` reads as
    a 1-D vector of length 1..3 and returns the ``_state`` of its values, so
    it raises ``ValueError`` unless their norm (``_norm``) is 1 within 1e-9.
    ``norm`` is that same ``_norm``, the one the constructor checked.
    """

    __slots__ = ("values",)

    def __new__(cls, amplitudes) -> "VibronicState":
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or not 1 <= amps.size <= 3:
            raise ValueError("amplitudes must be a 1-D vector of length 1..3")
        return _state(tuple(amps.tolist()))

    @classmethod
    def basis_state(cls, dimension: int, index: int = 0) -> "VibronicState":
        if not 1 <= dimension <= 3:
            raise ValueError(f"block dimension must be 1, 2 or 3, got {dimension!r}")
        if not 0 <= index < dimension:
            raise ValueError("basis index outside block")
        return _state(tuple(1 + 0j if i == index else 0j for i in range(dimension)))

    @property
    def amplitudes(self) -> np.ndarray:
        amps = np.array(self.values, dtype=complex)
        amps.setflags(write=False)
        return amps

    @property
    def norm(self) -> float:
        return _norm(self.values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"VibronicState({self.values!r})"

    def __reduce__(self):
        return VibronicState, (self.values,)


# The writer of the one slot, past the __setattr__ that refuses assignment.
_set_values = VibronicState.values.__set__
_new = object.__new__


def _norm(values: tuple[complex, ...]) -> float:
    """The norm of a state's values: sqrt(sum |z| * |z|), with |z| the
    Python ``abs`` (libm hypot), summed in order."""
    norm_sq = 0.0
    for z in values:
        size = abs(z)
        norm_sq += size * size
    return math.sqrt(norm_sq)


def _state(values: tuple[complex, ...]) -> VibronicState:
    """A new state holding ``values`` (1 to 3 Python complex numbers), after
    the one check every state gets, the constructor's and both propagators'
    included: its ``_norm`` is 1 within ``_NORM_TOL``."""
    norm = _norm(values)
    # Written as "not <=" so that a NaN norm fails too.
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"state must be normalized, got norm {norm!r}")
    state = _new(VibronicState)
    _set_values(state, values)
    return state


def _check_state(block: BlockSystem, state: VibronicState) -> None:
    if len(state.values) != block.dimension:
        raise ValueError(
            f"state dimension {len(state.values)} does not match "
            f"block dimension {block.dimension}"
        )


def _finite_phase(w: float, t) -> float:
    """The phase w t, with ``t`` read as a ``_scalar`` (a Python float skips
    the read), or ``ValueError`` naming the time when the phase is not
    finite (past it every cos(wt) is nan), as for a None time."""
    if type(t) is not float:
        t = _scalar(t, "t")
    phase = w * t
    if not math.isfinite(phase):
        raise ValueError(f"time t = {t!r} gives the non-finite phase w t = {phase!r}")
    return phase


def propagate_analytic(block: BlockSystem, initial: VibronicState, t: float) -> VibronicState:
    """Evolve a block state by the closed-form propagator.

    Because H^3 = w^2 H with w = angular_frequency, exp(-i H t) collapses to
    I + (cos(wt) - 1) H^2 / w^2 - i sin(wt) H / w. Each call computes
    c = cos(wt) and s = sin(wt), forms the upper triangle of that matrix
    from ``BlockSystem._closed_form`` (computed once per block), and
    applies it straight to the state's ``values``, as Python scalars; no
    array is built. The middle element is c, and the lower triangle
    follows exactly from the symmetry of exp(-i H t) for this H:
    U10 = -conj(U01), U21 = -conj(U12), U20 = conj(U02).

    Two-level blocks use the same U01 (plain Rabi oscillation); a block
    with w = 0, every one-level block among them, is stationary. Negative
    times are allowed (the evolution is a unitary group). ``t`` must be a
    scalar (an array or a list is a ``ValueError``); a time whose phase
    w t is not finite raises ValueError on every block, None included, and
    so does an infinite time at w = 0, where w t = 0 * inf is nan.
    Per call: one dimension compare, one time read (``_finite_phase``,
    which a Python float with a finite w t skips) and one norm check of the
    output (``_state``).
    """
    values = initial.values
    if len(values) != block.dimension:
        _check_state(block, initial)
    w = block.angular_frequency
    if type(t) is not float or not math.isfinite(phase := w * t):
        phase = _finite_phase(w, t)
    if w == 0.0:
        return initial
    norm, norm_sq, a_sq, b_sq, ia, ib, ab = block._closed_form
    c = math.cos(phase)
    s = math.sin(phase)
    u01 = ia * s / norm
    if len(values) == 2:
        x0, x1 = values
        return _state((c * x0 + u01 * x1, -u01.conjugate() * x0 + c * x1))
    x0, x1, x2 = values
    u00 = (b_sq + a_sq * c) / norm_sq
    u02 = ab * (c - 1.0) / norm_sq
    u12 = ib * s / norm
    u22 = (a_sq + b_sq * c) / norm_sq
    return _state(
        (
            u00 * x0 + u01 * x1 + u02 * x2,
            -u01.conjugate() * x0 + c * x1 + u12 * x2,
            u02.conjugate() * x0 - u12.conjugate() * x1 + u22 * x2,
        )
    )


def _spectral_propagator(block: BlockSystem, t) -> np.ndarray:
    """Evolution matrix from the explicit eigensystem of the block.

    The tridiagonal block has eigenvalues {0, +w, -w} with w = angular_frequency
    and eigenvectors writable directly from the couplings; the propagator is
    assembled as sum_k exp(-i lambda_k t) |v_k><v_k|. A two-level block is
    the three-level one with c23 = 0 cut to its first two levels, where the
    zero-eigenvalue projector vanishes. Deliberately shares no code with the
    closed-form path.

    ``t`` is a float, or an array of times, for which the matrices are
    stacked along its leading axes. No time is checked: one whose phase
    w t is not finite gives a nan matrix, except at w = 0, where the
    propagator is the identity.
    """
    dim = block.dimension
    w = block.angular_frequency
    if w == 0.0:
        return np.multiply.outer(np.ones(np.shape(t)), np.eye(dim, dtype=complex))
    a = complex(block.coupling_12)
    b = complex(block.coupling_23)
    root = math.sqrt(2.0) * w
    # The eigenvectors of 0, +w and -w as rows, cut to the block's levels.
    vectors = np.array([[b, 0.0, -a.conjugate()], [a, w, b.conjugate()], [a, -w, b.conjugate()]])
    vectors = (vectors / np.array([[w], [root], [root]]))[:, :dim]
    p_zero, p_plus, p_minus = vectors[:, :, None] * vectors.conj()[:, None, :]
    return (
        p_zero
        + np.multiply.outer(np.exp(-1j * w * t), p_plus)
        + np.multiply.outer(np.exp(+1j * w * t), p_minus)
    )


def propagate_oracle(block: BlockSystem, initial: VibronicState, t: float) -> VibronicState:
    """Evolve a block state by explicit eigendecomposition.

    Independent verification path for ``propagate_analytic``; the two must
    agree to 1e-10 per amplitude for any block and time, and both read the
    time by one rule: ValueError for a time that is not a scalar or whose
    phase w t is not finite, on every block.
    """
    _check_state(block, initial)
    t = _scalar(t, "t")
    _finite_phase(block.angular_frequency, t)
    return VibronicState(_spectral_propagator(block, t) @ initial.amplitudes)


def _scalar(value, name: str) -> float:
    """The scalar argument ``name`` (a Python or numpy number, or a 0-d
    array) as a Python float: an array or a list, even of one element, is a
    ``ValueError`` naming ``name``. None becomes nan, for the caller's range
    check to reject; anything else goes through ``float()``. A Python float
    or int passes the scalar check on one type test."""
    if not isinstance(value, (float, int)) and np.ndim(value) != 0:
        raise ValueError(f"{name} must be a scalar, got an array of shape {np.shape(value)}")
    return math.nan if value is None else float(value)


def _finite_chi(chi) -> float:
    """chi as a Python float: a ``_scalar``, and a ``ValueError`` unless it
    is finite and >= 0, None included."""
    value = _scalar(chi, "chi")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("chi must be finite and >= 0")
    return value


def _scalar_chi(chi) -> tuple[float, float]:
    """chi and chi^2 as Python floats: ``_finite_chi``'s checks, and a
    ``ValueError`` when the square overflows.

    A Python float or int reaches no numpy call, so the closed forms of
    ``indicators`` run on Python floats alone.
    """
    value = _finite_chi(chi)
    # On Python floats the square overflows to inf without a warning.
    chi_sq = value * value
    if not math.isfinite(chi_sq):
        raise ValueError(f"chi = {value:g} is too large: chi^2 overflows float64")
    return value, chi_sq


def survival_probability(chi, angular_frequency, t):
    """Survival probability of the top-of-chain state |n, 1>.

    ((chi^2 + cos(w t)) / (chi^2 + 1))^2 with chi the modulus of the block
    coupling ratio and w the block angular frequency. chi must be a scalar
    (an array or a list is a ``ValueError``), finite and >= 0, with a finite
    square; ``angular_frequency`` must be a scalar, finite and > 0, and
    None is a ``ValueError`` for either. ``t`` is a scalar or an array, and
    so is the result; the square is x * x.

    A scalar time (a Python or numpy number, or a 0-d array) runs on Python
    floats with ``math.cos`` and gives a Python float; an array is computed
    in one buffer. Both take the same float64 operations in the same order,
    so a scalar time gets the bits of the same time inside an array (the
    test suite checks that ``math.cos`` matches numpy's ``cos``).

    A scalar time whose phase w t is not finite raises ``ValueError``, as in
    the propagators, and so does a None time. An array is not checked, to
    keep its cost: a non-finite phase gives nan there, and the callers bound
    their grids.
    """
    w = _scalar(angular_frequency, "angular_frequency")
    if not (math.isfinite(w) and w > 0):
        raise ValueError("angular_frequency must be finite and > 0")
    _, chi_sq = _scalar_chi(chi)
    if isinstance(t, (float, int)) or np.ndim(t) == 0:
        phase = _finite_phase(w, t)
        value = (chi_sq + math.cos(phase)) / (chi_sq + 1.0)
        return value * value
    times = np.asarray(t, dtype=float)
    result = np.multiply(w, times, out=np.empty_like(times))
    np.cos(result, out=result)
    result += chi_sq
    result /= chi_sq + 1.0
    np.square(result, out=result)
    return result


def level_probabilities(state: VibronicState) -> tuple[float, float, float]:
    """Populations of the three electronic levels, absent levels as zero.

    Each is |z| * |z|, with |z| the Python ``abs`` (libm hypot) of the
    amplitude z. That is ``np.abs(z) ** 2`` bit for bit when z is real or
    imaginary, as every amplitude ``evolve`` writes is. numpy's complex
    absolute value is rounded differently, so other amplitudes may differ
    from it by a few ulp.
    Per call: one length compare, and no norm check (``_state`` made it).
    """
    values = state.values
    a, b, c = values if len(values) == 3 else values + (0j,) * (3 - len(values))
    a, b, c = abs(a), abs(b), abs(c)
    return a * a, b * b, c * c
