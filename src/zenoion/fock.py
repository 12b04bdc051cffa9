"""Fock-ladder matrix elements and effective laser-ion couplings.

Natural units are used throughout the package: hbar = 1, so energies double
as angular frequencies and times carry inverse-energy units.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Union

Triple = tuple[int, int, int]
TripleLike = Union["ModeVector", Iterable[int]]

__all__ = [
    "InvalidSubspaceError",
    "DegenerateCouplingError",
    "ModeVector",
    "SidebandPattern",
    "LaserDrive",
    "CouplingConstants",
    "factorial_ratio_root",
    "coupling_alpha",
    "coupling_beta",
    "chi_ratio",
]


class InvalidSubspaceError(ValueError):
    """Removing more quanta than a mode holds: the target state does not exist."""


class DegenerateCouplingError(ValueError):
    """The 1-2 coupling vanishes; ratios and periods built on it are undefined."""


def _int_triple(value: TripleLike, what: str) -> Triple:
    """``value`` as a tuple of three Python ints >= 0, or the ``TypeError`` or
    ``ValueError`` that names ``what``.

    A tuple of exactly three Python ints >= 0 (exact types: no bool, no
    numpy integer, no tuple subclass) is returned unchanged, so what a
    ``ModeVector`` or ``SidebandPattern`` stores, and what ``remove`` hands
    on, is checked once and then passes here on a few type tests. Anything
    else takes the full check.
    """
    if type(value) is tuple and len(value) == 3:
        a, b, c = value
        if type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 0:
            return value
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


@dataclass(frozen=True)
class ModeVector:
    """Phonon occupations (nx, ny, nz) of the three trap modes."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        nx, ny, nz = _int_triple((self.nx, self.ny, self.nz), "mode vector")
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        object.__setattr__(self, "nz", nz)

    @classmethod
    def of(cls, components: TripleLike) -> "ModeVector":
        if isinstance(components, ModeVector):
            return components
        return cls(*_int_triple(components, "mode vector"))

    @property
    def components(self) -> Triple:
        return (self.nx, self.ny, self.nz)

    def can_remove(self, quanta: TripleLike) -> bool:
        """Whether removing the given quanta per mode leaves a valid state."""
        dx, dy, dz = _int_triple(quanta, "removed quanta")
        return self.nx >= dx and self.ny >= dy and self.nz >= dz

    def remove(self, quanta: TripleLike) -> "ModeVector":
        """Occupation after removing ``quanta`` per mode.

        Raises InvalidSubspaceError when any component would go negative: the
        resulting state does not exist and is never clamped to zero, because
        block classification depends on the distinction.
        """
        removed = _int_triple(quanta, "removed quanta")
        diff = (self.nx - removed[0], self.ny - removed[1], self.nz - removed[2])
        if min(diff) < 0:
            raise InvalidSubspaceError(
                f"cannot remove {removed} quanta from occupation {self.components}"
            )
        return ModeVector(*diff)


@dataclass(frozen=True)
class SidebandPattern:
    """Quanta removed per mode by each electronic transition.

    ``r`` belongs to the 1-2 transition and ``l`` to the 2-3 transition.
    A zero triple is a carrier drive, (1, 0, 0) the first red sideband along
    x, and mixed triples such as (1, 1, 0) arise from multi-beam drives.
    """

    r: Triple
    l: Triple

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _int_triple(self.r, "pattern r"))
        object.__setattr__(self, "l", _int_triple(self.l, "pattern l"))


@dataclass(frozen=True)
class LaserDrive:
    """One laser beam at the pi/2 beam phase: Rabi frequency and Lamb-Dicke
    parameter."""

    rabi_frequency: float
    lamb_dicke: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rabi_frequency):
            raise ValueError("rabi_frequency must be finite")
        if not (math.isfinite(self.lamb_dicke) and self.lamb_dicke >= 0):
            raise ValueError("lamb_dicke must be finite and >= 0")


@dataclass(frozen=True)
class CouplingConstants:
    """Effective transition couplings gamma1 (1-2) and gamma2 (2-3).

    ``from_drives`` gives both real (imaginary part 0.0) and <= 0, the pi/2
    beam-phase convention, but the fields stay complex-capable: the
    dynamics only ever consumes moduli and relative phases.
    """

    gamma1: complex
    gamma2: complex

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @classmethod
    def from_drives(cls, drive_12: LaserDrive, drive_23: LaserDrive) -> "CouplingConstants":
        """First-sideband couplings of the two beams."""
        return cls(_beam_gamma(drive_12), _beam_gamma(drive_23))


def _beam_gamma(drive: LaserDrive) -> complex:
    """-i Omega eta exp(-eta^2/2) exp(-i phi) at the beam phase phi = pi/2:
    the real -Omega eta exp(-eta^2/2), formed as such (imaginary part 0.0)."""
    eta = drive.lamb_dicke
    magnitude = drive.rabi_frequency * eta * math.exp(-0.5 * eta * eta)
    return complex(-magnitude)


def factorial_ratio_root(n: TripleLike, removed: TripleLike) -> float:
    """Square-rooted falling-factorial product linking |n> to |n - removed>.

    Equals sqrt(prod_i n_i (n_i - 1) ... (n_i - d_i + 1)), the matrix element
    of the per-mode annihilation monomial between the two occupation states.
    Computed as a running product of falling factors, never through explicit
    factorials, so it stays finite far beyond the n ~ 170 point where the
    factorials themselves overflow. Once the product, or a factor alone,
    exceeds the double range (~1.8e308) it returns inf at once, so it never
    multiplies more than ~170 factors per mode, however large the occupations.

    Raises InvalidSubspaceError when any n_i - d_i < 0.
    """
    mode = ModeVector.of(n)
    d = _int_triple(removed, "removed quanta")
    if not mode.can_remove(d):
        raise InvalidSubspaceError(f"state {mode.components} minus {d} does not exist")
    product = 1.0
    for occupation, count in zip(mode.components, d):
        for k in range(count):
            try:
                product *= occupation - k
            except OverflowError:  # the int factor does not fit in a float64
                return math.inf
            if product == math.inf:
                return math.inf
    return math.sqrt(product)


def coupling_alpha(gamma1: complex, n: TripleLike, r: TripleLike) -> complex:
    """Effective 1-2 block coupling: gamma1 * factorial_ratio_root(n, r)."""
    return complex(gamma1) * factorial_ratio_root(n, r)


def coupling_beta(gamma2: complex, middle: TripleLike, l: TripleLike) -> complex:
    """Effective 2-3 block coupling: gamma2 * factorial_ratio_root(middle, l),
    with ``middle`` = n - r the level-2 occupation."""
    return complex(gamma2) * factorial_ratio_root(middle, l)


def chi_ratio(alpha: complex, beta: complex) -> complex:
    """Ratio beta / alpha of the 2-3 to 1-2 block couplings.

    The modulus of this ratio is the single dial every survival indicator
    depends on. A vanishing 1-2 coupling decouples the initial level and
    leaves the ratio (and all indicators) undefined.
    """
    a = complex(alpha)
    if a == 0:
        raise DegenerateCouplingError("1-2 coupling is zero; coupling ratio undefined")
    return complex(beta) / a
