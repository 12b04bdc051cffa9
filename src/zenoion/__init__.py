"""Exact vibronic dynamics of a laser-driven three-level trapped ion.

The interaction couples the electronic ladder 1-2-3 to the trap's phonon
modes through sideband patterns, splitting the problem into invariant
blocks of dimension at most three. Everything downstream is closed form:
block propagation, the survival probability, and the indicator set that
quantifies how strongly a large 2-3 coupling hinders the evolution of the
initial state.

The package API is the union of the modules' ``__all__`` lists.
"""

from . import config, dynamics, fock, indicators, runner
from .config import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .fock import *  # noqa: F403
from .indicators import *  # noqa: F403
from .runner import *  # noqa: F403

__version__ = "0.1.0"  # a literal, so the build reads it without importing numpy

__all__ = [name for m in (config, dynamics, fock, indicators, runner) for name in m.__all__]
__all__.append("__version__")
