"""Exact vibronic dynamics of a laser-driven three-level trapped ion.

The interaction couples the electronic ladder 1-2-3 to the trap's phonon
modes through sideband patterns, splitting the problem into invariant
blocks of dimension at most three. Everything downstream is closed form:
block propagation, the survival probability, and the indicator set that
quantifies how strongly a large 2-3 coupling hinders the evolution of the
initial state.
"""

from .config import MODES, ConfigError, RunConfig, load_config
from .dynamics import (
    BlockSystem,
    VibronicState,
    build_block,
    classify_block,
    level_probabilities,
    propagate_analytic,
    propagate_oracle,
    survival_probability,
)
from .fock import (
    CouplingConstants,
    DegenerateCouplingError,
    InvalidSubspaceError,
    LaserDrive,
    ModeVector,
    SidebandPattern,
    chi_ratio,
    coupling_alpha,
    coupling_beta,
    factorial_ratio_root,
)
from .indicators import (
    GqzeInterval,
    IndicatorReport,
    gqze_interval,
    indicator_report,
    mean_level_probabilities,
    mean_survival,
    min_survival,
    poincare_time,
    sub_threshold_measure,
    time_of_min,
)
from .runner import (
    ValidationCheck,
    ValidationReport,
    run_evolve,
    run_figures,
    run_indicators,
    run_survival,
    run_sweep,
    run_validate,
)

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "ConfigError",
    "RunConfig",
    "load_config",
    "BlockSystem",
    "VibronicState",
    "build_block",
    "classify_block",
    "level_probabilities",
    "propagate_analytic",
    "propagate_oracle",
    "survival_probability",
    "CouplingConstants",
    "DegenerateCouplingError",
    "InvalidSubspaceError",
    "LaserDrive",
    "ModeVector",
    "SidebandPattern",
    "chi_ratio",
    "coupling_alpha",
    "coupling_beta",
    "factorial_ratio_root",
    "GqzeInterval",
    "IndicatorReport",
    "gqze_interval",
    "indicator_report",
    "mean_level_probabilities",
    "mean_survival",
    "min_survival",
    "poincare_time",
    "sub_threshold_measure",
    "time_of_min",
    "ValidationCheck",
    "ValidationReport",
    "run_evolve",
    "run_figures",
    "run_indicators",
    "run_survival",
    "run_sweep",
    "run_validate",
    "__version__",
]
