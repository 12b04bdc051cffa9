"""Run configuration: file parsing, flag merging and validation.

Config files use INI-style sections (see README for the grammar); command
line flags override file values, which override built-in defaults. The
fields of ``RunConfig`` are the one table of run parameters: each carries
its INI section, its coercer and its flag help text, and both the file
reader here and the command-line flags are built from them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Mapping, NamedTuple, Optional

from .fock import CouplingConstants, LaserDrive, ModeVector, SidebandPattern, Triple

__all__ = ["MODES", "ConfigError", "RunConfig", "load_config"]


class _Mode(NamedTuple):
    help: str
    coupled: bool  # needs a coupling source


# Each mode is run by the runner function named ``run_<mode>``.
MODES = {
    "evolve": _Mode("evolve |n, 1> and emit level populations over time", True),
    "survival": _Mode("emit the survival probability over time", True),
    "indicators": _Mode("print every hindering indicator for one configuration", True),
    "sweep": _Mode("emit indicator reports over a chi grid", False),
    "figures": _Mode("emit fig1.csv ... fig4.csv (survival curves and indicator scans)", False),
    "validate": _Mode("cross-check closed forms against their numeric twins", False),
}

_DEFAULT_T_MAX = 4.0 * math.pi  # two chi = 0 periods, omega(0)-scaled

# Most points a time grid (``samples``) or a chi grid may hold. evolve and
# sweep stream their rows to the CSV, so memory does not grow with the grid;
# the cap bounds run time and file size (about 115 MB of evolve.csv and
# 280 MB of sweep.csv at 10^6 rows). A larger request is a config error.
MAX_GRID_POINTS = 10**6


class ConfigError(ValueError):
    """Invalid, incomplete or ambiguous run configuration."""


def _parse_triple(value, what: str) -> Triple:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    else:
        try:
            parts = list(value)
        except TypeError:
            raise ConfigError(f"{what}: expected three comma-separated integers") from None
    if len(parts) != 3:
        raise ConfigError(f"{what}: expected three components, got {len(parts)}")
    out = []
    for part in parts:
        number = _parse_int(part, f"{what}: component")
        if number < 0:
            raise ConfigError(f"{what}: component {number} is negative")
        out.append(number)
    return (out[0], out[1], out[2])


def _parse_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: {value!r} is not a number") from None


def _parse_int(value, what: str) -> int:
    try:
        number = int(str(value))
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: {value!r} is not an integer") from None
    return number


def _parse_text(value, what: str) -> str:
    return str(value)


# Coercer, argparse type and metavar of each kind of field. The argparse
# type makes a malformed numeric flag a usage error (exit 2).
_FLOAT = (_parse_float, float, None)
_INT = (_parse_int, int, None)
_TRIPLE = (_parse_triple, None, "X,Y,Z")
_TEXT = (_parse_text, None, None)


def _field(section: str, kind: tuple, help: Optional[str] = None, default=None, key=None):
    """A RunConfig field read from ``[section] key`` (``key`` defaults to
    the field name) and set by the flag ``--field-name``."""
    parse, flag_type, metavar = kind
    metadata = {
        "section": section,
        "key": key,
        "parse": parse,
        "type": flag_type,
        "metavar": metavar,
        "help": help,
    }
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI run.

    Exactly one of the three coupling sources (explicit gamma pair,
    Rabi-frequency/Lamb-Dicke pairs per beam, chi override) may be given;
    modes that consume couplings require one. A chi override replaces the
    state/pattern inputs, so combining it with explicit n, r or l is
    rejected as ambiguous.
    """

    mode: str = _field("run", _TEXT, default=MISSING)
    chi: Optional[float] = _field("couplings", _FLOAT, "coupling-ratio override (replaces n/r/l)")
    gamma1: Optional[float] = _field("couplings", _FLOAT, "1-2 transition coupling")
    gamma2: Optional[float] = _field("couplings", _FLOAT, "2-3 transition coupling")
    omega_a: Optional[float] = _field("couplings", _FLOAT, "beam a Rabi frequency")
    eta_a: Optional[float] = _field("couplings", _FLOAT, "beam a Lamb-Dicke parameter")
    omega_b: Optional[float] = _field("couplings", _FLOAT, "beam b Rabi frequency")
    eta_b: Optional[float] = _field("couplings", _FLOAT, "beam b Lamb-Dicke parameter")
    n: Optional[Triple] = _field("state", _TRIPLE, "initial phonon occupations")
    r: Optional[Triple] = _field("state", _TRIPLE, "1-2 sideband quanta")
    l: Optional[Triple] = _field("state", _TRIPLE, "2-3 sideband quanta")
    t_max: float = _field("grid", _FLOAT, "time-grid end, omega(0)-scaled", _DEFAULT_T_MAX)
    samples: int = _field("grid", _INT, "time-grid sample count", 1000)
    epsilon: float = _field("grid", _FLOAT, "sub-threshold margin", 0.01)
    order_threshold: float = _field(
        "grid", _FLOAT, "minimum t_chi / T_p ratio counted as hindering", 0.5
    )
    chi_max: float = _field("grid", _FLOAT, "sweep grid end", 5.0)
    chi_step: float = _field("grid", _FLOAT, "sweep/figure grid step", 0.01)
    out: str = _field("output", _TEXT, "output file (.csv) or directory", "out", key="path")
    seed: int = _field("validate", _INT, "random seed (validate only)", 0)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["parse"] is _parse_float and value is not None:
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name}: must be finite")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if self.samples > MAX_GRID_POINTS:
            raise ConfigError(f"samples must be <= {MAX_GRID_POINTS}")
        if self.t_max <= 0:
            raise ConfigError("t_max must be > 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if not 0.0 < self.order_threshold <= 1.0:
            raise ConfigError("order_threshold must lie in (0, 1]")
        if self.chi_step <= 0:
            raise ConfigError("chi_step must be > 0")
        if self.chi_max < 0:
            raise ConfigError("chi_max must be >= 0")
        if self.chi is not None and self.chi < 0:
            raise ConfigError("chi must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("eta_a", "eta_b"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0")

        gamma_given = self.gamma1 is not None or self.gamma2 is not None
        if gamma_given and (self.gamma1 is None or self.gamma2 is None):
            raise ConfigError("gamma1 and gamma2 must be given together")
        drive_fields = (self.omega_a, self.eta_a, self.omega_b, self.eta_b)
        drive_given = any(value is not None for value in drive_fields)
        if drive_given and any(value is None for value in drive_fields):
            raise ConfigError("omega_a, eta_a, omega_b and eta_b must be given together")
        chi_given = self.chi is not None

        sources = sum((gamma_given, drive_given, chi_given))
        if sources > 1:
            raise ConfigError(
                "ambiguous couplings: give only one of the gamma pair, the "
                "per-beam (omega, eta) pairs, or a chi override"
            )
        if chi_given and any(value is not None for value in (self.n, self.r, self.l)):
            raise ConfigError("a chi override replaces n, r and l; do not combine them")
        if sources == 0 and MODES[self.mode].coupled:
            raise ConfigError(
                f"mode {self.mode!r} needs a coupling source: a gamma pair, "
                "per-beam (omega, eta) pairs, or a chi override"
            )

    @property
    def has_chi_override(self) -> bool:
        return self.chi is not None

    def mode_vector(self) -> ModeVector:
        if self.has_chi_override:
            return ModeVector(0, 0, 0)
        return ModeVector.of(self.n if self.n is not None else (1, 0, 0))

    def sideband_pattern(self) -> SidebandPattern:
        if self.has_chi_override:
            return SidebandPattern((0, 0, 0), (0, 0, 0))
        return SidebandPattern(
            self.r if self.r is not None else (1, 0, 0),
            self.l if self.l is not None else (0, 0, 0),
        )

    def coupling_constants(self) -> CouplingConstants:
        if self.has_chi_override:
            return CouplingConstants(1.0, self.chi)
        if self.gamma1 is not None:
            return CouplingConstants(self.gamma1, self.gamma2)
        if self.omega_a is not None:
            return CouplingConstants.from_drives(
                LaserDrive(self.omega_a, self.eta_a),
                LaserDrive(self.omega_b, self.eta_b),
            )
        raise ConfigError(f"mode {self.mode!r} has no coupling source configured")


_FIELDS = {f.name: f for f in fields(RunConfig)}

_INI_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in _FIELDS.values()}


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:  # its message can span lines
        raise ConfigError(f"config parse error: {' '.join(str(exc).split())}") from exc

    sections = dict.fromkeys(section for section, _ in _INI_KEYS)
    values: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(
                f"{path}: unknown section [{section}]; expected one of {', '.join(sections)}"
            )
        for key, raw in parser.items(section):
            f = _INI_KEYS.get((section, key))
            if f is None:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            values[f.name] = f.metadata["parse"](raw, f.name)
    return values


def load_config(path: Optional[str] = None, overrides: Optional[Mapping] = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides.

    ``overrides`` holds flag values keyed by RunConfig field name; entries
    that are None are ignored, everything else takes precedence over the
    file. Raises ConfigError with a field diagnostic on any problem.
    """
    values: dict = {}
    if path is not None:
        values.update(_read_file(path))
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown configuration field {key!r}")
            if value is None:
                continue
            values[key] = _FIELDS[key].metadata["parse"](value, key)
    if "mode" not in values:
        raise ConfigError("mode is required (pick a subcommand or set [run] mode)")
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
