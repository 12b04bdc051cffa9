"""Execution of the CLI run modes: sweeps, evolution runs, figure CSVs and
the self-validation harness.

All emitted time columns are omega(0)-scaled (units of 1/omega(0), where
omega(0) is the 1-2 coupling magnitude over hbar); each CSV starts with a
comment line restating that convention. Floats are written with 17
significant digits so the files round-trip 64-bit values exactly.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import os
import pickle
import random
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from types import GeneratorType
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import indicators
from .config import MAX_GRID_POINTS, ConfigError, RunConfig
from .dynamics import (
    BlockSystem,
    VibronicState,
    _spectral_propagator,
    _state,
    build_block,
    level_probabilities,
    propagate_analytic,
    propagate_oracle,
    survival_probability,
)
from .fock import (
    CouplingConstants,
    ModeVector,
    SidebandPattern,
    factorial_ratio_root,
)
from .indicators import (
    IndicatorReport,
    angular_frequency,
    gqze_interval,
    gqze_interval_grid,
    indicator_report,
    mean_level_probabilities,
    mean_survival,
    mean_survival_quadrature,
    min_survival,
    poincare_time,
    sub_threshold_measure,
    sub_threshold_measure_grid,
    time_of_min,
    time_of_min_grid,
)

__all__ = [
    "run_evolve",
    "run_survival",
    "run_indicators",
    "run_sweep",
    "run_figures",
    "run_validate",
    "ValidationCheck",
    "ValidationReport",
]

_UNITS_COMMENT = "time columns in units of 1/omega(0), hbar = 1; probabilities dimensionless"

_FIGURE_CHIS = (0.0, 1.0, 5.0, 10.0)
# Rows a CSV formats and pickles as one block, and time samples read as
# Python floats at once.
_BLOCK = 4096

# The CSV helper's source, run by ``python -I -S`` (so without numpy): it
# writes each row of each pickled block on stdin as argv[1] % row to fd 1.
# The closed pipe ends it, so it ignores the SIGINT that a Ctrl-C sends the
# whole process group. A truncated last pickle means the CLI process
# stopped mid-block, and is raising.
_HELPER = """\
import pickle, signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
fmt = sys.argv[1]
with open(1, "w", encoding="utf-8", newline="", closefd=False) as out:
    while True:
        try:
            block = pickle.load(sys.stdin.buffer)
        except (EOFError, pickle.UnpicklingError):
            break
        out.writelines(map(fmt.__mod__, block))
"""


def _cell_format(value) -> str:
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return "%d"
    return "%s" if isinstance(value, str) else "%.16e"


class _RowPickler(pickle.Pickler):
    """Pickles a block of rows for the helper, which has no numpy: a numpy
    scalar goes as the Python value ``.item()`` gives (``float`` for a
    long double, which '%' reads as a float), which every cell format turns
    into the same bytes. Builtin cells never reach the hook. Cells are
    scalars, never shared or cyclic, so no memo is kept (fast mode): it
    would cost more memory than the block itself."""

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.fast = True

    def reducer_override(self, obj):
        if not isinstance(obj, np.generic):
            return NotImplemented
        value = obj.item()
        if isinstance(value, np.generic):
            value = float(value)
        return type(value), (value,)


def _write_rest(handle: TextIO, fmt: str, rows: Iterator[tuple]) -> None:
    """Write the rest of ``rows``, each as ``fmt % row``, to ``handle``
    through the helper. It starts once a row is left, so it starts up while
    the first block is computed. Where it cannot start (``sys.executable``
    empty or None, or ``Popen`` raising ``OSError``: the interpreter moved,
    no process to spare) the rows are formatted here. The helper is waited
    for however this returns; a nonzero exit of it raises ``OSError``."""
    following = next(rows, None)
    if following is None:
        return
    rows = chain([following], rows)
    import subprocess  # only a CSV past its first block pays for the import

    handle.flush()
    helper = None
    if sys.executable:
        with contextlib.suppress(OSError):
            helper = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _HELPER, fmt],
                stdin=subprocess.PIPE,
                stdout=handle,
            )
    if helper is None:
        handle.writelines(map(fmt.__mod__, rows))
        return
    try:
        while block := list(islice(rows, _BLOCK)):
            try:
                _RowPickler(helper.stdin).dump(block)
            except BrokenPipeError:
                break  # the helper stopped early; its exit status says why
            del block  # so only the block being built is held
    finally:
        with contextlib.suppress(BrokenPipeError):
            helper.stdin.close()
        status = helper.wait()
    if status:
        raise OSError(f"the CSV formatting helper exited with status {status}")


def write_csv(path: Path, comment: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV: a '#' unit comment, a header row, then data rows.

    Bool and integer cells are written as integers, ``str`` cells as they
    are, all others as f"{float(v):.16e}". One '%' format string, built from
    the first row ('%d', '%s' or '%.16e' per cell, which give those bytes,
    nan, inf and -0.0 included), formats every row, so all rows must hold
    the cell types of the first.

    ``rows`` may be a generator, taken to compute each row as it is read
    (as ``evolve``'s does). Of a generator only the first ``_BLOCK``
    (4,096) rows are formatted and written here. Any rows after them are
    read ``_BLOCK`` at a time and pickled, numpy scalars as the Python
    values ``.item()`` gives, to one helper interpreter. It formats them by
    the same format string and writes them to the same file, while
    ``rows`` computes the next block. So memory stays flat in both
    processes: each holds about one block. Where the helper cannot be
    started, these rows too are formatted here. Any other iterable (a list,
    or a ``zip`` or ``map`` over computed arrays) is formatted here in
    full: its rows would leave a helper nothing to overlap, so its start
    and the pickling would only add time.

    The rows go to a hidden file beside ``path`` (beside the file a symlink
    there points to), which ``os.replace`` then moves into place, so the CSV
    appears only once complete. On any exception, raised by ``rows``, by
    the write or by the helper (which exits nonzero, an ``OSError`` here,
    when it cannot format a row or write), the helper is waited for first.
    Then the hidden file is removed, and a file already at ``path`` keeps
    its bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    target = Path(os.path.realpath(path))
    # open(..., "x") creates the file with mode 0o666 & ~umask, as "w" does.
    partial = target.with_name(f".{target.name}.{os.urandom(6).hex()}.partial")
    handle = open(partial, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(f"# {comment}\n")
            handle.write(",".join(header) + "\n")
            computed = isinstance(rows, GeneratorType)
            rows = map(tuple, rows)
            first = next(rows, None)
            if first is not None:
                fmt = ",".join(map(_cell_format, first)) + "\n"
                handle.write(fmt % first)
                if computed:
                    handle.writelines(map(fmt.__mod__, islice(rows, _BLOCK - 1)))
                    _write_rest(handle, fmt, rows)
                else:
                    handle.writelines(map(fmt.__mod__, rows))
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _chi_grid(chi_max: float, chi_step: float) -> np.ndarray:
    # The last point stays at or below chi_max; the relative tolerance keeps
    # it when chi_max is a whole number of steps that the division misses by
    # an ulp (18.15 / 0.05 = 362.99999999999994).
    steps = chi_max / chi_step * (1.0 + 1e-9)
    if not steps < MAX_GRID_POINTS:  # also catches an infinite ratio
        raise ConfigError(
            f"the chi grid [0, {chi_max:g}] in steps of {chi_step:g} would hold "
            f"more than {MAX_GRID_POINTS} points"
        )
    count = math.floor(steps)
    # Rounding to 12 decimals pins grid points like 1.00 exactly, so
    # piecewise indicator branches switch at the printed value. np.round
    # scales by 1e12 first, which overflows past ~1.8e296.
    if not math.isfinite(count * chi_step * 1e12):
        raise ConfigError(
            f"chi_max = {chi_max:g} is too large: the chi grid rounds its points "
            "to 12 decimals, which overflows float64 above about 1.8e296"
        )
    grid = np.round(np.arange(count + 1) * chi_step, 12)
    if np.any(grid[1:] <= grid[:-1]):
        raise ConfigError(
            f"chi_step = {chi_step:g} is too small: the chi grid rounds its "
            "points to 12 decimals, which would merge neighbouring points"
        )
    return grid


def _internal_time(scaled: float, name: str, coupling: float) -> float:
    """A time in units of 1/omega(0) in internal units (hbar = 1): ``scaled
    / coupling``, where ``coupling`` is |c12| = omega(0). ``ConfigError``
    naming |c12| once that overflows."""
    value = scaled / coupling
    if not math.isfinite(value):
        raise ConfigError(
            f"|c12| = {coupling:g} is too small: {name} / |c12| overflows float64"
        )
    return value


def _time_grid(config: RunConfig, frequency: float, coupling: float = 1.0) -> np.ndarray:
    """The omega(0)-scaled time grid: ``config.samples`` points on [0, t_max].

    Raises ``ConfigError`` when the largest time, ``t_max / coupling``, or
    the largest phase, ``frequency * (t_max / coupling)``, overflows. That
    phase is sqrt(1 + chi^2) t_max in omega(0) units; past it every cos(wt)
    is nan.
    """
    t_end = _internal_time(config.t_max, "the time unit t_max", coupling)
    if not math.isfinite(frequency * t_end):
        raise ConfigError(
            f"t_max = {config.t_max:g} is too large: the phase omega t_max "
            "overflows float64"
        )
    return np.linspace(0.0, config.t_max, config.samples)


def _names_csv_file(out: str) -> bool:
    """Whether ``out`` names a CSV file, not a directory: its suffix is .csv
    in any case (x.csv, x.CSV)."""
    return Path(out).suffix.lower() == ".csv"


def _output_file(config: RunConfig, default_name: str) -> Path:
    target = Path(config.out)
    if _names_csv_file(config.out):
        return target
    return target / default_name


def _resolve(config: RunConfig) -> BlockSystem:
    """The block of one configuration, checked: two or three levels, finite
    nonzero |c12| (omega(0), as hbar = 1), finite |c23|, chi^2 and frequency.
    Runs read chi as ``abs(block.chi)`` and omega(0) as ``abs(block.coupling_12)``."""
    block = build_block(
        config.mode_vector(), config.sideband_pattern(), config.coupling_constants()
    )
    if block.dimension == 1:
        raise ConfigError(
            "the configured block is one dimensional (the 1-2 sideband finds "
            "no target state); there is no omega(0) time scale"
        )
    if block.is_degenerate:
        raise ConfigError(
            "the configured 1-2 coupling vanishes; survival indicators are undefined"
        )
    a = abs(block.coupling_12)
    b = abs(block.coupling_23)
    for name, value in (("c12", a), ("c23", b)):
        if not math.isfinite(value):
            raise ConfigError(
                f"the coupling |{name}| = {value:g} is not finite: its gamma times "
                "the falling-factorial factor of the occupations overflows float64"
            )
    chi = abs(block.chi)
    if not math.isfinite(chi * chi):
        raise ConfigError(
            f"chi = {chi:g} with |c12| = {a:g}, |c23| = {b:g} is too large: chi^2 "
            "overflows float64"
        )
    # The block frequency is hypot(|c12|, |c23|); nothing downstream forms
    # the squares, so only the frequency itself must be finite.
    if not math.isfinite(block.angular_frequency):
        raise ConfigError(
            f"|c12| = {a:g}, |c23| = {b:g} are too large: the block frequency "
            "hypot(|c12|, |c23|) overflows float64"
        )
    return block


def run_evolve(config: RunConfig) -> Path:
    """Evolve |n, 1> over the scaled time grid; emit level populations."""
    block = _resolve(config)
    coupling = abs(block.coupling_12)
    initial = VibronicState.basis_state(block.dimension, 0)
    t_scaled = _time_grid(config, block.angular_frequency, coupling)

    def rows():
        # One row at a time, and the grid as floats one block at a time, so
        # only the grid array grows with the samples. p1 is formatted once,
        # here, not twice (p1 and survival) by the CSV helper: less work in
        # all, which counts when one core is busy.
        for start in range(0, len(t_scaled), _BLOCK):
            for value in t_scaled[start : start + _BLOCK].tolist():
                state = propagate_analytic(block, initial, value / coupling)
                p1, p2, p3 = level_probabilities(state)
                p1 = "%.16e" % p1
                yield value, p1, p2, p3, p1

    path = _output_file(config, "evolve.csv")
    write_csv(path, _UNITS_COMMENT, ("t_scaled", "p1", "p2", "p3", "survival"), rows())
    return path


def _survival_rows(config: RunConfig, chis: Sequence[float]):
    """Rows (t_scaled, P(chi_1), ..., P(chi_k)) of the survival curves at
    ``chis`` over the scaled time grid, whose phase bound is that of the
    largest chi. The grid and the columns are computed before it returns, so
    a ``ConfigError`` comes before any file is written."""
    t_scaled = _time_grid(config, angular_frequency(max(chis)))
    columns = [survival_probability(chi, angular_frequency(chi), t_scaled) for chi in chis]
    return zip(t_scaled, *columns)


def run_survival(config: RunConfig) -> Path:
    """Survival probability of |n, 1> over the scaled time grid."""
    rows = _survival_rows(config, [abs(_resolve(config).chi)])
    path = _output_file(config, "survival.csv")
    write_csv(path, _UNITS_COMMENT, ("t_scaled", "survival"), rows)
    return path


# CSV column names of an indicator row, in the order of ``_report_row``.
_REPORT_HEADER = (
    "chi", "omega_scaled", "T_p_scaled", "m", "t_m_scaled", "P_mean", "P2_mean", "P3_mean",
    "S_scaled", "S_over_Tp", "gqze_present", "t_chi_scaled", "t_chi_over_Tp",
)


def _report_row(r: IndicatorReport) -> tuple:
    """The CSV cells of one report, named by ``_REPORT_HEADER``; the report
    is already omega(0)-scaled."""
    gqze = r.gqze
    return (
        r.chi,
        r.angular_frequency,
        r.poincare_period,
        r.survival_min,
        r.time_of_min,
        r.survival_mean,
        r.level2_mean,
        r.level3_mean,
        r.sub_threshold_time,
        r.sub_threshold_time / r.poincare_period,
        gqze is not None and gqze.present,
        math.nan if gqze is None else gqze.end,
        math.nan if gqze is None else gqze.period_ratio,
    )


def _write_reports(path: Path, reports: Iterable[IndicatorReport]) -> None:
    write_csv(path, _UNITS_COMMENT, _REPORT_HEADER, map(_report_row, reports))


def format_report(report: IndicatorReport, coupling: float) -> str:
    """Human-readable indicator report: omega(0)-scaled times, and the
    period and first-minimum time in internal units for the 1-2 coupling
    magnitude ``coupling`` = omega(0)."""
    column = dict(zip(_REPORT_HEADER, _report_row(report)))
    lines = [
        f"chi                    = {column['chi']:.12g}",
        f"omega / omega(0)       = {column['omega_scaled']:.12g}",
        f"T_p * omega(0)         = {column['T_p_scaled']:.12g}",
        f"T_p (internal units)   = {report.poincare_period / coupling:.12g}",
        f"m                      = {column['m']:.12g}",
        f"t_m * omega(0)         = {column['t_m_scaled']:.12g}",
        f"t_m (internal units)   = {report.time_of_min / coupling:.12g}",
        f"P_mean                 = {column['P_mean']:.12g}",
        f"P2_mean                = {column['P2_mean']:.12g}",
        f"P3_mean                = {column['P3_mean']:.12g}",
        f"S * omega(0)           = {column['S_scaled']:.12g}"
        f"  (epsilon = {report.epsilon:.12g})",
        f"S / T_p                = {column['S_over_Tp']:.12g}",
    ]
    if report.gqze is None:
        lines.append("hindering interval     = none (chi = 0 reproduces the reference)")
    else:
        verdict = "present" if report.gqze.present else "below order threshold"
        lines.append(
            f"hindering interval     = [0, {column['t_chi_scaled']:.12g}] scaled, "
            f"t_chi / T_p = {column['t_chi_over_Tp']:.12g} ({verdict})"
        )
    return "\n".join(lines)


def run_indicators(config: RunConfig) -> tuple[str, Path]:
    """Indicator report for one configuration: text plus a one-row CSV."""
    block = _resolve(config)
    coupling = abs(block.coupling_12)
    # Every internal time printed is at most the reference period.
    _internal_time(math.tau, "the period 2 pi", coupling)
    report = indicator_report(abs(block.chi), config.epsilon, config.order_threshold)
    path = _output_file(config, "indicators.csv")
    _write_reports(path, [report])
    return format_report(report, coupling), path


def run_sweep(config: RunConfig) -> Path:
    """Indicator reports over a chi grid (single point when chi is given)."""
    grid = [config.chi] if config.has_chi_override else _chi_grid(config.chi_max, config.chi_step)
    reports = (
        indicator_report(float(chi), config.epsilon, config.order_threshold) for chi in grid
    )
    path = _output_file(config, "sweep.csv")
    _write_reports(path, reports)
    return path


def run_figures(config: RunConfig) -> list[Path]:
    """Emit fig1.csv ... fig4.csv under the output directory.

    fig1: survival vs scaled time, one column P_chi<chi> per chi of
    ``_FIGURE_CHIS`` (0, 1, 5, 10), on the grid of ``run_survival``, so
    ``survival`` at one of those chi writes its fig1 column;
    fig2: survival minimum vs chi on [0, 3];
    fig3: scaled first-minimum time vs chi on [0, 3];
    fig4: period-averaged survival vs chi on [0, 5].
    All use the unit 1-2 coupling, so omega(0) = 1. Every grid is checked,
    and fig1's columns computed, before the first file is written; fig2-fig4
    make one scalar closed-form call per chi as their rows are written,
    which cannot fail on a checked grid. ``out``
    must name a directory: a ``.csv`` path (the suffix in any case) is a
    ``ConfigError``, raised before anything is created.
    """
    if _names_csv_file(config.out):
        raise ConfigError(
            f"figures writes fig1.csv ... fig4.csv into a directory, but out = "
            f"{config.out!r} names a .csv file"
        )
    chi_short = _chi_grid(3.0, config.chi_step)
    chi_long = _chi_grid(5.0, config.chi_step)
    table = (
        ("fig1.csv", _UNITS_COMMENT, ("t_scaled", *(f"P_chi{chi:g}" for chi in _FIGURE_CHIS)),
         _survival_rows(config, _FIGURE_CHIS)),
        ("fig2.csv", "chi dimensionless; m = survival-probability minimum over one period",
         ("chi", "m"), zip(chi_short, map(min_survival, chi_short))),
        ("fig3.csv", _UNITS_COMMENT, ("chi", "t_m_scaled"),
         zip(chi_short, map(time_of_min, chi_short))),
        ("fig4.csv", "chi dimensionless; P_mean = period-averaged survival probability",
         ("chi", "P_mean"), zip(chi_long, map(mean_survival, chi_long))),
    )
    paths = [Path(config.out) / name for name, *_ in table]
    for path, (_, comment, header, rows) in zip(paths, table):
        write_csv(path, comment, header, rows)
    return paths


# --- validation harness ---------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def format_text(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(
                f"{check.name:<46} max dev {check.max_deviation:.3e}  "
                f"tol {check.tolerance:.1e}  {verdict}"
            )
        passed = sum(check.passed for check in self.checks)
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'} ({passed}/{len(self.checks)} checks)")
        return "\n".join(lines)


# The three-chain cases of random_cases, cycling over the patterns below.
_THREE_CHAIN_CASES = 100

_THREE_CHAIN_PATTERNS = (
    ((3, 1, 0), (1, 0, 0), (1, 1, 0)),
    ((2, 2, 2), (1, 1, 0), (0, 1, 1)),
    ((1, 0, 0), (1, 0, 0), (0, 0, 0)),
    ((4, 3, 2), (2, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((5, 0, 1), (2, 0, 0), (1, 0, 1)),
)

_TWO_CHAIN_PATTERNS = (
    ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    ((2, 1, 0), (1, 1, 0), (2, 0, 0)),
    ((0, 3, 0), (0, 2, 0), (0, 2, 0)),
)

_ONE_CHAIN_PATTERNS = (
    ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
    ((2, 0, 1), (0, 1, 0), (1, 1, 1)),
)


def _random_gamma(rng: random.Random) -> complex:
    """A coupling constant of magnitude in [0.3, 2] and uniform phase."""
    return rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(0.0, math.tau))


def _random_case(rng: random.Random, block: BlockSystem):
    """(block, random unit state, random time within three periods of 0); a
    block without dynamics takes the time unit as its period. The state's
    real parts, then its imaginary parts, are standard normal draws,
    normalised."""
    frequency = block.angular_frequency
    period = math.tau / frequency if frequency > 0 else 1.0
    time = rng.uniform(-3.0, 3.0) * period
    # gauss takes its arguments explicitly: Python 3.10 gives them no defaults.
    parts = [rng.gauss(0.0, 1.0) for _ in range(2 * block.dimension)]
    norm = math.hypot(*parts)
    amps = [complex(re, im) / norm for re, im in zip(parts, parts[block.dimension:])]
    return block, VibronicState(amps), time


def random_cases(rng: random.Random) -> list:
    """Randomized (block, state, time) cases spanning chi in [0, 20], drawn
    from ``rng``, a ``random.Random``.

    Returns a list: 100 three-chain blocks with chi swept uniformly
    over [0, 20] (random coupling phases and magnitudes), then a tail of
    two- and one-chain blocks so every dimension is exercised.

    Each three-chain pattern's ``ModeVector``, ``SidebandPattern`` and
    factorial ratio are built once per call, before any draw, and shared by
    the cases that use the pattern; the draws, and so every case, are those
    of a per-case build.
    """
    chains = []
    for n, r, l in _THREE_CHAIN_PATTERNS:
        mode = ModeVector.of(n)
        ratio = factorial_ratio_root(mode, r) / factorial_ratio_root(mode.remove(r), l)
        chains.append((mode, SidebandPattern(r, l), ratio))
    cases = []
    for index, target in enumerate(np.linspace(0.0, 20.0, _THREE_CHAIN_CASES).tolist()):
        mode, pattern, ratio = chains[index % len(chains)]
        gamma1 = _random_gamma(rng)
        gamma2 = target * gamma1 * ratio * cmath.exp(1j * rng.uniform(0.0, math.tau))
        block = build_block(mode, pattern, CouplingConstants(gamma1, gamma2))
        cases.append(_random_case(rng, block))
    for n, r, l in _TWO_CHAIN_PATTERNS + _ONE_CHAIN_PATTERNS:
        couplings = CouplingConstants(_random_gamma(rng), _random_gamma(rng))
        block = build_block(ModeVector.of(n), SidebandPattern(r, l), couplings)
        cases.append(_random_case(rng, block))
    return cases


# The block of _oracle_level_means: all three levels of the ground mode
# vector, carrier-driven.
_GROUND_MODE = ModeVector(0, 0, 0)
_CARRIER = SidebandPattern((0, 0, 0), (0, 0, 0))


def _oracle_level_means(chi: float) -> np.ndarray:
    """Trapezoidal period averages (P1, P2, P3) of the level populations,
    starting from level 1, of the block with c12 = 1 and c23 = chi,
    propagated by eigendecomposition, on ``indicators._QUADRATURE_PANELS``
    panels read at call time.

    The states at all panel edges are column 0 of the stacked spectral
    propagators, computed in one call; ``_state`` checks each one and
    ``level_probabilities`` reads it, as for every state. Like
    ``mean_survival_quadrature``, exact up to rounding for any panel count
    >= 3: each population has harmonics 0, 1 and 2 in wt only.
    """
    panels = indicators._QUADRATURE_PANELS
    block = build_block(_GROUND_MODE, _CARRIER, CouplingConstants(1.0, chi))
    times = np.linspace(0.0, math.tau / block.angular_frequency, panels + 1)
    states = _spectral_propagator(block, times)[:, :, 0].tolist()
    populations = np.array([level_probabilities(_state(tuple(state))) for state in states])
    weights = np.full(panels + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    return weights @ populations / panels


def _max_deviation(deviations: Iterable[float]) -> float:
    """The largest of ``deviations`` as a Python float: 0.0 when there are
    none, nan when any is nan, so a nan deviation fails its check. The
    deviations are >= 0, so their sum is nan only then (no inf - inf can
    arise), while ``max`` alone would drop a nan that follows a number."""
    values = list(deviations)
    return math.nan if math.isnan(sum(values)) else float(max(values, default=0.0))


def _amplitude_gap(one: VibronicState, two: VibronicState) -> float:
    """The largest modulus of the amplitude differences, each formed on
    Python complex numbers (libm ``hypot`` through ``abs``), reduced by
    ``_max_deviation``."""
    return _max_deviation(abs(a - b) for a, b in zip(one.values, two.values, strict=True))


def _top_survival(block: BlockSystem, time: float) -> float:
    """P1 at ``time`` of the block started in its top state, propagated."""
    top = VibronicState.basis_state(block.dimension, 0)
    return level_probabilities(propagate_analytic(block, top, time))[0]


def run_validate(config: RunConfig) -> ValidationReport:
    """Cross-check the closed-form dynamics and indicators against their
    numeric twins.

    Each check is one row of a table: its name, its tolerance and its
    deviations over the cases, which ``_max_deviation`` reduces.
    """
    cases = random_cases(random.Random(config.seed))
    runs = [(case, propagate_analytic(*case)) for case in cases]
    chi_grid = np.logspace(-2, 2, 25)
    # The survival floor m is the survival at its first minimum t_m. So one
    # bracketed argmin per chi checks both: t_m against the argmin, m against
    # the survival there.
    argmins = [(chi, time_of_min_grid(chi)) for chi in chi_grid]
    level_means = [(mean_level_probabilities(chi), _oracle_level_means(chi)) for chi in chi_grid]
    # The windowed search samples a subset of the dense grid and must agree
    # with it bit for bit; sqrt(3) is commensurate (w = 2), where the curves
    # touch at t = pi.
    threshold = config.order_threshold
    crossings = [
        (gqze_interval(chi, threshold), gqze_interval_grid(chi, threshold))
        for chi in (0.3, 0.7, 1.0, 2.0, math.sqrt(3.0), 5.0)
    ]
    table = (
        ("analytic vs eigendecomposition amplitudes", 1e-10,
         (_amplitude_gap(evolved, propagate_oracle(*case)) for case, evolved in runs)),
        ("propagated-state norm", 1e-12, (abs(evolved.norm - 1.0) for _, evolved in runs)),
        ("forward-backward reversibility", 1e-10,
         (_amplitude_gap(propagate_analytic(block, evolved, -time), state)
          for (block, state, time), evolved in runs)),
        ("one-period recurrence", 1e-10,
         (_amplitude_gap(
             evolved, propagate_analytic(block, state, time + math.tau / block.angular_frequency))
          for (block, state, time), evolved in runs if block.angular_frequency > 0)),
        ("two-level Rabi limit", 1e-12,
         (abs(_top_survival(block, time) - math.cos(abs(block.coupling_12) * time) ** 2)
          for block, _, time in cases if block.dimension == 2 and not block.is_degenerate)),
        ("survival formula vs overlap", 1e-12,
         (abs(_top_survival(block, time)
              - survival_probability(abs(block.chi), block.angular_frequency, time))
          for block, _, time in cases if block.dimension == 3 and not block.is_degenerate)),
        ("survival minimum: closed vs grid", 1e-14,
         (abs(min_survival(chi) - survival_probability(chi, angular_frequency(chi), t))
          for chi, t in argmins)),
        ("survival mean: closed vs quadrature", 1e-14,
         (abs(mean_survival(chi) - mean_survival_quadrature(chi)) for chi in chi_grid)),
        ("level-2 mean: closed vs oracle quadrature", 1e-14,
         (abs(closed[1] - twin[1]) for closed, twin in level_means)),
        ("level-3 mean: closed vs oracle quadrature", 1e-14,
         (abs(closed[2] - twin[2]) for closed, twin in level_means)),
        ("first-minimum time vs bracketed argmin", 1e-7,
         (abs(time_of_min(chi) - t) for chi, t in argmins)),
        ("sub-threshold measure vs bisection (T_p)", 1e-8,
         (abs(sub_threshold_measure(chi, config.epsilon)
              - sub_threshold_measure_grid(chi, config.epsilon)) / poincare_time(chi)
          for chi in (0.3, 0.7, 1.0, 2.0))),
        ("gqze crossing: windowed vs dense grid", 0.0,
         (deviation for windowed, dense in crossings
          for deviation in (abs(windowed.end - dense.end), float(windowed != dense)))),
    )
    return ValidationReport(
        tuple(ValidationCheck(name, _max_deviation(devs), tol) for name, tol, devs in table)
    )
