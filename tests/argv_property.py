"""Hypothesis property over generated ``zenoion`` command lines.

Run as a script, in a child process whose address space is capped, so that
an escaped allocation fails fast instead of exhausting the host:

    python tests/argv_property.py [max_examples]

Every generated argv, some with an INI file passed by ``--config``, must,
with warnings raised as errors, do one of three things: run and exit 0 with
nothing on stderr; exit 1 with exactly one ``config error: ...`` line on
stderr; or, for a value argparse cannot parse, exit 2 with argparse's usage
message. Anything else, a traceback included, fails the property. Grids hold
at most 2000 points or more than ``MAX_GRID_POINTS``, so every run that is
accepted stays small. Occupations run up to about 10^400.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import sys
import tempfile
import warnings
from dataclasses import fields

ADDRESS_SPACE_LIMIT = 2 * 1024**3

if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from zenoion.cli import main  # noqa: E402
from zenoion.config import MAX_GRID_POINTS, MODES, RunConfig  # noqa: E402

MAX_POINTS = 2000

# Values argparse cannot parse as a number; one flag in ten argvs gets one.
_BAD_NUMBERS = ("abc", "", "1e", "0x10", "1,5")


def _text(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _numbers(edges, low, high):
    """A flag value: an edge value or a plain float in [low, high]."""
    return st.one_of(st.sampled_from(edges), st.floats(min_value=low, max_value=high)).map(
        _text
    )


_CHI = _numbers(
    (0.0, -0.0, 5e-324, 1e-300, 1e-9, 3.2e-7, 3.3e-7, 0.5, 1.0, math.sqrt(3.0), 2.0,
     20.0, 6.3e6, 6.4e6, 1e155, 1e300, 1.7976931348623157e308, -1.0, math.inf, math.nan,
     -math.inf, "-nan"),
    0.0, 50.0,
)
_GAMMA = _numbers(
    (0.0, 5e-324, 1e-200, 1e-160, 1e-3, 1.0, 3.0, 1e155, 1e308, -1.0, -2.5, math.inf,
     -math.inf, "-nan"),
    -10.0, 10.0,
)
_OMEGA = _numbers((0.0, 1e-300, 1.0, 2.0, 1e308, -1.0, math.nan), -10.0, 10.0)
_ETA = _numbers((0.0, 1e-300, 0.1, 1.0, 5.0, 40.0, 1e200, -0.1), 0.0, 5.0)
_T_MAX = _numbers(
    (5e-324, 1e-300, 0.1, 4.0 * math.pi, 1e5, 1e308, 0.0, -1.0, math.inf), 0.0, 100.0
)
_EPSILON = _numbers((1e-300, 0.01, 0.5, 1.0, 2.0, 0.0, -0.1), 0.0, 1.0)
_THRESHOLD = _numbers((1e-300, 0.5, 1.0, 1.0000001, 0.0, -1.0), 0.0, 1.0)
_SEED = st.one_of(
    st.sampled_from((0, 1, 2**31, 2**63, 10**30, -1)),
    st.integers(min_value=0, max_value=10**6),
).map(str)
_SAMPLES = st.one_of(
    st.integers(min_value=2, max_value=MAX_POINTS),
    st.sampled_from((-5, 0, 1, 2, MAX_POINTS, MAX_GRID_POINTS + 1, 10**12)),
    st.integers(min_value=MAX_GRID_POINTS + 1, max_value=10**15),
).map(str)
# Huge occupations: the falling-factorial product overflows after a few
# factors, and past ~1.8e308 a single factor does not fit in a float64.
_HUGE = st.one_of(
    st.sampled_from((10**9, 2**1023, 10**308, 10**309, 10**400)),
    st.integers(min_value=0, max_value=10**400),
)
_TRIPLE = st.one_of(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3).map(lambda t: "%d,%d,%d" % t),
    st.tuples(*[st.one_of(st.integers(min_value=0, max_value=3), _HUGE)] * 3).map(
        lambda t: "%d,%d,%d" % t
    ),
    st.sampled_from(("0,0,0", "100000,0,0", "50000,0,0", "1,2", "-1,0,0", "a,b")),
)
# The figure grids run to chi = 3 and 5 in steps of chi_step: at most 2000
# points, or more than the cap.
_FIGURE_STEP = st.one_of(
    st.floats(min_value=5.0 / MAX_POINTS, max_value=10.0),
    st.floats(min_value=5e-324, max_value=4.9e-6),
    st.sampled_from((1e-13, 5e-324, 0.0, -0.1, math.inf)),
).map(_text)


@st.composite
def _sweep_grid(draw):
    """(chi_max, chi_step) of a sweep grid of at most 2000 points or more
    than the cap, or one of the edge pairs."""
    edges = (
        ("4e-13", "1e-13"), ("1e300", "1e299"), ("1e308", "1e307"), ("1e308", "1e-10"),
        ("2e7", "1e7"), ("1", "1e-12"), ("5", "0"), ("-1", "0.1"), ("5", "inf"),
    )
    if draw(st.booleans()):
        return draw(st.sampled_from(edges))
    step = draw(st.floats(min_value=1e-13, max_value=1e6))
    count = draw(
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=41, max_value=MAX_POINTS),
            st.integers(min_value=MAX_GRID_POINTS + 1, max_value=10**15),
        )
    )
    return repr(count * step), repr(step)


# INI section and key of each RunConfig field, and the values an INI file
# gives it: those the flags get, so its grids stay as small.
_INI_KEYS = {
    f.name: (f.metadata["section"], f.metadata["key"] or f.name) for f in fields(RunConfig)
}
_INI_VALUES = {
    "mode": st.sampled_from(sorted(MODES) + ["bogus"]),
    "chi": _CHI,
    "gamma1": _GAMMA,
    "gamma2": _GAMMA,
    "omega_a": _OMEGA,
    "eta_a": _ETA,
    "omega_b": _OMEGA,
    "eta_b": _ETA,
    "n": _TRIPLE,
    "r": _TRIPLE,
    "l": _TRIPLE,
    "t_max": _T_MAX,
    "samples": _SAMPLES,
    "epsilon": _EPSILON,
    "order_threshold": _THRESHOLD,
    "chi_max": _numbers((0.0, 5.0, -1.0), 0.0, 10.0),
    "chi_step": _FIGURE_STEP,
    "out": st.sampled_from(("out", "run.csv")),
    "seed": _SEED,
}
# Lines configparser cannot read, or reads as a duplicate section.
_MALFORMED = ("junk", "[unclosed", "= 1", "[grid]", "[couplings]", "  indented = 1")
# Value endings that would mean interpolation to a configparser with it on.
_PERCENT = ("%", "%%", "%(chi)s", "%s", "%x")
# Continuation lines: a number, a value another key takes, an assignment
# and a blank line.
_CONTINUATIONS = ("3", "1.0", "2,1,0", "chi = 1", "")
# Bytes that no UTF-8 text holds: a stray continuation byte, a lone lead
# byte, an overlong encoding, an encoded surrogate, Latin-1 text.
_NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80", "é".encode("latin-1"))

# Coupling sources: mostly one, sometimes none or an ambiguous pair.
_SOURCES = (("chi",), ("gamma",), ("drive",)) * 2 + ((), ("chi", "gamma"), ("gamma", "drive"))
# Draws that come out True one time in three and one time in ten.
_THIRD = st.sampled_from((True, False, False))
_TENTH = st.sampled_from((True,) + (False,) * 9)


@st.composite
def ini_texts(draw):
    """The bytes of an INI file of RunConfig keys. One time in ten each, a
    key sits in an unknown or misplaced section or has an unknown name, a
    value is malformed, holds a '%' or runs on in a continuation line, the
    file has an unreadable line, or it holds bytes that are not UTF-8."""
    sections: dict[str, list[str]] = {}
    for name in draw(st.lists(st.sampled_from(sorted(_INI_VALUES)), max_size=6, unique=True)):
        section, key = _INI_KEYS[name]
        value = draw(_INI_VALUES[name])
        if draw(_TENTH):
            section = draw(st.sampled_from(("bogus", "Grid", "run", "validate")))
        if draw(_TENTH):
            key = draw(st.sampled_from((key + "_x", "mode", "path", "unknown")))
        if draw(_TENTH):
            value = draw(st.sampled_from(_BAD_NUMBERS))
        if draw(_TENTH):
            value += draw(st.sampled_from(_PERCENT))
        if draw(_TENTH):
            value += "\n  " + draw(st.sampled_from(_CONTINUATIONS))
        sections.setdefault(section, []).append(f"{key} = {value}")
    lines = [line for section, keys in sections.items() for line in [f"[{section}]", *keys]]
    if draw(_TENTH):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_MALFORMED)))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(_TENTH):
        index = draw(st.integers(0, len(data)))
        data = data[:index] + draw(st.sampled_from(_NOT_UTF8)) + data[index:]
    return data


@st.composite
def argvs(draw):
    """A mode and its flags, each written ``--flag=value`` or ``--flag value``
    (a negative number in exponent form must read as a value either way)."""
    mode = draw(st.sampled_from(sorted(MODES)))
    flags = []

    def maybe(flag, strategy):
        if draw(_THIRD):
            flags.append((flag, draw(strategy)))

    sources = draw(st.sampled_from(_SOURCES))
    if "chi" in sources:
        flags.append(("--chi", draw(_CHI)))
    if "gamma" in sources:
        flags += [("--gamma1", draw(_GAMMA)), ("--gamma2", draw(_GAMMA))]
    if "drive" in sources:
        flags += [("--omega-a", draw(_OMEGA)), ("--eta-a", draw(_ETA))]
        flags += [("--omega-b", draw(_OMEGA)), ("--eta-b", draw(_ETA))]
    if "chi" not in sources or draw(_TENTH):
        for flag in ("--n", "--r", "--l"):
            if draw(st.booleans()):
                flags.append((flag, draw(_TRIPLE)))
    maybe("--t-max", _T_MAX)
    maybe("--samples", _SAMPLES)
    maybe("--epsilon", _EPSILON)
    maybe("--order-threshold", _THRESHOLD)
    if mode == "figures":
        maybe("--chi-step", _FIGURE_STEP)
    elif mode == "sweep":
        chi_max, chi_step = draw(_sweep_grid())
        flags += [("--chi-max", chi_max), ("--chi-step", chi_step)]
    else:
        maybe("--chi-max", _numbers((0.0, 5.0, -1.0), 0.0, 10.0))
        maybe("--chi-step", _numbers((1e-13, 0.01, 0.0, -1.0), 0.0, 1.0))
    maybe("--seed", _SEED)
    numeric = [i for i, (flag, _) in enumerate(flags) if flag not in ("--n", "--r", "--l")]
    if numeric and draw(_TENTH):
        index = draw(st.sampled_from(numeric))
        flags[index] = (flags[index][0], draw(st.sampled_from(_BAD_NUMBERS)))
    argv = [mode]
    for flag, value in flags:
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def runs(draw):
    """An argv and, one time in three, the bytes of an INI file for it."""
    argv = draw(argvs())
    return argv, draw(ini_texts()) if draw(_THIRD) else None


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process ``zenoion`` run, with
    warnings raised as errors."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, stderr.getvalue()


def check(argv, ini=None) -> None:
    with tempfile.TemporaryDirectory() as out:
        if ini is not None:
            config = os.path.join(out, "run.ini")
            with open(config, "wb") as handle:
                handle.write(ini)
            argv = argv + [f"--config={config}"]
        code, err = run(argv + [f"--out={out}"])
    if code == 0:
        assert err == "", err
    elif code == 1:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    else:
        assert code == 2, (code, err)
        assert err.startswith("usage: zenoion") and "error: argument" in err, err
        assert "Traceback" not in err, err


def main_property(max_examples: int) -> None:
    @settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(case=runs())
    def prop(case):
        check(*case)

    prop()


if __name__ == "__main__":
    main_property(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
