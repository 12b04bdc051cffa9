"""Print t_chi over fixed case sets, the randomized cases of ``validate``
for fixed seeds and the other closed forms over fixed chi, one line per
case, so that two trees can be compared with one ``cmp``.

Each line is ``set <TAB> key <TAB> result``. In the t_chi sets the key is
``repr(chi)`` and the result is ``repr(gqze_interval(chi))``, or the type
and message of the ``ValueError`` it raises. The chi values come from
``random.Random`` with fixed seeds and from fixed formulas, never from the
package, so every tree is asked the same questions:

- ``log-uniform``: 3,000 chi drawn log-uniformly over the grid search's
  range, (3.17e-7, 6.3e6);
- ``sweep-grid``: the ``sweep`` grid to 22 in steps of 0.05, 441 chi from 0;
- ``uniform``: 1,000 chi drawn uniformly from [0, 25];
- ``touch``: chi = sqrt(4 k^2 - 1) for k = 1, ..., 199, where w = 2k and
  the curves only touch at pi, with each chi's two float neighbours and
  relative offsets of 1e-9 either way: 995 chi.

The set ``random-cases`` lists every (block, state, time) case that
``random_cases`` draws from ``random.Random(seed)`` for seeds 0..199, 105 a
seed and 21,000 in all. Its key is ``seed:index`` and its result the
case's ``repr``, which writes every float in the shortest form that reads
back to the same bits, so two trees print the same line only for the same
case.

The set ``propagated`` has the same 21,000 keys. Its result is the
``repr`` of the pair (``propagate_analytic(*case).values``, the
``level_probabilities`` of that state), signed zeros included, so the same
output from two trees shows the closed-form propagator bit-identical on
every case.

The set ``closed-forms`` is keyed by ``repr(chi)`` over every chi of
``log-uniform`` and ``sweep-grid``, then 1,000 chi at 1 +- 10^U(-15, -2)
(drawn with a fixed seed, where chi^2 - 1 cancels): 4,441 chi. Its result
is the ``repr`` of (``min_survival``, ``time_of_min``,
``mean_level_probabilities``, ``sub_threshold_measure(chi, 0.01)``), or the
``ValueError``, so one diff shows every closed-form value a change moves.

The last set, ``ends``, prints t_chi as the first four sets do, for 1,000
chi past each end of the grid search's range, where ``gqze_interval``
takes its end laws: 500 drawn log-uniformly from [3.2e-8, 3.16e-7], where
the small-chi law's (1/2 - pi/8) chi^2 survives rounding next to pi/2; 400
from [6.33e6, 1e12], where X / chi of the large-chi law survives it next to
pi; and 20 touch chi sqrt(4 k^2 - 1) past 6.33e6 with their two float
neighbours and relative offsets of 1e-12 either way. Nearly every line then
prints a t_chi other than exactly pi/2 or pi, so a change to either law
shows in the same diff. (An earlier form of this set drew from [1e-300,
3.16e-7] and [6.33e6, 1e154], where most t_chi round to pi/2 or pi; its
output differs from this one's on purpose.)

Run it from the repository root against the package under test, for
example::

    PYTHONPATH=src python tools/cases.py > cases.txt
    PYTHONPATH=other/src python tools/cases.py | cmp - cases.txt
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from zenoion.dynamics import level_probabilities, propagate_analytic
from zenoion.indicators import (
    gqze_interval,
    mean_level_probabilities,
    min_survival,
    sub_threshold_measure,
    time_of_min,
)
from zenoion.runner import random_cases


def _log_uniform(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    low, high = math.log10(3.17e-7), math.log10(6.3e6)
    return [10.0 ** rng.uniform(low, high) for _ in range(count)]


def _ends(seed: int) -> list[float]:
    rng = random.Random(seed)
    small = [10.0 ** rng.uniform(math.log10(3.2e-8), math.log10(3.16e-7)) for _ in range(500)]
    large = [10.0 ** rng.uniform(math.log10(6.33e6), 12.0) for _ in range(400)]
    # k from 3,165,000 puts sqrt(4 k^2 - 1) past 6.33e6.
    ks = [round(10.0 ** rng.uniform(math.log10(3.165e6), math.log10(5e11))) for _ in range(20)]
    return small + large + _touch(ks, offset=1e-12)


def _uniform(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(0.0, 25.0) for _ in range(count)]


def _sweep_grid() -> list[float]:
    # The points of ``sweep --chi-max 22 --chi-step 0.05``, formed as the
    # sweep forms them.
    return np.round(np.arange(441) * 0.05, 12).tolist()


def _near_one(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [
        1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -2.0) for _ in range(count)
    ]


def _touch(ks, offset: float = 1e-9) -> list[float]:
    chis = []
    for k in ks:
        chi = math.sqrt(4.0 * k * k - 1.0)
        chis += [
            chi, math.nextafter(chi, 0.0), math.nextafter(chi, math.inf),
            chi * (1.0 + offset), chi * (1.0 - offset),
        ]
    return chis


def case_sets() -> dict[str, list[float]]:
    """Every case set by name: a list of chi."""
    return {
        "log-uniform": _log_uniform(3000, seed=2025),
        "sweep-grid": _sweep_grid(),
        "uniform": _uniform(1000, seed=2026),
        "touch": _touch(range(1, 200)),
    }


def _closed_forms(chi: float) -> tuple:
    return (
        min_survival(chi), time_of_min(chi), mean_level_probabilities(chi),
        sub_threshold_measure(chi, 0.01),
    )


def _result(function, chi: float) -> str:
    try:
        return repr(function(chi))
    except ValueError as error:
        return f"ValueError: {error}"


def _random_cases():
    """Every (key, case) of ``random_cases`` for seeds 0..199, in order."""
    for seed in range(200):
        for index, case in enumerate(random_cases(random.Random(seed))):
            yield f"{seed}:{index}", case


def _propagated(case) -> str:
    evolved = propagate_analytic(*case)
    return repr((evolved.values, level_probabilities(evolved)))


def main() -> None:
    out = sys.stdout
    sets = case_sets()
    for name, cases in sets.items():
        for chi in cases:
            out.write(f"{name}\t{chi!r}\t{_result(gqze_interval, chi)}\n")
    for key, case in _random_cases():
        out.write(f"random-cases\t{key}\t{case!r}\n")
    for key, case in _random_cases():
        out.write(f"propagated\t{key}\t{_propagated(case)}\n")
    for chi in sets["log-uniform"] + sets["sweep-grid"] + _near_one(1000, seed=2027):
        out.write(f"closed-forms\t{chi!r}\t{_result(_closed_forms, chi)}\n")
    for chi in _ends(seed=2028):
        out.write(f"ends\t{chi!r}\t{_result(gqze_interval, chi)}\n")


if __name__ == "__main__":
    main()
