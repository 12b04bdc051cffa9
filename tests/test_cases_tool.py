"""``tools/cases.py``, the t_chi and random-case printer: its output must be
the same bytes on every run, raise no RuntimeWarning, and cover every case
set it documents."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import zenoion
from zenoion.dynamics import level_probabilities, propagate_analytic
from zenoion.indicators import (
    mean_level_probabilities,
    min_survival,
    sub_threshold_measure,
    time_of_min,
)
from zenoion.runner import _chi_grid, random_cases

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cases.py"

# Every set and its size, as the tool's docstring lists them.
_SET_SIZES = {
    "log-uniform": 3000,
    "sweep-grid": 441,
    "uniform": 1000,
    "touch": 995,
    "random-cases": 21_000,
    "propagated": 21_000,
    "closed-forms": 4441,
    "ends": 1000,
}


def _run_tool(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    # The package the tests import, wherever it is installed.
    package_root = str(Path(zenoion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(_TOOL)],
        env=env, capture_output=True, check=True,
    ).stdout


@pytest.mark.skipif(not _TOOL.exists(), reason="tools/ is not part of this tree")
def test_output_is_deterministic_and_covers_every_set():
    output = _run_tool("1")
    assert output == _run_tool("2")
    rows = [line.split("\t") for line in output.decode("utf-8").splitlines()]
    assert all(len(row) == 3 for row in rows)
    names = [row[0] for row in rows]
    assert {name: names.count(name) for name in _SET_SIZES} == _SET_SIZES
    assert len(rows) == sum(_SET_SIZES.values())
    for name, chi, result in rows:
        if name not in ("random-cases", "propagated", "closed-forms"):
            expected = "None" if float(chi) == 0.0 else "GqzeInterval("
            assert result.startswith(expected)
    # The sweep-grid set is the grid that ``sweep --chi-max 22`` lays out.
    grid = [float(chi) for name, chi, _ in rows if name == "sweep-grid"]
    assert grid == _chi_grid(22.0, 0.05).tolist()
    # The random-cases set is every case of seeds 0..199, in order.
    cases = [(key, result) for name, key, result in rows if name == "random-cases"]
    assert [key for key, _ in cases] == [
        f"{seed}:{index}" for seed in range(200) for index in range(105)
    ]
    for seed in (0, 199):
        expected = [repr(case) for case in random_cases(random.Random(seed))]
        assert [result for _, result in cases[105 * seed : 105 * (seed + 1)]] == expected
    # The propagated set evolves those cases, under the same keys.
    propagated = [(key, result) for name, key, result in rows if name == "propagated"]
    assert [key for key, _ in propagated] == [key for key, _ in cases]
    for seed in (0, 199):
        expected = []
        for case in random_cases(random.Random(seed)):
            evolved = propagate_analytic(*case)
            expected.append(repr((evolved.values, level_probabilities(evolved))))
        assert [result for _, result in propagated[105 * seed : 105 * (seed + 1)]] == expected
    # The closed-forms set covers the log-uniform and sweep-grid chi, then
    # 1,000 chi within 1e-2 of 1.
    closed = [(float(chi), result) for name, chi, result in rows if name == "closed-forms"]
    chis = [chi for chi, _ in closed]
    assert chis[:3441] == [
        float(chi) for name, chi, _ in rows if name in ("log-uniform", "sweep-grid")
    ]
    assert all(0.0 < abs(chi - 1.0) <= 1e-2 for chi in chis[3441:])
    for chi, result in closed[::400]:
        expected = (
            min_survival(chi), time_of_min(chi), mean_level_probabilities(chi),
            sub_threshold_measure(chi, 0.01),
        )
        assert result == repr(expected)
    # The ends set lies where the end laws' terms survive rounding: nearly
    # every t_chi differs from pi/2 and pi.
    ends = [(float(chi), result) for name, chi, result in rows if name == "ends"]
    moved = [
        result for _, result in ends
        if not result.startswith(("GqzeInterval(end=1.5707963267948966,",
                                  "GqzeInterval(end=3.141592653589793,"))
    ]
    assert len(moved) >= 900
    assert all(3.2e-8 <= chi <= 3.16e-7 for chi, _ in ends[:500])
    assert all(6.33e6 <= chi <= 1e12 for chi, _ in ends[500:900])
    # Its last 100 chi are 20 touch chi sqrt(4 k^2 - 1) past 6.33e6, each with
    # its two float neighbours and relative offsets of 1e-12 either way.
    touch = [chi for chi, _ in ends[900:]]
    for group in range(0, 100, 5):
        chi = touch[group]
        k = round(math.hypot(1.0, chi) / 2.0)
        assert chi == math.sqrt(4.0 * k * k - 1.0) > 6.33e6
        assert touch[group + 1 : group + 5] == [
            math.nextafter(chi, 0.0), math.nextafter(chi, math.inf),
            chi * (1.0 + 1e-12), chi * (1.0 - 1e-12),
        ]
