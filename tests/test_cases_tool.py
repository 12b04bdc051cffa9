"""``tools/cases.py``, the t_chi and random-case printer: its output must be
the same bytes on every run, and cover every case set it documents."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import zenoion
from zenoion.dynamics import level_probabilities, propagate_analytic
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
}


def _run_tool(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    # The package the tests import, wherever it is installed.
    package_root = str(Path(zenoion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(_TOOL)], env=env, capture_output=True, check=True
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
        if name not in ("random-cases", "propagated"):
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
