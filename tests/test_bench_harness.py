"""The benchmark's layer tracer (``perfbench/layers.py``) against the
package: under it every CLI mode exits 0 and writes the bytes of an
untraced run, each workload's required layers are reached, and the twin
names it looks up in ``indicators`` resolve to the twins module's objects.

The runs go in one subprocess, because installing the tracer rebinds
module globals of the package. No timing is asserted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenoion

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(
    not (PERFBENCH / "layers.py").is_file() or not (PERFBENCH / "workloads.py").is_file(),
    reason="perfbench/ is absent",
)

# Each CLI mode once at a small size, then survival and figures past the
# 4,096 rows of write_csv's first block, as evolve is, whose rows past them
# go to the CSV helper; with the workload, if any, whose reached_layers the
# traced run must reach.
RUNS = [
    (["evolve", "--gamma1", "1", "--gamma2", "3", "--samples", "5000"], "evolve-1e5"),
    (["survival", "--chi", "2", "--samples", "300"], None),
    (["indicators", "--chi", "2"], None),
    (["sweep", "--chi-max", "2", "--chi-step", "0.05"], "sweep-wide"),
    (["figures", "--samples", "300", "--chi-step", "0.05"], None),
    (["validate", "--seed", "1"], "validate-seeds"),
    (["survival", "--chi", "2", "--samples", "5000"], None),
    (["figures", "--samples", "5000"], None),
]

# Runs each argv of RUNS untraced, installs the tracer, runs each again, and
# prints one JSON record: the exit codes, the stdout and the output files of
# both runs, the layers each traced run called, and the twin lookups.
_SCRIPT = r"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path

perfbench, out, runs = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])


def load(name):
    spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, workloads = load("layers"), load("workloads")
import zenoion.cli, zenoion.indicators, zenoion.twins

record = {"workloads": sorted(workloads.WORKLOADS), "twins": {
    name: [getattr(zenoion.indicators, name) is getattr(zenoion.twins, name),
           name in zenoion.twins.__all__]
    for name in layers.TWINS
}}


def run(argv, where):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = zenoion.cli.main([*argv, "--out", str(where)])
    stdout = text.getvalue().replace(str(where), "OUT")
    files = {p.relative_to(where).as_posix(): p.read_text(encoding="utf-8")
             for p in sorted(where.rglob("*")) if p.is_file()}
    return {"code": code, "stdout": stdout, "files": files}


record["untraced"] = [run(argv, out / "untraced" / str(i)) for i, (argv, _) in enumerate(runs)]
tracer = layers.LayerTracer()
tracer.install()
record["traced"] = []
for i, (argv, workload) in enumerate(runs):
    before = {name: stats.calls for name, stats in tracer.stats.items()}
    result = run(argv, out / "traced" / str(i))
    result["calls"] = {name: stats.calls - before.get(name, 0)
                       for name, stats in tracer.stats.items()}
    result["required"] = []
    if workload is not None:
        bench = workloads.WORKLOADS[workload]
        first = next(iter(bench.groups(1, str(out))))[0]
        result["required"] = sorted(bench.reached_layers(first))
    record["traced"].append(result)
print(json.dumps(record))
"""


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    src = str(Path(zenoion.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(PERFBENCH), str(out), json.dumps(RUNS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_IDS = [" ".join(argv) for argv, _ in RUNS]


@pytest.mark.parametrize("index", range(len(RUNS)), ids=_IDS)
def test_traced_run_exits_zero_with_the_untraced_output(harness, index):
    untraced, traced = harness["untraced"][index], harness["traced"][index]
    assert untraced["code"] == 0
    assert traced["code"] == 0
    assert traced["stdout"] == untraced["stdout"]
    assert traced["files"] == untraced["files"]
    assert traced["files"] or RUNS[index][0][0] == "validate"


@pytest.mark.parametrize("index", range(len(RUNS)), ids=_IDS)
def test_traced_run_reaches_its_workload_layers(harness, index):
    traced = harness["traced"][index]
    missing = [name for name in traced["required"] if not traced["calls"].get(name)]
    assert missing == []


def test_every_workload_is_traced(harness):
    assert sorted({workload for _, workload in RUNS} - {None}) == harness["workloads"]


def test_twin_names_resolve_through_indicators_to_the_twins_module(harness):
    assert harness["twins"]
    for name, (same_object, listed) in harness["twins"].items():
        assert same_object, name
        assert listed, name
