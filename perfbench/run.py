"""Benchmark of the zenoion command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI invocation runs in a fresh child interpreter (``child.py``) that
imports ``zenoion.cli`` from the checkout's ``src`` and calls ``main(argv)``
once, with BLAS/OpenMP threads pinned to 1. One child runs at a time, in a
closed loop: the next invocation starts when the previous one has exited,
until ``--seconds`` have passed. Outputs are checked after each child exits,
outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same loop, then one traced invocation and the fixed-size layer
probes, and reports the per-layer metrics. The last line of stdout is one
JSON object; the full record, with provenance and every invocation's argv,
is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system wide, so the child's reading after its import
    # is comparable with the parent's reading before the spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(mode: str, argv=()) -> tuple[dict | None, str, str]:
    """Run one child to completion; return its record (None on failure),
    its stdout and a failure reason."""
    result_path = WORK / "child.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(CHILD), str(result_path), mode, *argv]
    start = _monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        reason = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return None, proc.stdout, f"child exited {proc.returncode}: {reason[0]}"
    record = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(record["zenoion_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported {record['zenoion_file']}, not the checkout's src")
    record["setup_s"] = record["setup_end"] - start
    exit_code = record.get("exit_code", 0)
    if exit_code != 0:
        return None, proc.stdout, f"zenoion exited {exit_code}: {proc.stderr.strip()[-200:]}"
    return record, proc.stdout, ""


def invoke(workload, inv, mode: str, out_dir: Path) -> tuple[dict | None, list[str]]:
    """One checked CLI invocation in a clean output directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record, stdout, reason = spawn(mode, inv.argv)
    if record is None:
        return None, [reason]
    try:
        problems = workload.check(inv, stdout, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return record, problems


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def timing_summary(values: list[float]) -> dict:
    summary = {"median": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        summary[f"p{tail[0]:g}"] = tail[1]
    return summary


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_traced_calls(reached: dict, layers: dict) -> list[str]:
    problems = []
    for name, expected in reached.items():
        calls = layers.get(f"{name}.calls", 0)
        if expected is None and calls == 0:
            problems.append(f"traced run recorded no {name} calls")
        elif expected is not None and calls != expected:
            problems.append(f"traced run recorded {calls} {name} calls, expected {expected}")
    return problems


class Run:
    """Invocations of one benchmark run and what became of them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.good: list[tuple] = []  # (invocation, child record) of each checked success
        self.problems: list[str] = []
        self.log: list[dict] = []  # argv and timings of every invocation, for replay

    def add(self, inv, record, problems: list[str], **extra) -> None:
        self.attempted += 1
        entry = {"argv": list(inv.argv), "ok": record is not None and not problems, **extra}
        if record is not None:
            entry.update({k: record[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")})
        if entry["ok"]:
            self.good.append((inv, record))
        else:
            self.failed += 1
            self.problems += [f"{' '.join(inv.argv)}: {p}" for p in problems]
        self.log.append(entry)


def measure(workload, args, out_dir: Path, run: Run) -> None:
    """Closed loop, one child at a time: start whole groups of invocations
    until ``args.seconds`` have passed."""
    groups = workload.groups(args.seed, str(out_dir.relative_to(ROOT)))
    deadline = _monotonic() + args.seconds
    while _monotonic() < deadline:
        for inv in next(groups):
            record, problems = invoke(workload, inv, "run", out_dir)
            run.add(inv, record, problems)


def layer_metrics(args, selected, run: Run, out_dir: Path) -> dict:
    """Per-layer metrics: the fixed-size probes, and one traced invocation
    per workload. The selected workload traces the run's first successful
    argv; the others trace their first argv for this seed. Each workload
    reports only the layers its invocation reaches, under its own name, so
    every reported time is measured work."""
    first = run.good[0][0]
    untraced = statistics.median(r["wall_s"] for i, r in run.good if i.argv == first.argv)
    values = {
        "process.wait_s": statistics.median(r["wall_s"] - r["cpu_s"] for _, r in run.good),
    }
    for workload in WORKLOADS.values():
        if workload is selected:
            inv = first
        else:
            inv = next(workload.groups(args.seed, str(out_dir.relative_to(ROOT))))[0]
        record, problems = invoke(workload, inv, "trace", out_dir)
        if record is None:
            raise SystemExit(f"perfbench: traced {' '.join(inv.argv)} failed: {problems[0]}")
        reached = workload.reached_layers(inv)
        problems += check_traced_calls(reached, record["layers"])
        run.add(inv, record, problems, traced=True)
        for name, value in record["layers"].items():
            if name.rsplit(".", 1)[0] in reached:
                values[f"{workload.name}.{name}"] = value
        if workload is selected:
            values["trace.overhead_s"] = record["wall_s"] - untraced
    probe, _, reason = spawn("probe", [str(out_dir.relative_to(ROOT))])
    if probe is None:
        raise SystemExit(f"perfbench: layer probes failed: {reason}")
    return {**values, **probe["probes"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zenoion" / "cli.py").is_file():
        print(f"perfbench: no zenoion source under {SRC}; run from a checkout's root", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    out_dir = WORK / "out"
    WORK.mkdir(exist_ok=True)

    setup = []
    for _ in range(SETUP_PROBES):
        record, _, reason = spawn("setup")
        if record is None:
            print(f"perfbench: set-up probe failed: {reason}", file=sys.stderr)
            return 1
        setup.append(record["setup_s"])

    run = Run()
    measure(workload, args, out_dir, run)
    if not run.good:
        print("perfbench: every invocation failed:\n  " + "\n  ".join(run.problems), file=sys.stderr)
        return 1
    walls = [r["wall_s"] for _, r in run.good]
    timings = {
        "setup_s": timing_summary(setup + [r["setup_s"] for _, r in run.good]),
        "wall_s": timing_summary(walls),
    }
    values = {
        "setup_s": timings["setup_s"]["median"],
        "wall_s": timings["wall_s"]["median"],
        "items_per_s": sum(inv.items for inv, _ in run.good) / sum(walls),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for _, r in run.good),
    }
    if args.trace:
        values = layer_metrics(args, workload, run, out_dir)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    error_rate = run.failed / run.attempted

    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(exist_ok=True)
    prov = provenance(args)
    result_path.write_text(json.dumps({
        "provenance": prov,
        "items_unit": workload.items_unit,
        "error_rate": error_rate,
        "timings": timings,
        "metrics": metrics,
        "problems": run.problems,
        "invocations": run.log,
        "replay": "PYTHONPATH=src python3 -m zenoion.cli ARGV, with the argv of an invocation",
    }, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed}: python {prov['python']}, numpy {prov['numpy']}, "
          f"nproc {prov['nproc']}, {prov['cpu_model']}; items are {workload.items_unit}")
    print(f"error_rate = {error_rate:.4g} ratio ({run.failed} of {run.attempted} invocations failed)")
    for name, summary in timings.items():
        tail = ", ".join(f"{k} {v:.6g} s" for k, v in summary.items() if k.startswith("p"))
        print(f"# {name}: median {summary['median']:.6g} s of {summary['n']} samples; "
              + (tail or "too few samples for a tail percentile"))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(f"# record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
