import argparse
import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import zenoion
import zenoion.runner
import zenoion.twins
from zenoion.cli import build_parser, main
from zenoion.config import MODES, ConfigError, RunConfig, load_config
from zenoion.dynamics import VibronicState, build_block, propagate_analytic, survival_probability
from zenoion.fock import CouplingConstants, ModeVector, SidebandPattern, factorial_ratio_root
from zenoion.indicators import angular_frequency, mean_survival, min_survival, poincare_time
from zenoion.runner import (
    _chi_grid,
    random_cases,
    run_evolve,
    run_figures,
    run_indicators,
    run_survival,
    run_sweep,
    run_validate,
    write_csv,
)


def read_columns(path):
    with open(path, "r", encoding="utf-8") as handle:
        comment = handle.readline()
        assert comment.startswith("# ")
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    data = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}
    return header, data


class TestFiguresMode:
    def test_files_and_schema(self, tmp_path):
        config = load_config(None, {"mode": "figures", "out": str(tmp_path), "samples": 200})
        paths = run_figures(config)
        assert [p.name for p in paths] == ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"]
        header, data = read_columns(paths[0])
        assert header == ["t_scaled", "P_chi0", "P_chi1", "P_chi5", "P_chi10"]
        for column in header[1:]:
            assert data[column][0] == 1.0
            assert np.all((0.0 <= data[column]) & (data[column] <= 1.0))

    def test_fig1_columns_follow_figure_chis(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zenoion.runner, "_FIGURE_CHIS", (0.0, 2.5))
        config = load_config(None, {"mode": "figures", "out": str(tmp_path), "samples": 300})
        header, data = read_columns(run_figures(config)[0])
        assert header == ["t_scaled", "P_chi0", "P_chi2.5"]
        for chi, column in zip((0.0, 2.5), header[1:]):
            expected = survival_probability(chi, angular_frequency(chi), data["t_scaled"])
            assert data[column].tobytes() == expected.tobytes()

    def test_fig2_zero_floor_at_unit_ratio(self, tmp_path):
        config = load_config(None, {"mode": "figures", "out": str(tmp_path), "samples": 50})
        paths = run_figures(config)
        _, data = read_columns(paths[1])
        at_one = np.nonzero(data["chi"] == 1.0)[0]
        assert at_one.size == 1
        assert data["m"][at_one[0]] == 0.0

    def test_fig3_peak_at_unit_ratio(self, tmp_path):
        config = load_config(None, {"mode": "figures", "out": str(tmp_path), "samples": 50})
        paths = run_figures(config)
        _, data = read_columns(paths[2])
        assert data["chi"][int(np.argmax(data["t_m_scaled"]))] == pytest.approx(1.0)
        assert data["t_m_scaled"].max() == pytest.approx(math.pi / math.sqrt(2))

    def test_fig4_fine_grid_minimum(self, tmp_path):
        config = load_config(
            None,
            {"mode": "figures", "out": str(tmp_path), "samples": 50, "chi_step": 0.0001},
        )
        paths = run_figures(config)
        _, data = read_columns(paths[3])
        index = int(np.argmin(data["P_mean"]))
        assert data["chi"][index] == pytest.approx(0.7071, abs=1e-12)
        assert data["P_mean"][index] == pytest.approx(0.33333, abs=1e-4)

    def test_byte_identical_reruns(self, tmp_path):
        first = load_config(None, {"mode": "figures", "out": str(tmp_path / "a")})
        second = load_config(None, {"mode": "figures", "out": str(tmp_path / "b")})
        for one, two in zip(run_figures(first), run_figures(second)):
            assert one.read_bytes() == two.read_bytes()


class TestCurveModes:
    def test_survival_matches_formula(self, tmp_path):
        out = tmp_path / "surv.csv"
        config = load_config(
            None,
            {"mode": "survival", "chi": 10.0, "t_max": 12.56, "samples": 100, "out": str(out)},
        )
        path = run_survival(config)
        assert path == out
        _, data = read_columns(path)
        w = math.sqrt(101.0)
        expected = ((100.0 + np.cos(w * data["t_scaled"])) / 101.0) ** 2
        np.testing.assert_allclose(data["survival"], expected, atol=1e-15)

    def test_survival_equals_its_fig1_column(self, tmp_path):
        # survival and fig1 share one time grid and one survival builder.
        grid = ["--t-max", "30", "--samples", "4000"]
        assert main(["survival", "--chi", "5", *grid, "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["figures", *grid, "--out", str(tmp_path)]) == 0
        survival = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()[2:]
        fig1 = (tmp_path / "fig1.csv").read_text(encoding="utf-8").splitlines()[1:]
        column = fig1[0].split(",").index("P_chi5")
        assert len(survival) == 4000
        assert survival == [f"{row.split(',')[0]},{row.split(',')[column]}" for row in fig1[1:]]

    def test_evolve_probabilities(self, tmp_path):
        config = load_config(
            None,
            {
                "mode": "evolve",
                "gamma1": 1.0,
                "gamma2": 1.0,
                "n": "1,0,0",
                "r": "1,0,0",
                "l": "0,0,0",
                "samples": 64,
                "out": str(tmp_path),
            },
        )
        path = run_evolve(config)
        assert path.name == "evolve.csv"
        _, data = read_columns(path)
        totals = data["p1"] + data["p2"] + data["p3"]
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)
        np.testing.assert_allclose(data["p1"], data["survival"], atol=1e-12)
        assert data["p1"][0] == 1.0

    def test_evolve_survival_column_is_p1(self, tmp_path):
        config = load_config(
            None,
            {"mode": "evolve", "gamma1": 0.8, "gamma2": 2.3, "samples": 500,
             "out": str(tmp_path)},
        )
        path = run_evolve(config)
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert len(rows) == 500
        assert all(row[4] == row[1] for row in rows)

    def test_evolve_scaled_times_use_base_frequency(self, tmp_path):
        # gamma1 = 2 halves internal time; scaled output must not change.
        slow = load_config(
            None,
            {"mode": "evolve", "gamma1": 1.0, "gamma2": 1.0, "samples": 32,
             "out": str(tmp_path / "slow.csv")},
        )
        fast = load_config(
            None,
            {"mode": "evolve", "gamma1": 2.0, "gamma2": 2.0, "samples": 32,
             "out": str(tmp_path / "fast.csv")},
        )
        _, one = read_columns(run_evolve(slow))
        _, two = read_columns(run_evolve(fast))
        np.testing.assert_allclose(one["p1"], two["p1"], atol=1e-12)

    def test_stationary_block_is_a_config_error(self, tmp_path):
        config = load_config(
            None,
            {"mode": "evolve", "gamma1": 1.0, "gamma2": 1.0, "n": "0,0,0",
             "out": str(tmp_path)},
        )
        from zenoion.config import ConfigError

        with pytest.raises(ConfigError, match="one dimensional"):
            run_evolve(config)


class TestEvolveLoop:
    def test_each_sample_propagates_and_reads_populations_once(self, tmp_path, monkeypatch):
        calls = {"propagate_analytic": 0, "level_probabilities": 0}

        def counted(name):
            original = getattr(zenoion.runner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(zenoion.runner, name, counted(name))
        config = load_config(
            None,
            {"mode": "evolve", "gamma1": 1.0, "gamma2": 3.0, "samples": 257,
             "out": str(tmp_path)},
        )
        run_evolve(config)
        assert calls == {"propagate_analytic": 257, "level_probabilities": 257}

    def test_rows_are_python_floats_with_p1_as_the_survival(self, tmp_path, monkeypatch):
        # Every cell reaches write_csv as a Python float, formatted by its
        # one float rule; the survival column is the p1 object itself.
        handed = []
        original = zenoion.runner.write_csv

        def spy(path, comment, header, rows):
            handed.extend(rows)
            return original(path, comment, header, handed)

        monkeypatch.setattr(zenoion.runner, "write_csv", spy)
        config = load_config(
            None,
            {"mode": "evolve", "gamma1": 1.0, "gamma2": 3.0, "samples": 300,
             "out": str(tmp_path)},
        )
        run_evolve(config)
        assert len(handed) == 300
        for row in handed:
            assert [type(cell) for cell in row] == [float] * 5
            assert row[4] is row[1]

    @pytest.mark.parametrize(
        "block_flags",
        [
            {"gamma1": 0.8, "gamma2": 2.3},
            {"gamma1": 1.7, "gamma2": 0.4, "n": "2,1,1", "r": "1,0,1", "l": "1,1,0"},
            {"gamma1": 1.3, "gamma2": 1.0, "n": "1,0,0", "r": "1,0,0", "l": "1,0,0"},
        ],
    )
    def test_rows_are_the_per_sample_numpy_arithmetic(self, tmp_path, block_flags):
        # Each sample propagated alone; populations by np.abs(amplitudes) ** 2
        # on the state's array; every cell formatted on its own.
        config = load_config(
            None, {"mode": "evolve", "samples": 3001, "t_max": 40.0, "out": str(tmp_path),
                   **block_flags},
        )
        block = build_block(
            config.mode_vector(), config.sideband_pattern(), config.coupling_constants()
        )
        initial = VibronicState.basis_state(block.dimension, 0)
        coupling = abs(block.coupling_12)
        expected = []
        for t in np.linspace(0.0, config.t_max, config.samples):
            state = propagate_analytic(block, initial, float(t) / coupling)
            probs = (np.abs(state.amplitudes) ** 2).tolist() + [0.0] * (3 - block.dimension)
            cells = [float(t), *probs, probs[0]]
            expected.append(",".join(f"{value:.16e}" for value in cells))
        lines = run_evolve(config).read_text(encoding="utf-8").splitlines()
        assert lines[1] == "t_scaled,p1,p2,p3,survival"
        assert lines[2:] == expected


def _reference_cell(value) -> str:
    """CSV cell spec: integers and booleans as integers, everything else as
    f"{float(value):.16e}"."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _builtin(value):
    """The Python number a numpy scalar cell stands for: ``float`` for every
    numpy float (a long double included), ``.item()`` for the others."""
    if isinstance(value, np.floating):
        return float(value)
    return value.item() if isinstance(value, np.generic) else value


@pytest.fixture
def helpers(monkeypatch):
    """The CSV helper processes ``write_csv`` starts, recorded as they start."""
    started = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    return started


class TestWriteCsv:
    ROW = (
        True,
        np.bool_(False),
        np.int64(-7),
        np.uint64(2**64 - 1),
        3,
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        1e-300,
        5e-324,
        np.float64(0.1),
        np.float32(0.1),
        np.longdouble(1) / 3,
        -1.0 / 3.0,
        1e300,
        0,
    )

    def test_cells_match_the_reference_spec_byte_for_byte(self, tmp_path):
        path = tmp_path / "cells.csv"
        header = [f"c{i}" for i in range(len(self.ROW))]
        write_csv(path, "cells", header, [self.ROW, tuple(map(_builtin, self.ROW))])
        expected = ",".join(_reference_cell(value) for value in self.ROW) + "\n"
        text = path.read_bytes().decode("utf-8")
        assert text == "# cells\n" + ",".join(header) + "\n" + expected * 2

    def test_generator_rows_and_no_rows(self, tmp_path):
        path = tmp_path / "gen.csv"
        write_csv(path, "g", ("t", "p"), ((t, t * t) for t in (0.5, -2.0)))
        assert path.read_text(encoding="utf-8").splitlines()[2:] == [
            "5.0000000000000000e-01,2.5000000000000000e-01",
            "-2.0000000000000000e+00,4.0000000000000000e+00",
        ]
        empty = tmp_path / "empty.csv"
        write_csv(empty, "e", ("t",), iter(()))
        assert empty.read_text(encoding="utf-8") == "# e\nt\n"

    @pytest.mark.parametrize("generator", [False, True])
    @pytest.mark.parametrize("count", [4096, 4097, 4098, 3 * 4096 + 1])
    def test_rows_past_the_first_block_keep_their_bytes(self, tmp_path, helpers, count, generator):
        # Of a generator the first 4,096 rows are formatted in this process,
        # the rest by the helper, from pickled cells, which must be Python
        # numbers: past the first block the generator yields the builtin
        # twin of each numpy cell. A list starts no helper.
        path = tmp_path / "cells.csv"
        header = [f"c{i}" for i in range(len(self.ROW))]
        if generator:
            builtin = tuple(map(_builtin, self.ROW))
            rows = (self.ROW if index < 4096 else builtin for index in range(count))
        else:
            rows = [self.ROW] * count
        write_csv(path, "cells", header, rows)
        expected = ",".join(_reference_cell(value) for value in self.ROW) + "\n"
        text = path.read_bytes().decode("utf-8")
        assert text == "# cells\n" + ",".join(header) + "\n" + expected * count
        assert len(helpers) == (generator and count > 4096)
        assert [helper.returncode for helper in helpers] == [0] * len(helpers)

    @pytest.mark.parametrize(
        "error", [FileNotFoundError, PermissionError, BlockingIOError(11, "EAGAIN")]
    )
    def test_helper_that_cannot_start_leaves_the_rows_here(
        self, tmp_path, monkeypatch, error
    ):
        # An interpreter that moved, or no process to spare: Popen raises
        # OSError, and the rows past the first block are formatted here.
        def failing_popen(*args, **kwargs):
            raise error

        monkeypatch.setattr(subprocess, "Popen", failing_popen)
        path = tmp_path / "cells.csv"
        header = [f"c{i}" for i in range(len(self.ROW))]
        write_csv(path, "cells", header, (self.ROW for _ in range(9000)))
        expected = ",".join(_reference_cell(value) for value in self.ROW) + "\n"
        text = path.read_bytes().decode("utf-8")
        assert text == "# cells\n" + ",".join(header) + "\n" + expected * 9000
        assert [p.name for p in tmp_path.iterdir()] == ["cells.csv"]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("rows_before", [0, 3, 5000])
    def test_failing_rows_leave_no_file(self, tmp_path, helpers, error, rows_before):
        # At 5,000 rows the helper is formatting when the rows fail; it is
        # waited for before the error leaves write_csv.
        def rows():
            for index in range(rows_before):
                yield (float(index),)
            raise error("row failed")

        with pytest.raises(error):
            write_csv(tmp_path / "x.csv", "x", ("t",), rows())
        assert list(tmp_path.iterdir()) == []
        assert len(helpers) == (rows_before > 4096)
        assert all(helper.returncode is not None for helper in helpers)

    @pytest.mark.parametrize(
        "source, bad_row, status, message",
        [
            # A row the helper cannot format: a str in a float column.
            (None, 5000, 1, "TypeError"),
            # A helper that exits before it reads a block.
            ("raise SystemExit(7)", None, 7, ""),
        ],
    )
    def test_failing_helper_is_an_os_error(
        self, tmp_path, monkeypatch, capfd, helpers, source, bad_row, status, message
    ):
        if source is not None:
            monkeypatch.setattr(zenoion.runner, "_HELPER", source)
        target = tmp_path / "x.csv"
        target.write_bytes(b"# an earlier run\n")
        rows = (("x",) if index == bad_row else (float(index),) for index in range(9000))
        with pytest.raises(OSError, match=f"helper exited with status {status}$"):
            write_csv(target, "x", ("t",), rows)
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert target.read_bytes() == b"# an earlier run\n"
        assert [helper.returncode for helper in helpers] == [status]
        assert message in capfd.readouterr().err

    def test_numpy_cell_past_the_first_block_is_an_os_error(self, tmp_path, capfd, helpers):
        # The helper runs without numpy, so it cannot unpickle a numpy cell
        # that a generator yields past its first 4,096 rows: it exits 1.
        target = tmp_path / "x.csv"
        target.write_bytes(b"# an earlier run\n")
        rows = ((np.float64(index) if index == 5000 else float(index),) for index in range(9000))
        with pytest.raises(OSError, match="helper exited with status 1$"):
            write_csv(target, "x", ("t",), rows)
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert target.read_bytes() == b"# an earlier run\n"
        assert [helper.returncode for helper in helpers] == [1]
        assert "numpy" in capfd.readouterr().err

    @pytest.mark.parametrize("count", [4097, 9000])
    @pytest.mark.parametrize("cells", ["float64", "mixed"])
    def test_numpy_cells_past_the_first_block_stay_here(self, tmp_path, helpers, count, cells):
        # A generator whose row 4,097 holds a numpy cell, float64 included
        # (it subclasses float), starts no helper and writes a list's bytes:
        # as survival's zip does, wrapped in a generator by the benchmark's
        # layer tracer.
        if cells == "float64":
            header = ("t", "p")
            rows = [(np.float64(index) / 7, np.float64(-index)) for index in range(count)]
        else:
            header = [f"c{i}" for i in range(len(self.ROW))]
            rows = [self.ROW] * count
        write_csv(tmp_path / "list.csv", "cells", header, rows)
        write_csv(tmp_path / "generator.csv", "cells", header, (row for row in rows))
        assert (tmp_path / "generator.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        assert helpers == []

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "real.csv").write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "data" / "real.csv")
        write_csv(link, "s", ("t",), [(1.0,)])
        assert link.is_symlink()
        assert (tmp_path / "data" / "real.csv").read_text(encoding="utf-8").startswith("# s\n")
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["real.csv"]

    @pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
    def test_mode_follows_the_umask(self, tmp_path, mask):
        old = os.umask(mask)
        try:
            write_csv(tmp_path / "m.csv", "m", ("t",), [(1.0,)])
        finally:
            os.umask(old)
        assert (tmp_path / "m.csv").stat().st_mode & 0o777 == 0o666 & ~mask


class TestCsvHelper:
    """evolve formats the rows past its CSV's first 4,096 in a helper
    interpreter, and writes the same bytes with it as without it. Modes whose
    rows are computed before they are written start no helper."""

    @pytest.mark.parametrize(
        "argv, started",
        [
            (["evolve", "--gamma1", "1", "--gamma2", "3", "--samples", "9000"], 1),
            (["survival", "--chi", "2", "--samples", "9000"], 0),
            # fig1 has 9,000 rows, fig2-fig3 6,001 and fig4 10,001.
            (["figures", "--samples", "9000", "--chi-step", "0.0005"], 0),
            # 5,001 chi points.
            (["sweep", "--chi-max", "5", "--chi-step", "0.001"], 0),
        ],
    )
    @pytest.mark.parametrize("executable", ["", None])
    def test_same_bytes_without_the_helper(
        self, tmp_path, monkeypatch, capsys, helpers, argv, started, executable
    ):
        outputs = []
        for name in ("with", "without"):
            if name == "without":
                # No interpreter to start: every row is then formatted in
                # this process.
                monkeypatch.setattr(sys, "executable", executable)
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        with_helper, without_helper = outputs
        assert with_helper == without_helper
        assert [helper.returncode for helper in helpers] == [0] * started
        capsys.readouterr()

    def test_importing_the_cli_does_not_import_subprocess(self):
        # Only a CSV longer than one block starts the helper, so only such a
        # run pays for importing subprocess.
        script = "import sys, zenoion.cli; sys.exit(3 if 'subprocess' in sys.modules else 0)"
        src = str(Path(zenoion.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestFailedRunsLeaveNoCsv:
    """A run that fails partway through its rows exits 1 and leaves neither
    a partial CSV nor a hidden partial file; a CSV already at the target
    keeps its bytes."""

    OLD = b"# an earlier run\nkept,as,is\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_evolve_failing_midway(self, tmp_path, monkeypatch, capsys, existing):
        if existing:
            (tmp_path / "evolve.csv").write_bytes(self.OLD)
        calls = [0]

        def failing_on_call_500(*args):
            calls[0] += 1
            if calls[0] == 500:
                raise ValueError("propagate_analytic failed on call 500")
            return propagate_analytic(*args)

        monkeypatch.setattr(zenoion.runner, "propagate_analytic", failing_on_call_500)
        code = main(
            ["evolve", "--gamma1", "1", "--gamma2", "3", "--samples", "1000",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "propagate_analytic failed on call 500" in capsys.readouterr().err
        if existing:
            assert [p.name for p in tmp_path.iterdir()] == ["evolve.csv"]
            assert (tmp_path / "evolve.csv").read_bytes() == self.OLD
        else:
            assert list(tmp_path.iterdir()) == []

    def test_sweep_failing_midway(self, tmp_path, capsys):
        # chi = 0 is reported before chi = 1e-8 fails as too small.
        (tmp_path / "sweep.csv").write_bytes(self.OLD)
        code = main(["sweep", "--chi-step", "1e-8", "--chi-max", "1e-7", "--out", str(tmp_path)])
        assert code == 1
        assert "is too small" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
        assert (tmp_path / "sweep.csv").read_bytes() == self.OLD

    def test_successful_run_replaces_an_existing_csv(self, tmp_path):
        (tmp_path / "sweep.csv").write_bytes(self.OLD)
        assert main(["sweep", "--chi-max", "1", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
        assert (tmp_path / "sweep.csv").read_bytes().startswith(b"# time columns")


def _traced_peak(run, config) -> int:
    """Peak bytes tracemalloc sees allocated while ``run(config)`` runs."""
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """evolve and sweep write each row as it is computed, so their memory
    does not grow with the grid."""

    def test_evolve_peak_is_small(self, tmp_path):
        # Holding the 80,000 rows as a list costs about 15 MiB.
        config = load_config(
            None,
            {"mode": "evolve", "gamma1": 1.0, "gamma2": 3.0, "samples": 80_000,
             "out": str(tmp_path)},
        )
        assert _traced_peak(run_evolve, config) < 2 * 2**20

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    def test_evolve_helper_peak_does_not_grow_with_the_samples(
        self, tmp_path, monkeypatch, helpers
    ):
        # The CSV helper's own high-water mark (VmHWM, which exec resets),
        # read while it runs, as the last sample is propagated: by then it
        # has formatted all but the last block or two. Holding the rows of
        # 2e5 samples would cost about 35 MiB.
        peaks = {}
        for samples in (20_000, 200_000):
            calls = [0]

            def propagate(*args, samples=samples):
                calls[0] += 1
                if calls[0] == samples:
                    with open(f"/proc/{helpers[-1].pid}/status", encoding="ascii") as status:
                        line = next(line for line in status if line.startswith("VmHWM:"))
                    peaks[samples] = int(line.split()[1])  # kB
                return propagate_analytic(*args)

            monkeypatch.setattr(zenoion.runner, "propagate_analytic", propagate)
            config = load_config(
                None,
                {"mode": "evolve", "gamma1": 1.0, "gamma2": 3.0, "samples": samples,
                 "out": str(tmp_path)},
            )
            run_evolve(config)
        assert len(helpers) == 2
        assert peaks[200_000] - peaks[20_000] < 4 * 2**10
        assert peaks[200_000] < 32 * 2**10

    def test_sweep_peak_does_not_grow_with_the_chi_count(self, tmp_path):
        # The same chi range at 101 and at 4001 points. Holding 4001 reports
        # as a list costs about 2 MiB; the chi grid itself about 100 KiB.
        peaks = {}
        for points in (101, 4001):
            config = load_config(
                None,
                {"mode": "sweep", "chi_max": 1.0, "chi_step": 1.0 / (points - 1),
                 "out": str(tmp_path)},
            )
            peaks[points] = _traced_peak(run_sweep, config)
            assert len(read_columns(tmp_path / "sweep.csv")[1]["chi"]) == points
        assert peaks[4001] - peaks[101] < 256 * 2**10


class TestSweepAndIndicators:
    def test_sweep_schema_and_values(self, tmp_path):
        config = load_config(
            None,
            {"mode": "sweep", "chi_max": 2.0, "chi_step": 0.5, "out": str(tmp_path)},
        )
        path = run_sweep(config)
        header, data = read_columns(path)
        assert header[0] == "chi"
        np.testing.assert_allclose(data["chi"], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert data["m"][data["chi"] <= 1.0].max() == 0.0
        assert data["gqze_present"][0] == 0.0
        assert math.isnan(data["t_chi_scaled"][0])
        totals = data["P_mean"] + data["P2_mean"] + data["P3_mean"]
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)

    def test_sweep_samples_a_tenth_of_the_chunked_scan(self, tmp_path, monkeypatch, capsys):
        # On this grid the chunked window scan, with no certified skips,
        # sampled 811,170 survival points; the skips must cut that tenfold.
        chunked_scan_points = 811_170
        points = []
        survival = zenoion.indicators.survival_probability

        def record(chi, w, times):
            points.append(np.size(times))
            return survival(chi, w, times)

        monkeypatch.setattr(zenoion.indicators, "survival_probability", record)
        code = main(["sweep", "--chi-max", "20", "--chi-step", "0.05", "--out", str(tmp_path)])
        assert code == 0
        assert sum(points) <= chunked_scan_points // 10

    def test_sweep_seeds_every_bracket_on_floats(self, tmp_path, monkeypatch, capsys):
        # On this grid the bracket's left end is the point just before the
        # crossing at every chi, so the walk back on Python floats forms one
        # gap per chi; the chunked fallback still runs on some chi.
        backs, fallbacks = [], []
        bracket_left = zenoion.indicators._bracket_left
        chunked = zenoion.indicators._chunked_search

        def record_left(chi, w, step, crossing):
            left = bracket_left(chi, w, step, crossing)
            backs.append(crossing - left)
            return left

        def record_chunked(*args):
            fallbacks.append(args)
            return chunked(*args)

        monkeypatch.setattr(zenoion.indicators, "_bracket_left", record_left)
        monkeypatch.setattr(zenoion.indicators, "_chunked_search", record_chunked)
        code = main(["sweep", "--chi-max", "20", "--chi-step", "0.05", "--out", str(tmp_path)])
        assert code == 0
        assert len(backs) == 400 and set(backs) == {1}
        assert fallbacks

    def test_single_point_sweep_via_chi(self, tmp_path):
        config = load_config(
            None, {"mode": "sweep", "chi": 10.0, "out": str(tmp_path)}
        )
        _, data = read_columns(run_sweep(config))
        assert data["chi"].tolist() == [10.0]
        assert data["gqze_present"][0] == 1.0
        assert data["t_chi_over_Tp"][0] >= 0.5

    def test_indicators_text_and_csv(self, tmp_path):
        config = load_config(
            None, {"mode": "indicators", "chi": 10.0, "epsilon": 0.05, "out": str(tmp_path)}
        )
        text, path = run_indicators(config)
        assert "chi" in text and "P_mean" in text and "t_m" in text
        _, data = read_columns(path)
        assert data["m"][0] == pytest.approx((99 / 101) ** 2)
        assert data["S_scaled"][0] == 0.0

    def test_indicators_from_gamma_pair(self, tmp_path):
        config = load_config(
            None,
            {"mode": "indicators", "gamma1": 1.0, "gamma2": 2.0, "out": str(tmp_path)},
        )
        _, path = run_indicators(config)
        _, data = read_columns(path)
        assert data["chi"][0] == pytest.approx(2.0)

    def test_unit_gammas_with_carrier_l_give_unit_ratio(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmode = indicators\n"
            "[state]\nn = 1,0,0\nr = 1,0,0\nl = 0,0,0\n"
            "[couplings]\ngamma1 = 1\ngamma2 = 1\n"
            f"[output]\npath = {tmp_path / 'res'}\n",
            encoding="utf-8",
        )
        config = load_config(str(ini), {})
        _, path = run_indicators(config)
        _, data = read_columns(path)
        assert data["chi"][0] == pytest.approx(1.0)

    def test_truncated_chain_runs_as_two_level(self, tmp_path):
        # l = (1,0,0) leaves no third state, so the block is two level and
        # the indicators reduce to the chi = 0 reference case.
        config = load_config(
            None,
            {
                "mode": "indicators",
                "n": "1,0,0",
                "r": "1,0,0",
                "l": "1,0,0",
                "gamma1": 1.0,
                "gamma2": 1.0,
                "out": str(tmp_path),
            },
        )
        _, path = run_indicators(config)
        _, data = read_columns(path)
        assert data["chi"][0] == 0.0
        assert data["P_mean"][0] == pytest.approx(0.5)


class TestValidateHarness:
    def test_clean_run_passes(self):
        config = load_config(None, {"mode": "validate", "seed": 3})
        report = run_validate(config)
        assert report.ok
        text = report.format_text()
        assert "PASS" in text and "FAIL" not in text
        oracle = report.checks[0]
        assert oracle.max_deviation <= 1e-10

    def test_deterministic_given_seed(self):
        config = load_config(None, {"mode": "validate", "seed": 11})
        one = run_validate(config)
        two = run_validate(config)
        assert [c.max_deviation for c in one.checks] == [c.max_deviation for c in two.checks]

    def test_injected_sign_flip_is_caught(self, monkeypatch):
        def corrupted(block, state, t):
            if block.coupling_12 != 0:
                block = replace(block, coupling_12=-block.coupling_12)
            return propagate_analytic(block, state, t)

        monkeypatch.setattr("zenoion.runner.propagate_analytic", corrupted)
        config = load_config(None, {"mode": "validate", "seed": 3})
        report = run_validate(config)
        assert not report.ok
        assert "FAIL" in report.format_text()

    def test_checks_every_period_average(self):
        config = load_config(None, {"mode": "validate", "seed": 3})
        names = [check.name for check in run_validate(config).checks]
        assert len(names) == 13
        mean = names.index("survival mean: closed vs quadrature")
        assert names[mean + 1 : mean + 3] == [
            "level-2 mean: closed vs oracle quadrature",
            "level-3 mean: closed vs oracle quadrature",
        ]

    @pytest.mark.parametrize("level", [2, 3])
    def test_injected_level_mean_error_is_caught(self, monkeypatch, level):
        closed = zenoion.runner.mean_level_probabilities

        def corrupted(chi):
            triple = list(closed(chi))
            triple[level - 1] += 1e-12
            return tuple(triple)

        monkeypatch.setattr("zenoion.runner.mean_level_probabilities", corrupted)
        config = load_config(None, {"mode": "validate", "seed": 3})
        report = run_validate(config)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == [f"level-{level} mean: closed vs oracle quadrature"]
        assert not report.ok

    def test_injected_survival_floor_error_is_caught(self, monkeypatch):
        closed = zenoion.runner.min_survival
        monkeypatch.setattr("zenoion.runner.min_survival", lambda chi: closed(chi) + 2e-9)
        config = load_config(None, {"mode": "validate", "seed": 3})
        report = run_validate(config)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == ["survival minimum: closed vs grid"]
        assert not report.ok

    # Each error lies below what a 1e5-point grid twin resolves and above
    # the row's tolerance (1e-14, 1e-7 and 1e-8 T_p).
    @pytest.mark.parametrize(
        "closed, error, failing",
        [
            ("min_survival", lambda chi: 1e-12, "survival minimum: closed vs grid"),
            ("time_of_min", lambda chi: 2e-7, "first-minimum time vs bracketed argmin"),
            (
                "sub_threshold_measure",
                lambda chi: 1e-7 * poincare_time(chi),
                "sub-threshold measure vs bisection (T_p)",
            ),
        ],
        ids=["min_survival", "time_of_min", "sub_threshold_measure"],
    )
    def test_injected_error_below_the_grid_tolerance_is_caught(
        self, monkeypatch, closed, error, failing
    ):
        original = getattr(zenoion.runner, closed)
        monkeypatch.setattr(
            f"zenoion.runner.{closed}", lambda chi, *args: original(chi, *args) + error(chi)
        )
        report = run_validate(load_config(None, {"mode": "validate", "seed": 3}))
        assert [check.name for check in report.checks if not check.passed] == [failing]

    # The measure row holds for a user epsilon up to mean - floor at each of
    # its chi, where the sub-threshold set shrinks to the first minimum.
    @pytest.mark.parametrize(
        "shrink",
        [
            lambda gap: gap,
            lambda gap: math.nextafter(gap, 0.0),
            lambda gap: gap * (1.0 - 1e-15),
            lambda gap: gap * (1.0 - 1e-6),
        ],
        ids=["gap", "nextafter", "1-1e-15", "1-1e-6"],
    )
    @pytest.mark.parametrize("chi", [0.3, 0.7, 1.0, 2.0])
    def test_measure_row_passes_near_the_floor(self, chi, shrink):
        gap = mean_survival(chi) - min_survival(chi)
        config = load_config(None, {"mode": "validate", "seed": 3, "epsilon": shrink(gap)})
        report = run_validate(config)
        (check,) = [c for c in report.checks if c.name.startswith("sub-threshold measure")]
        assert check.passed, check
        assert report.ok

    def test_survival_floor_comes_from_the_argmin_pass(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("run_validate must not run the full-period minimum grid")

        monkeypatch.setattr("zenoion.twins.min_survival_grid", unused)
        monkeypatch.setattr("zenoion.runner.min_survival_grid", unused, raising=False)
        config = load_config(None, {"mode": "validate", "seed": 3})
        assert run_validate(config).ok

    def test_survival_floor_deviation_does_not_depend_on_the_seed(self):
        # The chi grid of the check is fixed; only the propagator checks
        # draw from the seed.
        def floor_deviation(seed):
            report = run_validate(load_config(None, {"mode": "validate", "seed": seed}))
            (check,) = [c for c in report.checks if c.name == "survival minimum: closed vs grid"]
            return check.max_deviation, check.tolerance

        assert floor_deviation(0) == floor_deviation(7)

    # A twin that returns nan for chi > 1 must fail its check, although a
    # number comes before the nan: max() over Python floats would drop it.
    @pytest.mark.parametrize(
        "twin, failing",
        [
            ("mean_survival_quadrature", ["survival mean: closed vs quadrature"]),
            (
                "oracle_level_means",
                [
                    "level-2 mean: closed vs oracle quadrature",
                    "level-3 mean: closed vs oracle quadrature",
                ],
            ),
            ("sub_threshold_measure_grid", ["sub-threshold measure vs bisection (T_p)"]),
        ],
    )
    def test_nan_twin_fails_its_check(self, monkeypatch, capsys, twin, failing):
        original = getattr(zenoion.runner, twin)

        def nan_past_one(chi, *args, **kwargs):
            value = original(chi, *args, **kwargs)
            return value * math.nan if chi > 1 else value

        monkeypatch.setattr(f"zenoion.runner.{twin}", nan_past_one)
        report = run_validate(load_config(None, {"mode": "validate", "seed": 0}))
        assert [check.name for check in report.checks if not check.passed] == failing
        assert main(["validate"]) == 2
        assert "overall: FAIL" in capsys.readouterr().out

    def test_two_panels_fail_exactly_the_period_average_rows(self, monkeypatch):
        # One constant sets the panels of both quadrature twins. Two panels
        # alias harmonic 2 onto the mean, so all three period-average rows
        # fail and no other row moves; at the fixed 16 every row passes.
        averages = [
            "survival mean: closed vs quadrature",
            "level-2 mean: closed vs oracle quadrature",
            "level-3 mean: closed vs oracle quadrature",
        ]
        config = load_config(None, {"mode": "validate", "seed": 0})
        with monkeypatch.context() as patch:
            patch.setattr(zenoion.twins, "_QUADRATURE_PANELS", 2)
            report = run_validate(config)
        assert [check.name for check in report.checks if not check.passed] == averages
        assert zenoion.twins._QUADRATURE_PANELS == 16
        assert run_validate(config).ok

    def test_deviations_are_python_floats(self):
        report = run_validate(load_config(None, {"mode": "validate", "seed": 3}))
        assert [type(check.max_deviation) for check in report.checks] == [float] * 13

    def test_first_case_draws_are_pinned(self):
        # A reordered draw, or another call of the random.Random API, moves
        # these numbers on every Python; the relative tolerance only forgives
        # a last-bit difference of libm's exp, log, cos and sin.
        cases = random_cases(random.Random(0))
        assert len(cases) == 100 + 5  # the three-chain cases, then the 2- and 1-chain tail
        block, state, time = cases[0]
        assert block.dimension == 3 and block.chi == 0
        assert time == pytest.approx(-3.023490576185037, rel=1e-13, abs=0.0)
        assert list(state.values) == pytest.approx(
            [
                complex(-0.5423189115684439, -0.4434705684323264),
                complex(-0.03848289940860973, -0.6984960801902118),
                complex(0.0956183890114076, 0.1034575719046543),
            ],
            rel=1e-13,
            abs=0.0,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cases_match_a_per_case_build(self, seed):
        # random_cases builds each three-chain pattern once; the same draws
        # with the pattern built anew for every case must give the same bits.
        rng = random.Random(seed)
        expected = []
        patterns = zenoion.runner._THREE_CHAIN_PATTERNS
        for index, target in enumerate(np.linspace(0.0, 20.0, 100).tolist()):
            n, r, l = patterns[index % len(patterns)]
            mode = ModeVector.of(n)
            ratio = factorial_ratio_root(mode, r) / factorial_ratio_root(mode.remove(r), l)
            gamma1 = zenoion.runner._random_gamma(rng)
            gamma2 = target * gamma1 * ratio * cmath.exp(1j * rng.uniform(0.0, math.tau))
            block = build_block(mode, SidebandPattern(r, l), CouplingConstants(gamma1, gamma2))
            expected.append(zenoion.runner._random_case(rng, block))
        for n, r, l in zenoion.runner._TWO_CHAIN_PATTERNS + zenoion.runner._ONE_CHAIN_PATTERNS:
            couplings = CouplingConstants(
                zenoion.runner._random_gamma(rng), zenoion.runner._random_gamma(rng)
            )
            block = build_block(ModeVector.of(n), SidebandPattern(r, l), couplings)
            expected.append(zenoion.runner._random_case(rng, block))
        cases = random_cases(random.Random(seed))
        assert [_case_bits(case) for case in cases] == [_case_bits(case) for case in expected]

    @pytest.mark.parametrize("index", range(3))
    def test_amplitude_gap_keeps_a_nan(self, index):
        # Every other difference is larger: the nan must win over numbers
        # on either side of it.
        one = _unchecked_state((0.5 + 0j, 0.5j, -0.5))
        shifted = [z + 2.0 for z in one.values]
        shifted[index] = complex(math.nan, 0.0)
        assert math.isnan(zenoion.runner._amplitude_gap(one, _unchecked_state(shifted)))
        assert math.isnan(zenoion.runner._amplitude_gap(_unchecked_state(shifted), one))

    @pytest.mark.parametrize(
        "deviations, expected",
        [([], 0.0), ([0.0, np.float64(2.0), 1.0], 2.0), ([1.0, math.inf], math.inf)],
    )
    def test_max_deviation_is_a_python_float(self, deviations, expected):
        value = zenoion.runner._max_deviation(iter(deviations))
        assert type(value) is float and value == expected

    @pytest.mark.parametrize("index", [1, 2])
    def test_amplitude_row_catches_a_shift_in_a_later_component(self, monkeypatch, index):
        original = zenoion.runner.propagate_oracle

        def shifted(block, state, time):
            values = list(original(block, state, time).values)
            if len(values) > index:
                values[index] += 1e-9
            return _unchecked_state(values)

        monkeypatch.setattr("zenoion.runner.propagate_oracle", shifted)
        report = run_validate(load_config(None, {"mode": "validate", "seed": 0}))
        assert [check.name for check in report.checks if not check.passed] == [
            "analytic vs eigendecomposition amplitudes"
        ]


def _unchecked_state(values):
    """A state of ``values`` past the norm check."""
    state = object.__new__(VibronicState)
    object.__setattr__(state, "values", tuple(complex(z) for z in values))
    return state


def _bits(z):
    """The exact bits of a float or complex as hex strings."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _case_bits(case):
    block, state, time = case
    return (
        block.dimension,
        block.basis_labels,
        _bits(block.coupling_12),
        _bits(block.coupling_23),
        _bits(block.angular_frequency),
        [_bits(z) for z in state.values],
        _bits(time),
    )


class TestCliEntry:
    def test_figures_exit_zero(self, tmp_path, capsys):
        code = main(["figures", "--out", str(tmp_path), "--samples", "20"])
        assert code == 0
        assert "fig4.csv" in capsys.readouterr().out

    def test_survival_flags_only(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            ["survival", "--chi", "10", "--t-max", "12.56", "--samples", "1000",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("name", ["s.CSV", "s.Csv"])
    def test_survival_csv_suffix_in_any_case_names_a_file(self, tmp_path, capsys, name):
        out = tmp_path / name
        code = main(["survival", "--chi", "10", "--samples", "50", "--out", str(out)])
        assert code == 0
        assert out.is_file()
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_bytes().startswith(b"# ")

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["survival", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_ambiguous_sources_exit_code(self):
        code = main(["survival", "--chi", "1", "--gamma1", "1", "--gamma2", "1"])
        assert code == 1

    def test_validate_exit_zero(self, capsys):
        code = main(["validate", "--seed", "5"])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, monkeypatch, capsys):
        from zenoion.runner import ValidationCheck, ValidationReport

        failing = ValidationReport(
            (ValidationCheck("analytic vs eigendecomposition amplitudes", 1.0, 1e-10),)
        )
        monkeypatch.setattr("zenoion.cli.runner.run_validate", lambda config: failing)
        code = main(["validate"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_indicators_prints_report(self, tmp_path, capsys):
        code = main(["indicators", "--chi", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "hindering interval" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmode = figures\n[grid]\nsamples = 40\n[output]\npath = "
            + str(tmp_path / "x")
            + "\n",
            encoding="utf-8",
        )
        code = main(["figures", "--config", str(ini), "--out", str(tmp_path / "y")])
        assert code == 0
        assert (tmp_path / "y" / "fig1.csv").exists()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", ["figs.csv", "sub/figs.csv", "figs.CSV", "sub/figs.Csv"])
    def test_figures_rejects_csv_path(self, tmp_path, capsys, name):
        target = tmp_path / name
        code = main(["figures", "--out", str(target), "--samples", "20"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: figures writes fig1.csv ... fig4.csv into a directory, "
            f"but out = {str(target)!r} names a .csv file\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exit_code(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("file, not a directory", encoding="utf-8")
        code = main(["figures", "--out", str(target / "sub")])
        assert code == 3

    def test_csv_format_round_trips(self, tmp_path):
        code = main(["figures", "--out", str(tmp_path), "--samples", "20"])
        assert code == 0
        with open(tmp_path / "fig1.csv", "r", encoding="utf-8") as handle:
            handle.readline()
            handle.readline()
            first = handle.readline().strip().split(",")
        value = float(first[1])
        assert f"{value:.16e}" == first[1]

    def test_large_chi_indicators_resolve_the_crossing(self, tmp_path):
        code = main(["indicators", "--chi", "1e5", "--out", str(tmp_path)])
        assert code == 0
        _, data = read_columns(tmp_path / "indicators.csv")
        chi_sq = 1e10
        w = math.sqrt(1.0 + chi_sq)
        t_chi = data["t_chi_scaled"][0]  # unit 1-2 coupling: scaled = internal

        def gap(t):
            return ((chi_sq + np.cos(w * t)) / (chi_sq + 1.0)) ** 2 - np.cos(t) ** 2

        assert abs(gap(t_chi)) <= 1e-9
        times = np.linspace(0.0, t_chi, 20_002)[1:-1]
        assert np.all(gap(times) > 0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["indicators", "--chi", "1e7"],
            ["indicators", "--chi", "1e200"],
            ["sweep", "--chi", "1e160"],
            ["evolve", "--chi", "1e200"],
            ["survival", "--chi", "1e160"],
            ["evolve", "--gamma1", "1", "--gamma2", "1e155"],
            ["indicators", "--chi", "1e-7"],
            ["sweep", "--chi", "1e-9"],
        ],
    )
    def test_chi_beyond_resolvable_range_exits_cleanly(self, argv, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: chi = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--gamma1", "1e-310", "--gamma2", "1e-310"], "too small"),
            (["indicators", "--gamma1", "1e-310", "--gamma2", "1e-310"], "too small"),
            (["sweep", "--chi-step", "1e-9"], "chi grid"),
            (["sweep", "--chi-max", "1e308", "--chi-step", "1e-10"], "chi grid"),
            (["figures", "--chi-step", "1e-12"], "chi grid"),
            (["survival", "--chi", "2", "--samples", "1000000000000"], "samples"),
            (["survival", "--chi", "2", "--t-max", "1e308", "--samples", "10"], "t_max"),
            (["evolve", "--chi", "2", "--t-max", "1e308", "--samples", "10"], "t_max"),
            (["figures", "--t-max", "1e308", "--samples", "10"], "t_max"),
            (["sweep", "--chi-step", "1e-13", "--chi-max", "4e-13"], "chi_step = 1e-13"),
            (["sweep", "--chi-max", "1e300", "--chi-step", "1e299"], "chi_max = 1e+300"),
            (
                ["evolve", "--n", "100000,0,0", "--r", "50000,0,0", "--l", "1,0,0",
                 "--gamma1", "1", "--gamma2", "1"],
                "|c12| = inf",
            ),
            (
                ["evolve", "--n", "100000,0,0", "--r", "1,0,0", "--l", "50000,0,0",
                 "--gamma1", "1", "--gamma2", "1"],
                "|c23| = inf",
            ),
            (
                ["indicators", "--n", "1" + "0" * 400 + ",0,0", "--r", "1,0,0",
                 "--gamma1", "1", "--gamma2", "1"],
                "|c12| = inf",
            ),
            (
                ["indicators", "--n", "20000000,0,0", "--r", "20000000,0,0",
                 "--gamma1", "1", "--gamma2", "1"],
                "|c12| = inf",
            ),
            (
                ["indicators", "--gamma1", "2.2e-311", "--gamma2", "0", "--l", "0,0,1"],
                "|c12| = 2.2e-311 is too small",
            ),
            (
                ["indicators", "--gamma1", "1e-308", "--gamma2", "0", "--l", "0,0,1"],
                "|c12| = 1e-308 is too small: the period 2 pi / |c12| overflows float64",
            ),
            (
                ["indicators", "--gamma1", "5e-324", "--gamma2", "1e-323"],
                "|c12| = 4.94066e-324 is too small: the period 2 pi / |c12| overflows",
            ),
            (["indicators", "--gamma1", "0", "--gamma2", "1"], "1-2 coupling vanishes"),
            (
                ["indicators", "--gamma1", "1.5e308", "--gamma2", "1.5e308"],
                "the block frequency hypot(|c12|, |c23|) overflows float64",
            ),
        ],
    )
    def test_oversized_or_underflowing_input_exits_cleanly(
        self, argv, message, tmp_path, capsys
    ):
        # Each of these once ended in a traceback, a multi-GiB allocation or
        # a CSV of nan rows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_evolve_time_unit_overflow_names_the_coupling(self, tmp_path, capsys):
        argv = ["evolve", "--gamma1", "1e-310", "--gamma2", "1e-310", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: |c12| = 1e-310 is too small: the time unit t_max / |c12| "
            "overflows float64\n"
        )

    @pytest.mark.parametrize("mode", ["evolve", "survival", "indicators"])
    def test_tiny_couplings_match_unit_chi(self, mode, tmp_path):
        # The three-level closed form works in units of the block frequency,
        # so couplings whose squares underflow still run.
        tiny = ["--gamma1", "1e-200", "--gamma2", "1e-200"]
        columns = {}
        for name, flags in (("tiny", tiny), ("unit", ["--chi", "1"])):
            out = tmp_path / f"{name}.csv"
            argv = [mode, *flags, "--samples", "200", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
            columns[name] = read_columns(out)[1]
        assert columns["tiny"].keys() == columns["unit"].keys()
        if mode == "indicators":
            # The indicators depend on chi alone.
            assert (tmp_path / "tiny.csv").read_bytes() == (tmp_path / "unit.csv").read_bytes()
        for name, unit in columns["unit"].items():
            np.testing.assert_allclose(columns["tiny"][name], unit, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["evolve", "survival", "indicators"])
    def test_huge_couplings_match_unit_chi(self, mode, tmp_path):
        # Couplings whose squares overflow still run: the block frequency is
        # a hypot, and the closed form divides the couplings by it first.
        huge = ["--gamma1", "1e200", "--gamma2", "1e200"]
        columns = {}
        for name, flags in (("huge", huge), ("unit", ["--chi", "1"])):
            out = tmp_path / f"{name}.csv"
            argv = [mode, *flags, "--samples", "200", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
            columns[name] = read_columns(out)[1]
        assert columns["huge"].keys() == columns["unit"].keys()
        if mode == "evolve":
            # Each time is divided by |c12| and the phase multiplied back by
            # the frequency, which moves the last bits.
            for name, unit in columns["unit"].items():
                np.testing.assert_allclose(columns["huge"][name], unit, rtol=0, atol=1e-12)
        else:
            assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "unit.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            {"gamma1": "0.37", "gamma2": "5.1"},
            {"gamma1": "1e150", "gamma2": "3e150"},
            {"gamma1": "1e-300", "gamma2": "3e-300"},
            {"gamma1": "0.7", "gamma2": "2.3", "n": "3,2,1", "r": "1,1,0", "l": "1,0,1"},
            {"gamma1": "1e154", "gamma2": "0", "l": "0,0,1"},
        ],
    )
    def test_indicators_at_any_coupling_write_the_chi_bytes(self, flags, tmp_path, capsys):
        # A run at any |c12| writes the indicators.csv of the --chi run with
        # its chi. Its text differs only in the two internal-unit lines,
        # which are the scaled times divided by |c12|.
        coupled, unit = tmp_path / "coupled.csv", tmp_path / "unit.csv"
        argv = ["indicators", *(f"--{key}={value}" for key, value in flags.items())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(coupled)]) == 0
            text = capsys.readouterr().out
            chi = coupled.read_text(encoding="utf-8").splitlines()[2].split(",")[0]
            assert main(["indicators", "--chi", chi, "--out", str(unit)]) == 0
            unit_text = capsys.readouterr().out
        assert coupled.read_bytes() == unit.read_bytes()

        config = load_config(None, {"mode": "indicators", **flags})
        c12 = abs(zenoion.runner._resolve(config).coupling_12)
        _, data = read_columns(unit)
        internal = {
            "T_p (internal units)": data["T_p_scaled"][0] / c12,
            "t_m (internal units)": data["t_m_scaled"][0] / c12,
        }
        lines, unit_lines = text.splitlines()[:-1], unit_text.splitlines()[:-1]
        assert len(lines) == len(unit_lines) == 13
        for line, unit_line in zip(lines, unit_lines):
            label, _, value = line.partition("=")
            if label.strip() in internal:
                assert value.strip() == f"{internal[label.strip()]:.12g}"
            else:
                assert line == unit_line

    @pytest.mark.parametrize(
        "flags",
        [
            {"gamma1": "1.54", "gamma2": "13.54"},
            {"gamma1": "0.7", "gamma2": "2.3", "n": "3,2,1", "r": "1,1,0", "l": "1,0,1"},
        ],
    )
    def test_survival_at_any_coupling_writes_the_chi_bytes(self, flags, tmp_path):
        # The survival depends on chi alone, and both runs form its
        # frequency as sqrt(1 + chi^2).
        coupled, unit = tmp_path / "coupled.csv", tmp_path / "unit.csv"
        config = load_config(None, {"mode": "survival", **flags})
        chi = repr(abs(zenoion.runner._resolve(config).chi))
        argv = ["survival", *(f"--{key}={value}" for key, value in flags.items())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(coupled)]) == 0
            assert main(["survival", "--chi", chi, "--out", str(unit)]) == 0
        assert coupled.read_bytes() == unit.read_bytes()

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NaN"])
    def test_negative_inf_and_nan_parse_in_both_spellings(self, value, tmp_path, capsys):
        for flags in (["--gamma1", value], [f"--gamma1={value}"]):
            argv = ["evolve", *flags, "--gamma2", "1", "--out", str(tmp_path)]
            assert main(argv) == 1
            assert capsys.readouterr().err == "config error: gamma1: must be finite\n"

    def test_two_level_block_with_tiny_coupling_runs(self, tmp_path):
        # |c12|^2 underflows, but the two-level closed form never forms it.
        argv = ["--gamma1", "1e-160", "--gamma2", "1", "--l", "1,0,0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", *argv, "--samples", "5", "--out", str(tmp_path)]) == 0
            assert main(["indicators", *argv, "--out", str(tmp_path)]) == 0
        _, data = read_columns(tmp_path / "evolve.csv")
        np.testing.assert_allclose(data["p1"] + data["p2"], 1.0, atol=1e-12)

    @pytest.mark.parametrize("mode", list(MODES))
    def test_negative_exponent_values_are_values(self, mode, tmp_path, capsys):
        # argparse before Python 3.13 reads "-1e-3" as an option; every mode
        # carries the matcher that reads it as a value.
        namespace = build_parser().parse_args([mode, "--gamma2", "-1e-3", "--eta-a", "-2.5E+1"])
        assert (namespace.mode, namespace.gamma2, namespace.eta_a) == (mode, -1e-3, -25.0)
        if mode == "evolve":
            argv = ["evolve", "--gamma1", "1", "--gamma2", "-1e-3", "--samples", "10"]
            assert main(argv + ["--out", str(tmp_path)]) == 0
            assert (tmp_path / "evolve.csv").exists()
        assert main([mode, "--chi", "-1e-3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: chi must be >= 0\n"

    def test_example_config_runs(self, tmp_path):
        example = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
        assert main(["indicators", "--config", str(example), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "indicators.csv").exists()

    def test_negative_seed_exit_code(self, capsys):
        code = main(["validate", "--seed", "-1"])
        assert code == 1
        assert "config error: seed" in capsys.readouterr().err


class TestChiGrid:
    def test_sweep_stops_at_or_below_chi_max(self, tmp_path):
        config = load_config(
            None, {"mode": "sweep", "chi_max": 5.0, "chi_step": 0.3, "out": str(tmp_path)}
        )
        _, data = read_columns(run_sweep(config))
        np.testing.assert_array_equal(data["chi"], np.round(np.arange(17) * 0.3, 12))
        assert data["chi"][-1] <= 5.0

    def test_whole_step_ends_keep_their_last_point(self):
        # Many of these divisions land an ulp below the step count
        # (18.15 / 0.05 = 362.99999999999994); the end point must stay.
        for steps in range(360, 441):
            chi_max = round(steps * 0.05, 2)
            grid = _chi_grid(chi_max, 0.05)
            assert len(grid) == steps + 1
            assert grid[-1] == chi_max

    @pytest.mark.parametrize(
        "chi_max, chi_step",
        [(4e-13, 1e-13), (1e-11, 7e-13), (1e-323, 5e-324), (1e300, 1e299), (1e308, 1e307)],
    )
    def test_collapsing_or_overflowing_grid_is_a_config_error(self, chi_max, chi_step):
        # Rounding to 12 decimals would merge the points of the first three
        # grids and overflow on the last two.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="chi_step|chi_max"):
                _chi_grid(chi_max, chi_step)

    def test_finest_distinct_grid_is_kept(self):
        np.testing.assert_array_equal(_chi_grid(4e-12, 1e-12), np.arange(5) * 1e-12)

    @pytest.mark.parametrize("chi_step", [0.01, 0.05, 0.1, 0.0001])
    def test_figure_grids(self, tmp_path, chi_step):
        config = load_config(
            None,
            {"mode": "figures", "out": str(tmp_path), "samples": 20, "chi_step": chi_step},
        )
        paths = run_figures(config)
        for path, chi_end in ((paths[1], 3), (paths[2], 3), (paths[3], 5)):
            _, data = read_columns(path)
            count = round(chi_end / chi_step) + 1
            np.testing.assert_array_equal(
                data["chi"], np.round(np.arange(count) * chi_step, 12)
            )


class TestArgvProperty:
    def test_every_argv_runs_or_fails_cleanly(self):
        # The Hypothesis property of argv_property.py runs in one child whose
        # address space is capped, so an allocation that escapes the grid
        # caps fails fast rather than exhausting the host.
        script = Path(__file__).with_name("argv_property.py")
        src = str(Path(zenoion.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, str(script), "80"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestNoNumpyRandom:
    def test_no_mode_imports_numpy_random(self, tmp_path):
        # numpy.random costs its import (secrets, hashlib and the bit
        # generators) in every process that touches it; validate draws its
        # cases from the standard library's random.Random instead.
        script = """
import sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(3)  # an older numpy imports numpy.random with numpy itself
from zenoion.cli import main
out = sys.argv[1]
runs = [
    ["validate", "--seed", "1"],
    ["evolve", "--gamma1", "1", "--gamma2", "3", "--samples", "50", "--out", out],
    ["survival", "--chi", "2", "--samples", "50", "--out", out],
    ["indicators", "--chi", "2", "--out", out],
    ["sweep", "--chi-max", "1", "--out", out],
    ["figures", "--samples", "50", "--out", out],
]
for argv in runs:
    assert main(argv) == 0, argv
    assert "numpy.random" not in sys.modules, argv[0]
"""
        src = str(Path(zenoion.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode == 3:
            pytest.skip("this numpy imports numpy.random whenever numpy is imported")
        assert result.returncode == 0, result.stderr


class TestUnreadableConfigFiles:
    # Undecodable bytes, a '%' (no interpolation) and a continuation line.
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[run]\nmode = sweep\n[grid]\nchi_max = 1\xff\n", "cannot read config file "),
            (b"[run]\nmode = sweep\n[grid]\nchi_max = 5%\n", "chi_max: '5%'"),
            (b"[run]\nmode = sweep\n[grid]\nchi_max = 2\n  3\n", "chi_max: '2\\n3'"),
        ],
    )
    def test_ends_in_one_config_error_line(self, content, message, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(content)
        src = str(Path(zenoion.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        result = subprocess.run(
            [sys.executable, "-m", "zenoion.cli", "sweep", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("config error: " + message)
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        if message.startswith("cannot read"):
            assert str(path) in result.stderr


# Flag, INI section, INI key and a non-default value of each RunConfig field.
_SPELLINGS = {
    "mode": (None, "run", "mode", "sweep"),
    "chi": ("--chi", "couplings", "chi", "2.5"),
    "gamma1": ("--gamma1", "couplings", "gamma1", "1.5"),
    "gamma2": ("--gamma2", "couplings", "gamma2", "0.5"),
    "omega_a": ("--omega-a", "couplings", "omega_a", "1.25"),
    "eta_a": ("--eta-a", "couplings", "eta_a", "0.125"),
    "omega_b": ("--omega-b", "couplings", "omega_b", "0.75"),
    "eta_b": ("--eta-b", "couplings", "eta_b", "0.0625"),
    "n": ("--n", "state", "n", "2,1,0"),
    "r": ("--r", "state", "r", "1,1,0"),
    "l": ("--l", "state", "l", "0,0,1"),
    "t_max": ("--t-max", "grid", "t_max", "3.5"),
    "samples": ("--samples", "grid", "samples", "17"),
    "epsilon": ("--epsilon", "grid", "epsilon", "0.02"),
    "order_threshold": ("--order-threshold", "grid", "order_threshold", "0.75"),
    "chi_max": ("--chi-max", "grid", "chi_max", "2.5"),
    "chi_step": ("--chi-step", "grid", "chi_step", "0.05"),
    "out": ("--out", "output", "path", "results"),
    "seed": ("--seed", "validate", "seed", "7"),
}

# Fields that are only valid together.
_GROUPS = (("gamma1", "gamma2"), ("omega_a", "eta_a", "omega_b", "eta_b"))


class TestParser:
    """The flags are built once, on a parent parser that every mode shares."""

    @staticmethod
    def _flags(parser):
        """(option_strings, dest, type, metavar, help) of every action but -h."""
        return [
            (action.option_strings, action.dest, action.type, action.metavar, action.help)
            for action in parser._actions
            if action.dest != "help"
        ]

    def test_every_mode_has_the_same_flags_in_field_order(self):
        [subparsers] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(subparsers.choices) == list(MODES)
        expected = [(["--config"], "config", None, "PATH", "INI config file")] + [
            (
                ["--" + f.name.replace("_", "-")],
                f.name,
                f.metadata["type"],
                f.metadata["metavar"],
                f.metadata["help"],
            )
            for f in fields(RunConfig)
            if f.name != "mode"
        ]
        for sub in subparsers.choices.values():
            assert self._flags(sub) == expected

    def test_flags_are_added_once(self, monkeypatch):
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def record(container, *args, **kwargs):
            calls.append(args)
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", record)
        build_parser()
        # Every parser adds its own -h internally; that call is not counted.
        flags = [args for args in calls if args != ("-h", "--help")]
        assert len(flags) <= len(fields(RunConfig)) + 1


class TestFlagsMatchIniKeys:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_ini_key_give_equal_configs(self, name, tmp_path, monkeypatch):
        names = next((group for group in _GROUPS if name in group), (name,))
        argv = ["sweep"]  # the subcommand is the mode's flag
        ini = {"run": {"mode": "sweep"}}
        for each in names:
            flag, section, key, value = _SPELLINGS[each]
            if flag is not None:
                argv += [flag, value]
            ini.setdefault(section, {})[key] = value

        seen = []
        monkeypatch.setattr(
            "zenoion.cli.runner.run_sweep", lambda config: seen.append(config) or "x.csv"
        )
        assert main(argv) == 0
        path = tmp_path / "run.ini"
        path.write_text(
            "".join(
                f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                for section, keys in ini.items()
            ),
            encoding="utf-8",
        )
        from_file = load_config(str(path), {})
        assert seen == [from_file]
        for each in names:
            assert getattr(from_file, each) != getattr(RunConfig(mode="figures"), each)
