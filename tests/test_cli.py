import argparse
import inspect
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhn import bifurcation, canard, cli, dynamics
from fhn.bifurcation import sweep_values
from fhn.cli import main
from fhn.core import SystemParams
from fhn.dynamics import Stability
from fhn.errors import (
    BracketFailureError,
    ConvergedToEquilibriumError,
    FHNError,
    IntegrationError,
    NoCycleError,
    NonFiniteError,
    SearchError,
    StepSizeCollapseError,
)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def subcommand_parsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def fhn_error_classes():
    """FHNError and every class below it."""
    out, todo = [], [FHNError]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(out, key=lambda c: c.__name__)


class TestErrorMapping:
    @pytest.mark.parametrize("error", fhn_error_classes(), ids=lambda c: c.__name__)
    def test_exit_code_follows_base_class(self, tmp_path, monkeypatch, error):
        def handler(args, outdir, manifest):
            raise error("raised by the handler")

        monkeypatch.setattr(cli, "_cmd_singular", handler)
        code = main(["singular", "--b", "0", "--c", "0", "--out", str(tmp_path)])
        if issubclass(error, IntegrationError):
            want = (3, "integration-error")
        elif issubclass(error, SearchError):
            want = (4, "search-error")
        else:
            want = (2, "config-error")
        assert code == want[0]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert (man["status"], man["error"]) == (want[1], "raised by the handler")

    def test_value_error_is_config_error(self, tmp_path, monkeypatch):
        def handler(args, outdir, manifest):
            raise ValueError("bad input")

        monkeypatch.setattr(cli, "_cmd_singular", handler)
        assert main(["singular", "--b", "0", "--c", "0", "--out", str(tmp_path)]) == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error"

    def test_failure_bases(self):
        classes = fhn_error_classes()
        assert {c for c in classes if issubclass(c, IntegrationError)} == {
            IntegrationError, NonFiniteError, StepSizeCollapseError,
        }
        assert {c for c in classes if issubclass(c, SearchError)} == {
            SearchError, NoCycleError, ConvergedToEquilibriumError, BracketFailureError,
        }


class TestParsedOptionsAreRead:
    @pytest.mark.parametrize("command", sorted(subcommand_parsers()))
    def test_every_option_read_by_its_handler(self, command):
        # a flag that is parsed and echoed in the manifest but never read
        # claims a setting the run did not use
        handler = getattr(cli, "_cmd_" + command.replace("-", "_"))
        for action in subcommand_parsers()[command]._actions:
            if action.dest == "help":
                continue
            reader = cli.main if action.dest == "out" else handler
            assert f"args.{action.dest}" in inspect.getsource(reader), (
                f"fhn {command} parses {action.option_strings} but {reader.__name__} never reads it"
            )


class TestSingularCommand:
    def test_period_only(self, tmp_path):
        code = main(["singular", "--b", "0", "--c", "0", "--period-only", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "success"
        assert man["outputs"]["period"] == pytest.approx(12 - 8 * math.log(2), abs=1e-6)
        header, rows = read_csv(tmp_path / "period.csv")
        assert header == ["b", "c", "period"]
        assert float(rows[0][2]) == pytest.approx(12 - 8 * math.log(2), abs=1e-6)

    def test_orbit_output(self, tmp_path):
        code = main(["singular", "--b", "0.2", "--c", "0", "--x0", "-2.8", "--y0", "1.64",
                     "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["outputs"]["fate"] == "PeriodicCycle"
        assert set(man["outputs"]) == {"fate", "period"}
        header, rows = read_csv(tmp_path / "singular_orbit.csv")
        assert header == ["segment_kind", "x0", "y0", "x1", "y1", "duration"]
        assert rows[0][0] == "fast"

    def test_start_on_manifold_rejected(self, tmp_path):
        code = main(["singular", "--b", "0", "--c", "0", "--x0", "-2", "--y0", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error"

    def test_nonzero_eps_rejected(self, tmp_path):
        # singular has no --eps option: a usage error, so no manifest
        code = main(["singular", "--b", "0", "--c", "0", "--eps", "0.1", "--period-only",
                     "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_start_point_with_period_only_is_config_error(self, tmp_path):
        # --period-only reads no start point: one given would be ignored
        code = main(["singular", "--b", "0.2", "--c", "0", "--x0", "5", "--y0", "5", "--period-only",
                     "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "--x0" in man["error"]
        assert not (tmp_path / "period.csv").exists()

    def test_period_without_relaxation_cycle_is_config_error(self, tmp_path):
        # at b = 0, c = -2.5 the equilibrium x = c lies beyond the left
        # landing point, and the slow flow there runs away from the fold
        code = main(["singular", "--b", "0", "--c", "-2.5", "--period-only", "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "landing point" in man["error"]
        assert "period" not in man["outputs"]
        assert not (tmp_path / "period.csv").exists()

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        # the run directory cannot be made: exit 2 with the reason, no traceback
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["singular", "--b", "0", "--c", "0", "--period-only", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"


class TestSimulateCommand:
    def test_trajectory_csv(self, tmp_path):
        code = main(["simulate", "--b", "0", "--c", "0", "--eps", "0.1", "--x0", "-2.8",
                     "--y0", "1.64", "--tmax", "5", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["time", "x", "y"]
        assert len(rows) == 2001
        assert float(rows[0][1]) == -2.8

    def test_eps_zero_directed_to_singular(self, tmp_path):
        code = main(["simulate", "--b", "0", "--c", "0", "--eps", "0", "--x0", "1",
                     "--y0", "0", "--tmax", "5", "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert "singular" in man["error"]

    @pytest.mark.parametrize("flag, value", [("--tmax", "inf"), ("--tmax", "nan"), ("--tmax", "0"),
                                             ("--dt-out", "0"), ("--dt-out", "nan"),
                                             ("--dt-out", "inf")])
    def test_rejects_bad_time_before_integrating(self, tmp_path, monkeypatch, flag, value):
        # --tmax inf or nan never returned, and --dt-out 0 was rejected only
        # after the whole integration had run
        def never(*_args, **_kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(cli, "integrate", never)
        argv = {"--tmax": "5", "--dt-out": "0.01", flag: value}
        code = main(["simulate", "--b", "0", "--c", "0", "--eps", "0.1", "--x0", "1", "--y0", "0",
                     *(a for item in argv.items() for a in item), "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and flag in man["error"]

    def test_output_table_too_large_is_config_error(self, tmp_path, monkeypatch):
        # --dt-out 1e-12 over --tmax 1 asked numpy for a 7.28 TiB table: the
        # MemoryError ended the run with a traceback and no manifest
        def too_large(self, dt):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(dynamics.Trajectory, "sample_uniform", too_large)
        code = main(["simulate", "--b", "0", "--c", "0", "--eps", "0.1", "--x0", "1", "--y0", "0",
                     "--tmax", "1", "--dt-out", "1e-12", "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "7.28 TiB" in man["error"]

    def test_mirrored_seed_mirrors_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for sub, x0, y0 in ((a, "-2.8", "1.64"), (b, "2.8", "-1.64")):
            assert main(["simulate", "--b", "0.2", "--c", "0", "--eps", "0.2", "--x0", x0,
                         "--y0", y0, "--tmax", "4", "--out", str(sub)]) == 0
        _, rows_a = read_csv(a / "trajectory.csv")
        _, rows_b = read_csv(b / "trajectory.csv")
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra[1]) == pytest.approx(-float(rb[1]), abs=1e-7)
            assert float(ra[2]) == pytest.approx(-float(rb[2]), abs=1e-7)

    def test_step_collapse_writes_partial_trajectory(self, tmp_path, monkeypatch):
        # the forward field sends no orbit to the step floor; a backward run
        # from far right, whose blow-up time falls below it, stands in
        def backward(*args, **kwargs):
            return dynamics.integrate(*args, **kwargs, direction=-1)

        monkeypatch.setattr(cli, "integrate", backward)
        code = main(["simulate", "--b", "0.3", "--c", "1", "--eps", "0.065", "--x0", "9220",
                     "--y0", "-1.5", "--tmax", "1e-9", "--out", str(tmp_path)])
        assert code == 3
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "integration-error" and "below floor" in man["error"]
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["time", "x", "y"] and len(rows) > 1
        assert float(rows[0][1]) == 9220.0
        assert man["outputs"]["last_state"][0] > 9220.0

    def test_failed_first_step_writes_its_start(self, tmp_path):
        # the run stops at node 0, and its one-node dense output is the start
        code = main(["simulate", "--b", "0", "--c", "0", "--eps", "0.1", "--x0", "2e8",
                     "--y0", "0", "--tmax", "1", "--out", str(tmp_path)])
        assert code == 3
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert "step 1.000e-15 below floor at t=0.0" in man["error"]
        assert (tmp_path / "trajectory.csv").read_text() == "time,x,y\n0,200000000,0\n"

    def test_full_precision_fields(self, tmp_path):
        main(["simulate", "--b", "0", "--c", "0", "--eps", "0.5", "--x0", "-2.8",
              "--y0", "1.64", "--tmax", "1", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "trajectory.csv")
        # 17 significant digits round-trip float64 exactly
        assert float(rows[0][2]) == 1.64


class TestCsvFields:
    def test_field_formats(self, tmp_path):
        # 17 significant digits for every float, numpy scalars included;
        # None is an empty field and anything else is its str()
        row = [None, True, 3, "HopfSmall", np.float64(0.1), 0.1, math.inf, -math.inf, math.nan,
               -0.0, 5e-324, np.arange(3.0)[2]]
        path = tmp_path / "fields.csv"
        cli._write_csv(path, ["fields"], [row])
        assert path.read_bytes() == (b"fields\n,True,3,HopfSmall,0.10000000000000001,"
                                     b"0.10000000000000001,inf,-inf,nan,-0,"
                                     b"4.9406564584124654e-324,2\n")


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv_by_row(path, header, rows):
    # the row-by-row writer that `cli._write_csv` replaced, kept as the
    # reference for its bytes
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([_fmt_cell(v) for v in row]) + "\n")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
                math.inf, -math.inf, math.nan, 1.7976931348623157e308, 0.1]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_CELLS = {
    "float": _FLOATS,
    "float_or_none": st.one_of(_FLOATS, st.none()),
    "int": st.integers(),
    "any": st.one_of(_FLOATS, _FLOATS.map(np.float64), st.none(), st.booleans(), st.integers(),
                     st.text(max_size=4)),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)).map(list), max_size=12))
    return [f"c{j}" for j in range(len(kinds))], rows


class TestCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(table=_tables(), chunk=st.integers(1, 5))
    def test_bytes_equal_row_by_row_writer(self, tmp_path_factory, table, chunk):
        # a chunk of 1-5 rows puts most tables across several chunks
        header, rows = table
        out = tmp_path_factory.mktemp("csv")
        with mock.patch.object(cli, "_CHUNK", chunk):
            cli._write_csv(out / "got.csv", header, rows)
        _write_csv_by_row(out / "want.csv", header, rows)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_table_longer_than_a_chunk(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * cli._CHUNK + 5
        rows = [[t, x, None if k == cli._CHUNK else y, "Headed"]
                for k, (t, x, y) in enumerate(rng.standard_normal((n, 3)).tolist())]
        cli._write_csv(tmp_path / "got.csv", ["t", "x", "y", "class"], rows)
        _write_csv_by_row(tmp_path / "want.csv", ["t", "x", "y", "class"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\n") == n + 1

    def test_empty_table_writes_header_only(self, tmp_path):
        cli._write_csv(tmp_path / "empty.csv", ["a", "b"], [])
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("chunk", [1, 4096])
    @pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]],
                                      [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0, 7.0]]])
    def test_ragged_row_raises(self, tmp_path, rows, chunk):
        with mock.patch.object(cli, "_CHUNK", chunk), pytest.raises(ValueError):
            cli._write_csv(tmp_path / "ragged.csv", ["a", "b"], rows)


class TestBifurcateCommand:
    def test_rows_and_landmarks(self, tmp_path):
        code = main(["bifurcate", "--param", "b", "--from", "0.24", "--to", "0.40",
                     "--steps", "5", "--eps", "0.5", "--no-cycles",
                     "--landmarks", "pitchfork,hopf_b", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "bifurcation.csv")
        assert header[:2] == ["param", "n_equilibria"]
        assert [int(r[1]) for r in rows] == [1, 3, 3, 3, 3]
        marks = json.loads((tmp_path / "landmarks.json").read_text())
        assert marks["pitchfork_b"] == 0.25
        assert marks["hopf_b"] == pytest.approx(0.36660, abs=1e-4)

    def test_b_recipe_reports_unstable_cycle(self, tmp_path):
        recipe = Path(__file__).parents[1] / "scripts" / "recipes" / "bif_b_sweep.json"
        (run,) = json.loads(recipe.read_text())["runs"]
        assert main(run["argv"] + ["--out", str(tmp_path)]) == 0
        header, lines = read_csv(tmp_path / "bifurcation.csv")
        rows = {float(line[0]): dict(zip(header, line)) for line in lines}
        band = rows[0.36745762711864405]
        assert band["cycle2_stability"] == "unstable" and band["cycle2_converged"] == "True"
        assert float(band["cycle2_T"]) == pytest.approx(4.908659, abs=1e-6)
        # an unstable search runs only inside a stable loop around a stable E+
        for rec in rows.values():
            if "unstable" in rec["error"]:
                assert rec["cycle_T"] and rec["eq3_class"] in ("StableFocus", "StableNode")

    def test_zero_step_range_rejected(self, tmp_path):
        code = main(["bifurcate", "--param", "c", "--from", "0", "--to", "1", "--steps", "1",
                     "--eps", "0.5", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_landmark_rejected(self, tmp_path):
        code = main(["bifurcate", "--param", "b", "--from", "0.3", "--to", "0.4", "--steps", "2",
                     "--eps", "0.5", "--no-cycles", "--landmarks", "nope", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--param", "b", "--from", "0.3", "--to", "0.4", "--c", "0.5", "--landmarks", "hopf_b,pitchfork"],
        ["--param", "c", "--from", "0.1", "--to", "0.3", "--b", "0.3", "--landmarks", "hopf_c"],
    ])
    def test_landmark_off_the_swept_family_rejected(self, tmp_path, argv):
        # c = 0.5 breaks the symmetry (no pitchfork), and the b = 0.3 family's
        # Hopf point is not the b = 0 one: the c = 0 and b = 0 landmarks do
        # not lie on these sweeps
        code = main(["bifurcate", *argv, "--steps", "2", "--eps", "0.5", "--no-cycles",
                     "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "landmarks" not in man["outputs"]

    @pytest.mark.parametrize("argv", [
        ["--param", "b", "--from", "0.24", "--to", "0.40", "--b", "0.3"],
        ["--param", "c", "--from", "1.1", "--to", "1.2", "--c", "1.15"],
        ["--param", "b", "--from", "0.24", "--to", "0.40", "--b=0"],
    ])
    def test_fixed_value_of_the_swept_parameter_is_config_error(self, tmp_path, monkeypatch, argv):
        # the sweep sets the swept parameter from --from/--to: a fixed value
        # for it, even the default, would be ignored and echoed in the manifest
        def no_sweep(*_args, **_kwargs):
            raise AssertionError("bifurcate swept with an ignored flag")

        monkeypatch.setattr(bifurcation, "sweep_values", no_sweep)
        code = main(["bifurcate", *argv, "--steps", "3", "--eps", "0.5", "--no-cycles",
                     "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "swept parameter" in man["error"]
        assert not (tmp_path / "bifurcation.csv").exists()

    def test_fixed_value_of_the_other_parameter_is_read(self, tmp_path):
        code = main(["bifurcate", "--param", "c", "--from", "1.1", "--to", "1.2", "--steps", "3",
                     "--eps", "0.5", "--b", "0.2", "--no-cycles", "--out", str(tmp_path)])
        assert code == 0
        header, lines = read_csv(tmp_path / "bifurcation.csv")
        rows = sweep_values("c", [1.1, 1.15, 1.2], SystemParams(0.2, 0.0, 0.5), cycles=False)
        assert [float(line[0]) for line in lines] == [row.param_value for row in rows]
        assert [float(line[2]) for line in lines] == [
            min(e.point.x for e in row.equilibria) for row in rows]
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["b"] == 0.2

    def test_hopf_landmark_beyond_eps_16_rejected(self, tmp_path):
        # b_h <= 1/4 from eps = 16 on: E+- do not exist, so there is no Hopf of E+-
        code = main(["bifurcate", "--param", "b", "--from", "0.3", "--to", "0.4", "--steps", "2",
                     "--eps", "20", "--no-cycles", "--landmarks", "--out", str(tmp_path)])
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "<= 1/4" in json.dumps(manifest)

    def test_tol_outside_range_rejected(self, tmp_path):
        # tol = 0 used to divide by zero in the cycle search, with no manifest
        code = main(["bifurcate", "--param", "c", "--from", "1.1", "--to", "1.2", "--steps", "2",
                     "--eps", "0.5", "--tol", "0", "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error"

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["bifurcate", "--param", "c", "--from", "1.10", "--to", "1.14", "--steps", "3",
                "--eps", "0.5", "--tol", "1e-8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "bifurcation.csv").read_bytes() == (b / "bifurcation.csv").read_bytes()

    def test_rows_match_library_sweep(self, tmp_path):
        # one sequential sweep: continuation seeds every row from the one before
        args = ["bifurcate", "--param", "c", "--from", "1.10", "--to", "1.17", "--steps", "6",
                "--eps", "0.5", "--tol", "1e-8", "--out", str(tmp_path)]
        assert main(args) == 0
        header, lines = read_csv(tmp_path / "bifurcation.csv")
        values = [1.10 + (1.17 - 1.10) * k / 5 for k in range(6)]
        rows = sweep_values("c", values, SystemParams(0.0, 0.0, 0.5), tol=1e-8)
        assert len(lines) == len(rows)
        n_cycles = 0
        for line, row in zip(lines, rows):
            rec = dict(zip(header, line))
            assert float(rec["param"]) == row.param_value
            assert rec["error"] == (row.error or "")
            for prefix, stability in (("cycle", Stability.STABLE), ("cycle2", Stability.UNSTABLE)):
                cyc = next((c for c in row.cycles if c.stability is stability), None)
                if cyc is None:
                    assert rec[f"{prefix}_T"] == rec[f"{prefix}_converged"] == ""
                    continue
                n_cycles += 1
                assert float(rec[f"{prefix}_T"]) == cyc.period
                assert float(rec[f"{prefix}_A"]) == cyc.length
                assert rec[f"{prefix}_converged"] == str(cyc.converged)
        assert n_cycles >= 4

    def test_without_tol_sweeps_at_the_library_default(self, tmp_path):
        # one sweep tol default: the recipes, which pass no --tol, sweep at
        # the tol of `sweep_values`
        args = ["bifurcate", "--param", "c", "--from", "1.10", "--to", "1.14", "--steps", "3",
                "--eps", "0.5", "--out", str(tmp_path)]
        assert main(args) == 0
        header, lines = read_csv(tmp_path / "bifurcation.csv")
        rows = bifurcation.sweep("c", 1.10, 1.14, 3, SystemParams(0.0, 0.0, 0.5))
        assert [float(dict(zip(header, line))["cycle_T"]) for line in lines] == [
            row.cycles[0].period for row in rows]
        # the manifest echoes the values used: the sweep's tol and the fixed
        # b at its default
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["tol"] == 1e-9 and config["b"] == 0.0


class TestCanardCommand:
    def test_eps_zero_rejected(self, tmp_path):
        assert main(["canard", "--eps", "0", "--out", str(tmp_path)]) == 2

    def test_half_bracket_rejected(self, tmp_path):
        assert main(["canard", "--eps", "0.5", "--bracket-lo", "1.14",
                     "--out", str(tmp_path)]) == 2

    def test_bad_bracket_is_search_error(self, tmp_path):
        code = main(["canard", "--eps", "0.5", "--bracket-lo", "1.10", "--bracket-hi", "1.12",
                     "--out", str(tmp_path)])
        assert code == 4
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "search-error"

    def test_fewer_than_eight_points_rejected_before_any_search(self, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("find_limit_cycle was called")

        monkeypatch.setattr(canard, "find_limit_cycle", no_search)
        code = main(["canard", "--eps", "0.5", "--points", "7", "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error"


    @pytest.mark.parametrize("lo, hi", [("1.2", "1.1"), ("nan", "1.1"), ("1.14", "inf"),
                                        ("-inf", "1.1")])
    def test_unordered_or_infinite_bracket_is_config_error(self, tmp_path, monkeypatch, lo, hi):
        def no_search(*args, **kwargs):
            raise AssertionError("find_limit_cycle was called")

        monkeypatch.setattr(canard, "find_limit_cycle", no_search)
        # "=" keeps argparse from reading -inf as an option
        code = main(["canard", "--eps", "0.5", f"--bracket-lo={lo}", f"--bracket-hi={hi}",
                     "--out", str(tmp_path)])
        assert code == 2
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["status"] == "config-error" and "bracket" in man["error"]


class TestSlowManifoldCommand:
    def test_tabulated_row_at_origin_level(self, tmp_path):
        code = main(["slow-manifold", "--branch", "left", "--eps", "0.1", "--b", "0", "--c", "0",
                     "--y-from", "0", "--y-to", "1", "--samples", "3", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "slow_manifold.csv")
        assert header == ["y", "h0", "h1", "h_eps"]
        y, x0, x1, xe = (float(v) for v in rows[0])
        assert (y, x0) == (0.0, -2.0)
        assert x1 == pytest.approx(-0.03125, abs=1e-12)
        assert xe == pytest.approx(-2.003125, abs=1e-12)

    def test_eps_zero_equals_h0(self, tmp_path):
        main(["slow-manifold", "--branch", "right", "--eps", "0", "--b", "0.1", "--c", "0.2",
              "--y-from", "-2", "--y-to", "2", "--samples", "5", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "slow_manifold.csv")
        for row in rows:
            assert row[1] == row[3]

    def test_fold_crossing_clipped_with_warning(self, tmp_path):
        code = main(["slow-manifold", "--branch", "left", "--eps", "0.1", "--b", "0", "--c", "0",
                     "--y-from", "-5", "--y-to", "0", "--samples", "4", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert any("clipped" in w for w in man["warnings"])

    def test_manifest_always_written(self, tmp_path):
        main(["slow-manifold", "--branch", "left", "--eps", "-1", "--b", "0", "--c", "0",
              "--out", str(tmp_path)])
        assert (tmp_path / "manifest.json").exists()

    def test_single_sample_rejected(self, tmp_path):
        # one sample used to divide by zero, with no manifest
        code = main(["slow-manifold", "--branch", "left", "--eps", "0.1", "--b", "0", "--c", "0",
                     "--samples", "1", "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "manifest.json").exists()


class TestParserReuse:
    def test_calls_in_one_process_share_one_parser(self, tmp_path, monkeypatch, capsys):
        # each call parses its own argv only: nothing carries over from the last one
        parser = cli._parser()
        parsed = []
        parse_args = parser.parse_args

        def spy(argv):
            parsed.append(argv)
            return parse_args(argv)

        monkeypatch.setattr(parser, "parse_args", spy)
        sim = ["simulate", "--b", "0.2", "--c", "0", "--eps", "0.1", "--x0", "-2.8",
               "--y0", "1.64", "--tmax", "3"]
        runs = [
            (sim + ["--out", str(tmp_path / "first")], 0),
            (["simulate", "--b", "0", "--out", str(tmp_path / "usage")], 2),
            (["singular", "--b", "0", "--c", "0", "--period-only",
              "--out", str(tmp_path / "period")], 0),
            (["simulate", "--b", "0", "--c", "0.5", "--eps", "0.2", "--x0", "1", "--y0", "0",
              "--tmax", "2", "--scale", "fast", "--dt-out", "0.25",
              "--out", str(tmp_path / "fast")], 0),
            (["slow-manifold", "--branch", "right", "--eps", "0.1", "--b", "0", "--c", "0",
              "--samples", "5", "--out", str(tmp_path / "manifold")], 0),
            (sim + ["--out", str(tmp_path / "last")], 0),
        ]
        for argv, want in runs:
            assert main(argv) == want
        assert "required" in capsys.readouterr().err
        assert parsed == [argv for argv, _ in runs]
        assert cli._parser() is parser
        assert not (tmp_path / "usage").exists()
        for argv, want in runs:
            if want:
                continue
            fresh = vars(cli.build_parser().parse_args(argv))
            fresh.pop("command")
            man = json.loads((Path(argv[-1]) / "manifest.json").read_text())
            assert man["config"] == fresh
        first = (tmp_path / "first" / "trajectory.csv").read_bytes()
        assert (tmp_path / "last" / "trajectory.csv").read_bytes() == first


class TestManifestKernel:
    """Every command's manifest names the loop of `integrate` that took the
    steps: "c", the compiled one, or "python" where it could not be built."""

    RUNS = {
        "singular": ["singular", "--b", "0", "--c", "0", "--period-only"],
        "simulate": ["simulate", "--b", "0.2", "--c", "0", "--eps", "0.1", "--x0", "-2.8",
                     "--y0", "1.64", "--tmax", "3"],
        "bifurcate": ["bifurcate", "--param", "c", "--from", "0", "--to", "0.5", "--steps", "2",
                      "--eps", "0.5"],
        "canard": ["canard", "--eps", "0"],
        "slow-manifold": ["slow-manifold", "--branch", "right", "--eps", "0.1", "--b", "0",
                          "--c", "0", "--samples", "5"],
    }
    KEYS = {"command", "config", "version", "kernel", "timings", "warnings", "outputs", "status",
            "error"}

    def test_runs_cover_every_command(self):
        assert set(self.RUNS) == set(subcommand_parsers())

    @pytest.mark.parametrize("command", sorted(RUNS))
    @pytest.mark.parametrize("lib", ["module", "none"])
    def test_manifest_names_the_kernel(self, tmp_path, monkeypatch, command, lib):
        if lib == "none":
            monkeypatch.setattr(dynamics, "_LIB", None)
        main(self.RUNS[command] + ["--out", str(tmp_path)])
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert set(man) == self.KEYS
        assert man["kernel"] == dynamics.kernel() in ("c", "python")
        if lib == "none":
            assert man["kernel"] == "python"

    def test_both_loops_write_the_same_trajectory(self, tmp_path, monkeypatch):
        main(self.RUNS["simulate"] + ["--out", str(tmp_path / "module")])
        monkeypatch.setattr(dynamics, "_LIB", None)
        main(self.RUNS["simulate"] + ["--out", str(tmp_path / "python")])
        csv = [(tmp_path / run / "trajectory.csv").read_bytes() for run in ("module", "python")]
        assert csv[0] == csv[1]
