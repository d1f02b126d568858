import codecs
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from tsvplan.anneal import AnnealConfig, FlowConfig
from tsvplan.cli import main
from tsvplan.design_io import emit_design, parse_design
from tsvplan.errors import SolverError

from conftest import REPO, SHIPPED

ZERO_POWER = """
[tech]
footprint_width = 1 mm
footprint_height = 1 mm
grid_cell = 250 um
ambient = 25 C
package_resistance = 10.0

[layers]
0 10um silicon

[blocks]
quiet 0 100um 100um 400um 400um macro
"""

TINY_OPT = """
[tech]
footprint_width = 1.2 mm
footprint_height = 1.2 mm
grid_cell = 100 um
ambient = 25 C
package_resistance = 20.0
adjacency_window = 1 mm
leakage_coeff = 0.02
aspect_ratios = 0.25 1.0 4.0

[layers]
0 10um silicon
1 10um silicon

[blocks]
hot 0 100um 500um 300um 300um macro
cold 0 900um 500um 200um 300um macro
pin_sw 0 0um 0um 100um 100um peripheral
pin_ne 0 1100um 1100um 100um 100um peripheral

[farms]
bus 400um 500um 200um 200um 0 1 0.5 173

[nets]
bus hot pin_ne

[power]
hot 0.8 0.2
cold 0.01
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, text, name="design.design"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestAnalyze:
    def test_zero_power_maps_are_ambient(self, runner, tmp_path):
        path = _write(tmp_path, ZERO_POWER)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", str(path), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = [l for l in (out / "layer0.map").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 4  # cells_y
        assert all(v == "298.15" for row in rows for v in row.split())

    def test_map_row_count_matches_grid(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", str(path), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        for layer in (0, 1):
            rows = [l for l in (out / f"layer{layer}.map").read_text().splitlines()
                    if not l.startswith("#")]
            assert len(rows) == 12

    def test_parse_error_exits_1(self, runner, tmp_path):
        path = _write(tmp_path, "[tech]\nbogus = 1\n")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 1

    def test_solver_error_exits_2(self, runner, tmp_path):
        # a leakage slope this steep runs away
        path = _write(tmp_path, TINY_OPT)
        result = runner.invoke(main, ["analyze", str(path), "--leakage-lambda", "5",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "diverging" in result.output

    def test_spent_cg_budget_exits_2_on_the_multigrid_path(self, runner, tmp_path,
                                                          monkeypatch):
        # at 25 um blockage's G_eff solve takes about 11 iterations; a budget
        # of 6 runs out
        import tsvplan.thermal as thermal
        monkeypatch.setattr(thermal, "CG_ITERATIONS_PER_DESIGN_SOLVE", 6)
        result = runner.invoke(main, ["analyze", str(REPO / "designs" / "blockage.design"),
                                      "--grid-cell", "25um", "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "within 6 CG iterations" in result.output

    @pytest.mark.parametrize("old, new", [
        ("silicon 149.0", "silicon nan"),
        ("package_resistance = 15.0", "package_resistance = inf"),
    ])
    def test_non_finite_input_exits_1_at_once(self, runner, tmp_path, old, new):
        text = (REPO / "designs" / "blockage.design").read_text()
        assert old in text
        path = _write(tmp_path, text.replace(old, new))
        started = time.perf_counter()
        for args in (["check", str(path)],
                     ["analyze", str(path), "--out-dir", str(tmp_path / "out")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert "non-finite" in result.output
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_leakage_lambda_exits_1(self, runner, tmp_path, value):
        path = REPO / "designs" / "blockage.design"
        result = runner.invoke(main, ["analyze", str(path), "--leakage-lambda", value,
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert "leakage-coeff-range" in result.output
        assert not (tmp_path / "out").exists()

    def test_a_grid_too_large_to_solve_exits_1(self, runner, tmp_path):
        # 2e5 x 2e5 cells a layer, refused before anything is allocated
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", str(REPO / "designs" / "blockage.design"),
                                      "--grid-cell", "0.01um", "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert "data error:" in result.output and "grid cells" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_grid_cell_override(self, runner, tmp_path):
        path = _write(tmp_path, ZERO_POWER)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", str(path), "--grid-cell", "500um",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0
        rows = [l for l in (out / "layer0.map").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 2


class TestOptimize:
    def test_zero_bond_conductivity_exits_1_before_any_solve(self, runner, tmp_path):
        text = (REPO / "designs" / "multicore.design").read_text()
        assert "bond_conductivity = 0.29" in text
        path = _write(tmp_path, text.replace("bond_conductivity = 0.29", "bond_conductivity = 0"))
        result = runner.invoke(main, ["optimize", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert "bond-conductivity-positive" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_end_to_end_outputs(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "optimize", str(path), "--seed", "7", "--max-moves", "10",
            "--outer-iters", "1", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "optimized.design").exists()
        assert (out / "report.json").exists()
        assert (out / "trace.log").exists()
        assert (out / "before_layer0.map").exists()
        assert (out / "after_layer1.map").exists()

        report = json.loads((out / "report.json").read_text())
        assert report["after"]["peak"] <= report["before"]["peak"]
        assert report["config"]["seed"] == 7
        assert report["config"]["weights"]["efficiency"] < 0

        optimized = parse_design(out / "optimized.design")
        assert emit_design(optimized)  # emitted best floorplan re-parses

    def test_report_closure_under_analyze(self, runner, tmp_path):
        # every after-number in the report is recomputable from the emitted
        # best floorplan by cmd_analyze on the same grid
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "optimize", str(path), "--seed", "3", "--max-moves", "10",
            "--outer-iters", "1", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())

        from tsvplan.anneal import summarize
        from tsvplan.thermal import couple_leakage, grid_for
        best = parse_design(out / "optimized.design")
        grid = grid_for(best.stack)
        redo = summarize(best, grid, couple_leakage(best, grid).field)
        assert redo.average == pytest.approx(report["after"]["average"], rel=1e-9)
        assert redo.peak == pytest.approx(report["after"]["peak"], rel=1e-9)
        assert redo.wirelength == pytest.approx(report["after"]["wirelength"], rel=1e-9)
        assert redo.area == pytest.approx(report["after"]["area"], rel=1e-9)

    def test_leakage_lambda_leaves_the_written_design_alone(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "optimize", str(path), "--seed", "1", "--max-moves", "5",
            "--outer-iters", "1", "--leakage-lambda", "0", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        # the run solved without leakage, the optimized design keeps the input's
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["leakage_coeff_per_K"] == 0.0
        assert parse_design(out / "optimized.design").stack.tech.leakage_coeff == 0.02
        assert "leakage_coeff" not in report["config"]["flow"]
        assert "probe_moves" not in report["config"]["anneal"]

    def test_explicit_weights_accepted(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "optimize", str(path), "--seed", "1", "--max-moves", "5",
            "--outer-iters", "1", "--weights", "0,-1,0,0",
            "--t-initial", "1e-4", "--t-threshold", "1e-5",
            "--out-dir", str(out)])
        assert result.exit_code == 0, result.output


class TestPeakSelection:
    """A run keeps its coolest floorplan by whole-stack peak, so it never ends
    hotter than its input: the benchmark's optimize and sweep commands."""

    def _report(self, runner, tmp_path, *args):
        result = runner.invoke(main, ["optimize", *args, "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / "report.json").read_text())

    def test_multicore_seed_8_does_not_end_hotter(self, runner, tmp_path):
        report = self._report(runner, tmp_path, str(REPO / "designs" / "multicore.design"),
                              "--max-moves", "20", "--seed", "8")
        assert report["after"]["peak"] <= report["before"]["peak"]

    def test_a_leakage_free_blockage_run_lowers_the_peak(self, runner, tmp_path):
        report = self._report(runner, tmp_path, str(REPO / "designs" / "blockage.design"),
                              "--seed", "1", "--leakage-lambda", "0")
        assert report["after"]["peak"] < report["before"]["peak"]

    def test_no_point_of_the_fine_layer_sweep_ends_hotter(self, runner, tmp_path,
                                                           monkeypatch):
        import tsvplan.sweeps as sweeps
        results = []
        inner = sweeps.optimize_stack

        def captured(*args, **kwargs):
            results.append(inner(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(sweeps, "optimize_stack", captured)
        result = runner.invoke(main, [
            "sweep", str(REPO / "designs" / "corememory.design"), "--axis", "layers",
            "--values", "1,2,3,4", "--grid-cell", "25um", "--max-moves", "4",
            "--outer-iters", "1", "--leakage-lambda", "0", "--seed", "1",
            "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert len(results) == 4
        assert all(r.after.peak <= r.before.peak for r in results)


class TestSweep:
    def test_single_point_sweep_matches_optimize(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out_s = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", str(path), "--axis", "k_farm", "--values", "0.5",
            "--seed", "5", "--max-moves", "8", "--outer-iters", "1",
            "--out-dir", str(out_s)])
        assert result.exit_code == 0, result.output
        sweep = json.loads((out_s / "sweep.json").read_text())
        assert len(sweep["points"]) == 1
        point = sweep["points"][0]
        assert point["status"] == "ok"

        out_o = tmp_path / "opt"
        result = runner.invoke(main, [
            "optimize", str(path), "--seed", "5", "--max-moves", "8",
            "--outer-iters", "1", "--out-dir", str(out_o)])
        assert result.exit_code == 0
        report = json.loads((out_o / "report.json").read_text())
        assert point["after_stack_avg"] == pytest.approx(
            report["after"]["average"], rel=1e-12)
        assert point["before_core_peak"] == pytest.approx(
            report["before"]["layer_peaks"][0], rel=1e-12)

    def test_failed_point_marked_and_continues(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        out = tmp_path / "sweep"
        # a 5 mm farm cannot exist on a 1.2 mm footprint: the transform
        # succeeds but validation inside optimize fails for that point
        result = runner.invoke(main, [
            "sweep", str(path), "--axis", "k_farm", "--values", "-1,0.5",
            "--seed", "5", "--max-moves", "5", "--outer-iters", "1",
            "--out-dir", str(out)])
        sweep = json.loads((out / "sweep.json").read_text())
        statuses = [p["status"] for p in sweep["points"]]
        assert statuses[0].startswith("error")
        assert statuses[1] == "ok"
        assert result.exit_code == 2

    def _sweep_with(self, runner, tmp_path, monkeypatch, exc):
        import tsvplan.sweeps as sweeps

        def failing(*args, **kwargs):
            raise exc
        monkeypatch.setattr(sweeps, "optimize_stack", failing)
        return runner.invoke(main, [
            "sweep", str(_write(tmp_path, TINY_OPT)), "--axis", "k_farm",
            "--values", "0.5", "--out-dir", str(tmp_path / "sweep")])

    def test_solver_error_marks_the_point(self, runner, tmp_path, monkeypatch):
        result = self._sweep_with(runner, tmp_path, monkeypatch,
                                  SolverError("no convergence"))
        assert result.exit_code == 2
        sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert sweep["points"][0]["status"] == "error: no convergence"

    def test_internal_error_is_not_a_point_error(self, runner, tmp_path, monkeypatch):
        result = self._sweep_with(runner, tmp_path, monkeypatch, RuntimeError("bug"))
        assert result.exit_code == 3
        assert "internal error: bug" in result.output
        # the traceback follows, down to the raising frame
        assert "Traceback (most recent call last)" in result.output
        assert "in failing" in result.output
        assert not (tmp_path / "sweep").exists()

    def test_a_layer_count_too_large_to_solve_fails_its_point(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", str(REPO / "designs" / "corememory.design"), "--axis", "layers",
            "--values", "1e12", "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        (point,) = json.loads((out / "sweep.json").read_text())["points"]
        assert point["status"].startswith("error: ") and "grid cells" in point["status"]

    def test_preset_ratio_needs_explicit_weights(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        result = runner.invoke(main, [
            "sweep", str(path), "--axis", "k_farm", "--values", "0.5",
            "--preset-ratio", "2", "--out-dir", str(tmp_path / "sweep")])
        assert result.exit_code == 1
        assert "own bounding ratio" in result.output
        assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("args, message", [
    (["optimize", "--weights", "a,b,c,d"], "bad number 'a'"),
    (["optimize", "--weights", "nan,-1,1,1"], "non-finite number 'nan'"),
    (["optimize", "--weights", "1,1,1,1"], "efficiency weight must not be positive"),
    (["sweep", "--axis", "layers", "--values", "x"], "bad number 'x'"),
    (["optimize", "--cooling", "2"], "cooling factor must be in (0, 1)"),
    (["optimize", "--max-moves", "0"], "max_moves must be >= 1"),
    (["optimize", "--outer-iters", "0"], "outer_iterations must be >= 1"),
    (["optimize", "--seed", "-1"], "seed must be >= 0"),
    (["optimize", "--t-initial", "1", "--t-threshold", "2"], "need t_initial > t_threshold"),
    (["optimize", "--t-initial", "nan"], "t_initial must be finite and > 0"),
    (["optimize", "--t-threshold", "nan"], "t_threshold must be finite and > 0"),
    (["optimize", "--max-moves", "2", "--t-threshold", "1e6"],
     "--t-threshold 1e+06 must be below the calibrated t_initial"),
    (["optimize", "--preset-ratio", "nan"], "ratio target must be finite and > 0"),
    (["optimize", "--preset-ratio", "-1"], "ratio target must be finite and > 0"),
    (["sweep", "--axis", "k_farm", "--values", "0.5", "--cooling", "nan"],
     "cooling factor must be in (0, 1)"),
    (["sweep", "--axis", "k_farm", "--values", "0.5", "--weights", "1,-1,1,1",
      "--preset-ratio", "inf"], "ratio target must be finite and > 0"),
    (["optimize", "--weights", ""], "bad number ''"),
    (["sweep", "--axis", "k_farm", "--values", ""], "bad number ''"),
    (["analyze", "--grid-cell", ""], "bad length ''"),
    # a length in a message is written as format_length writes it
    (["analyze", "--grid-cell", "-100um"], "cell size must be positive whole nanometres, got -100um"),
    (["optimize", "--grid-cell", "0.5mm"], "cell size 500um does not tile footprint width 1200um"),
    (["analyze", "--grid-cell", "0.001um"], "cell size 0.001um on 2 layers needs more than"),
], ids=["weights-word", "weights-nan", "weights-sign", "sweep-values-word",
        "cooling", "max-moves", "outer-iters", "seed", "t-order", "t-initial-nan",
        "t-threshold-nan", "t-threshold-above-t0", "preset-ratio-nan",
        "preset-ratio-negative", "sweep-cooling-nan", "sweep-preset-ratio-inf",
        "weights-empty", "sweep-values-empty", "analyze-grid-cell-empty",
        "analyze-grid-cell-negative", "optimize-grid-cell-untiled",
        "analyze-grid-cell-too-fine"])
def test_bad_cli_numbers_are_data_errors(runner, tmp_path, args, message):
    command, *options = args
    result = runner.invoke(main, [command, str(_write(tmp_path, TINY_OPT)), *options,
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert "data error: " in result.output and message in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["analyze", "--leakage-lambda", "abc"], "'abc' is not a valid float"),
    (["optimize", "--leakage-lambda", "abc"], "'abc' is not a valid float"),
    (["optimize", "--max-moves", "x"], "'x' is not a valid integer"),
    (["optimize", "--seed", "1.5"], "'1.5' is not a valid integer"),
    (["optimize", "--outer-iters", "x"], "'x' is not a valid integer"),
    (["optimize", "--cooling", "x"], "'x' is not a valid float"),
    (["optimize", "--t-initial", "x"], "'x' is not a valid float"),
    (["optimize", "--t-threshold", "x"], "'x' is not a valid float"),
    (["optimize", "--preset-ratio", "x"], "'x' is not a valid float"),
    (["sweep", "--axis", "k_farm", "--max-moves", "x"], "'x' is not a valid integer"),
    (["sweep", "--axis", "volume"], "'volume' is not one of"),
    (["sweep", "--values", "1"], "Missing option '--axis'"),
    (["optimize", "--bogus"], "No such option '--bogus'"),
    (["optimize", "--seed"], "requires an argument"),
], ids=["analyze-leakage-lambda", "leakage-lambda", "max-moves", "seed", "outer-iters",
        "cooling", "t-initial", "t-threshold", "preset-ratio", "sweep-max-moves",
        "axis", "missing-axis", "unknown-option", "missing-value"])
def test_usage_errors_are_data_errors(runner, tmp_path, args, message):
    # click's usage errors exit 2, which is the solver-error code here
    command, *options = args
    result = runner.invoke(main, [command, str(_write(tmp_path, TINY_OPT)),
                                  "--out-dir", str(tmp_path / "out"), *options])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["no-such-command"], ["check", "missing.design"]])
def test_bad_commands_and_paths_are_data_errors(runner, args):
    assert runner.invoke(main, args).exit_code == 1


LATIN1_COMMENT = TINY_OPT.encode().replace(b"[blocks]", b"[blocks] # \xe9")


@pytest.mark.parametrize("data, line, byte", [
    (b"\xff\xfe[tech]\n", 1, 0xff), (LATIN1_COMMENT, 16, 0xe9),
    (codecs.BOM_UTF8 + LATIN1_COMMENT, 16, 0xe9)],
    ids=["first-line", "comment", "comment-after-byte-order-mark"])
def test_a_design_that_is_not_utf8_is_a_data_error(runner, tmp_path, data, line, byte):
    path = tmp_path / "latin1.design"
    path.write_bytes(data)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert f"data error: line {line}: not UTF-8 text: byte 0x{byte:02x} " in result.output
    assert "Traceback" not in result.output


def test_a_leading_byte_order_mark_is_ignored(runner, tmp_path):
    shipped = REPO / "designs" / "blockage.design"
    path = tmp_path / "bom.design"
    path.write_bytes(codecs.BOM_UTF8 + shipped.read_bytes())
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0, result.output
    assert parse_design(path) == parse_design(shipped)


@pytest.mark.parametrize("command, options", [
    ("analyze", ()), ("optimize", ("--max-moves", "2")),
    ("sweep", ("--axis", "k_farm", "--values", "0.5", "--max-moves", "2"))],
    ids=["analyze", "optimize", "sweep"])
def test_an_out_dir_that_is_a_file_is_a_data_error(runner, tmp_path, command, options):
    taken = tmp_path / "taken"
    taken.write_text("")
    result = runner.invoke(main, [command, str(_write(tmp_path, TINY_OPT)), *options,
                                  "--out-dir", str(taken)])
    assert result.exit_code == 1, result.output
    assert "data error: " in result.output and "File exists" in result.output
    assert "Traceback" not in result.output


def test_option_defaults_come_from_the_configs():
    defaults = {p.name: p.default for p in main.commands["optimize"].params}
    assert defaults["seed"] == AnnealConfig().seed
    assert defaults["max_moves"] == AnnealConfig().max_moves
    assert defaults["cooling"] == AnnealConfig().cooling
    assert defaults["outer_iters"] == FlowConfig().outer_iterations == 2
    assert {p.name: p.default for p in main.commands["sweep"].params}["outer_iters"] == 2


class TestCheck:
    def test_valid_design(self, runner, tmp_path):
        path = _write(tmp_path, TINY_OPT)
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_invalid_design(self, runner, tmp_path):
        bad = TINY_OPT.replace("bus 400um 500um 200um 200um 0 1 0.5 173",
                               "bus 150um 550um 200um 200um 0 1 0.5 173")
        path = _write(tmp_path, bad)
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 1


class TestShippedDesigns:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_design_parses_and_analyzes(self, runner, name, tmp_path):
        path = REPO / "designs" / f"{name}.design"
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 0, result.output


NO_SCIPY = """
import sys
from tsvplan import cli
design, out = sys.argv[1], sys.argv[2]
for args in (["analyze", design, "--out-dir", out + "/analyze"],
             ["analyze", design, "--grid-cell", "25um", "--out-dir", out + "/multigrid"],
             ["optimize", design, "--max-moves", "2", "--out-dir", out + "/optimize"]):
    cli.main(args, standalone_mode=False)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def _run_fresh(script, *args, **kwargs):
    """Run script with args in a fresh interpreter, since this one has
    imported scipy and numpy.ma for the references."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, timeout=120, **kwargs)


def _fresh_python(script, tmp_path):
    """The last line script prints when run with the blockage design and
    tmp_path as its arguments."""
    done = _run_fresh(script, REPO / "designs" / "blockage.design", tmp_path,
                      capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_commands_run_without_importing_scipy(tmp_path):
    assert _fresh_python(NO_SCIPY, tmp_path) == "[]"
    assert (tmp_path / "optimize" / "report.json").exists()
    assert (tmp_path / "multigrid" / "layer0.map").exists()


NO_NUMPY_MA = """
import sys
from tsvplan import cli
cli.main(["optimize", sys.argv[1], "--max-moves", "2", "--out-dir", sys.argv[2]],
         standalone_mode=False)
print("numpy.ma" in sys.modules)
"""


def test_optimize_runs_without_importing_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, about 15 ms inside the timed run
    assert _fresh_python(NO_NUMPY_MA, tmp_path) == "False"
    assert (tmp_path / "report.json").exists()


NO_NUMPY_RANDOM = """
import sys
from tsvplan import cli
design, out = sys.argv[1], sys.argv[2]
for args in (["optimize", design, "--max-moves", "2", "--out-dir", out + "/optimize"],
             ["sweep", design, "--axis", "k_farm", "--values", "0.5", "--max-moves", "2",
              "--out-dir", out + "/sweep"]):
    cli.main(args, standalone_mode=False)
print("numpy.random" in sys.modules)
"""


def test_optimize_and_sweep_run_without_importing_numpy_random(tmp_path):
    # the draws come from tsvplan.rng; numpy.random's import takes 12-15 ms and
    # adds 6.1 MB to peak RSS inside the timed run
    assert _fresh_python(NO_NUMPY_RANDOM, tmp_path) == "False"
    assert (tmp_path / "optimize" / "report.json").exists()
    assert (tmp_path / "sweep" / "sweep.json").exists()


@pytest.mark.parametrize("command, options, written", [
    ("analyze", (), "layer0.map"), ("optimize", ("--max-moves", "2"), "report.json"),
    ("sweep", ("--axis", "k_farm", "--values", "0.5", "--max-moves", "2"), "sweep.json")],
    ids=["analyze", "optimize", "sweep"])
def test_a_closed_stdout_exits_141_quietly(command, options, written, tmp_path):
    # the read end is closed before the CLI starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_fresh("from tsvplan.cli import main; main()", command,
                          REPO / "designs" / "blockage.design", *options,
                          "--out-dir", tmp_path, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
    # a command writes its files before it prints
    assert (tmp_path / written).exists()


@pytest.mark.parametrize("args", [("--help",), ("optimize", "--help")],
                         ids=["group-help", "command-help"])
def test_help_on_a_closed_stdout_exits_141_quietly(args):
    # the group's own help is printed while its arguments are parsed, before
    # any subcommand runs
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_fresh("from tsvplan.cli import main; main()", *args,
                          stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


BLAS_THREADS = """
import os
import sys

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []


class NumpyImport:
    # records the thread counts BLAS starts with: those set when numpy loads
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(",".join(os.environ.get(t, "unset") for t in THREADS))


sys.meta_path.insert(0, NumpyImport())
import tsvplan
print(seen[0])
"""


@pytest.mark.parametrize("preset, expected", [(None, "1,1,1"), ("2", "2,1,1")],
                         ids=["unset", "set-by-user"])
def test_blas_runs_one_thread_unless_the_user_sets_a_count(preset, expected,
                                                           monkeypatch):
    # a threaded BLAS took up to 140 ms for a coarsest-level inverse that one
    # thread does in under 3 ms; a user's own count still wins
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    done = _run_fresh(BLAS_THREADS, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == expected
