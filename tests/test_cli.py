import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from tsvplan.anneal import AnnealConfig, FlowConfig
from tsvplan.cli import main
from tsvplan.design_io import emit_design, parse_design
from tsvplan.errors import SolverError

REPO = Path(__file__).resolve().parents[1]

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

    def test_spent_cg_budget_exits_2(self, runner, tmp_path, monkeypatch):
        # blockage's leakage fixed point takes about 640 CG iterations over 800
        # unknowns; a quarter iteration per unknown runs out on its third solve
        import tsvplan.thermal as thermal
        monkeypatch.setattr(thermal, "CG_ITERATIONS_PER_UNKNOWN", 0.25)
        result = runner.invoke(main, ["analyze", str(REPO / "designs" / "blockage.design"),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "CG iterations" in result.output

    def test_spent_cg_budget_exits_2_on_the_multigrid_path(self, runner, tmp_path,
                                                          monkeypatch):
        # at 25 um blockage's 80 x 80 plane takes the V-cycle, whose first solve
        # takes about 10 iterations; 12,800 unknowns at 1/2,000 of an iteration
        # each leave it 6
        import tsvplan.thermal as thermal
        assert 80 * 80 > thermal.JACOBI_MAX_PLANE_CELLS
        monkeypatch.setattr(thermal, "CG_ITERATIONS_PER_UNKNOWN", 5e-4)
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
        assert report["after"]["average"] <= report["before"]["average"] + 1e-12
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
        from tsvplan.thermal import grid_for
        best = parse_design(out / "optimized.design")
        redo, _ = summarize(best, grid_for(best.stack))
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
], ids=["weights-word", "weights-nan", "weights-sign", "sweep-values-word",
        "cooling", "max-moves", "outer-iters", "seed", "t-order", "t-initial-nan",
        "t-threshold-nan", "t-threshold-above-t0", "preset-ratio-nan",
        "preset-ratio-negative", "sweep-cooling-nan", "sweep-preset-ratio-inf"])
def test_bad_cli_numbers_are_data_errors(runner, tmp_path, args, message):
    command, *options = args
    result = runner.invoke(main, [command, str(_write(tmp_path, TINY_OPT)), *options,
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert "data error: " in result.output and message in result.output
    assert not (tmp_path / "out").exists()


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
    @pytest.mark.parametrize("name", ["blockage", "multicore", "corememory"])
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


def test_commands_run_without_importing_scipy(tmp_path):
    # a fresh interpreter, since this one has imported scipy for the references
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(REPO / "designs" / "blockage.design"),
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "optimize" / "report.json").exists()
    assert (tmp_path / "multigrid" / "layer0.map").exists()
