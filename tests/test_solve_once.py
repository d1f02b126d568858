"""Each distinct design is cold-solved once per run, and results stay put.

A cold solve is a call of couple_leakage or solve_design without a warm
field x0; solve_field keeps their results, and optimize_stack reuses the
summary that selected the best floorplan instead of solving it again.
"""

import dataclasses
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import tsvplan.cli as cli
import tsvplan.sweeps as sweeps
import tsvplan.thermal as thermal
from tsvplan.anneal import AnnealConfig, FlowConfig, optimize_stack
from tsvplan.benchmarks import blockage_design, corememory_design
from tsvplan.design_io import format_trace
from tsvplan.model import CACHE_ENTRIES, cache_by_identity
from tsvplan.thermal import grid_for, solve_field

REPO = Path(__file__).resolve().parents[1]


def with_leakage(design, coeff):
    tech = dataclasses.replace(design.stack.tech, leakage_coeff=coeff)
    return dataclasses.replace(design, stack=dataclasses.replace(design.stack, tech=tech))


@pytest.fixture
def cold_solves(monkeypatch):
    """Designs passed to every real cold solve, in call order, starting from
    an empty cold-field cache."""
    monkeypatch.setattr(thermal, "_cold_field",
                        cache_by_identity(thermal._cold_field.__wrapped__))
    designs = []
    for name in ("couple_leakage", "solve_design"):
        fn = getattr(thermal, name)
        signature = inspect.signature(fn)

        def counted(*args, _fn=fn, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs).arguments
            if bound.get("x0") is None:
                designs.append(bound["design"])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(thermal, name, counted)
    return designs


def captured_results(monkeypatch, module):
    results = []
    inner = module.optimize_stack

    def capture(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(module, "optimize_stack", capture)
    return results


def assert_distinct(designs):
    assert len({id(d) for d in designs}) == len(designs)


@pytest.mark.parametrize("leakage", [None, 0.0], ids=["leakage", "no-leakage"])
def test_optimize_stack_cold_solves_each_design_once(cold_solves, leakage):
    design = blockage_design()
    if leakage is not None:
        design = with_leakage(design, leakage)
    result = optimize_stack(design, AnnealConfig(seed=1, max_moves=5),
                            FlowConfig(outer_iterations=2))
    # the initial design (before and weight calibration) and the two outer
    # snapshots; `after` is the snapshot that won
    assert len(cold_solves) == 3
    assert cold_solves[0] is design
    assert_distinct(cold_solves)
    # `after` is the field already solved for the best floorplan
    assert solve_field(result.best, result.grid) is result.after_field
    assert len(cold_solves) == 3


def test_cli_optimize_cold_solves_each_design_once(cold_solves, tmp_path):
    out = CliRunner().invoke(cli.main, [
        "optimize", str(REPO / "designs" / "blockage.design"), "--seed", "1",
        "--max-moves", "5", "--out-dir", str(tmp_path)])
    assert out.exit_code == 0, out.output
    # weight calibration, before and the first layer pass share one solve
    assert len(cold_solves) == 3
    assert_distinct(cold_solves)


def test_cold_field_is_kept_read_only(cold_solves):
    design = blockage_design()
    grid = grid_for(design.stack)
    field = solve_field(design, grid)
    assert solve_field(design, grid) is field
    assert not field.t.flags.writeable
    # another coefficient is another design and another solve; a warm
    # solve is never kept
    assert solve_field(with_leakage(design, 0.0), grid) is not field
    warm = solve_field(design, grid, x0=field.t)
    assert warm.t.flags.writeable
    np.testing.assert_allclose(warm.t, field.t, atol=0.02)
    assert len(cold_solves) == 2


def test_cold_fields_are_bounded(cold_solves):
    design = with_leakage(blockage_design(), 0.0)
    grids = [grid_for(design.stack) for _ in range(CACHE_ENTRIES + 1)]
    for grid in grids[:CACHE_ENTRIES]:
        solve_field(design, grid)
    solve_field(design, grids[0])   # all CACHE_ENTRIES fields are kept
    assert len(cold_solves) == CACHE_ENTRIES
    solve_field(design, grids[-1])  # a full cache starts over
    solve_field(design, grids[0])
    assert len(cold_solves) == CACHE_ENTRIES + 2


def digest(results):
    h = hashlib.sha256()
    for result in results:
        h.update(format_trace(result.trace).encode())
        h.update(repr(result.before).encode())
        h.update(repr(result.after).encode())
    return h.hexdigest()


# SHA-256 of format_trace plus the before/after summary reprs, recorded
# before cold fields were reused and before the inline conjugate gradients.
GOLDEN_CLI_OPTIMIZE = "da2c49203694a6458836a70ff2c3d164e62f8b6c9494317b640878cbf20df0e3"
GOLDEN_SWEEP_LAYERS = "60adb366bd5159677d220edec69ba52938b7edfbe6f7385e8291b3c0fd0bc4fb"


def test_golden_cli_optimize_with_leakage(monkeypatch, tmp_path):
    results = captured_results(monkeypatch, cli)
    out = CliRunner().invoke(cli.main, [
        "optimize", str(REPO / "designs" / "blockage.design"), "--seed", "1",
        "--max-moves", "5", "--out-dir", str(tmp_path)])
    assert out.exit_code == 0, out.output
    assert digest(results) == GOLDEN_CLI_OPTIMIZE


def test_golden_calibrated_layer_sweep(monkeypatch):
    results = captured_results(monkeypatch, sweeps)
    points = sweeps.run_sweep(corememory_design(), "layers", [1, 2],
                              AnnealConfig(seed=1, max_moves=4),
                              FlowConfig(outer_iterations=1))
    assert [p.status for p in points] == ["ok", "ok"]
    assert digest(results) == GOLDEN_SWEEP_LAYERS


# analyze's stdout without its "wrote" lines, and the SHA-256 of its map files
# in name order, recorded while the leakage coefficient still reached the solve
# as an override parameter.
GOLDEN_ANALYZE = {
    (): ([
        "peakT 404.0690 K  avgT 328.7651 K  hottest cpu (389.7424 K)",
        "layer 0: avg 328.7638 K  peak 404.0690 K",
        "layer 1: avg 328.7663 K  peak 403.9678 K",
    ], "814b55500b3def1646d366e023c4e92d32d2de91f605df1d4d70a22e4904349b"),
    ("--leakage-lambda", "0"): ([
        "peakT 381.6173 K  avgT 323.2013 K  hottest cpu (370.4118 K)",
        "layer 0: avg 323.2000 K  peak 381.6173 K",
        "layer 1: avg 323.2026 K  peak 381.5381 K",
    ], "35dc83d176f59c00b3f73f77d1dd6aa4452981a940609e879f96a2c42bb2d3d6"),
}


@pytest.mark.parametrize("args", list(GOLDEN_ANALYZE), ids=["design-leakage", "no-leakage"])
def test_golden_analyze(tmp_path, args):
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "analyze", str(REPO / "designs" / "blockage.design"), "--out-dir", str(out), *args])
    assert result.exit_code == 0, result.output
    lines, maps = GOLDEN_ANALYZE[args]
    assert [line for line in result.output.splitlines()
            if not line.startswith("wrote ")] == lines
    h = hashlib.sha256()
    for path in sorted(out.glob("*.map")):
        h.update(path.read_bytes())
    assert h.hexdigest() == maps
