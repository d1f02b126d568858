"""Each distinct floorplan is solved once per run, and results stay put.

Every design solve is a couple_leakage call. In a run it is made by the
search context's field memo, Evaluator.solve, which keeps each state's field
for the run and no longer: pass records, snapshots and `after` all read it,
and no run calls solve_design.
"""

import dataclasses
import gc
import hashlib
import weakref

import pytest
from click.testing import CliRunner

import tsvplan.anneal as anneal
import tsvplan.cli as cli
import tsvplan.sweeps as sweeps
import tsvplan.thermal as thermal
from tsvplan.anneal import AnnealConfig, Evaluator, FlowConfig, optimize_stack
from tsvplan.design_io import parse_design
from tsvplan.thermal import couple_leakage, grid_for

from conftest import REPO, shipped_design, split_digests


def with_leakage(design, coeff):
    tech = dataclasses.replace(design.stack.tech, leakage_coeff=coeff)
    return dataclasses.replace(design, stack=dataclasses.replace(design.stack, tech=tech))


@pytest.fixture
def solves(monkeypatch):
    """Designs passed to every design solve, in call order; a solve_design
    call fails the test."""
    designs, direct = [], []
    inner = thermal.couple_leakage

    def counted(design, grid):
        designs.append(design)
        return inner(design, grid)
    for module in (thermal, anneal, cli):
        monkeypatch.setattr(module, "couple_leakage", counted)
    monkeypatch.setattr(thermal, "solve_design", lambda *args: direct.append(args))
    yield designs
    assert direct == [], "a run called solve_design"


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
def test_optimize_stack_cold_solves_each_design_once(solves, leakage):
    design = shipped_design("blockage")
    if leakage is not None:
        design = with_leakage(design, leakage)
    result = optimize_stack(design, AnnealConfig(seed=1, max_moves=5),
                            FlowConfig(outer_iterations=2))
    # the initial design (before and weight calibration) and the two outer
    # snapshots; `after` is the snapshot that won
    assert len(solves) == 3
    assert solves[0] == design
    assert_distinct(solves)
    # `after` is the field already solved for the best floorplan
    assert result.best in solves
    assert (result.after_field.t == couple_leakage(result.best, result.grid).field.t).all()


def test_cli_optimize_cold_solves_each_design_once(solves, tmp_path):
    out = CliRunner().invoke(cli.main, [
        "optimize", str(REPO / "designs" / "blockage.design"), "--seed", "1",
        "--max-moves", "5", "--out-dir", str(tmp_path)])
    assert out.exit_code == 0, out.output
    # weight calibration, before and the first layer pass share one solve
    assert len(solves) == 3
    assert_distinct(solves)


def test_cold_field_is_kept_read_only(solves):
    design = shipped_design("blockage")
    grid = grid_for(design.stack)
    context = Evaluator(design, grid)
    state = context.state_of(design)
    field = context.solve(state)
    # an equal state, not the same object, finds the same field
    assert context.solve(context.state_of(design)) is field
    assert not field.t.flags.writeable
    # another coefficient is another design, another context and another solve
    leakless = with_leakage(design, 0.0)
    assert Evaluator(leakless, grid).solve(state) is not field
    assert len(solves) == 2


def test_a_run_keeps_no_field_after_its_result_is_dropped():
    # the fields live in the run's context, which the result does not hold;
    # a fresh parse, since the shared shipped design outlives any run
    result = optimize_stack(parse_design(REPO / "designs" / "blockage.design"),
                            AnnealConfig(seed=1, max_moves=5))
    kept = [weakref.ref(x) for x in (result.before_field, result.after_field, result.best)]
    del result
    gc.collect()
    assert [ref() for ref in kept] == [None] * 3


# split_digests of the runs below. Both were re-recorded when gen_move
# started drawing from the block-legal candidates (move_table) with the
# rejection sampler's law, and annealing began to take a cost tie of a few
# ulps without a draw: the draws, and so the trajectory, changed. They were
# re-recorded again when the leakage fixed point became one solve of G_eff:
# fields moved by at most 0.002 K, and with them the calibrated weights and
# every cost delta, while the moves, draws and best floorplans stayed. And
# once more when every solve took the V-cycle, not the Jacobi diagonal below
# 4,096 cells a plane: fields moved by at most 1.2e-10 K, and the moves,
# draws, acceptances and best floorplans stayed. And when the V-cycle's
# smoothed levels went to float32: fields moved by at most 1.4e-10 K, and the
# moves, draws, acceptances and best floorplans stayed. And when lengths became
# whole nanometres: the grid cell is exactly 100 um, not 9.999999999999999e-05 m,
# so the lattice, the prices and so the trajectory changed. The first digests
# were re-recorded when the stack loop began to keep the coolest snapshot by
# peak: the outer lines now carry the peaks, and the moves, passes, before and
# after of both runs stayed.
GOLDEN_CLI_OPTIMIZE = (
    "e62f298bd1710e22228422c55a45ebc1f33d0e431e5067e1c095d9c33b25339c",
    "565584fa64b9a138ab75834ee81fdb00f0b970d71ed9e482ecc3841f7d24cfaa",
)
GOLDEN_SWEEP_LAYERS = (
    "b91420fdd0c90c9e5546618da6cb339b3c8a272f4c5fe212a2498269a4dedae8",
    "b2a036748fac7b0eead6654c605caf1a764a814f89023feeab2ead4d51055622",
)


def cli_optimize(monkeypatch, tmp_path, *options):
    results = captured_results(monkeypatch, cli)
    out = CliRunner().invoke(cli.main, [
        "optimize", str(REPO / "designs" / "blockage.design"), "--seed", "1",
        "--max-moves", "5", "--out-dir", str(tmp_path), *options])
    assert out.exit_code == 0, out.output
    return results


def test_golden_cli_optimize_with_leakage(monkeypatch, tmp_path):
    assert split_digests(cli_optimize(monkeypatch, tmp_path)) == GOLDEN_CLI_OPTIMIZE


def test_golden_calibrated_layer_sweep(monkeypatch):
    results = captured_results(monkeypatch, sweeps)
    points = sweeps.run_sweep(shipped_design("corememory"), "layers", [1, 2],
                              AnnealConfig(seed=1, max_moves=4),
                              FlowConfig(outer_iterations=1))
    assert [p.status for p in points] == ["ok", "ok"]
    assert split_digests(results) == GOLDEN_SWEEP_LAYERS


def test_pass_records_read_the_cold_field(monkeypatch):
    passes = []   # (input, best, context) of every layer pass
    inner = anneal.layer_pass

    def recorded(state, layer, context, *args, **kwargs):
        passes.append((state, inner(state, layer, context, *args, **kwargs), context))
        return passes[-1][1]
    monkeypatch.setattr(anneal, "layer_pass", recorded)
    result = optimize_stack(shipped_design("blockage"), AnnealConfig(seed=1, max_moves=5),
                            FlowConfig(outer_iterations=2))
    assert len(passes) == len(result.trace.passes)
    seen = {}   # (floorplan, layer) -> (avg, peak) in every record naming it
    for (start, best, context), record in zip(passes, result.trace.passes):
        for state, stats in ((start, (record.pre_avg, record.pre_peak)),
                             (best, (record.post_avg, record.post_peak))):
            t = couple_leakage(context.design_of(state), result.grid).field.t[record.layer]
            assert stats == (float(t.mean()), float(t.max()))
            assert seen.setdefault((state, record.layer), stats) == stats
    # some floorplan is carried into another pass on the same layer
    assert len(seen) < 2 * len(passes)


@pytest.mark.parametrize("options", [(), ("--preset-ratio", "2")], ids=["calibrated", "preset-ratio"])
def test_cli_optimize_matches_optimize_stack(monkeypatch, tmp_path, options):
    (from_cli,) = cli_optimize(monkeypatch, tmp_path, *options)
    ratio = float(options[1]) if options else None
    direct = optimize_stack(parse_design(REPO / "designs" / "blockage.design"),
                            AnnealConfig(seed=1, max_moves=5), ratio_target=ratio)
    assert from_cli.trace == direct.trace
    assert from_cli.weights == direct.weights
    assert from_cli.before == direct.before and from_cli.after == direct.after


# analyze's stdout without its "wrote" lines, and the SHA-256 of its map files
# in name order, recorded while the leakage coefficient still reached the solve
# as an override parameter. The leaky one was re-recorded when the leakage
# fixed point became one solve of G_eff, which lands 0.002 K closer to it. Both
# maps were re-recorded when lengths became whole nanometres: the header reads
# cell_size_m 0.0001, and the fields moved by at most 1.6e-12 K.
GOLDEN_ANALYZE = {
    (): ([
        "peakT 404.0710 K  avgT 328.7655 K  hottest cpu (389.7441 K)",
        "layer 0: avg 328.7643 K  peak 404.0710 K",
        "layer 1: avg 328.7667 K  peak 403.9698 K",
    ], "c713cd0c466b3840ed894ea469e98576add794b2a72947268f54a8d993e5b044"),
    ("--leakage-lambda", "0"): ([
        "peakT 381.6173 K  avgT 323.2013 K  hottest cpu (370.4118 K)",
        "layer 0: avg 323.2000 K  peak 381.6173 K",
        "layer 1: avg 323.2026 K  peak 381.5381 K",
    ], "32ce49e41d99c43f4884c093305e793a94fae6f4bb38715e09a9147009d18f23"),
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
