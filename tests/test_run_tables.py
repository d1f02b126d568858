"""The tables a run computes once from its fixed blocks, against what they
replace: the move table kept or built for each state against one built
from every farm's groups, each farm's reshape options against
fixed_conflict, the blocks' cell weights and power raster against the
per-call formulas, and the input's terms that calibrate the weights against
cost(design, UNWEIGHTED). Each must give the same values; a work-count guard
pins how much of that work a fixed-seed run does."""

import dataclasses
import random
from itertools import accumulate

import numpy as np
import pytest

import tsvplan.anneal as anneal
import tsvplan.metrics as metrics
import tsvplan.model as model
import tsvplan.thermal as thermal
from tsvplan.anneal import AnnealConfig, Evaluator, FlowConfig, gen_move, optimize_stack
from tsvplan.metrics import UNWEIGHTED, CostWeights, cost
from tsvplan.model import Floorplan, farm_shape, fixed_conflict, origin_lattice
from tsvplan.thermal import (LeakageOperator, block_cell_weights, build_network,
                             couple_leakage, field_stats, grid_for, rasterize, system_matrix)

from conftest import SHIPPED, shipped_design

CELLS = {"100um": None, "50um": 50_000, "25um": 25_000}   # nm; None: the design's grid_cell


def _scratch_table(ev, state, eligible):
    """gen_move's groups and cumulative masses, built from every farm's groups."""
    weight = 0.5 / len(eligible)
    groups = [g for index in eligible for g in ev._farm_moves(index, state[index], weight)]
    return groups, list(accumulate(g.mass for g in groups))


def _same_groups(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.index, a.kind, a.mass, a.lattice) == (b.index, b.kind, b.mass, b.lattice)
        assert list(a.options) == list(b.options)


@pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
@pytest.mark.parametrize("name", SHIPPED)
def test_a_move_table_equals_one_built_from_every_farms_groups(name, cell):
    # a seeded walk that, like a layer pass handing on its best state, jumps
    # back to an earlier state every few steps; then the same states under
    # another eligible list, which rebuilds the table
    design = shipped_design(name)
    ev = Evaluator(design, grid_for(design.stack, cell))
    state = ev.state_of(design)
    eligible = list(range(len(state)))
    rng, pick, seen = np.random.default_rng(5), random.Random(5), [state]
    for step in range(60 if cell is None else 30):
        if step % 7 == 6:
            state = pick.choice(seen)
        else:
            state, _, _ = gen_move(ev, state, eligible, rng)
            seen.append(state)
        groups, cumulative = ev.move_table(state, eligible)
        expected_groups, expected_cumulative = _scratch_table(ev, state, eligible)
        _same_groups(groups, expected_groups)
        assert cumulative == expected_cumulative
    for others in (eligible[1:], eligible[::2]):
        groups, cumulative = ev.move_table(state, others)
        expected_groups, expected_cumulative = _scratch_table(ev, state, others)
        _same_groups(groups, expected_groups)
        assert cumulative == expected_cumulative


@pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
@pytest.mark.parametrize("name", SHIPPED)
def test_reshape_legality_agrees_with_fixed_conflict(name, cell):
    # every farm, in each configured shape, at lattice anchors (all of them at
    # 100 um, a seeded sample and the lattice's far edges below), anchors one
    # step past those edges, and off-lattice anchors, the farm's own among
    # them: its reshape options are the other shapes, anchored there, that
    # fixed_conflict passes
    design = shipped_design(name)
    grid = grid_for(design.stack, cell)
    ev, step = Evaluator(design, grid), grid.cell_size
    stack, blocks, pick = design.stack, design.floorplan.blocks, random.Random(11)
    checked = {True: 0, False: 0}
    for index, farm in enumerate(design.floorplan.farms):
        start, end = farm.start_layer, farm.end_layer
        shapes = [farm_shape(farm.area, r) for r in stack.tech.aspect_ratios]
        for width, height in shapes:
            nx, ny = origin_lattice(stack, width, height, step)
            points = [(ix, iy) for ix in range(nx + 1) for iy in range(ny + 1)]
            if cell is not None:
                points = pick.sample(points, 150) + [(ix, iy) for ix in (nx - 1, nx)
                                                     for iy in (0, ny - 1, ny)]
            anchors = [(ix * step, iy * step) for ix, iy in points]
            anchors += [(x + step // 3, y) for x, y in anchors[:40]]
            anchors += [(farm.x, farm.y), (farm.x, farm.y + step // 7)]
            others = [s for s in shapes if s != (width, height)]
            for x, y in anchors:
                legal = [(x, y, x + w, y + h) for w, h in others
                         if fixed_conflict(stack, blocks, start, end, (x, y, x + w, y + h)) is None]
                groups = ev._farm_moves(index, ev.place(index, (x, y, x + width, y + height)), 0.5)
                assert [g.options for g in groups if g.kind == "reshape"] == (
                    [legal] if legal else []), (farm.name, x, y)
                checked[len(legal) == len(others)] += 1
    assert checked[True] and checked[False]


def _old_power(design, grid):
    """The power raster as rasterize once built it, block by block."""
    power = np.zeros((grid.num_layers, grid.cells_y, grid.cells_x))
    for b in design.floorplan.blocks:
        if b.power + b.leakage_ref != 0:
            power[b.layer] += (b.power + b.leakage_ref) * block_cell_weights(b, grid)
    return power


@pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
@pytest.mark.parametrize("name", SHIPPED)
def test_block_rasters_equal_the_per_call_formulas(name, cell):
    design = shipped_design(name)
    grid = grid_for(design.stack, cell)
    thermal.block_raster.cache_clear()
    occ = rasterize(design, grid)
    assert occ.power.tobytes() == _old_power(design, grid).tobytes()
    assert not occ.power.flags.writeable
    # the leakage entries, against the weights of each leaky block on its own
    leaky = [b for b in design.floorplan.blocks if b.leakage_ref > 0]
    matrix = system_matrix(build_network(occ, grid, design.stack))
    coeff = design.stack.tech.leakage_coeff
    weights = [block_cell_weights(b, grid).ravel() for b in leaky]
    cells = [np.flatnonzero(w) for w in weights]
    expected_w = np.concatenate([w[c] for w, c in zip(weights, cells)])
    expected_cells = np.concatenate([b.layer * grid.cells_per_layer + c
                                     for b, c in zip(leaky, cells)])
    # given the leaky blocks, as the solver tests do, and all the blocks of
    # the run's raster, as couple_leakage does
    for g_eff in (LeakageOperator(matrix, leaky, coeff),
                  LeakageOperator(matrix, design.floorplan.blocks, coeff)):
        assert g_eff._w.tobytes() == expected_w.tobytes()
        assert g_eff._cells.tobytes() == expected_cells.tobytes()
    # field_stats' block averages, against full-plane weights: each block on
    # its own, then the hottest of all
    field = couple_leakage(design, grid).field
    averages = {}
    for b in design.floorplan.blocks:
        averages[b.name] = float((field.t[b.layer] * block_cell_weights(b, grid)).sum())
        alone = design.with_floorplan(Floorplan((b,), ()))
        assert field_stats(field, alone, grid).hottest_block_avg == averages[b.name]
    stats = field_stats(field, design, grid)
    hottest = min(averages, key=lambda n: (-averages[n], n))
    assert (stats.hottest_block, stats.hottest_block_avg) == (hottest, averages[hottest])


@pytest.mark.parametrize("leakage", [None, 0.0], ids=["leakage", "no-leakage"])
@pytest.mark.parametrize("name", SHIPPED)
def test_calibration_reads_the_runs_own_terms(name, leakage):
    # the run prices its input's terms from its own tables, without counting
    # an evaluation or keeping a breakdown, to the bits of cost(design, UNWEIGHTED)
    design = shipped_design(name)
    if leakage is not None:
        tech = dataclasses.replace(design.stack.tech, leakage_coeff=leakage)
        design = dataclasses.replace(design, stack=dataclasses.replace(design.stack, tech=tech))
    ev = Evaluator(design, grid_for(design.stack))
    terms = ev.terms(ev.state_of(design))
    assert terms == cost(design, UNWEIGHTED)
    assert (ev.evaluations, ev._priced) == (0, {})
    result = optimize_stack(design, AnnealConfig(seed=1, max_moves=1),
                            FlowConfig(outer_iterations=1))
    assert result.weights == CostWeights.calibrated(design, cost(design, UNWEIGHTED),
                                                    result.before_field.average)


def test_a_run_computes_what_the_blocks_fix_once(monkeypatch):
    """Work counts of a seed-1 multicore run at max_moves=20. Before the
    per-run tables: 560 TsvFarm.placed calls (532 of them for priced rows)
    and 114 block_cell_weights calls (2 solves x 30 and 3 summaries x 18).
    One raster took 18 block_cell_weights calls, one per block, before
    blocks of one rectangle shared an entry. Each farm's move groups check
    its 2 reshapes with fixed_conflict, exact in integers. The strip table
    was built twice, once more to calibrate the weights, before calibration
    read the run's own terms."""
    counts = dict.fromkeys(("placed", "block_cell_weights", "fixed_conflict",
                            "strip_table"), 0)

    def counted(name, inner):
        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call
    monkeypatch.setattr(model.TsvFarm, "placed", counted("placed", model.TsvFarm.placed))
    monkeypatch.setattr(thermal, "block_cell_weights",
                        counted("block_cell_weights", thermal.block_cell_weights))
    monkeypatch.setattr(anneal, "fixed_conflict", counted("fixed_conflict", fixed_conflict))
    tables = counted("strip_table", metrics.strip_table)
    for module in (anneal, metrics):
        monkeypatch.setattr(module, "strip_table", tables)
    thermal.block_raster.cache_clear()
    result = optimize_stack(shipped_design("multicore"), AnnealConfig(seed=1, max_moves=20))
    assert (len(result.trace.moves), result.evaluations) == (1720, 1922)
    # 4 designs built for 2 solves and 2 snapshots, x 7 farms; one raster of
    # 18 blocks on 11 distinct rectangles; 187 groups x 2 reshapes
    assert counts == {"placed": 28, "block_cell_weights": 11, "fixed_conflict": 374,
                      "strip_table": 1}
