"""The tables a run computes once from its fixed blocks, against what they
replace: the move table kept or built for each state against one built
from every farm's groups, reshape legality read from legal_origins' rasters
against fixed_conflict, and the blocks' cell weights and power raster
against the per-call formulas. Each must give the same floats; a work-count
guard pins how much of that work a fixed-seed run does."""

import math
import random
from itertools import accumulate

import numpy as np
import pytest

import tsvplan.anneal as anneal
import tsvplan.model as model
import tsvplan.thermal as thermal
from tsvplan.anneal import AnnealConfig, Evaluator, gen_move, optimize_stack
from tsvplan.model import Floorplan, fixed_conflict, origin_lattice
from tsvplan.thermal import (LeakageOperator, block_cell_weights, build_network,
                             couple_leakage, field_stats, grid_for, rasterize, system_matrix)

from conftest import SHIPPED, shipped_design

CELLS = {"100um": None, "50um": 50e-6, "25um": 25e-6}   # None: the design's grid_cell


def _scratch_table(ev, state, eligible):
    """gen_move's groups and cumulative masses, built from every farm's groups."""
    weight = 0.5 / len(eligible)
    groups = [g for index in eligible for g in ev._farm_moves(state[index], weight)]
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
    # every farm, every configured ratio, at lattice anchors (all of them at
    # 100 um, a seeded sample and the lattice's far edges below), anchors one
    # step past those edges, and off-lattice anchors, the farm's own among them
    design = shipped_design(name)
    grid = grid_for(design.stack, cell)
    ev, step = Evaluator(design, grid), grid.cell_size
    stack, blocks, pick = design.stack, design.floorplan.blocks, random.Random(11)
    checked = {True: 0, False: 0}
    for farm in design.floorplan.farms:
        start, end = farm.start_layer, farm.end_layer
        for ratio in stack.tech.aspect_ratios:
            width, height = math.sqrt(farm.area * ratio), math.sqrt(farm.area / ratio)
            nx, ny = origin_lattice(stack, width, height, step)
            points = [(ix, iy) for ix in range(nx + 1) for iy in range(ny + 1)]
            if cell is not None:
                points = pick.sample(points, 150) + [(ix, iy) for ix in (nx - 1, nx)
                                                     for iy in (0, ny - 1, ny)]
            anchors = [(ix * step, iy * step) for ix, iy in points]
            anchors += [(x + step / 3, y) for x, y in anchors[:40]]
            anchors += [(farm.x, farm.y), (farm.x, farm.y + step / 7)]
            for x, y in anchors:
                expected = fixed_conflict(stack, blocks, start, end,
                                          (x, y, x + width, y + height)) is None
                assert ev._fits(x, y, width, height, start, end) == expected, (farm.name, x, y)
                checked[expected] += 1
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


def test_a_run_computes_what_the_blocks_fix_once(monkeypatch):
    """Work counts of a seed-1 multicore run at max_moves=20. Before the
    per-run tables: 560 TsvFarm.placed calls (532 of them for priced rows),
    114 block_cell_weights calls (2 solves x 30 and 3 summaries x 18) and
    382 fixed_conflict calls (191 groups x 2 reshapes). One raster took 18
    block_cell_weights calls, one per block, before blocks of one rectangle
    shared an entry."""
    counts = dict.fromkeys(("placed", "block_cell_weights", "fixed_conflict"), 0)

    def counted(name, inner):
        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call
    monkeypatch.setattr(model.TsvFarm, "placed", counted("placed", model.TsvFarm.placed))
    monkeypatch.setattr(thermal, "block_cell_weights",
                        counted("block_cell_weights", thermal.block_cell_weights))
    monkeypatch.setattr(anneal, "fixed_conflict", counted("fixed_conflict", fixed_conflict))
    thermal.block_raster.cache_clear()
    result = optimize_stack(shipped_design("multicore"), AnnealConfig(seed=1, max_moves=20))
    assert (len(result.trace.moves), result.evaluations) == (1720, 1922)
    # 4 designs built for 2 solves and 2 snapshots, x 7 farms; one raster of
    # 18 blocks on 11 distinct rectangles; 13 groups anchored off the
    # lattice, x 2 reshapes, and 16 reshapes anchored past the edge of their
    # shape's lattice
    assert counts == {"placed": 28, "block_cell_weights": 11, "fixed_conflict": 42}
