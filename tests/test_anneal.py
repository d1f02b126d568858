import math
from collections import defaultdict
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsvplan import anneal
from tsvplan.anneal import (RETRY_CAP, AnnealConfig, Evaluator, FlowConfig, RunTrace,
                            accept, calibrate_t_initial, gen_move, layer_pass,
                            optimize_stack, sa_placement)
from tsvplan.errors import InvalidMoveError
from tsvplan.metrics import CostWeights, cost
from tsvplan.model import _place_farm, farm_shape, move_farm, reshape_farm, validate
from tsvplan.thermal import grid_for, solve_design

from conftest import MM, SHIPPED, block, farm, make_design, make_tech, mm, shipped_design


def context(design, weights=CostWeights(0.0, -1.0, 0.0, 0.0)):
    """A search context for design on its default grid."""
    return Evaluator(design, grid_for(design.stack), weights)


class ScriptedRng:
    """Deterministic stand-in feeding gen_move a fixed draw sequence: each
    proposal takes one random() for the move group and one integers(n) for
    the option within it."""

    def __init__(self, integer_values, float_values):
        self._ints = list(integer_values)
        self._floats = list(float_values)

    def integers(self, n):
        return self._ints.pop(0) % n

    def random(self):
        return self._floats.pop(0)

    @property
    def exhausted(self):
        return not self._ints and not self._floats


class NoDrawRng:
    def random(self):
        raise AssertionError("no draw expected")

    integers = random


class TestAccept:
    def test_downhill_always_accepted(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ok, draw = accept(-1.0, 0.5, rng)
            assert ok and draw in (None,)

    def test_zero_delta_accepted(self):
        ok, _ = accept(0.0, 1.0, np.random.default_rng(0))
        assert ok

    def test_acceptance_rate_at_delta_equal_t(self):
        # e^-1 within +/- 0.01 over 1e5 trials
        rng = np.random.default_rng(42)
        hits = sum(accept(1.0, 1.0, rng)[0] for _ in range(100_000))
        assert abs(hits / 100_000 - math.exp(-1)) < 0.01

    @pytest.mark.parametrize("cost", [1.0, -3.7, 123.456, 1e-9])
    def test_one_ulp_rise_is_a_tie_without_draw(self, cost):
        candidate = math.nextafter(cost, math.inf)
        assert accept(candidate - cost, 1e-30, NoDrawRng(), cost) == (True, None)

    def test_a_rise_beyond_the_tie_draws(self):
        rng = ScriptedRng([], [0.5])
        cost = 1.0
        ok, draw = accept(1e-12, 1e-30, rng, cost)
        assert (ok, draw) == (False, 0.5) and rng.exhausted

    def test_annealing_takes_one_ulp_rises_without_draws(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        costs = {id(d): 0.1 + 0.2}
        states = [d]   # keeps every id in costs alive

        def propose(state, rng):   # each candidate costs 1 ulp more than its state
            states.append(d.with_floorplan(d.floorplan))
            costs[id(states[-1])] = math.nextafter(costs[id(state)], math.inf)
            return states[-1], "move", "f"

        trace = RunTrace()
        cfg = AnnealConfig(t_initial=1.0, t_threshold=0.5, max_moves=3)
        best, best_cost = sa_placement(d, lambda state: costs[id(state)], propose, cfg,
                                       NoDrawRng(), trace)
        assert len(trace.moves) == 15   # 5 temperatures of 3 moves
        assert all(m.accepted and m.draw is None and m.delta_cost > 0 for m in trace.moves)
        assert best is d and best_cost == 0.1 + 0.2

    def test_calibration_ignores_ties(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        cost = 2.5
        rises = iter([math.nextafter(cost, math.inf), cost + 0.5] * 50)

        def propose(state, rng):
            return d.with_floorplan(d.floorplan), "move", "f"

        t0 = calibrate_t_initial(d, lambda state: next(rises), propose, NoDrawRng(), cost)
        assert t0 == pytest.approx(0.5 / -math.log(0.8))


class TestGenMove:
    # f is alone on a 2 x 2 mm footprint with a 0.1 mm cell: all four other
    # ratios are legal (mass 1/2 * 4/4) and so are all 17 x 17 origins (mass
    # 1/2 * 289/289), so a draw below 1/2 reshapes and one above relocates
    def _design(self):
        return make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))

    def _draw(self, design, rng):
        """One gen_move of farm 0 from design's state, read back as a Design."""
        ev = context(design)
        out, kind, name = gen_move(ev, ev.state_of(design), [0], rng)
        return ev.design_of(out), kind, name

    def test_low_draw_takes_reshape_branch(self):
        d = self._design()
        rng = ScriptedRng([0], [0.3])
        out, kind, name = self._draw(d, rng)
        assert kind == "reshape" and name == "f" and rng.exhausted
        f = out.floorplan.farm("f")
        assert (f.width, f.height) == (mm(0.2), mm(0.8))   # the first other ratio, 0.25
        assert (f.x, f.y) == (mm(0.8), mm(0.8))

    def test_high_draw_takes_move_branch(self):
        d = self._design()
        rng = ScriptedRng([3 * 17 + 5], [0.7])
        out, kind, name = self._draw(d, rng)
        assert kind == "move" and name == "f" and rng.exhausted
        f = out.floorplan.farm("f")
        cell = d.stack.tech.grid_cell
        assert (f.x, f.y) == (3 * cell, 5 * cell)
        assert (f.width, f.height) == (mm(0.4), mm(0.4))

    def test_unchanged_origin_redraws_the_whole_proposal(self):
        d = self._design()
        rng = ScriptedRng([8 * 17 + 8, 1], [0.7, 0.2])   # (8, 8) is where f stands
        out, kind, _ = self._draw(d, rng)
        assert kind == "reshape" and rng.exhausted
        f = out.floorplan.farm("f")
        assert (f.width, f.height) == farm_shape(f.area, 0.5) == (282_843, 565_685)

    def test_farm_overlap_redraws_the_whole_proposal(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4), farm("g", 0.0, 0.0, 0.4, 0.4)))
        rng = ScriptedRng([1 * 17 + 1, 2 * 17 + 9], [0.7, 0.9])   # (1, 1) overlaps g
        out, kind, name = self._draw(d, rng)
        assert (kind, name) == ("move", "f") and rng.exhausted
        cell = d.stack.tech.grid_cell
        assert (out.floorplan.farm("f").x, out.floorplan.farm("f").y) == (2 * cell, 9 * cell)

    def test_every_proposal_rejected_is_a_null_move_after_the_cap(self):
        d = self._design()
        ev = context(d)
        state = ev.state_of(d)
        rng = ScriptedRng([8 * 17 + 8] * RETRY_CAP, [0.9] * RETRY_CAP)
        out, kind, name = gen_move(ev, state, [0], rng)
        assert (out, kind, name) == (state, "null", None) and rng.exhausted

    @pytest.mark.parametrize("name", SHIPPED)
    def test_no_relocation_lands_on_the_input_origin(self, name):
        # every shipped farm starts on the lattice, so the lattice point at
        # its origin is an option of its move group, and equal integers, not
        # a tolerance, keep it from being a relocation
        d = shipped_design(name)
        ev = context(d)
        state = ev.state_of(d)
        for index, f in enumerate(d.floorplan.farms):
            groups, cumulative = ev.move_table(state, [index])
            g = next(g for g, group in enumerate(groups) if group.kind == "move")
            ny, cell, _, _ = groups[g].lattice
            assert f.x % cell == 0 and f.y % cell == 0
            j = int(groups[g].options.searchsorted(f.x // cell * ny + f.y // cell))
            assert groups[g].option(j) == f.rect
            # every proposal draws that lattice point
            low = cumulative[g - 1] if g else 0.0
            mid = (low + cumulative[g]) / 2 / cumulative[-1]
            rng = ScriptedRng([j] * RETRY_CAP, [mid] * RETRY_CAP)
            assert gen_move(ev, state, [index], rng) == (state, "null", None)
            assert rng.exhausted

    def test_an_off_lattice_origin_stays_until_the_farm_moves(self):
        d = make_design(farms=(farm("f", 0.85, 0.8, 0.4, 0.4),))
        reshaped, kind, _ = self._draw(d, ScriptedRng([0], [0.3]))
        assert kind == "reshape"
        assert reshaped.floorplan.farm("f").rect[:2] == (mm(0.85), mm(0.8))
        # no lattice point is the farm's origin, so none is redrawn
        moved, kind, _ = self._draw(d, ScriptedRng([8 * 17 + 8], [0.7]))
        assert kind == "move" and moved.floorplan.farm("f").rect[:2] == (mm(0.8), mm(0.8))

    def test_moves_land_on_grid_lattice(self):
        d = self._design()
        ev = context(d)
        rng = np.random.default_rng(5)
        cell = d.stack.tech.grid_cell
        for _ in range(50):
            out, kind, _ = gen_move(ev, ev.state_of(d), [0], rng)
            if kind == "move":
                x, y, _, _ = out[0].rect
                assert type(x) is int and type(y) is int
                assert x % cell == 0 and y % cell == 0

    def test_saturated_floorplan_yields_null_move(self):
        # footprint exactly fits the farm: no legal move or reshape exists
        tech = make_tech(footprint_width=mm(0.4), footprint_height=mm(0.4),
                         aspect_ratios=(1.0,))
        d = make_design(farms=(farm("f", 0.0, 0.0, 0.4, 0.4),), tech=tech)
        ev = context(d)
        state = ev.state_of(d)
        out, kind, name = gen_move(ev, state, [0], np.random.default_rng(0))
        assert kind == "null" and name is None
        assert out is state

    def test_no_eligible_farms(self):
        d = self._design()
        ev = context(d)
        state = ev.state_of(d)
        out, kind, _ = gen_move(ev, state, [], np.random.default_rng(0))
        assert kind == "null" and out is state

    def test_candidates_always_legal(self):
        d = make_design(
            blocks=(block("wall", 0, 1.2, 0.0, 0.2, 2.0),),
            farms=(farm("f", 0.2, 0.2, 0.4, 0.4), farm("g", 0.6, 1.4, 0.4, 0.4)))
        ev = context(d)
        state = ev.state_of(d)
        rng = np.random.default_rng(11)
        for _ in range(200):
            state, kind, _ = gen_move(ev, state, [0, 1], rng)
            assert validate(ev.design_of(state)) == []

    def test_a_farm_back_on_its_rectangle_reuses_its_groups(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4), farm("g", 0.0, 0.0, 0.4, 0.4)))
        ev = context(d)
        groups, _ = ev.move_table(ev.state_of(d), [0, 1])
        away = move_farm(d, "f", (mm(1.2), mm(1.2)))
        ev.move_table(ev.state_of(away), [0, 1])
        entries = len(ev._groups)
        back = ev.state_of(move_farm(away, "f", (mm(0.8), mm(0.8))))
        assert back == ev.state_of(d) and back is not ev.state_of(d)
        assert all(p is q for p, q in zip(back, ev.state_of(d)))
        again, _ = ev.move_table(back, [0, 1])
        assert len(ev._groups) == entries
        assert len(again) == len(groups)
        assert all(a is b for a, b in zip(again, groups))


def _law_design():
    """A wall on layer 0, two farms that meet it and one on layer 1 only,
    which passes over it."""
    return make_design(
        blocks=(block("wall", 0, 1.2, 0.0, 0.2, 2.0),),
        farms=(farm("f", 0.2, 0.2, 0.4, 0.4), farm("g", 0.8, 1.4, 0.4, 0.4),
               farm("h", 1.2, 0.6, 0.2, 0.2, start=1, end=1)),
        tech=make_tech(aspect_ratios=(0.25, 0.5, 1.0, 2.0, 4.0)))


def _normalized(law):
    total = sum(law.values())
    return {key: mass / total for key, mass in law.items()}


def rejection_law(design, eligible, cell):
    """The law of a legal candidate under the rejection sampler: a farm
    uniformly, reshape or relocate with probability 1/2, then a ratio other
    than the farm's own or a lattice origin uniformly, redrawn until legal
    and moving the farm. Keys are (kind, farm, new rectangle)."""
    law = defaultdict(float)
    fw, fh = design.stack.footprint
    for name in eligible:
        f = design.floorplan.farm(name)
        ratios = [r for r in design.stack.tech.aspect_ratios
                  if farm_shape(f.area, r) != (f.width, f.height)]
        for ratio in ratios:
            try:
                candidate = reshape_farm(design, name, ratio)
            except InvalidMoveError:
                continue
            law["reshape", name, candidate.floorplan.farm(name).rect] += \
                1 / len(eligible) / 2 / len(ratios)
        nx = (fw - f.width) // cell + 1
        ny = (fh - f.height) // cell + 1
        for ix in range(nx):
            for iy in range(ny):
                origin = (ix * cell, iy * cell)
                if origin == (f.x, f.y):
                    continue
                try:
                    candidate = move_farm(design, name, origin)
                except InvalidMoveError:
                    continue
                law["move", name, candidate.floorplan.farm(name).rect] += \
                    1 / len(eligible) / 2 / (nx * ny)
    return _normalized(law)


def table_law(ev, state, eligible):
    """The same law read from the context's move_table: each option of a
    group has the group's mass over its option count; proposals that overlap
    a farm or do not move it are redrawn, so the law is renormalized over the
    rest."""
    groups, cumulative = ev.move_table(state, eligible)
    assert cumulative == list(accumulate(g.mass for g in groups))
    design = ev.design_of(state)
    law = defaultdict(float)
    for group in groups:
        f = design.floorplan.farms[group.index]
        for j in range(len(group.options)):
            x0, y0, x1, y1 = group.option(j)
            if group.kind == "move" and (x0, y0) == (f.x, f.y):
                continue
            try:
                candidate = _place_farm(design, group.index, x0, y0, x1 - x0, y1 - y0)
            except InvalidMoveError:
                continue
            law[group.kind, f.name, candidate.floorplan.farms[group.index].rect] += \
                group.mass / len(group.options)
    return _normalized(law)


class TestCandidateLaw:
    def test_table_law_equals_the_rejection_law(self):
        d = _law_design()
        ev = context(d)
        rng = np.random.default_rng(3)
        for eligible in (["f", "g", "h"], ["f", "g"], ["h"]):
            indices = [d.floorplan.farm_index(name) for name in eligible]
            state = ev.state_of(d)
            for _ in range(6):   # several states along a chain
                expected = rejection_law(ev.design_of(state), eligible,
                                         ev.grid.cell_size)
                got = table_law(ev, state, indices)
                assert got.keys() == expected.keys()
                assert all(abs(got[k] - p) <= 1e-12 for k, p in expected.items())
                state, kind, _ = gen_move(ev, state, indices, rng)
                assert kind != "null"

    def test_gen_move_draws_by_the_law(self):
        d = _law_design()
        ev = context(d)
        marginal = defaultdict(float)
        for (kind, name, _), p in rejection_law(d, ["f", "g", "h"],
                                                ev.grid.cell_size).items():
            marginal[kind, name] += p
        rng = np.random.default_rng(17)
        draws = 3000
        counts = defaultdict(int)
        for _ in range(draws):
            _, kind, name = gen_move(ev, ev.state_of(d), [0, 1, 2], rng)
            counts[kind, name] += 1
        assert counts.keys() == marginal.keys()
        for key, p in marginal.items():
            assert abs(counts[key] / draws - p) <= 4 * math.sqrt(p * (1 - p) / draws)


class TestSaPlacement:
    def test_constant_cost_returns_initial(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        ev = context(d)
        start = ev.state_of(d)
        trace = RunTrace()
        calls = []

        def cost_fn(state):
            calls.append(state)
            return 7.0

        def propose(state, rng):
            return gen_move(ev, state, [0], rng)

        cfg = AnnealConfig(t_initial=1.0, t_threshold=0.5, max_moves=5, seed=0)
        best, best_cost = sa_placement(start, cost_fn, propose, cfg,
                                       np.random.default_rng(0), trace)
        assert best is start and best_cost == 7.0
        assert all(m.accepted for m in trace.moves)  # dC = 0 is downhill

    def test_best_cost_curve_non_increasing(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        ev = context(d)
        start = ev.state_of(d)
        trace = RunTrace()

        def cost_fn(state):
            x, y, _, _ = state[0].rect
            return abs(x - mm(1.2)) + abs(y - mm(0.2))

        def propose(state, rng):
            return gen_move(ev, state, [0], rng)

        cfg = AnnealConfig(t_initial=1e-3, t_threshold=1e-6, cooling=0.7,
                           max_moves=10, seed=0)
        best, best_cost = sa_placement(start, cost_fn, propose, cfg,
                                       np.random.default_rng(3), trace)
        curve = [m.best_cost for m in trace.moves]
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert best_cost <= cost_fn(start)
        assert best_cost == curve[-1]

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
    def test_median_is_numpys(self, values):
        # odd and even lengths: the sorted middle, or its two values' mean
        assert anneal._median(values) == np.median(values)

    def test_calibration_targets_median_uphill(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        ev = context(d)
        start = ev.state_of(d)
        rng = np.random.default_rng(0)

        def cost_fn(state):
            return abs(state[0].rect[0] - mm(0.8))

        def propose(state, r):
            return gen_move(ev, state, [0], r)

        t0 = calibrate_t_initial(start, cost_fn, propose, rng, cost_fn(start))
        assert t0 > 0
        # a median uphill move must be accepted with probability ~0.8
        deltas = []
        rng2 = np.random.default_rng(1)
        for _ in range(200):
            cand, kind, _ = propose(start, rng2)
            if kind != "null":
                delta = cost_fn(cand) - cost_fn(start)
                if delta > 0:
                    deltas.append(delta)
        median = float(np.median(deltas))
        assert math.exp(-median / t0) == pytest.approx(0.8, abs=0.15)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AnnealConfig(t_initial=1.0, t_threshold=2.0)
        with pytest.raises(ValueError):
            AnnealConfig(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(max_moves=0)
        with pytest.raises(ValueError):
            FlowConfig(outer_iterations=0)

    def test_seed_is_taken_as_an_integer(self):
        # rejected at construction, not by the generator after the first solve
        with pytest.raises(ValueError, match="seed must be an integer"):
            AnnealConfig(seed=1.5)
        config = AnnealConfig(seed=np.int64(3))
        assert config.seed == 3 and type(config.seed) is int


def _hotspot_design():
    """Hot block with a farm parked in its corridor toward a cool neighbor."""
    tech = make_tech(adjacency_window=MM, package_resistance=20.0,
                     leakage_coeff=0.02, aspect_ratios=(0.25, 1.0, 4.0))
    return make_design(
        blocks=(block("hot", 0, 0.2, 0.8, 0.4, 0.4, power=1.0, leakage=0.25),
                block("cold", 0, 1.4, 0.8, 0.4, 0.4, power=0.02),
                block("pin_sw", 0, 0.0, 0.0, 0.2, 0.2),
                block("pin_ne", 0, 1.8, 1.8, 0.2, 0.2)),
        farms=(farm("f", 0.6, 0.8, 0.4, 0.4, clients=("hot", "pin_ne")),),
        tech=tech)


class TestLayerPass:
    def test_no_eligible_farms_is_identity(self):
        d = _hotspot_design()
        ev = context(d)
        trace = RunTrace()
        state = ev.state_of(d)
        out = layer_pass(state, 1, ev, AnnealConfig(seed=0), np.random.default_rng(0),
                         trace, outer=1)
        assert out is state
        assert trace.passes[-1].eligible == 0 and trace.passes[-1].moves == 0

    def test_pass_reduces_layer_peak_when_an_improving_move_exists(self):
        d = _hotspot_design()
        grid = grid_for(d.stack)
        flow = FlowConfig(outer_iterations=1)
        result = optimize_stack(d, AnnealConfig(seed=2, max_moves=20), flow)
        # exhaustive oracle: scan the whole lattice for the best single move
        from tsvplan.model import move_farm
        from tsvplan.errors import InvalidMoveError
        from tsvplan.thermal import couple_leakage
        cell = d.stack.tech.grid_cell
        best_peak = None
        for ix in range(0, 17):
            for iy in range(0, 17):
                try:
                    cand = move_farm(d, "f", (ix * cell, iy * cell))
                except InvalidMoveError:
                    continue
                peak = couple_leakage(cand, grid).field.t[0].max()
                best_peak = peak if best_peak is None else min(best_peak, peak)
        initial_peak = result.before.layer_peaks[0]
        assert best_peak < initial_peak - 0.5  # an improving move exists
        assert result.after.layer_peaks[0] < initial_peak


class TestOptimizeStack:
    def test_no_farms_is_identity(self):
        d = make_design(blocks=(block("b", 0, 0.8, 0.8, 0.4, 0.4, power=1.0),))
        result = optimize_stack(d, AnnealConfig(seed=0, max_moves=5),
                                FlowConfig(outer_iterations=1))
        assert result.best is d
        assert result.after.average == pytest.approx(result.before.average)

    def test_returned_peak_never_exceeds_input(self):
        d = _hotspot_design()
        result = optimize_stack(d, AnnealConfig(seed=5, max_moves=15),
                                FlowConfig(outer_iterations=1))
        assert result.after.peak <= result.before.peak

    def test_the_coolest_snapshot_is_kept(self):
        # seed 8's snapshots are cooler on average than the input and hotter
        # at the peak; the input is the first candidate, so it is kept
        d = shipped_design("multicore")
        result = optimize_stack(d, AnnealConfig(seed=8, max_moves=20))
        candidates = [(result.before.peak, result.before.average)]
        for o in result.trace.outers:
            candidates.append((o.stack_peak, o.stack_average))
            assert (o.best_peak, o.best_average) == min(candidates)
        assert min(candidates) == (result.after.peak, result.after.average)
        assert all(o.stack_average < result.before.average < o.stack_peak
                   for o in result.trace.outers)
        assert result.best is d

    def test_trace_is_bit_identical_for_same_seed(self):
        d = _hotspot_design()
        cfg = AnnealConfig(seed=9, max_moves=10)
        flow = FlowConfig(outer_iterations=1)
        a = optimize_stack(d, cfg, flow)
        b = optimize_stack(d, cfg, flow)
        assert a.trace.moves == b.trace.moves
        assert a.trace.passes == b.trace.passes
        assert a.trace.outers == b.trace.outers
        assert ([m.best_cost for m in a.trace.moves]
                == [m.best_cost for m in b.trace.moves])
        assert a.best == b.best

    def test_different_seed_changes_trace(self):
        d = _hotspot_design()
        flow = FlowConfig(outer_iterations=1)
        a = optimize_stack(d, AnnealConfig(seed=1, max_moves=10), flow)
        b = optimize_stack(d, AnnealConfig(seed=2, max_moves=10), flow)
        assert a.trace.moves != b.trace.moves

    def test_farm_area_and_connectivity_invariant(self):
        d = _hotspot_design()
        result = optimize_stack(d, AnnealConfig(seed=3, max_moves=15),
                                FlowConfig(outer_iterations=1))
        assert (sum(f.area for f in result.best.floorplan.farms)
                == sum(f.area for f in d.floorplan.farms))
        assert {(f.name, f.clients) for f in result.best.floorplan.farms} \
            == {(f.name, f.clients) for f in d.floorplan.farms}

    def test_every_evaluated_state_is_legal(self):
        d = _hotspot_design()
        seen = []

        class CheckingEvaluator(Evaluator):
            def breakdown(self, state):
                seen.append(state)
                assert validate(self.design_of(state)) == []
                return super().breakdown(state)

        ev = CheckingEvaluator(d, grid_for(d.stack), CostWeights(0.0, -1.0, 0.0, 0.0))
        trace = RunTrace()
        rng = np.random.default_rng(4)
        layer_pass(ev.state_of(d), 0, ev, AnnealConfig(seed=4, max_moves=8, t_initial=1e-4,
                                                       t_threshold=1e-5), rng, trace, outer=1)
        assert len(seen) > 10

    def test_best_cost_curve_non_increasing_full_run(self):
        d = _hotspot_design()
        result = optimize_stack(d, AnnealConfig(seed=6, max_moves=10),
                                FlowConfig(outer_iterations=2))
        curve = [m.best_cost for m in result.trace.moves]
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestInterlayerEffect:
    def test_pass_through_farm_move_changes_middle_layer(self):
        # 3 layers: farm spans 0..2, electrically tied to 0 and 2 only;
        # moving it must still change layer 1 temperatures by >= 0.1 K
        from tsvplan.model import move_farm
        tech = make_tech(package_resistance=20.0)
        d = make_design(
            blocks=(block("hot", 1, 0.2, 0.8, 0.4, 0.4, power=1.0),),
            farms=(farm("f", 0.6, 0.8, 0.4, 0.4, start=0, end=2),),
            num_layers=3, tech=tech)
        grid = grid_for(d.stack)
        before = solve_design(d, grid)
        moved = move_farm(d, "f", (mm(1.4), mm(1.4)))
        after = solve_design(moved, grid)
        assert np.abs(after.t[1] - before.t[1]).max() >= 0.1


class TestEvaluatorMemo:
    """An Evaluator prices each distinct state of its design once."""

    WEIGHTS = CostWeights(1.0, -1.0, 1.0, 1.0)

    @pytest.fixture
    def priced(self, monkeypatch):
        calls = []
        inner = anneal.price

        def counted(weights, table, rows, *args):
            calls.append(tuple(row.rect for row in rows))
            return inner(weights, table, rows, *args)
        monkeypatch.setattr(anneal, "price", counted)
        return calls

    def test_each_distinct_floorplan_is_priced_once(self, priced):
        d = _hotspot_design()
        ev = context(d, self.WEIGHTS)
        designs = [d, move_farm(d, "f", (MM, MM)),
                   move_farm(d, "f", (MM, MM)), d]   # equal, not the same object
        states = [ev.state_of(x) for x in designs]
        assert states[1] == states[2] and states[1] is not states[2]
        # equal states share their placements, so they key the memos alike
        assert all(p is q for i, j in ((0, 3), (1, 2)) for p, q in zip(states[i], states[j]))
        breakdowns = [ev.breakdown(state) for state in states]
        assert breakdowns == [cost(x, self.WEIGHTS) for x in designs]
        assert priced == [(x.floorplan.farms[0].rect,) for x in designs[:2]]
        assert ev.evaluations == 4

    def test_a_full_memo_starts_over(self, priced, monkeypatch):
        monkeypatch.setattr(anneal, "MEMO_ENTRIES", 2)
        d = _hotspot_design()
        ev = context(d, self.WEIGHTS)
        designs = [d] + [move_farm(d, "f", (mm(x), MM)) for x in (0.9, 1.0)]
        for x in designs + designs[:1]:
            ev.cost(ev.state_of(x))
        assert priced == [(x.floorplan.farms[0].rect,) for x in designs + designs[:1]]

    def test_a_new_state_prices_only_the_farm_that_moved(self, monkeypatch):
        rows = []
        inner = anneal.farm_row

        def counted(table, centers, farm, faces, rect):
            rows.append(farm.name)
            return inner(table, centers, farm, faces, rect)
        monkeypatch.setattr(anneal, "farm_row", counted)
        d = _law_design()
        ev = context(d, self.WEIGHTS)
        ev.cost(ev.state_of(d))
        assert rows == ["f", "g", "h"]
        ev.cost(ev.state_of(move_farm(d, "g", (mm(0.8), mm(0.2)))))
        assert rows == ["f", "g", "h", "g"]

    def test_every_memo_read_goes_through_recall(self, monkeypatch):
        # so the one cap and start-over rule sees every read: each priced
        # candidate is one read of the state memo, and each farm of the
        # input state and each legal candidate one read of the placements
        calls = defaultdict(list)   # the memo's fill function -> hit per read
        inner = anneal._recall

        def recall(memo, key, make, *args):
            calls[make.__name__].append(key in memo)
            return inner(memo, key, make, *args)
        monkeypatch.setattr(anneal, "_recall", recall)
        kinds = []
        move = anneal.gen_move

        def counted(*args):
            out = move(*args)
            kinds.append(out[1])
            return out
        monkeypatch.setattr(anneal, "gen_move", counted)
        design = shipped_design("multicore")
        result = optimize_stack(design, AnnealConfig(seed=1, max_moves=20))
        assert len(calls["_price"]) == result.evaluations == 1922
        candidates = len(kinds) - kinds.count("null")
        assert len(calls["_placement"]) == len(design.floorplan.farms) + candidates
        # the memos of the placements, terms, move groups and rasters are hit too
        assert all(any(calls[name])
                   for name in ("_placement", "face_term", "_farm_moves", "legal_origins"))

    def test_each_placement_is_made_once(self, monkeypatch):
        # a seed-1 multicore run builds one cost row per distinct (farm,
        # rectangle) it meets: the input's farms and each candidate's moved farm
        made = []
        inner = anneal.farm_row

        def counted(table, centers, farm, faces, rect):
            made.append((farm.name, rect))
            return inner(table, centers, farm, faces, rect)
        monkeypatch.setattr(anneal, "farm_row", counted)
        design = shipped_design("multicore")
        met = {(f.name, f.rect) for f in design.floorplan.farms}
        move = anneal.gen_move

        def recorded(context, state, eligible, rng):
            out = move(context, state, eligible, rng)
            met.update((f.name, p.rect) for f, p, q in zip(context.farms, out[0], state)
                       if p is not q)
            return out
        monkeypatch.setattr(anneal, "gen_move", recorded)
        optimize_stack(design, AnnealConfig(seed=1, max_moves=20))
        assert sorted(made) == sorted(met) and len(made) == 527

    @pytest.mark.parametrize("name", SHIPPED)
    def test_a_state_reads_back_as_its_design(self, name):
        d = shipped_design(name)
        ev = context(d)
        assert ev.design_of(ev.state_of(d)) == d
        state, rng = ev.state_of(d), np.random.default_rng(1)
        for _ in range(20):
            state, _, _ = gen_move(ev, state, list(range(len(state))), rng)
            assert ev.state_of(ev.design_of(state)) == state


def test_a_pass_without_a_better_state_returns_its_input():
    # every state costs 0, so none beats the input and the pass hands the
    # same state on, whose field the next pass finds in the context
    d = _hotspot_design()
    ev = context(d, CostWeights(0.0, 0.0, 0.0, 0.0))
    trace = RunTrace()
    state = ev.state_of(d)
    out = layer_pass(state, 0, ev, AnnealConfig(seed=0, max_moves=5, t_initial=1.0),
                     np.random.default_rng(0), trace, outer=1)
    assert out is state
    assert trace.passes[-1].moves > 0 and ev.evaluations > 0
