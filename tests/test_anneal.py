import math

import numpy as np
import pytest

from tsvplan.anneal import (AnnealConfig, Evaluator, FlowConfig, RunTrace,
                            accept, calibrate_t_initial, gen_move, layer_pass,
                            optimize_stack, sa_placement)
from tsvplan.metrics import CostWeights
from tsvplan.model import validate
from tsvplan.thermal import grid_for, solve_design

from conftest import MM, block, farm, make_design, make_tech


class ScriptedRng:
    """Deterministic stand-in feeding gen_move a fixed draw sequence."""

    def __init__(self, integer_values, float_values):
        self._ints = list(integer_values)
        self._floats = list(float_values)

    def integers(self, n):
        return self._ints.pop(0) % n

    def random(self):
        return self._floats.pop(0)


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


class TestGenMove:
    def _design(self):
        return make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))

    def test_low_draw_takes_reshape_branch(self):
        d = self._design()
        rng = ScriptedRng([0, 0], [0.3])
        out, kind, name = gen_move(d, ["f"], rng, grid_for(d.stack))
        assert kind == "reshape" and name == "f"
        assert out.floorplan.farm("f").aspect_ratio != pytest.approx(1.0)

    def test_high_draw_takes_move_branch(self):
        d = self._design()
        rng = ScriptedRng([0, 3, 5], [0.7])
        out, kind, name = gen_move(d, ["f"], rng, grid_for(d.stack))
        assert kind == "move" and name == "f"
        f = out.floorplan.farm("f")
        assert (f.width, f.height) == (0.4 * MM, 0.4 * MM)

    def test_moves_land_on_grid_lattice(self):
        d = self._design()
        rng = np.random.default_rng(5)
        cell = d.stack.tech.grid_cell
        for _ in range(50):
            out, kind, _ = gen_move(d, ["f"], rng, grid_for(d.stack))
            if kind == "move":
                f = out.floorplan.farm("f")
                assert f.x / cell == pytest.approx(round(f.x / cell), abs=1e-9)
                assert f.y / cell == pytest.approx(round(f.y / cell), abs=1e-9)

    def test_saturated_floorplan_yields_null_move(self):
        # footprint exactly fits the farm: no legal move or reshape exists
        tech = make_tech(footprint_width=0.4 * MM, footprint_height=0.4 * MM,
                         aspect_ratios=(1.0,))
        d = make_design(farms=(farm("f", 0.0, 0.0, 0.4, 0.4),), tech=tech)
        rng = np.random.default_rng(0)
        out, kind, name = gen_move(d, ["f"], rng, grid_for(d.stack))
        assert kind == "null" and name is None
        assert out is d

    def test_no_eligible_farms(self):
        d = self._design()
        out, kind, _ = gen_move(d, [], np.random.default_rng(0), grid_for(d.stack))
        assert kind == "null" and out is d

    def test_candidates_always_legal(self):
        d = make_design(
            blocks=(block("wall", 0, 1.2, 0.0, 0.2, 2.0),),
            farms=(farm("f", 0.2, 0.2, 0.4, 0.4), farm("g", 0.6, 1.4, 0.4, 0.4)))
        rng = np.random.default_rng(11)
        for _ in range(200):
            d2, kind, _ = gen_move(d, ["f", "g"], rng, grid_for(d.stack))
            assert validate(d2) == []
            d = d2


class TestSaPlacement:
    def test_constant_cost_returns_initial(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        grid = grid_for(d.stack)
        trace = RunTrace()
        calls = []

        def cost_fn(state):
            calls.append(state)
            return 7.0

        def propose(state, rng):
            return gen_move(state, ["f"], rng, grid)

        cfg = AnnealConfig(t_initial=1.0, t_threshold=0.5, max_moves=5, seed=0)
        best, best_cost = sa_placement(d, cost_fn, propose, cfg,
                                       np.random.default_rng(0), trace)
        assert best is d and best_cost == 7.0
        assert all(m.accepted for m in trace.moves)  # dC = 0 is downhill

    def test_best_cost_curve_non_increasing(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        grid = grid_for(d.stack)
        trace = RunTrace()

        def cost_fn(state):
            f = state.floorplan.farm("f")
            return abs(f.x - 1.2 * MM) + abs(f.y - 0.2 * MM)

        def propose(state, rng):
            return gen_move(state, ["f"], rng, grid)

        cfg = AnnealConfig(t_initial=1e-3, t_threshold=1e-6, cooling=0.7,
                           max_moves=10, seed=0)
        best, best_cost = sa_placement(d, cost_fn, propose, cfg,
                                       np.random.default_rng(3), trace)
        curve = trace.best_cost_curve
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert best_cost <= cost_fn(d)
        assert best_cost == curve[-1]

    def test_calibration_targets_median_uphill(self):
        d = make_design(farms=(farm("f", 0.8, 0.8, 0.4, 0.4),))
        grid = grid_for(d.stack)
        rng = np.random.default_rng(0)

        def cost_fn(state):
            return abs(state.floorplan.farm("f").x - 0.8 * MM)

        def propose(state, r):
            return gen_move(state, ["f"], r, grid)

        t0 = calibrate_t_initial(d, cost_fn, propose, rng, cost_fn(d))
        assert t0 > 0
        # a median uphill move must be accepted with probability ~0.8
        deltas = []
        rng2 = np.random.default_rng(1)
        for _ in range(200):
            cand, kind, _ = propose(d, rng2)
            if kind != "null":
                delta = cost_fn(cand) - cost_fn(d)
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


def _hotspot_design():
    """Hot block with a farm parked in its corridor toward a cool neighbor."""
    tech = make_tech(adjacency_window=1.0 * MM, package_resistance=20.0,
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
        grid = grid_for(d.stack)
        ev = Evaluator(grid, CostWeights(0.0, -1.0, 0.0, 0.0))
        trace = RunTrace()
        out = layer_pass(d, 1, ev, AnnealConfig(seed=0), np.random.default_rng(0),
                         trace, outer=1)
        assert out is d
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

    def test_returned_average_never_exceeds_input(self):
        d = _hotspot_design()
        result = optimize_stack(d, AnnealConfig(seed=5, max_moves=15),
                                FlowConfig(outer_iterations=1))
        assert result.after.average <= result.before.average + 1e-12

    def test_trace_is_bit_identical_for_same_seed(self):
        d = _hotspot_design()
        cfg = AnnealConfig(seed=9, max_moves=10)
        flow = FlowConfig(outer_iterations=1)
        a = optimize_stack(d, cfg, flow)
        b = optimize_stack(d, cfg, flow)
        assert a.trace.moves == b.trace.moves
        assert a.trace.passes == b.trace.passes
        assert a.trace.outers == b.trace.outers
        assert a.trace.best_cost_curve == b.trace.best_cost_curve
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
                == pytest.approx(sum(f.area for f in d.floorplan.farms), rel=1e-12))
        assert {(f.name, f.clients) for f in result.best.floorplan.farms} \
            == {(f.name, f.clients) for f in d.floorplan.farms}

    def test_every_evaluated_state_is_legal(self):
        d = _hotspot_design()
        grid = grid_for(d.stack)
        seen = []

        class CheckingEvaluator(Evaluator):
            def breakdown(self, design):
                seen.append(design)
                assert validate(design) == []
                return super().breakdown(design)

        ev = CheckingEvaluator(grid, CostWeights(0.0, -1.0, 0.0, 0.0))
        trace = RunTrace()
        rng = np.random.default_rng(4)
        layer_pass(d, 0, ev, AnnealConfig(seed=4, max_moves=8, t_initial=1e-4,
                                          t_threshold=1e-5), rng, trace, outer=1)
        assert len(seen) > 10

    def test_best_cost_curve_non_increasing_full_run(self):
        d = _hotspot_design()
        result = optimize_stack(d, AnnealConfig(seed=6, max_moves=10),
                                FlowConfig(outer_iterations=2))
        curve = result.trace.best_cost_curve
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
        moved = move_farm(d, "f", (1.4 * MM, 1.4 * MM))
        after = solve_design(moved, grid)
        assert np.abs(after.t[1] - before.t[1]).max() >= 0.1
