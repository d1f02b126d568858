"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Monotonicity checks on annealing outcomes use a small reproducibility
allowance (well under the multi-kelvin signals involved); everything else
asserts the stated tolerances directly.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from tsvplan.anneal import (AnnealConfig, Evaluator, FlowConfig, RunTrace,
                            accept, gen_move, optimize_stack, sa_placement)
from tsvplan.metrics import CostWeights
from tsvplan.model import farm_shape, move_farm, validate
from tsvplan.sweeps import run_sweep, set_farm_conductivity
from tsvplan.thermal import (ConductanceNetwork, GridSpec, build_network,
                             couple_leakage, grid_for, rasterize, solve_design,
                             solve_steady_state)
from conftest import SHIPPED, UM, csr_reference, mm, shipped_design

AMBIENT = 298.15
K_LADDER = [0.5, 1.0, 2.75, 5.0, 23.1, 149.0]

OPT_ANNEAL = AnnealConfig(seed=1, max_moves=60)
SWEEP_ANNEAL = AnnealConfig(seed=3, max_moves=80, cooling=0.9)
FLOW = FlowConfig(outer_iterations=2)

# allowance for annealing-outcome reproducibility in monotonicity checks,
# far below the >2 K signals being compared
MONO_SLACK = 0.05


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def optimized():
    runs = {}   # name -> (OptimizeResult, seconds)
    for name in SHIPPED:
        started = time.perf_counter()
        result = optimize_stack(shipped_design(name), OPT_ANNEAL, FLOW)
        runs[name] = result, time.perf_counter() - started
    return runs


def test_criterion_1_solver_correctness():
    budget = time.perf_counter()

    # analytic single cell: 1 W through 10 K/W
    grid1 = GridSpec(1, 1, 100 * UM, 1)
    single = ConductanceNetwork(grid1, np.zeros((1, 1, 0)), np.zeros((1, 0, 1)),
                                np.zeros((0, 1, 1)), np.full((1, 1), 0.1))
    t = solve_steady_state(single, np.full((1, 1, 1), 1.0), AMBIENT)
    assert abs(t.t[0, 0, 0] - 308.15) < 1e-9

    # analytic two-cell series: 5 K/W per hop, far cell powered
    grid2 = GridSpec(1, 1, 100 * UM, 2)
    pair = ConductanceNetwork(grid2, np.zeros((2, 1, 0)), np.zeros((2, 0, 1)),
                              np.full((1, 1, 1), 0.2), np.full((1, 1), 0.2))
    power = np.zeros((2, 1, 1))
    power[1] = 1.0
    t = solve_steady_state(pair, power, AMBIENT)
    assert abs(t.t[1, 0, 0] - 308.15) < 1e-9
    assert abs(t.t[0, 0, 0] - 303.15) < 1e-9

    # dense oracle on random 6x6x2 networks + energy conservation
    rng = np.random.default_rng(17)
    worst_dense = 0.0
    worst_conservation = 0.0
    for _ in range(5):
        grid = GridSpec(6, 6, 100 * UM, 2)
        net = ConductanceNetwork(
            grid,
            g_x=rng.uniform(1e-4, 1e-2, (2, 6, 5)),
            g_y=rng.uniform(1e-4, 1e-2, (2, 5, 6)),
            g_z=rng.uniform(1e-2, 1.0, (1, 6, 6)),
            g_ambient=rng.uniform(1e-4, 1e-3, (6, 6)))
        p = rng.uniform(0.0, 0.5, (2, 6, 6))
        field = solve_steady_state(net, p, AMBIENT)
        rhs = p.ravel().copy()
        rhs[:36] += net.g_ambient.ravel() * AMBIENT
        exact = np.linalg.solve(csr_reference(net).toarray(), rhs).reshape(2, 6, 6)
        worst_dense = max(worst_dense, float(np.abs(field.t - exact).max()))
        out = float((net.g_ambient * (field.t[0] - AMBIENT)).sum())
        worst_conservation = max(worst_conservation, abs(out - p.sum()) / p.sum())

    # conservation on the shipped benchmark fixtures
    for name in SHIPPED:
        d = shipped_design(name)
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        net = build_network(occ, grid, d.stack)
        field = solve_steady_state(net, occ.power, AMBIENT)
        out = float((net.g_ambient * (field.t[0] - AMBIENT)).sum())
        worst_conservation = max(worst_conservation,
                                 abs(out - occ.power.sum()) / occ.power.sum())

    elapsed = time.perf_counter() - budget
    ok = worst_dense < 1e-8 and worst_conservation < 1e-6 and elapsed < 5.0
    _report(1, ok, f"dense oracle {worst_dense:.2e} K, conservation "
                   f"{worst_conservation:.2e} rel, {elapsed:.2f}s total")


def test_criterion_2_blockage_reproduction():
    started = time.perf_counter()
    peaks = {}
    for k in K_LADDER + [173.0]:
        d = set_farm_conductivity(shipped_design("blockage"), k)
        peaks[k] = couple_leakage(d, grid_for(d.stack)).field.peak
    gap = peaks[0.5] - peaks[173.0]
    ladder = [peaks[k] for k in K_LADDER]
    monotone = all(a >= b - 1e-9 for a, b in zip(ladder, ladder[1:]))
    elapsed = time.perf_counter() - started
    ok = gap >= 1.0 and monotone and elapsed < 30.0
    _report(2, ok, f"insulated-vs-conductive peak gap {gap:.2f} K, "
                   f"ladder monotone={monotone}, {elapsed:.1f}s")


def test_criterion_3_optimization_efficacy(optimized):
    details = []
    ok = True
    for name, (result, seconds) in optimized.items():
        b, a = result.before, result.after
        peak_drop = b.layer_peaks[0] - a.layer_peaks[0]
        avg_drop = b.average - a.average
        wl_ratio = a.wirelength / b.wirelength
        area_ratio = a.area / b.area
        point_ok = (peak_drop > 0 and avg_drop > 0
                    and wl_ratio <= 1.05 and area_ratio <= 1.02
                    and seconds < 600.0)
        ok = ok and point_ok
        details.append(f"{name}: peak -{peak_drop:.2f} K, avg -{avg_drop:.3f} K, "
                       f"WL x{wl_ratio:.3f}, area x{area_ratio:.3f}, "
                       f"{seconds:.0f}s")
    _report(3, ok, "; ".join(details))


def test_criterion_4_sa_invariants(optimized):
    # acceptance probability at dC = T
    rng = np.random.default_rng(42)
    trials = 100_000
    hits = sum(accept(1.0, 1.0, rng)[0] for _ in range(trials))
    rate = hits / trials
    rate_ok = abs(rate - math.exp(-1)) < 0.01

    # best-cost curve non-increasing on every optimization run
    curves_ok = all(
        all(x >= y for x, y in zip(curve, curve[1:]))
        for curve in ([m.best_cost for m in r.trace.moves] for r, _ in optimized.values()))

    # bit-identical traces for identical seeds
    d = shipped_design("blockage")
    cfg = AnnealConfig(seed=12, max_moves=15)
    flow = FlowConfig(outer_iterations=1)
    first = optimize_stack(d, cfg, flow)
    second = optimize_stack(d, cfg, flow)
    replay_ok = (first.trace.moves == second.trace.moves
                 and ([m.best_cost for m in first.trace.moves]
                      == [m.best_cost for m in second.trace.moves])
                 and first.trace.passes == second.trace.passes
                 and first.best == second.best)

    ok = rate_ok and curves_ok and replay_ok
    _report(4, ok, f"acceptance rate {rate:.4f} (target {math.exp(-1):.4f}), "
                   f"curves non-increasing={curves_ok}, replay identical={replay_ok}")


def test_criterion_5_layer_sweep():
    started = time.perf_counter()
    points = run_sweep(shipped_design("corememory"), "layers", [1, 2, 3, 4],
                       SWEEP_ANNEAL, FLOW)
    assert all(p.status == "ok" for p in points)
    before_peaks = [p.before_core_peak for p in points]
    avg_reductions = [p.stack_avg_reduction for p in points]
    peaks_ok = all(b >= a - 1e-9 for a, b in zip(before_peaks, before_peaks[1:]))
    reductions_ok = all(b >= a - MONO_SLACK
                        for a, b in zip(avg_reductions, avg_reductions[1:]))
    elapsed = time.perf_counter() - started
    ok = peaks_ok and reductions_ok and elapsed < 1800.0
    _report(5, ok, f"before-peaks {[round(p, 2) for p in before_peaks]} "
                   f"non-decreasing={peaks_ok}; avg reductions "
                   f"{[round(r, 3) for r in avg_reductions]} "
                   f"non-decreasing={reductions_ok}; {elapsed:.0f}s")


def test_criterion_6_conductivity_sweep():
    points = run_sweep(shipped_design("corememory"), "k_farm", K_LADDER,
                       SWEEP_ANNEAL, FLOW)
    assert all(p.status == "ok" for p in points)
    reductions = [p.peak_reduction for p in points]
    monotone = all(b <= a + MONO_SLACK for a, b in zip(reductions, reductions[1:]))
    endpoint = reductions[-1] < 0.2 * reductions[0]
    ok = monotone and endpoint
    _report(6, ok, f"peak reductions {[round(r, 3) for r in reductions]} "
                   f"non-increasing={monotone}; reduction at k=149 "
                   f"{reductions[-1]:.3f} < 20% of {reductions[0]:.3f}")


def test_criterion_7_interlayer_effect():
    # farm spans layers 0..2 (electrically tied to 0 and 2); relocating it
    # must change layer-1 temperatures even though nothing on layer 1
    # connects to it
    from conftest import block, farm, make_design, make_tech
    tech = make_tech(package_resistance=20.0)
    d = make_design(
        blocks=(block("hot", 1, 0.2, 0.8, 0.4, 0.4, power=1.0),),
        farms=(farm("f", 0.6, 0.8, 0.4, 0.4, start=0, end=2),),
        num_layers=3, tech=tech)
    grid = grid_for(d.stack)
    before = solve_design(d, grid)
    moved = move_farm(d, "f", (mm(1.4), mm(1.4)))
    after = solve_design(moved, grid)
    shift = float(np.abs(after.t[1] - before.t[1]).max())
    ok = shift >= 0.1
    _report(7, ok, f"pass-through farm move shifts layer 1 by {shift:.3f} K")


def test_criterion_8_exhaustive_oracle():
    # coarsened single-farm benchmark: enumerate every grid-aligned
    # (ratio, origin) configuration and compare SA's best cost
    base = shipped_design("blockage")
    fp = dataclasses.replace(base.floorplan,
                             farms=(base.floorplan.farm("bus_e"),))
    coarse = base.with_floorplan(fp)
    grid = grid_for(coarse.stack)  # 20x20 lattice: a few hundred configurations
    assert validate(coarse) == []

    evaluator = Evaluator(coarse, grid)
    state0 = evaluator.state_of(coarse)
    evaluator.weights = CostWeights.calibrated(coarse, evaluator.terms(state0),
                                               evaluator.solve(state0).average)

    farm0 = coarse.floorplan.farm("bus_e")
    cell = grid.cell_size
    fw, fh = coarse.stack.footprint
    best_cost = None
    configs = 0
    for ratio in coarse.stack.tech.aspect_ratios:
        width, height = farm_shape(farm0.area, ratio)
        for ix in range((fw - width) // cell + 1):
            for iy in range((fh - height) // cell + 1):
                x, y = ix * cell, iy * cell
                state = (evaluator.place(0, (x, y, x + width, y + height)),)
                if validate(evaluator.design_of(state)):
                    continue
                configs += 1
                cost_value = evaluator.cost(state)
                if best_cost is None or cost_value < best_cost:
                    best_cost = cost_value
    assert configs <= 10_000

    def propose(state, rng):
        return gen_move(evaluator, state, farm0.start_layer, rng)

    trace = RunTrace()
    _, sa_cost = sa_placement(evaluator.state_of(coarse), evaluator.cost, propose,
                              AnnealConfig(seed=4, max_moves=60),
                              np.random.default_rng(4), trace)
    gap = (sa_cost - best_cost) / abs(best_cost)
    ok = gap <= 0.02
    _report(8, ok, f"{configs} configurations enumerated; SA best within "
                   f"{gap * 100:.3f}% of the global optimum")
