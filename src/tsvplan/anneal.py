"""Two-loop placement search: per-layer simulated annealing inside a
stack-level loop that keeps the floorplan with the best whole-stack average
temperature.

The annealing chain is sequential by nature; all randomness flows from one
numpy PCG64 generator seeded from the config so traces replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import DesignError, InvalidMoveError
from .metrics import CostBreakdown, CostWeights, cost, floorplan_area, wirelength
from .model import Design, move_farm, reshape_farm
from .thermal import GridSpec, TemperatureField, field_stats, grid_for, solve_field

RNG_KIND = "numpy-PCG64"  # echoed into reports so traces are replayable
PROBE_MOVES = 100  # candidates drawn to calibrate an unset t_initial
RETRY_CAP = 50     # illegal draws before gen_move returns a null move


@dataclass(frozen=True)
class AnnealConfig:
    t_initial: float | None = None    # None: calibrate from probe moves
    t_threshold: float | None = None  # None: t_initial * 1e-3
    cooling: float = 0.85
    max_moves: int = 40
    seed: int = 0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not (0 < self.cooling < 1):
            raise ValueError("cooling factor must be in (0, 1)")
        if not self.max_moves >= 1:
            raise ValueError("max_moves must be >= 1")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        for name in ("t_initial", "t_threshold"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.t_initial is not None and self.t_threshold is not None:
            if not self.t_initial > self.t_threshold:
                raise ValueError("need t_initial > t_threshold")


@dataclass(frozen=True)
class FlowConfig:
    outer_iterations: int = 2
    cell_size: float | None = None       # None: tech.grid_cell

    def __post_init__(self):
        if not self.outer_iterations >= 1:
            raise ValueError("outer_iterations must be >= 1")


@dataclass(frozen=True)
class MoveRecord:
    outer: int
    layer: int
    kind: str            # reshape | move | null
    farm: str | None
    delta_cost: float
    temperature: float
    draw: float | None   # acceptance draw for uphill candidates
    accepted: bool
    best_cost: float


@dataclass(frozen=True)
class PassRecord:
    outer: int
    layer: int
    eligible: int
    moves: int
    accepted: int
    pre_avg: float
    pre_peak: float
    post_avg: float
    post_peak: float


@dataclass(frozen=True)
class OuterRecord:
    outer: int
    stack_average: float
    best_average: float


@dataclass
class RunTrace:
    moves: list[MoveRecord] = dc_field(default_factory=list)
    passes: list[PassRecord] = dc_field(default_factory=list)
    outers: list[OuterRecord] = dc_field(default_factory=list)

    @property
    def best_cost_curve(self) -> list[float]:
        return [m.best_cost for m in self.moves]


def accept(delta_cost: float, temperature: float, rng) -> tuple[bool, float | None]:
    """Metropolis rule: downhill always, uphill with probability e^(-dC/T)."""
    if delta_cost <= 0:
        return True, None
    draw = float(rng.random())
    return draw < math.exp(-delta_cost / temperature), draw


def gen_move(design: Design, eligible: list[str], rng,
             grid: GridSpec) -> tuple[Design, str, str | None]:
    """Draw one candidate: pick a farm, then reshape (draw < 1/2) or relocate.

    Relocation targets a uniformly drawn grid-aligned origin. An illegal
    candidate discards the whole draw and retries; after RETRY_CAP illegal
    draws the unmodified floorplan is returned as a null move.
    """
    if not eligible:
        return design, "null", None
    tech = design.stack.tech
    cell = grid.cell_size
    fw, fh = design.stack.footprint
    for _ in range(RETRY_CAP):
        name = eligible[int(rng.integers(len(eligible)))]
        index = design.floorplan.farm_index(name)
        farm = design.floorplan.farms[index]
        branch = float(rng.random())
        try:
            if branch < 0.5:
                choices = [r for r in tech.aspect_ratios
                           if abs(r - farm.aspect_ratio) > 1e-9 * r]
                if not choices:
                    raise InvalidMoveError("no alternative ratio")
                ratio = choices[int(rng.integers(len(choices)))]
                return reshape_farm(design, index, ratio), "reshape", name
            max_ix = math.floor((fw - farm.width) / cell + 1e-9)
            max_iy = math.floor((fh - farm.height) / cell + 1e-9)
            if max_ix < 0 or max_iy < 0:
                raise InvalidMoveError("farm larger than footprint")
            origin = (int(rng.integers(max_ix + 1)) * cell,
                      int(rng.integers(max_iy + 1)) * cell)
            if abs(origin[0] - farm.x) < 1e-12 and abs(origin[1] - farm.y) < 1e-12:
                raise InvalidMoveError("position unchanged")
            return move_farm(design, index, origin), "move", name
        except InvalidMoveError:
            continue
    return design, "null", None


def calibrate_t_initial(state: Design, cost_fn, propose, rng,
                        current_cost: float) -> float:
    """Pick T0 so a median uphill step is accepted with probability 0.8."""
    uphill = []
    for _ in range(PROBE_MOVES):
        candidate, kind, _ = propose(state, rng)
        if kind == "null":
            continue
        delta = cost_fn(candidate) - current_cost
        if delta > 0:
            uphill.append(delta)
    if uphill:
        return float(np.median(uphill)) / -math.log(0.8)
    return max(abs(current_cost) * 1e-3, 1e-9)


def sa_placement(state: Design, cost_fn, propose, config: AnnealConfig, rng,
                 trace: RunTrace | None = None, outer: int = 0,
                 layer: int = -1) -> tuple[Design, float]:
    """Simulated annealing over candidate floorplans; returns the best seen.

    cost_fn maps a legal floorplan to a scalar; propose(state, rng) yields
    (candidate, kind, farm). Temperature cools geometrically after each
    batch of max_moves candidates until it falls below the threshold.
    """
    current_cost = cost_fn(state)
    t0 = config.t_initial
    if t0 is None:
        t0 = calibrate_t_initial(state, cost_fn, propose, rng, current_cost)
    threshold = config.t_threshold if config.t_threshold is not None else t0 * 1e-3
    if not (t0 > threshold > 0):
        # AnnealConfig orders a given pair, so only a given threshold can
        # reach this: one at or above the calibrated t_initial
        raise DesignError(f"--t-threshold {threshold:g} must be below the calibrated "
                          f"t_initial {t0:g}; lower it or set --t-initial")

    best, best_cost = state, current_cost
    temperature = t0
    while temperature > threshold:
        for _ in range(config.max_moves):
            candidate, kind, farm = propose(state, rng)
            candidate_cost = current_cost if kind == "null" else cost_fn(candidate)
            delta = candidate_cost - current_cost
            accepted, draw = accept(delta, temperature, rng)
            if accepted:
                state, current_cost = candidate, candidate_cost
            if best_cost > current_cost:
                best, best_cost = state, current_cost
            if trace is not None:
                trace.moves.append(MoveRecord(outer, layer, kind, farm, delta,
                                              temperature, draw, accepted, best_cost))
        temperature *= config.cooling
    return best, best_cost


class Evaluator:
    """Prices candidate floorplans and counts the evaluations; solve returns
    a floorplan's cold field on the run's grid."""

    def __init__(self, grid: GridSpec, weights: CostWeights):
        self.grid = grid
        self.weights = weights
        self.evaluations = 0

    def solve(self, design: Design) -> TemperatureField:
        return solve_field(design, self.grid)

    def breakdown(self, design: Design) -> CostBreakdown:
        self.evaluations += 1
        return cost(design, self.weights)

    def cost(self, design: Design) -> float:
        return self.breakdown(design).total


@dataclass(frozen=True)
class DesignSummary:
    """Table-II-style row for one floorplan: geometry and solved temperatures."""

    wirelength: float
    area: float
    average: float
    peak: float
    hottest_block: str | None
    hottest_block_avg: float | None
    per_layer_average: tuple[float, ...]
    layer_peaks: tuple[float, ...]


def summarize(design: Design, grid: GridSpec) -> tuple[DesignSummary, TemperatureField]:
    """Cold solve plus metrics; the report path, and what `analyze` prints.

    Returns the summary and the solved field it was computed from.
    """
    field = solve_field(design, grid)
    stats = field_stats(field, design, grid)
    summary = DesignSummary(
        wirelength=wirelength(design),
        area=floorplan_area(design.floorplan),
        average=stats.average,
        peak=stats.peak,
        hottest_block=stats.hottest_block,
        hottest_block_avg=stats.hottest_block_avg,
        per_layer_average=tuple(float(layer.mean()) for layer in field.t),
        layer_peaks=tuple(float(layer.max()) for layer in field.t),
    )
    return summary, field


@dataclass
class OptimizeResult:
    best: Design
    trace: RunTrace
    weights: CostWeights
    grid: GridSpec
    before: DesignSummary
    after: DesignSummary
    evaluations: int
    before_field: TemperatureField   # the cold solves behind before/after
    after_field: TemperatureField


def layer_pass(design: Design, layer: int, evaluator: Evaluator,
               config: AnnealConfig, rng, trace: RunTrace, outer: int) -> Design:
    """Anneal the farms that start on one layer; identity pass when none do.
    The record reads the cold fields of the input and of the best floorplan."""
    grid = evaluator.grid
    eligible = [f.name for f in design.floorplan.farms if f.start_layer == layer]
    pre = evaluator.solve(design)
    best = design
    moves_before = len(trace.moves)
    if eligible:
        def propose(state, r):
            return gen_move(state, eligible, r, grid)

        best, _ = sa_placement(design, evaluator.cost, propose, config, rng,
                               trace, outer=outer, layer=layer)
    new_moves = trace.moves[moves_before:]
    post = evaluator.solve(best)
    trace.passes.append(PassRecord(
        outer, layer, len(eligible), len(new_moves),
        sum(1 for m in new_moves if m.accepted),
        float(pre.t[layer].mean()), float(pre.t[layer].max()),
        float(post.t[layer].mean()), float(post.t[layer].max())))
    return best


def optimize_stack(design: Design, anneal: AnnealConfig = AnnealConfig(),
                   flow: FlowConfig = FlowConfig(),
                   weights: CostWeights | None = None,
                   ratio_target: float | None = None) -> OptimizeResult:
    """Run the full two-loop flow and return the floorplan with the largest
    whole-stack average-temperature reduction (the input if nothing improves).
    Unset weights are calibrated from the input's cold field; ratio_target,
    when set, replaces the weights' target bounding ratio."""
    grid = grid_for(design.stack, flow.cell_size)
    before, before_field = summarize(design, grid)
    if weights is None:
        weights = CostWeights.calibrated(design, before_field)
    if ratio_target is not None:
        weights = replace(weights, ratio_target=ratio_target)
    evaluator = Evaluator(grid, weights)

    rng = np.random.default_rng(anneal.seed)
    trace = RunTrace()
    current = design
    best_design, best = design, (before, before_field)

    for outer in range(1, flow.outer_iterations + 1):
        for layer in range(design.stack.num_layers):
            current = layer_pass(current, layer, evaluator, anneal, rng, trace, outer)
        snapshot = summarize(current, grid)
        if snapshot[0].average < best[0].average:
            best_design, best = current, snapshot
        trace.outers.append(OuterRecord(outer, snapshot[0].average, best[0].average))

    after, after_field = best
    return OptimizeResult(best_design, trace, weights, grid, before, after,
                          evaluator.evaluations, before_field, after_field)
