"""Two-loop placement search: per-layer simulated annealing inside a
stack-level loop that keeps the floorplan with the best whole-stack average
temperature.

The annealing chain is sequential by nature; all randomness flows from one
numpy PCG64 generator seeded from the config so traces replay exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, replace
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DesignError
from .metrics import CostBreakdown, CostWeights, cost, floorplan_area, wirelength
from .model import (Design, Stack, TsvFarm, cache_by_identity, farm_overlap, fixed_conflict,
                    legal_origins, origin_lattice, with_farm_rect)
from .thermal import GridSpec, TemperatureField, field_stats, grid_for, solve_field

RNG_KIND = "numpy-PCG64"  # echoed into reports so traces are replayable
PROBE_MOVES = 100  # candidates drawn to calibrate an unset t_initial
RETRY_CAP = 50     # proposals gen_move redraws before it returns a null move
# a cost change within a few ulps of the current cost is a tie, taken as 0
TIE_RTOL = 4 * np.finfo(float).eps
FARM_MEMO_ENTRIES = 4096  # in _farm_moves' one memo; a full memo starts over
COST_MEMO_ENTRIES = 4096  # per Evaluator; a full memo starts over


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


def _is_uphill(delta_cost: float, current_cost: float) -> bool:
    return delta_cost > TIE_RTOL * abs(current_cost)


def accept(delta_cost: float, temperature: float, rng,
           current_cost: float = 0.0) -> tuple[bool, float | None]:
    """Metropolis rule: downhill always, uphill with probability e^(-dC/T).

    A dC within a few ulps of current_cost is a tie, accepted without a
    draw, so a rounding difference in pricing cannot fork a trace.
    """
    if not _is_uphill(delta_cost, current_cost):
        return True, None
    draw = float(rng.random())
    return draw < math.exp(-delta_cost / temperature), draw


class MoveGroup(NamedTuple):
    """The block-legal candidates of one (farm, move kind) in one state."""

    index: int                # the farm's index in the floorplan
    kind: str                 # reshape | move
    options: Sequence[tuple]  # candidate (x, y, width, height), drawn uniformly
    mass: float               # (1/n) (1/2) len(options) / all options of the kind


@dataclass(frozen=True)
class _Origins:
    """legal_origins' flat indices, read as relocation candidates."""

    flat: np.ndarray
    ny: int
    cell: float
    width: float
    height: float

    def __len__(self) -> int:
        return len(self.flat)

    def __getitem__(self, j: int) -> tuple:
        ix, iy = divmod(int(self.flat[j]), self.ny)
        return ix * self.cell, iy * self.cell, self.width, self.height


class _FarmMoves:
    """Memo of _farm_moves for one (blocks tuple, stack, cell) at a time.

    It is keyed on the farm's index and weight and on every farm field that
    _farm_moves reads, so a farm that returns to a rectangle finds its
    groups again. Another context, or a full memo, starts it over."""

    def __init__(self):
        self.context: tuple = ()
        self.groups: dict = {}

    def of(self, blocks: tuple, stack: Stack, cell: float) -> dict:
        context = self.context
        if not (context and context[0] is blocks and context[1] is stack
                and context[2] == cell):
            self.context = (blocks, stack, cell)
            self.groups.clear()
        elif len(self.groups) >= FARM_MEMO_ENTRIES:
            self.groups.clear()
        return self.groups


_FARM_MOVES = _FarmMoves()


def _farm_moves(farm: TsvFarm, index: int, weight: float, stack: Stack,
                blocks: tuple, cell: float) -> list[MoveGroup]:
    """One farm's groups, each of mass weight * options / all options.

    A reshape's options are the other configured ratios whose rectangle,
    anchored at the farm's lower left, passes fixed_conflict; a relocation's
    are the lattice origins of legal_origins. Kinds without options are left
    out. Neither depends on the other farms.
    """
    start, end = farm.start_layer, farm.end_layer
    shapes = [(farm.x, farm.y, math.sqrt(farm.area * r), math.sqrt(farm.area / r))
              for r in stack.tech.aspect_ratios if abs(r - farm.aspect_ratio) > 1e-9 * r]
    legal = [(x, y, w, h) for x, y, w, h in shapes
             if fixed_conflict(stack, blocks, start, end, (x, y, x + w, y + h)) is None]
    groups = [MoveGroup(index, "reshape", legal, weight * len(legal) / len(shapes))
              ] if legal else []
    flat = legal_origins(stack, blocks, farm.width, farm.height, start, end, cell)
    if len(flat):
        nx, ny = origin_lattice(stack, farm.width, farm.height, cell)
        groups.append(MoveGroup(index, "move",
                                _Origins(flat, ny, cell, farm.width, farm.height),
                                weight * len(flat) / (nx * ny)))
    return groups


@cache_by_identity
def move_table(design: Design, eligible: list[str],
               grid: GridSpec) -> tuple[list[MoveGroup], list[float]]:
    """The groups of gen_move's candidates in one state, and their cumulative
    masses. Cached on the identity of the state, the eligible list and the
    grid; a rejected candidate leaves the state as it is, and a new state
    recomputes only the groups of the farm that moved."""
    fp, stack = design.floorplan, design.stack
    memo = _FARM_MOVES.of(fp.blocks, stack, grid.cell_size)
    names = set(eligible)
    weight = 0.5 / len(names)
    groups = []
    for index, farm in enumerate(fp.farms):
        if farm.name in names:
            key = (index, weight, farm.x, farm.y, farm.width, farm.height, farm.area,
                   farm.start_layer, farm.end_layer)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = _farm_moves(farm, index, weight, stack, fp.blocks,
                                                grid.cell_size)
            groups += entry
    return groups, list(accumulate(g.mass for g in groups))


def gen_move(design: Design, eligible: list[str], rng,
             grid: GridSpec) -> tuple[Design, str, str | None]:
    """Draw one legal candidate: a farm reshaped to another configured ratio,
    anchored at its lower left, or relocated to a grid-aligned origin.

    The candidate's law is that of drawing a farm uniformly, then reshape or
    relocate with probability 1/2 each, then a ratio or lattice origin
    uniformly, and redrawing everything until the result is legal and moves
    the farm. It is drawn from move_table instead: one rng.random() picks a
    (farm, kind) group by its mass, one rng.integers() an option within it.
    A candidate that overlaps another farm, or a relocation that keeps its
    origin, redraws the whole proposal. After RETRY_CAP proposals, or at
    once when the state has no candidate, the unmodified floorplan is
    returned as a null move.
    """
    if not eligible:
        return design, "null", None
    groups, cumulative = move_table(design, eligible, grid)
    if not groups:
        return design, "null", None
    farms = design.floorplan.farms
    total, last = cumulative[-1], len(groups) - 1
    for _ in range(RETRY_CAP):
        group = groups[min(bisect_right(cumulative, rng.random() * total), last)]
        x, y, width, height = group.options[rng.integers(len(group.options))]
        farm = farms[group.index]
        if group.kind == "move" and abs(x - farm.x) < 1e-12 and abs(y - farm.y) < 1e-12:
            continue
        if farm_overlap(design, group.index, (x, y, x + width, y + height)) is None:
            return (with_farm_rect(design, group.index, x, y, width, height),
                    group.kind, farm.name)
    return design, "null", None


def _median(values: list) -> float:
    """np.median's value, from the sorted middle, without the import of
    numpy.ma that np.median's first call makes."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def calibrate_t_initial(state: Design, cost_fn, propose, rng,
                        current_cost: float) -> float:
    """Pick T0 so a median uphill step is accepted with probability 0.8."""
    uphill = []
    for _ in range(PROBE_MOVES):
        candidate, kind, _ = propose(state, rng)
        if kind == "null":
            continue
        delta = cost_fn(candidate) - current_cost
        if _is_uphill(delta, current_cost):
            uphill.append(delta)
    if uphill:
        return _median(uphill) / -math.log(0.8)
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
            accepted, draw = accept(delta, temperature, rng, current_cost)
            if accepted:
                state, current_cost = candidate, candidate_cost
            if best_cost > current_cost:
                best, best_cost = state, current_cost
            if trace is not None:
                trace.moves.append(MoveRecord(outer, layer, kind, farm, delta,
                                              temperature, draw, accepted, best_cost))
        temperature *= config.cooling
    return best, best_cost


def _farm_fields(floorplan) -> list[tuple]:
    """Every farm field that with_farm_rect keeps, farm by farm."""
    return [(f.name, f.start_layer, f.end_layer, f.k_lateral, f.k_metal, f.area, f.clients)
            for f in floorplan.farms]


class Evaluator:
    """Prices candidate floorplans and counts the evaluations; solve returns
    a floorplan's cold field on the run's grid.

    The floorplans of one Evaluator differ only in their farms' geometry
    (with_farm_rect): blocks and stack are the first priced floorplan's
    objects (checked each call) and every other farm field is its value
    (checked on each memo miss); a failed check is a ValueError. So each
    distinct farm (x, y, width, height) tuple is priced once.
    """

    def __init__(self, grid: GridSpec, weights: CostWeights):
        self.grid = grid
        self.weights = weights
        self.evaluations = 0
        self._priced: dict = {}
        self._shared = None   # (blocks, stack, _farm_fields) of the first floorplan

    def solve(self, design: Design) -> TemperatureField:
        return solve_field(design, self.grid)

    def breakdown(self, design: Design) -> CostBreakdown:
        self.evaluations += 1
        fp = design.floorplan
        if self._shared is None:
            self._shared = (fp.blocks, design.stack, _farm_fields(fp))
        blocks, stack, farm_fields = self._shared
        if not (fp.blocks is blocks and design.stack is stack):
            raise ValueError("not this Evaluator's design")
        key = tuple([(f.x, f.y, f.width, f.height) for f in fp.farms])
        priced = self._priced.get(key)
        if priced is None:
            if _farm_fields(fp) != farm_fields:
                raise ValueError("not this Evaluator's farms")
            if len(self._priced) >= COST_MEMO_ENTRIES:
                self._priced.clear()
            priced = self._priced[key] = cost(design, self.weights)
        return priced

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
