"""Two-loop placement search: per-layer simulated annealing inside a
stack-level loop that keeps the floorplan with the lowest whole-stack peak
temperature (the lower average on a tie), the input unless a snapshot is
cooler.

Blocks never move, so a run's Evaluator holds everything the search never
changes, and a state is only a tuple of Placements, one per farm in
floorplan order. The Evaluator makes one per farm and rectangle (x, y,
width, height), so equal states share them and the memos key a state by
identity. Layer passes and the stack-level loop carry states; the Evaluator
solves each distinct state once and keeps its field for the run. A Design
is built from a state only to solve, summarize or write it.

The annealing chain is sequential by nature; all randomness flows from one
PCG64 stream seeded from the config (tsvplan.rng, numpy's default_rng stream
draw for draw) so traces replay exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, replace
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DesignError
from .metrics import (UNWEIGHTED, CostBreakdown, CostWeights, FarmRow, block_centers,
                      blocked_faces, face_term, farm_row, floorplan_area, price, strip_table,
                      wirelength)
from .model import (Design, Floorplan, bounding_box_of, farm_neighbours, farm_overlap,
                    farm_shape, fixed_conflict, legal_origins, origin_lattice)
from .rng import Pcg64
from .thermal import GridSpec, TemperatureField, couple_leakage, field_stats, grid_for

RNG_KIND = "numpy-PCG64"  # echoed into reports so traces are replayable
PROBE_MOVES = 100  # candidates drawn to calibrate an unset t_initial
RETRY_CAP = 50     # proposals gen_move redraws before it returns a null move
# a cost change within a few ulps of the current cost is a tie, taken as 0
TIE_RTOL = 4 * np.finfo(float).eps
MEMO_ENTRIES = 4096  # in each of an Evaluator's memos; a full memo starts over


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
        try:
            # a plain int, so a numpy integer seeds the stream like its value
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
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
    cell_size: int | None = None         # nm; None: tech.grid_cell

    def __post_init__(self):
        if not self.outer_iterations >= 1:
            raise ValueError("outer_iterations must be >= 1")


class MoveRecord(NamedTuple):
    outer: int
    layer: int
    kind: str            # reshape | move | null
    farm: str | None
    delta_cost: float
    temperature: float
    draw: float | None   # acceptance draw for uphill candidates
    accepted: bool
    best_cost: float


class PassRecord(NamedTuple):
    outer: int
    layer: int
    eligible: int
    moves: int
    accepted: int
    pre_avg: float
    pre_peak: float
    post_avg: float
    post_peak: float


class OuterRecord(NamedTuple):
    outer: int
    stack_peak: float      # the outer's snapshot
    stack_average: float
    best_peak: float       # the snapshot kept so far, the input first
    best_average: float


@dataclass
class RunTrace:
    moves: list[MoveRecord] = dc_field(default_factory=list)
    passes: list[PassRecord] = dc_field(default_factory=list)
    outers: list[OuterRecord] = dc_field(default_factory=list)


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


class Placement:
    """Farm `index` at xywh (x, y, width, height), with its rect (x0, y0,
    x1, y1), as a TsvFarm's, and its cost row. An Evaluator makes one per
    (index, xywh), so it hashes and compares by identity."""

    __slots__ = ("index", "xywh", "rect", "row")

    def __init__(self, index: int, xywh: tuple, row: FarmRow):
        self.index, self.xywh, self.rect, self.row = index, xywh, row.rect, row


class MoveGroup(NamedTuple):
    """The block-legal candidates of one (farm, move kind) in one state."""

    index: int                # the farm's index in the floorplan
    kind: str                 # reshape | move
    options: Sequence         # reshape: (x, y, width, height); move: flat origins ix * ny + iy
    mass: float               # (1/n) (1/2) len(options) / all options of the kind
    lattice: tuple = ()       # move: (ny, cell, width, height)

    def option(self, j: int) -> tuple:
        """Option j as a candidate (x, y, width, height), drawn uniformly."""
        if self.kind == "reshape":
            return self.options[j]
        ny, cell, width, height = self.lattice
        ix, iy = divmod(int(self.options[j]), ny)
        return ix * cell, iy * cell, width, height


def gen_move(context: "Evaluator", state: tuple, eligible: Sequence[int],
             rng) -> tuple[tuple, str, str | None]:
    """Draw one legal candidate state: a farm of `eligible` (farm indices)
    reshaped to another configured ratio, anchored at its lower left, or
    relocated to a grid-aligned origin.

    The candidate's law is that of drawing a farm uniformly, then reshape or
    relocate with probability 1/2 each, then a ratio or lattice origin
    uniformly, and redrawing everything until the result is legal and moves
    the farm. It is drawn from the context's move_table instead: one
    rng.random() picks a (farm, kind) group by its mass, one rng.integers()
    an option within it. A candidate that overlaps another farm, or a
    relocation onto the farm's own origin, redraws the whole proposal; only a
    legal candidate is placed. After RETRY_CAP proposals, or at once when
    the state has no candidate, the state itself is returned as a null move.
    """
    if not eligible:
        return state, "null", None
    groups, cumulative = context.move_table(state, eligible)
    if not groups:
        return state, "null", None
    total, last = cumulative[-1], len(groups) - 1
    for _ in range(RETRY_CAP):
        group = groups[min(bisect_right(cumulative, rng.random() * total), last)]
        xywh = group.option(rng.integers(len(group.options)))
        x, y, width, height = xywh
        index = group.index
        if group.kind == "move" and xywh == state[index].xywh:
            continue
        if farm_overlap(context.neighbours[index], state,
                        (x, y, x + width, y + height)) is None:
            return (state[:index] + (context.place(index, xywh),) + state[index + 1:],
                    group.kind, context.farms[index].name)
    return state, "null", None


def _median(values: list) -> float:
    """np.median's value, from the sorted middle, without the import of
    numpy.ma that np.median's first call makes."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def calibrate_t_initial(state, cost_fn, propose, rng,
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


def sa_placement(state, cost_fn, propose, config: AnnealConfig, rng,
                 trace: RunTrace | None = None, outer: int = 0,
                 layer: int = -1) -> tuple[object, float]:
    """Simulated annealing over candidate states; returns the best seen.

    cost_fn maps a legal state to a scalar; propose(state, rng) yields
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


def _recall(memo: dict, key, make, *args):
    """memo[key], made by make(*args) on a miss; a full memo starts over."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= MEMO_ENTRIES:
            memo.clear()
        value = memo[key] = make(*args)
    return value


class Evaluator:
    """The search context of one run: one design, grid and weighting.

    It holds what the search never changes, as per-run tables built here:
    the stack and blocks, the f_H strip table, the blocks' bounding box and
    centres, and each farm's fixed fields, blocked faces, same-layer
    neighbours and farm_shapes (the blocks' cell weights and power raster are
    thermal.block_raster's, built by the first solve). It memoizes what
    depends on the farm rectangles: the Placement of each (farm index,
    xywh), the field and the cost of each state, each Placement's move
    groups, each blocked pair's term and legal_origins' rasters, and keeps
    the last move_table. Every memo is read and filled only through
    _recall, which bounds it by MEMO_ENTRIES (a state placed after a start
    over is priced again, to the same values); each fills lazily, move
    groups and rasters from the first gen_move on. solve returns a state's
    field on the run's grid; breakdown and cost price a state under weights,
    which must be set before the first price, and count the evaluations;
    terms prices a state UNWEIGHTED, for calibration, outside both.
    """

    def __init__(self, design: Design, grid: GridSpec, weights: CostWeights | None = None):
        fp = design.floorplan
        self.design, self.grid, self.weights = design, grid, weights
        self.farms = fp.farms
        self.neighbours = [farm_neighbours(fp.farms, k) for k in range(len(fp.farms))]
        self.table = strip_table(fp.blocks, design.stack)
        self.faces = [blocked_faces(self.table, f) for f in fp.farms]
        self.shapes = [[farm_shape(f.area, r) for r in design.stack.tech.aspect_ratios]
                       for f in fp.farms]
        self.centers = block_centers(fp.blocks)
        # min and max are exact: the blocks' box prices like all their rects
        self.fixed = [bounding_box_of([b.rect for b in fp.blocks])] if fp.blocks else []
        self.evaluations = 0
        self._fields: dict = {}    # state -> read-only TemperatureField
        self._priced: dict = {}    # state -> CostBreakdown
        self._rows: dict = {}      # (index, xywh) -> Placement
        self._terms: dict = {}     # a blocked pair's hits -> its term
        self._groups: dict = {}    # (Placement, weight) -> [MoveGroup]
        self._origins: dict = {}   # (width, height, start, end) -> legal_origins
        # the last move_table: state, eligible, (groups, cumulative masses)
        self._table: tuple = (None, None, ([], []))

    def state_of(self, design: Design) -> tuple:
        return tuple([self.place(k, (f.x, f.y, f.width, f.height))
                      for k, f in enumerate(design.floorplan.farms)])

    def design_of(self, state: tuple) -> Design:
        farms = tuple(f.placed(*p.xywh) for f, p in zip(self.farms, state))
        return self.design.with_floorplan(Floorplan(self.design.floorplan.blocks, farms))

    def solve(self, state: tuple) -> TemperatureField:
        return _recall(self._fields, state, self._solve, state)

    def _solve(self, state: tuple) -> TemperatureField:
        field = couple_leakage(self.design_of(state), self.grid).field
        field.t.flags.writeable = False
        return field

    def breakdown(self, state: tuple) -> CostBreakdown:
        self.evaluations += 1
        return _recall(self._priced, state, self._price, state)

    def cost(self, state: tuple) -> float:
        return self.breakdown(state).total

    def terms(self, state: tuple) -> CostBreakdown:
        return self._price(state, UNWEIGHTED)

    def _price(self, state: tuple, weights: CostWeights | None = None) -> CostBreakdown:
        return price(weights or self.weights, self.table, [p.row for p in state],
                     self.fixed, self._term)

    def place(self, index: int, xywh: tuple) -> Placement:
        """The Placement of farm `index` at xywh (x, y, width, height)."""
        return _recall(self._rows, (index, xywh), self._placement, index, xywh)

    def _placement(self, index: int, xywh: tuple) -> Placement:
        return Placement(index, xywh, farm_row(self.table, self.centers, self.farms[index],
                                               self.faces[index], xywh))

    def _term(self, pair: int, hits: tuple) -> float:
        return _recall(self._terms, hits, face_term, self.table.faces[pair], hits)

    def move_table(self, state: tuple,
                   eligible: Sequence[int]) -> tuple[list[MoveGroup], list[float]]:
        """gen_move's groups in one state, each eligible farm's memoized groups
        in eligible order, and their cumulative masses. Kept for the last
        (state, eligible) objects, since a rejected candidate leaves the state
        as it is."""
        last, known, table = self._table
        if last is state and known is eligible:
            return table
        weight = 0.5 / len(eligible)
        groups = [group for index in eligible
                  for group in _recall(self._groups, (state[index], weight),
                                       self._farm_moves, state[index], weight)]
        table = groups, list(accumulate(g.mass for g in groups))
        self._table = (state, eligible, table)
        return table

    def _farm_moves(self, placement: Placement, weight: float) -> list[MoveGroup]:
        """One farm's groups, each of mass weight * options / all options.

        A reshape's options are the configured ratios' farm_shapes other
        than the farm's own sides whose rectangle, anchored at the farm's
        lower left, passes fixed_conflict; a relocation's are the lattice
        origins of legal_origins. Kinds without options are left out.
        Neither depends on the other farms.
        """
        index, (x, y, width, height) = placement.index, placement.xywh
        farm, stack, cell = self.farms[index], self.design.stack, self.grid.cell_size
        start, end, blocks = farm.start_layer, farm.end_layer, self.design.floorplan.blocks
        shapes = [shape for shape in self.shapes[index] if shape != (width, height)]
        legal = [(x, y, w, h) for w, h in shapes
                 if fixed_conflict(stack, blocks, start, end, (x, y, x + w, y + h)) is None]
        groups = [MoveGroup(index, "reshape", legal, weight * len(legal) / len(shapes))
                  ] if legal else []
        flat = _recall(self._origins, (width, height, start, end), legal_origins,
                       stack, blocks, width, height, start, end, cell)
        if len(flat):
            nx, ny = origin_lattice(stack, width, height, cell)
            groups.append(MoveGroup(index, "move", flat, weight * len(flat) / (nx * ny),
                                    (ny, cell, width, height)))
        return groups


class DesignSummary(NamedTuple):
    """Table-II-style row for one floorplan: geometry and solved temperatures."""

    wirelength: float
    area: float
    average: float
    peak: float
    hottest_block: str | None
    hottest_block_avg: float | None
    per_layer_average: tuple[float, ...]
    layer_peaks: tuple[float, ...]


def summarize(design: Design, grid: GridSpec, field: TemperatureField) -> DesignSummary:
    """A design's metrics from its field on grid; the report path, and what
    `analyze` prints."""
    stats = field_stats(field, design, grid)
    return DesignSummary(
        wirelength=wirelength(design),
        area=floorplan_area(design.floorplan),
        average=stats.average,
        peak=stats.peak,
        hottest_block=stats.hottest_block,
        hottest_block_avg=stats.hottest_block_avg,
        per_layer_average=tuple(float(layer.mean()) for layer in field.t),
        layer_peaks=tuple(float(layer.max()) for layer in field.t),
    )


class OptimizeResult(NamedTuple):
    best: Design
    trace: RunTrace
    weights: CostWeights
    grid: GridSpec
    before: DesignSummary
    after: DesignSummary
    evaluations: int
    before_field: TemperatureField   # the fields behind before/after
    after_field: TemperatureField


def layer_pass(state: tuple, layer: int, evaluator: Evaluator,
               config: AnnealConfig, rng, trace: RunTrace, outer: int) -> tuple:
    """Anneal the farms that start on one layer; identity pass when none do.
    Returns the best state seen, the input itself when none beats it. The
    record reads the fields of the input and of the returned state."""
    eligible = [k for k, f in enumerate(evaluator.farms) if f.start_layer == layer]
    pre = evaluator.solve(state)
    best = state
    moves_before = len(trace.moves)
    if eligible:
        def propose(candidate, r):
            return gen_move(evaluator, candidate, eligible, r)

        best, _ = sa_placement(state, evaluator.cost, propose, config, rng,
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
    """Run the full two-loop flow and return the floorplan with the lowest
    whole-stack peak temperature, the lower average on a tie (the input if
    no outer snapshot is cooler). Unset weights are calibrated from the
    input's field and its terms as the run's context prices them;
    ratio_target, when set, replaces the weights' target bounding ratio."""
    grid = grid_for(design.stack, flow.cell_size)
    evaluator = Evaluator(design, grid)
    current = evaluator.state_of(design)
    before_field = evaluator.solve(current)
    if weights is None:
        weights = CostWeights.calibrated(design, evaluator.terms(current), before_field)
    if ratio_target is not None:
        weights = replace(weights, ratio_target=ratio_target)
    evaluator.weights = weights
    before = summarize(design, grid, before_field)

    rng = Pcg64(anneal.seed)
    trace = RunTrace()
    best, after, after_field = design, before, before_field

    for outer in range(1, flow.outer_iterations + 1):
        for layer in range(design.stack.num_layers):
            current = layer_pass(current, layer, evaluator, anneal, rng, trace, outer)
        snapshot_design, field = evaluator.design_of(current), evaluator.solve(current)
        snapshot = summarize(snapshot_design, grid, field)
        if (snapshot.peak, snapshot.average) < (after.peak, after.average):
            best, after, after_field = snapshot_design, snapshot, field
        trace.outers.append(OuterRecord(outer, snapshot.peak, snapshot.average,
                                        after.peak, after.average))

    return OptimizeResult(best, trace, weights, grid, before, after,
                          evaluator.evaluations, before_field, after_field)
