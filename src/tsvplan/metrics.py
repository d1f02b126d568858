"""Objective terms for the placement search and their weighted combination.

The search minimizes

    total = area_w * bbox_area + efficiency_w * f_H + ratio_w * R + wirelength_w * W

with efficiency_w < 0 so that better lateral heat conduction lowers the cost.
f_H sums the per-unit-temperature conduction of adjacent same-layer block
pairs; a farm sitting in the corridor between two blocks drags the pair's
composite conductivity down, which is exactly what the optimizer pushes
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError
from .model import (Block, Design, Floorplan, Stack, TechnologyParams, TsvFarm,
                    cache_by_identity)
from .thermal import TemperatureField


@dataclass(frozen=True)
class CostWeights:
    area: float
    efficiency: float   # must be negative: higher efficiency lowers cost
    ratio: float
    wirelength: float
    ratio_target: float = 1.0

    def __post_init__(self):
        # <= 0 rather than < 0 so an all-zero weighting stays constructible;
        # each bound is written so that NaN fails it
        if not self.efficiency <= 0:
            raise ValueError("efficiency weight must not be positive")
        if not (self.area >= 0 and self.ratio >= 0 and self.wirelength >= 0):
            raise ValueError("area/ratio/wirelength weights must be >= 0")
        if not 0 < self.ratio_target < math.inf:
            raise ValueError("ratio target must be finite and > 0")

    @classmethod
    def calibrated(cls, design: Design, field: TemperatureField) -> "CostWeights":
        """Derive default weights from the initial state.

        The anchor is the efficiency equivalent of one kelvin of average
        temperature at the initial floorplan; a 1% area or wirelength
        increase is priced at that same anchor, so thermal gains cannot buy
        more than a percent-scale overhead. The ratio weight scales the
        (dimensionless) aspect deviation by the footprint-area cost.
        """
        f_h = total_efficiency(design)
        rise = max(field.average - design.stack.tech.ambient, 1.0)
        anchor = f_h / rise if f_h > 0 else 1.0
        area0 = floorplan_area(design.floorplan)
        wl0 = wirelength(design)
        area_w = anchor / (0.01 * area0) if area0 > 0 else 0.0
        wl_w = anchor / (0.01 * wl0) if wl0 > 0 else 0.0
        footprint_area = design.stack.tech.footprint_width * design.stack.tech.footprint_height
        return cls(area=area_w, efficiency=-1.0, ratio=area_w * footprint_area,
                   wirelength=wl_w, ratio_target=bounding_ratio(design.floorplan))


@dataclass(frozen=True)
class CostBreakdown:
    area: float         # m^2
    efficiency: float   # W/K
    ratio: float        # dimensionless
    wirelength: float   # m
    total: float


def conduction_efficiency(conductivity, area, distance):
    """Heat flow per unit temperature difference, k*A/x in W/K, elementwise.

    distance must be > 0; a zero area (no shared face) gives 0.
    """
    return conductivity * area / distance


def adjacent_block_pairs(blocks: tuple[Block, ...],
                         tech: TechnologyParams) -> list[tuple[Block, Block, str]]:
    """Same-layer block pairs whose projections overlap on one axis and whose
    facing gap on the other axis is below the adjacency window."""
    window = tech.adjacency_window if tech.adjacency_window is not None else tech.grid_cell
    pairs = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            a, b = blocks[i], blocks[j]
            if a.layer != b.layer:
                continue
            ax0, ay0, ax1, ay1 = a.rect
            bx0, by0, bx1, by1 = b.rect
            overlap_x = min(ax1, bx1) - max(ax0, bx0)
            overlap_y = min(ay1, by1) - max(ay0, by0)
            gap_x = max(ax0 - bx1, bx0 - ax1)
            gap_y = max(ay0 - by1, by0 - ay1)
            if overlap_y > 0 and 0 <= gap_x < window:
                pairs.append((a, b, "x"))
            elif overlap_x > 0 and 0 <= gap_y < window:
                pairs.append((a, b, "y"))
    return pairs


# Farm-rect columns (x0, y0, x1, y1) that bound a farm across and along a
# path, for x-paths and y-paths: an x-path is crossed by the farm's y extent
# and cut by its x extent.
_PATH_COLUMNS = np.array([[1, 3, 0, 2], [0, 2, 1, 3]])

ROW_MEMO_ENTRIES = 512  # per strip table, in _farm_rows; a full memo starts over


@dataclass(frozen=True, eq=False)
class StripTable:
    """The f_H strips of a design: everything the fixed blocks determine.

    Each adjacent pair's shared face is split into grid-cell-wide strips; a
    strip's path runs between the two block centres along its centre line.
    Arrays are per strip, x-paths first; `slot` places each strip in its
    pair's row, in face order. `farm_rows` memoizes each farm's strip rows.
    """

    pairs: tuple[tuple[Block, Block, str], ...]
    axis_counts: np.ndarray  # [2] number of x-path and y-path strips
    layer: np.ndarray      # [S] layer the strip lies in (as a float)
    line: np.ndarray       # [S] strip centre line, across the path
    lo: np.ndarray         # [S] path start, the lower block-centre coordinate
    hi: np.ndarray         # [S] path end
    distance: np.ndarray   # [S] path length hi - lo
    area: np.ndarray       # [S] strip width * layer thickness
    k_si: np.ndarray       # [S] layer conductivity
    slot: np.ndarray       # [S] flat index into a [pairs, max_strips] grid
    max_strips: int
    farm_rows: dict = field(default_factory=dict, repr=False)


@cache_by_identity
def strip_table(blocks: tuple[Block, ...], stack: Stack) -> StripTable:
    """Build the strip table once per (blocks, stack); farms do not enter it."""
    pairs = adjacent_block_pairs(blocks, stack.tech)
    strip = stack.tech.grid_cell
    rows = {"x": [], "y": []}   # (layer, line, lo, hi, distance, area, k_si, pair, index)
    for p, (a, b, axis) in enumerate(pairs):
        layer = stack.layers[a.layer]
        ax0, ay0, ax1, ay1 = a.rect
        bx0, by0, bx1, by1 = b.rect
        if axis == "x":
            span_lo, span_hi = max(ay0, by0), min(ay1, by1)
            lo, hi = sorted((a.center[0], b.center[0]))
        else:
            span_lo, span_hi = max(ax0, bx0), min(ax1, bx1)
            lo, hi = sorted((a.center[1], b.center[1]))
        distance = hi - lo
        if distance <= 0:
            raise ValueError(f"distance must be > 0, got {distance}")
        shared = span_hi - span_lo
        count = max(1, int(math.ceil(shared / strip - 1e-9)))
        width = shared / count
        rows[axis] += [(a.layer, span_lo + (i + 0.5) * width, lo, hi, distance,
                        width * layer.thickness, layer.material.conductivity, p, i)
                       for i in range(count)]
    cols = np.array(rows["x"] + rows["y"], dtype=float).reshape(-1, 9).T
    pair, index = cols[7].astype(int), cols[8].astype(int)
    max_strips = int(index.max()) + 1 if index.size else 1
    slot = pair * max_strips + index
    counts = np.array([len(rows["x"]), len(rows["y"])])
    for array in (cols, slot, counts):   # every caller gets these same arrays
        array.flags.writeable = False
    return StripTable(
        pairs=tuple(pairs), axis_counts=counts,
        layer=cols[0], line=cols[1], lo=cols[2], hi=cols[3],
        distance=cols[4], area=cols[5], k_si=cols[6],
        slot=slot, max_strips=max_strips)


def _farm_rows(table: StripTable, farm: TsvFarm) -> tuple[np.ndarray, np.ndarray]:
    """One farm's (seg / k_lateral, seg) over every strip: the resistive and
    the plain length of the strip's path that the farm blocks, 0 where it
    does not. Memoized per table on the farm's geometry and conductivity."""
    key = (farm.rect, farm.start_layer, farm.end_layer, farm.k_lateral)
    rows = table.farm_rows.get(key)
    if rows is None:
        if len(table.farm_rows) >= ROW_MEMO_ENTRIES:
            table.farm_rows.clear()
        across_lo, across_hi, along_lo, along_hi = np.repeat(
            np.array(farm.rect)[_PATH_COLUMNS].T, table.axis_counts, axis=1)
        seg = np.minimum(table.hi, along_hi) - np.maximum(table.lo, along_lo)
        hit = ((farm.start_layer <= table.layer) & (table.layer < farm.end_layer)
               & (across_lo <= table.line) & (table.line <= across_hi) & (seg > 0))
        seg = np.where(hit, seg, 0.0)
        rows = table.farm_rows[key] = (seg / farm.k_lateral, seg)
    return rows


def path_conductivity(table: StripTable, farms: tuple[TsvFarm, ...]) -> np.ndarray:
    """Composite conductivity of every strip's path, [S] W/(m K).

    The series (harmonic) combination along the path: farms crossed by the
    strip's centre line contribute their lateral conductivity over the
    crossed length, silicon the rest. A farm does not block on its landing
    layer. Farm segments accumulate in floorplan order, so every strip sees
    the same additions as a scalar walk over the farms would make; a
    candidate that moved one farm computes only that farm's rows.
    """
    crossing = np.zeros(len(table.line))
    farm_length = np.zeros(len(table.line))
    for farm in farms:
        resistive, length = _farm_rows(table, farm)
        crossing += resistive
        farm_length += length
    return table.distance / (crossing + (table.distance - farm_length) / table.k_si)


def pair_efficiency(table: StripTable, k_eff: np.ndarray) -> np.ndarray:
    """Conduction efficiency of every adjacent pair, integrated across its face.

    Strip efficiencies k*A/x are summed sequentially in face order, so a farm
    covering part of a face blocks exactly that part and uniform material
    collapses to the single-path k*A/x of the whole face.
    """
    grid = np.zeros(len(table.pairs) * table.max_strips)
    grid[table.slot] = conduction_efficiency(k_eff, table.area, table.distance)
    return np.cumsum(grid.reshape(len(table.pairs), table.max_strips), axis=1)[:, -1]


def total_efficiency(design: Design) -> float:
    """f_H: the sum of pair conduction efficiencies over adjacent block pairs."""
    table = strip_table(design.floorplan.blocks, design.stack)
    if not table.pairs:
        return 0.0
    terms = pair_efficiency(table, path_conductivity(table, design.floorplan.farms))
    # a left fold over the pairs, in pair order, keeps f_H bit-stable: Python
    # 3.12's sum() compensates, and may differ from it by an ulp
    return float(np.cumsum(terms)[-1])


@cache_by_identity
def _block_centers(blocks: tuple[Block, ...]) -> dict[str, tuple[float, float]]:
    centers: dict[str, tuple[float, float]] = {}
    for b in blocks:
        centers.setdefault(b.name, b.center)
    return centers


def wirelength(design: Design) -> float:
    """Total Manhattan distance from each farm center to its client block centers."""
    centers = _block_centers(design.floorplan.blocks)
    total = 0.0
    for farm in design.floorplan.farms:
        fx, fy = farm.center
        for client in farm.clients:
            try:
                cx, cy = centers[client]
            except KeyError:
                raise DesignError(f"net {farm.name!r} references unknown block {client!r}")
            total += abs(fx - cx) + abs(fy - cy)
    return total


def floorplan_area(floorplan: Floorplan) -> float:
    """Area of the bounding box of everything placed, across all layers."""
    x0, y0, x1, y1 = floorplan.bounding_box
    return (x1 - x0) * (y1 - y0)


def bounding_ratio(floorplan: Floorplan) -> float:
    x0, y0, x1, y1 = floorplan.bounding_box
    if y1 - y0 <= 0:
        return 1.0
    return (x1 - x0) / (y1 - y0)


def ratio_penalty(floorplan: Floorplan, ratio_target: float) -> float:
    """Absolute deviation of the bounding-box aspect ratio from the target."""
    if not floorplan.blocks and not floorplan.farms:
        return 0.0
    return abs(bounding_ratio(floorplan) - ratio_target)


def combine(weights: CostWeights, area: float, efficiency: float, ratio: float,
            wirelength_m: float) -> CostBreakdown:
    """Weighted sum of precomputed terms (pure; also the unit-test surface)."""
    total = (weights.area * area + weights.efficiency * efficiency
             + weights.ratio * ratio + weights.wirelength * wirelength_m)
    return CostBreakdown(area, efficiency, ratio, wirelength_m, total)


def cost(design: Design, weights: CostWeights) -> CostBreakdown:
    """All four objective terms plus their weighted total for one floorplan."""
    return combine(
        weights,
        floorplan_area(design.floorplan),
        total_efficiency(design),
        ratio_penalty(design.floorplan, weights.ratio_target),
        wirelength(design),
    )
