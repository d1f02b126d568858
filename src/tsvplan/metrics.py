"""Objective terms for the placement search and their weighted combination.

The search minimizes

    total = area_w * bbox_area + efficiency_w * f_H + ratio_w * R + wirelength_w * W

with efficiency_w < 0 so that better lateral heat conduction lowers the cost.
f_H sums the per-unit-temperature conduction of adjacent same-layer block
pairs; a farm sitting in the corridor between two blocks drags the pair's
composite conductivity down, which is exactly what the optimizer pushes
against.
Geometry stays in integer nanometres; each term is formed in float SI
units: f_H in W/K, area in m^2, wirelength in m.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DesignError
from .model import (Block, Design, Floorplan, Stack, TechnologyParams, TsvFarm,
                    bounding_box_of)
from .units import metres


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
    def calibrated(cls, design: Design, initial: "CostBreakdown",
                   average: float) -> "CostWeights":
        """Derive default weights from the initial state: the design, its
        UNWEIGHTED cost breakdown (the fold the search prices) and its solved
        average temperature, K.

        The anchor is the efficiency equivalent of one kelvin of average
        temperature at the initial floorplan; a 1% area or wirelength
        increase is priced at that same anchor, so thermal gains cannot buy
        more than a percent-scale overhead. The ratio weight scales the
        (dimensionless) aspect deviation by the footprint-area cost.
        """
        f_h, area0, wl0 = initial.efficiency, initial.area, initial.wirelength
        rise = max(average - design.stack.tech.ambient, 1.0)
        anchor = f_h / rise if f_h > 0 else 1.0
        area_w = anchor / (0.01 * area0) if area0 > 0 else 0.0
        wl_w = anchor / (0.01 * wl0) if wl0 > 0 else 0.0
        footprint_area = metres(design.stack.tech.footprint_width
                                * design.stack.tech.footprint_height, 2)
        return cls(area=area_w, efficiency=-1.0, ratio=area_w * footprint_area,
                   wirelength=wl_w, ratio_target=_box_ratio(design.floorplan.bounding_box))


# the weighting that prices nothing: its breakdown holds the bare terms
UNWEIGHTED = CostWeights(0.0, 0.0, 0.0, 0.0)


class CostBreakdown(NamedTuple):   # a tuple: built per priced candidate, it is cheap
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


class _Face(NamedTuple):
    """An adjacent pair's shared face, split into grid-cell-wide strips; a
    strip's path runs between the two block centres along its centre line.
    Coordinates are in nm."""

    layer: int
    across: int        # rect index of the coordinate across the path: 1 (y) on x-paths
    lo: float          # path start, the lower block-centre coordinate
    hi: float          # path end
    distance: float    # path length hi - lo, m
    area: float        # strip width * layer thickness, m^2
    k_si: float        # layer conductivity
    lines: tuple       # strip centre lines, across the path, ascending


class StripTable(NamedTuple):
    """The f_H strips of a design, face by face: everything the fixed blocks
    determine. `free` holds each pair's farm-free term."""

    pairs: tuple[tuple[Block, Block, str], ...]
    faces: tuple[_Face, ...]
    free: tuple[float, ...]


def strip_table(blocks: tuple[Block, ...], stack: Stack) -> StripTable:
    """The strip table of the fixed blocks; farms do not enter it."""
    pairs = adjacent_block_pairs(blocks, stack.tech)
    faces = []
    for a, b, axis in pairs:
        layer = stack.layers[a.layer]
        ax0, ay0, ax1, ay1 = a.rect
        bx0, by0, bx1, by1 = b.rect
        if axis == "x":
            span_lo, span_hi = max(ay0, by0), min(ay1, by1)
            lo, hi = sorted((a.center[0], b.center[0]))
        else:
            span_lo, span_hi = max(ax0, bx0), min(ax1, bx1)
            lo, hi = sorted((a.center[1], b.center[1]))
        if hi <= lo:
            raise ValueError(f"distance must be > 0, got {metres(hi - lo)} m")
        shared = span_hi - span_lo
        count = max(1, -(-shared // stack.tech.grid_cell))   # strips no wider than a cell
        width = shared / count
        faces.append(_Face(a.layer, int(axis == "x"), lo, hi, metres(hi - lo),
                           metres(width * layer.thickness, 2), layer.material.conductivity,
                           tuple(span_lo + (i + 0.5) * width for i in range(count))))
    return StripTable(tuple(pairs), tuple(faces), tuple(face_term(f, ()) for f in faces))


def path_conductivity(table: StripTable, farms: tuple[TsvFarm, ...]) -> np.ndarray:
    """Composite conductivity of every strip's path, [S] W/(m K), face by
    face: the dense formula that total_efficiency folds hit by hit.

    The series (harmonic) combination along the path: farms crossed by the
    strip's centre line contribute their lateral conductivity over the
    crossed length, silicon the rest. A farm does not block on its landing
    layer. Every farm's segment, 0.0 if it misses, is added in floorplan order.
    """
    paths = []
    for face in table.faces:
        lines, a = np.array(face.lines), face.across
        crossing, farm_length = np.zeros(len(lines)), np.zeros(len(lines))
        for farm in farms:
            rect = farm.rect
            seg = metres(min(face.hi, rect[3 - a]) - max(face.lo, rect[1 - a]))
            hit = (farm.blocks_laterally(face.layer) & (seg > 0)
                   & (rect[a] <= lines) & (lines <= rect[a + 2]))
            crossing += np.where(hit, seg, 0.0) / farm.k_lateral
            farm_length += np.where(hit, seg, 0.0)
        paths.append(face.distance / (crossing + (face.distance - farm_length) / face.k_si))
    return np.concatenate(paths) if paths else np.zeros(0)


def pair_efficiency(table: StripTable, k_eff: np.ndarray) -> np.ndarray:
    """Conduction efficiency of every adjacent pair, integrated across its face.

    Strip efficiencies k*A/x are summed sequentially in face order, so a farm
    covering part of a face blocks exactly that part and uniform material
    collapses to the single-path k*A/x of the whole face.
    """
    ends = np.cumsum([len(face.lines) for face in table.faces], dtype=int)
    return np.array([np.cumsum(conduction_efficiency(k_eff[end - len(face.lines):end],
                                                     face.area, face.distance))[-1]
                     for face, end in zip(table.faces, ends)])


def blocked_faces(table: StripTable, farm: TsvFarm) -> tuple[int, ...]:
    """The faces a farm blocks, those on the layers it blocks_laterally, in
    pair order."""
    return tuple(p for p, face in enumerate(table.faces) if farm.blocks_laterally(face.layer))


def farm_hits(table: StripTable, faces: tuple, k_lateral: float, box) -> tuple:
    """The strips a farm of lateral conductivity k_lateral in box (x0, y0,
    x1, y1) blocks on its blocked_faces, one hit (pair, first, stop,
    seg / k_lateral, seg) per blocked pair, in pair order: strips
    first..stop-1 of the pair lose seg metres of their path to the farm."""
    hits = []
    for p in faces:
        _, a, lo, hi, _, _, _, lines = table.faces[p]
        if box[a] > lines[-1] or box[a + 2] < lines[0]:
            continue   # no centre line in the box's span: first < stop would fail
        seg = min(hi, box[3 - a]) - max(lo, box[1 - a])
        if not seg > 0:
            continue
        first = bisect_left(lines, box[a])
        stop = bisect_right(lines, box[a + 2])
        if first < stop:
            seg = metres(seg)
            hits.append((p, first, stop, seg / k_lateral, seg))
    return tuple(hits)


def face_term(face: _Face, hits: tuple) -> float:
    """One pair's efficiency with the farms of `hits` (same-pair hits, in
    floorplan order) on its face: path_conductivity's and pair_efficiency's
    arithmetic strip by strip. A farm that misses a strip adds 0.0 to it
    there, which changes no bit, so only hits are added."""
    crossing = [0.0] * len(face.lines)
    length = crossing.copy()
    for _, first, stop, resistive, seg in hits:
        for i in range(first, stop):
            crossing[i] += resistive
            length[i] += seg
    distance, k_si, area = face.distance, face.k_si, face.area
    term = 0.0
    for resistive, seg in zip(crossing, length):
        # conduction_efficiency(k_eff, area, distance), inlined
        term += distance / (resistive + (distance - seg) / k_si) * area / distance
    return term


def fold_efficiency(table: StripTable, hits_by_farm, term) -> float:
    """f_H from each farm's farm_hits, in floorplan order, bit for bit
    pair_efficiency over path_conductivity. A pair no farm blocks takes its
    farm-free term, a blocked one term(its face, its hits): face_term, or a
    memo of it."""
    if not table.pairs:
        return 0.0
    blocked: dict[int, tuple] = {}
    for hits in hits_by_farm:
        for hit in hits:
            blocked[hit[0]] = blocked.get(hit[0], ()) + (hit,)
    terms = list(table.free)
    for p, hits in blocked.items():
        terms[p] = term(table.faces[p], hits)
    # a left fold in pair order keeps f_H bit-stable (3.12's sum() compensates,
    # and may differ by an ulp); 0.0 adds no bit to the positive first term
    total = 0.0
    for value in terms:
        total += value
    return total


def total_efficiency(design: Design) -> float:
    """f_H: the sum of pair conduction efficiencies over adjacent block pairs."""
    return cost(design, UNWEIGHTED).efficiency


def block_centers(blocks: tuple[Block, ...]) -> dict[str, tuple[float, float]]:
    centers: dict[str, tuple[float, float]] = {}
    for b in blocks:
        centers.setdefault(b.name, b.center)
    return centers


def client_terms(centers: dict, farm: TsvFarm, center) -> tuple:
    """The Manhattan distance from a centre of the farm to each of its
    clients' centres."""
    fx, fy = center
    try:
        return tuple(abs(fx - centers[c][0]) + abs(fy - centers[c][1]) for c in farm.clients)
    except KeyError as missing:
        raise DesignError(f"net {farm.name!r} references unknown block "
                          f"{missing.args[0]!r}") from None


def _fold_wirelength(terms_by_farm) -> float:
    """The total of client_terms, in m. Each term is a whole or half
    nanometre, so the sum is exact in any order."""
    return metres(sum(map(sum, terms_by_farm)))


def wirelength(design: Design) -> float:
    """Total Manhattan distance from each farm center to its client block
    centers, in m."""
    centers = block_centers(design.floorplan.blocks)
    return _fold_wirelength([client_terms(centers, f, f.center) for f in design.floorplan.farms])


def _box_area(box) -> float:
    """A box's area in m^2."""
    x0, y0, x1, y1 = box
    return metres((x1 - x0) * (y1 - y0), 2)


def _box_ratio(box) -> float:
    x0, y0, x1, y1 = box
    if y1 - y0 <= 0:
        return 1.0
    return (x1 - x0) / (y1 - y0)


def _box_penalty(box, placed: bool, ratio_target: float) -> float:
    """Absolute deviation of the box's aspect ratio from the target; 0 when
    nothing is placed."""
    return abs(_box_ratio(box) - ratio_target) if placed else 0.0


def floorplan_area(floorplan: Floorplan) -> float:
    """Area of the bounding box of everything placed, across all layers, in m^2."""
    return _box_area(floorplan.bounding_box)


def ratio_penalty(floorplan: Floorplan, ratio_target: float) -> float:
    """Absolute deviation of the bounding-box aspect ratio from the target."""
    return _box_penalty(floorplan.bounding_box, bool(floorplan.blocks or floorplan.farms),
                        ratio_target)


def combine(weights: CostWeights, area: float, efficiency: float, ratio: float,
            wirelength_m: float) -> CostBreakdown:
    """Weighted sum of precomputed terms (pure; also the unit-test surface)."""
    total = (weights.area * area + weights.efficiency * efficiency
             + weights.ratio * ratio + weights.wirelength * wirelength_m)
    return CostBreakdown(area, efficiency, ratio, wirelength_m, total)


class FarmRow:
    """What one farm, in its rect (x0, y0, x1, y1), adds to the cost terms:
    its farm_hits, for f_H, and its client_terms, for the wirelength. A
    search context makes one per farm and rect, so a row hashes and compares
    by identity."""

    __slots__ = ("rect", "hits", "wires")

    def __init__(self, rect: tuple, hits: tuple, wires: tuple):
        self.rect, self.hits, self.wires = rect, hits, wires


def farm_row(table: StripTable, centers: dict, farm: TsvFarm, faces: tuple,
             rect: tuple) -> FarmRow:
    """The row of a farm, its fixed fields and blocked_faces, in rect (x0,
    y0, x1, y1); the farm's own rectangle is not read."""
    x0, y0, x1, y1 = rect
    return FarmRow(rect, farm_hits(table, faces, farm.k_lateral, rect),
                   client_terms(centers, farm, ((x0 + x1) / 2, (y0 + y1) / 2)))


def price(weights: CostWeights, table: StripTable, rows, fixed: list,
          term) -> CostBreakdown:
    """All four objective terms and their weighted total, folded from each
    farm's row in floorplan order and the fixed blocks' rects (or their
    bounding box); term as in fold_efficiency."""
    rects = [row.rect for row in rows] + fixed
    box = bounding_box_of(rects)
    return combine(weights, _box_area(box),
                   fold_efficiency(table, [row.hits for row in rows], term),
                   _box_penalty(box, bool(rects), weights.ratio_target),
                   _fold_wirelength([row.wires for row in rows]))


def cost(design: Design, weights: CostWeights) -> CostBreakdown:
    """All four objective terms plus their weighted total for one floorplan."""
    fp = design.floorplan
    table = strip_table(fp.blocks, design.stack)
    centers = block_centers(fp.blocks)
    return price(weights, table,
                 [farm_row(table, centers, f, blocked_faces(table, f), f.rect) for f in fp.farms],
                 [b.rect for b in fp.blocks], face_term)
