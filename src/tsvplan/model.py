"""Geometric and material description of a 3-D stack with movable TSV farms.

Farms are soft blocks: their aspect ratio may change (area conserved) and
they may be relocated, but they always occupy the same rectangle on every
layer they span (a vertical prism). Macro and peripheral blocks are fixed.
All values carried here are SI (m, W, K).

The legality functions take one rectangle at a time and keep no state;
the search context (anneal.Evaluator) keeps what they find for a run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DesignError, InvalidMoveError

MIN_LAYER_THICKNESS = 10e-6
MAX_LAYER_THICKNESS = 800e-6

DEFAULT_ASPECT_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)

# Bulk conductivities in W/(m K) for the materials that show up in a stack.
DEFAULT_MATERIALS = {
    "copper": 401.0,
    "tungsten": 173.0,
    "silicon": 149.0,
    "polysilicon": 23.1,
    "tim": 5.0,
    "sio2": 1.38,
    "adhesive": 0.29,
}


@dataclass(frozen=True)
class Material:
    name: str
    conductivity: float  # W/(m K)


@dataclass(frozen=True)
class TechnologyParams:
    """Process/package parameters, one block per design file."""

    footprint_width: float
    footprint_height: float
    grid_cell: float
    ambient: float                 # K
    package_resistance: float      # K/W, lumped bottom-layer path to ambient
    k_farm_min: float = 0.5
    k_farm_max: float = 5.0
    aspect_ratios: tuple[float, ...] = DEFAULT_ASPECT_RATIOS
    leakage_coeff: float = 0.0     # 1/K, slope of leakage vs block temperature
    leakage_tref: float = 298.15   # K
    adjacency_window: float | None = None  # defaults to grid_cell
    bond_thickness: float = 0.0    # >0 adds a series interface resistance
    bond_conductivity: float = 0.29


@dataclass(frozen=True)
class Layer:
    index: int
    thickness: float
    material: Material


class Rectangle:
    """An axis-aligned rectangle, from the x, y (lower-left corner), width
    and height fields of a subclass."""

    __slots__ = ()

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2, self.y + self.height / 2)

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.x + self.width, self.y + self.height)


@dataclass(frozen=True)
class Block(Rectangle):
    name: str
    layer: int
    x: float
    y: float
    width: float
    height: float
    power: float = 0.0         # dynamic, W
    leakage_ref: float = 0.0   # W at leakage_tref
    kind: str = "macro"        # macro | peripheral


@dataclass(frozen=True)
class TsvFarm(Rectangle):
    name: str
    x: float
    y: float
    width: float
    height: float
    start_layer: int
    end_layer: int             # inclusive; the landing layer
    k_lateral: float           # W/(m K), homogenized in-plane conductivity
    k_metal: float             # W/(m K), vertical via-metal conductivity
    area: float                # conserved under reshape
    clients: tuple[str, ...] = ()

    def placed(self, x: float, y: float, width: float, height: float) -> "TsvFarm":
        """This farm in another rectangle, every other field kept."""
        return TsvFarm(self.name, x, y, width, height, self.start_layer, self.end_layer,
                       self.k_lateral, self.k_metal, self.area, self.clients)

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    def spans(self, layer: int) -> bool:
        return self.start_layer <= layer <= self.end_layer

    def blocks_laterally(self, layer: int) -> bool:
        # On the landing layer the vias connect into metal and the lateral
        # blockage disappears; start and pass-through layers keep it.
        return self.start_layer <= layer < self.end_layer


RECT_EPS = 1e-12  # m; see rects_overlap


def bounding_box_of(rects) -> tuple[float, float, float, float]:
    """Bounding box of the sequence rects, (0, 0, 0, 0) when there are none.
    Each bound is the one min or max gives, exact, so a box folded in as
    one rect gives the same floats as its rects would."""
    if not rects:
        return (0.0, 0.0, 0.0, 0.0)
    x0, y0, x1, y1 = rects[0]
    for rx0, ry0, rx1, ry1 in rects:   # min and max, unrolled
        x0, y0 = (rx0 if rx0 < x0 else x0), (ry0 if ry0 < y0 else y0)
        x1, y1 = (rx1 if rx1 > x1 else x1), (ry1 if ry1 > y1 else y1)
    return x0, y0, x1, y1


@dataclass(frozen=True)
class Floorplan:
    """Placement state: fixed blocks plus movable farms. Immutable snapshot."""

    blocks: tuple[Block, ...]
    farms: tuple[TsvFarm, ...]

    def farm_index(self, name: str) -> int:
        for i, f in enumerate(self.farms):
            if f.name == name:
                return i
        raise KeyError(name)

    def farm(self, name: str) -> TsvFarm:
        return self.farms[self.farm_index(name)]

    @functools.cached_property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """Bounding box of everything placed, computed once per floorplan."""
        return bounding_box_of([f.rect for f in self.farms] + [b.rect for b in self.blocks])


@dataclass(frozen=True)
class Stack:
    layers: tuple[Layer, ...]
    tech: TechnologyParams

    @property
    def footprint(self) -> tuple[float, float]:
        return (self.tech.footprint_width, self.tech.footprint_height)

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Design:
    stack: Stack
    floorplan: Floorplan
    materials: tuple[Material, ...] = ()

    def with_floorplan(self, floorplan: Floorplan) -> "Design":
        return dataclasses.replace(self, floorplan=floorplan)


class Violation(NamedTuple):
    entity: str
    rule: str
    detail: str

    def __str__(self):
        return f"{self.entity}: {self.rule} ({self.detail})"


def rects_overlap(a, b) -> bool:
    """Strict interior overlap; touching edges are legal.

    RECT_EPS absorbs unit-conversion ulps so abutting rectangles whose
    shared edge differs in the last bit do not read as overlapping.
    """
    return (min(a[2], b[2]) - max(a[0], b[0]) > RECT_EPS
            and min(a[3], b[3]) - max(a[1], b[1]) > RECT_EPS)


def _footprint_tol(stack: Stack) -> float:
    return 1e-12 * max(stack.footprint)


def _inside_footprint(rect, stack: Stack, tol: float) -> bool:
    w, h = stack.footprint
    return rect[0] >= -tol and rect[1] >= -tol and rect[2] <= w + tol and rect[3] <= h + tol


def validate(design: Design) -> list[Violation]:
    """Check every structural invariant; an empty list means the design is legal.

    Each bound is written so that NaN fails it.
    """
    v: list[Violation] = []
    stack, fp = design.stack, design.floorplan
    tech = stack.tech
    tol = _footprint_tol(stack)

    if not (tech.footprint_width > 0 and tech.footprint_height > 0):
        v.append(Violation("tech", "footprint-positive", "footprint must be > 0"))
    if not tech.grid_cell > 0:
        v.append(Violation("tech", "grid-cell-positive", "grid_cell must be > 0"))
    if not tech.ambient > 0:
        v.append(Violation("tech", "ambient-positive", "ambient must be > 0 K"))
    if not tech.package_resistance > 0:
        v.append(Violation("tech", "package-resistance-positive",
                           f"package_resistance={tech.package_resistance}"))
    if not 0 <= tech.leakage_coeff < math.inf:
        v.append(Violation("tech", "leakage-coeff-range",
                           f"leakage_coeff={tech.leakage_coeff} must be finite and >= 0"))
    if not 0 < tech.k_farm_min <= tech.k_farm_max < math.inf:
        v.append(Violation("tech", "k-farm-range",
                           f"k_farm_min={tech.k_farm_min}, k_farm_max={tech.k_farm_max} "
                           "must satisfy 0 < min <= max < inf"))
    if not all(0 < r < math.inf for r in tech.aspect_ratios):
        v.append(Violation("tech", "aspect-ratios-positive",
                           f"aspect_ratios={tech.aspect_ratios}: each must be finite and > 0"))
    if not 0 <= tech.bond_thickness < math.inf:
        v.append(Violation("tech", "bond-thickness-range",
                           f"bond_thickness={tech.bond_thickness} must be finite and >= 0"))
    if not 0 < tech.bond_conductivity < math.inf:
        v.append(Violation("tech", "bond-conductivity-positive",
                           f"bond_conductivity={tech.bond_conductivity} must be finite and > 0"))
    if not 0 < tech.leakage_tref < math.inf:
        v.append(Violation("tech", "leakage-tref-positive",
                           f"leakage_tref={tech.leakage_tref} must be finite and > 0 K"))
    if tech.adjacency_window is not None and not 0 < tech.adjacency_window < math.inf:
        v.append(Violation("tech", "adjacency-window-positive",
                           f"adjacency_window={tech.adjacency_window} must be finite and > 0"))

    for m in design.materials:
        if not m.conductivity > 0:
            v.append(Violation(m.name, "conductivity-positive", f"k={m.conductivity}"))
    names = [m.name for m in design.materials]
    for name in sorted({n for n in names if names.count(n) > 1}):
        v.append(Violation(name, "material-name-unique", "duplicate material"))

    for i, layer in enumerate(stack.layers):
        if layer.index != i:
            v.append(Violation(f"layer{layer.index}", "layer-index-contiguous",
                               f"expected index {i}"))
        # 1e-9 relative slack: unit conversion may land one ulp off the bound
        if not (MIN_LAYER_THICKNESS * (1 - 1e-9) <= layer.thickness
                <= MAX_LAYER_THICKNESS * (1 + 1e-9)):
            v.append(Violation(f"layer{layer.index}", "layer-thickness-range",
                               f"{layer.thickness} m outside [10um, 800um]"))
        if not layer.material.conductivity > 0:
            v.append(Violation(f"layer{layer.index}", "conductivity-positive",
                               f"{layer.material.name} k={layer.material.conductivity}"))

    seen: set[str] = set()
    for e in list(fp.blocks) + list(fp.farms):
        if e.name in seen:
            v.append(Violation(e.name, "name-unique", "duplicate block/farm name"))
        seen.add(e.name)

    for b in fp.blocks:
        if not (b.width > 0 and b.height > 0):
            v.append(Violation(b.name, "size-positive", f"{b.width}x{b.height}"))
        if not 0 <= b.power < math.inf:
            v.append(Violation(b.name, "power-nonnegative", f"{b.power} W"))
        if not 0 <= b.leakage_ref < math.inf:
            v.append(Violation(b.name, "leakage-nonnegative", f"{b.leakage_ref} W"))
        if b.kind not in ("macro", "peripheral"):
            v.append(Violation(b.name, "kind-valid", b.kind))
        if not (0 <= b.layer < stack.num_layers):
            v.append(Violation(b.name, "layer-exists", f"layer {b.layer}"))
        elif not _inside_footprint(b.rect, stack, tol):
            v.append(Violation(b.name, "inside-footprint", f"rect {b.rect}"))

    for f in fp.farms:
        if not (f.width > 0 and f.height > 0):
            v.append(Violation(f.name, "size-positive", f"{f.width}x{f.height}"))
        if f.start_layer > f.end_layer:
            v.append(Violation(f.name, "layer-span-order",
                               f"start {f.start_layer} > end {f.end_layer}"))
        if not (0 <= f.start_layer < stack.num_layers and 0 <= f.end_layer < stack.num_layers):
            v.append(Violation(f.name, "layer-exists",
                               f"span [{f.start_layer}, {f.end_layer}]"))
        if not f.area > 0:
            v.append(Violation(f.name, "area-positive", f"{f.area} m^2"))
        elif abs(f.width * f.height - f.area) > 1e-9 * f.area:
            v.append(Violation(f.name, "area-conserved",
                               f"w*h={f.width * f.height} != area={f.area}"))
        if f.height > 0 and not any(
            abs(f.aspect_ratio - r) <= 1e-6 * r for r in tech.aspect_ratios
        ):
            v.append(Violation(f.name, "aspect-ratio-candidate",
                               f"{f.aspect_ratio} not in {tech.aspect_ratios}"))
        if not (f.k_lateral > 0 and f.k_metal > 0):
            v.append(Violation(f.name, "conductivity-positive",
                               f"k_lateral={f.k_lateral} k_metal={f.k_metal}"))
        if not _inside_footprint(f.rect, stack, tol):
            v.append(Violation(f.name, "inside-footprint", f"rect {f.rect}"))

    for layer in range(stack.num_layers):
        # (name, rect) pairs on the layer; a farm is on every layer it spans
        rects = ([(b.name, b.rect) for b in fp.blocks if b.layer == layer]
                 + [(f.name, f.rect) for f in fp.farms if f.spans(layer)])
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if rects_overlap(rects[i][1], rects[j][1]):
                    v.append(Violation(
                        f"{rects[i][0]}+{rects[j][0]}", "no-overlap",
                        f"layer {layer}"))

    for f in fp.farms:
        for c in f.clients:
            if c not in seen:
                v.append(Violation(f.name, "net-resolves", f"unknown client {c!r}"))

    return v


def require_valid(design: Design) -> Design:
    """The design itself if validate finds nothing, else DesignError listing why."""
    violations = validate(design)
    if violations:
        raise DesignError("invalid design: " + "; ".join(str(v) for v in violations))
    return design


def fixed_conflict(stack: Stack, blocks: tuple[Block, ...], start: int, end: int,
                   rect) -> str | None:
    """Why a farm prism on layers start..end cannot take `rect` whatever the
    other farms are, or None: it leaves the footprint or overlaps a block
    (the first, layer by layer, in floorplan order)."""
    if not _inside_footprint(rect, stack, _footprint_tol(stack)):
        return "leaves footprint"
    for layer in range(start, end + 1):
        for b in blocks:
            if b.layer == layer and rects_overlap(rect, b.rect):
                return f"overlaps {b.name} on layer {layer}"
    return None


def farm_neighbours(farms: tuple[TsvFarm, ...], index: int) -> tuple:
    """(k, name, first shared layer) of every other farm k that shares a layer
    with farm `index`, in floorplan order; farms never change layers."""
    start, end = farms[index].start_layer, farms[index].end_layer
    return tuple((k, other.name, max(start, other.start_layer))
                 for k, other in enumerate(farms)
                 if k != index and other.start_layer <= end and start <= other.end_layer)


def farm_overlap(neighbours: tuple, farms, rect) -> str | None:
    """Why a farm cannot take `rect` for one of its farm_neighbours k, at
    farms[k].rect, or None if none is in the way."""
    x0, y0, x1, y1 = rect
    # rects_overlap inlined: a min minus a max rounds to the least of the
    # four differences it may pick, so each is compared to RECT_EPS; the
    # rect's own two are the same for every neighbour
    if not (x1 - x0 > RECT_EPS and y1 - y0 > RECT_EPS):
        return None
    for k, name, layer in neighbours:
        ox0, oy0, ox1, oy1 = farms[k].rect
        if (x1 - ox0 > RECT_EPS and ox1 - x0 > RECT_EPS and ox1 - ox0 > RECT_EPS
                and y1 - oy0 > RECT_EPS and oy1 - y0 > RECT_EPS and oy1 - oy0 > RECT_EPS):
            return f"overlaps {name} on layer {layer}"
    return None


def origin_lattice(stack: Stack, width: float, height: float, cell: float) -> tuple[int, int]:
    """(nx, ny): the grid-aligned origins (ix * cell, iy * cell), ix < nx and
    iy < ny, that a width x height farm may be moved to; 0 when it cannot fit."""
    fw, fh = stack.footprint
    return (max(math.floor((fw - width) / cell + 1e-9) + 1, 0),
            max(math.floor((fh - height) / cell + 1e-9) + 1, 0))


def legal_origins(stack: Stack, blocks: tuple[Block, ...], width: float, height: float,
                  start: int, end: int, cell: float) -> np.ndarray:
    """Flat indices ix * ny + iy of the origin_lattice points where a width x
    height prism on layers start..end passes fixed_conflict, read-only.

    It is fixed_conflict vectorized: the same floats (ix * cell, x +
    width), comparisons and eps, so a raster cell is legal exactly when the
    scalar check passes.
    """
    nx, ny = origin_lattice(stack, width, height, cell)
    fw, fh = stack.footprint
    tol = _footprint_tol(stack)
    x0, y0 = np.arange(nx) * cell, np.arange(ny) * cell
    x1, y1 = x0 + width, y0 + height
    free = np.outer((x0 >= -tol) & (x1 <= fw + tol), (y0 >= -tol) & (y1 <= fh + tol))
    for b in blocks:
        if start <= b.layer <= end:
            bx0, by0, bx1, by1 = b.rect
            free &= ~np.outer(np.minimum(x1, bx1) - np.maximum(x0, bx0) > RECT_EPS,
                              np.minimum(y1, by1) - np.maximum(y0, by0) > RECT_EPS)
    flat = np.flatnonzero(free)
    flat.flags.writeable = False
    return flat


def _place_farm(design: Design, index: int, x: float, y: float,
                width: float, height: float) -> Design:
    """Give farm `index` a new rectangle on all its layers.

    The one legality rule of a farm rectangle: InvalidMoveError with
    fixed_conflict's reason, else with farm_overlap's; the farm is only
    rebuilt once legal.
    """
    fp, rect = design.floorplan, (x, y, x + width, y + height)
    farms = list(fp.farms)
    farm = farms[index]
    reason = fixed_conflict(design.stack, fp.blocks, farm.start_layer, farm.end_layer, rect)
    if reason is None:
        reason = farm_overlap(farm_neighbours(fp.farms, index), fp.farms, rect)
    if reason is not None:
        raise InvalidMoveError(f"{farm.name}: {reason}")
    farms[index] = farm.placed(x, y, width, height)
    return design.with_floorplan(Floorplan(fp.blocks, tuple(farms)))


def reshape_farm(design: Design, farm: str, ratio: float) -> Design:
    """Change the named farm's aspect ratio, conserving area, anchored at the
    lower-left.

    Raises InvalidMoveError if the reshaped rectangle leaves the footprint or
    collides on any spanned layer.
    """
    index = design.floorplan.farm_index(farm)
    farm = design.floorplan.farms[index]
    if not any(abs(ratio - r) <= 1e-9 * r for r in design.stack.tech.aspect_ratios):
        raise InvalidMoveError(f"{farm.name}: ratio {ratio} not a configured candidate")
    width = math.sqrt(farm.area * ratio)
    height = math.sqrt(farm.area / ratio)
    return _place_farm(design, index, farm.x, farm.y, width, height)


def move_farm(design: Design, farm: str, origin: tuple[float, float]) -> Design:
    """Translate the named farm to a new lower-left origin on all spanned layers.

    Raises InvalidMoveError on footprint exit or overlap on any spanned layer.
    """
    index = design.floorplan.farm_index(farm)
    farm = design.floorplan.farms[index]
    return _place_farm(design, index, origin[0], origin[1], farm.width, farm.height)
