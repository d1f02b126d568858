"""Geometric and material description of a 3-D stack with movable TSV farms.

Farms are soft blocks: their aspect ratio may change (area conserved) and
they may be relocated, but they always occupy the same rectangle on every
layer they span (a vertical prism). Macro and peripheral blocks are fixed.
All values carried here are SI (m, W, K).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Block:
    name: str
    layer: int
    x: float
    y: float
    width: float
    height: float
    power: float = 0.0         # dynamic, W
    leakage_ref: float = 0.0   # W at leakage_tref
    kind: str = "macro"        # macro | peripheral

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2, self.y + self.height / 2)

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.x + self.width, self.y + self.height)


@dataclass(frozen=True)
class TsvFarm:
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

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2, self.y + self.height / 2)

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.x + self.width, self.y + self.height)

    def spans(self, layer: int) -> bool:
        return self.start_layer <= layer <= self.end_layer

    def blocks_laterally(self, layer: int) -> bool:
        # On the landing layer the vias connect into metal and the lateral
        # blockage disappears; start and pass-through layers keep it.
        return self.start_layer <= layer < self.end_layer


@dataclass(frozen=True)
class Net:
    farm: str
    clients: tuple[str, ...]


CACHE_ENTRIES = 16  # per cache_by_identity function; a full cache starts over
BLOCK_MEMO_ENTRIES = 4096  # in _block_hit's one memo; a full memo starts over


def cache_by_identity(fn):
    """Memoize fn on the identity of its arguments, which must be immutable.

    A candidate floorplan shares its blocks tuple and stack with the design
    it was derived from, so looking them up by id costs far less than
    hashing the frozen dataclasses. Each entry keeps its arguments alive, so
    an id cannot be reused while it is cached.
    """
    cache: dict = {}

    @functools.wraps(fn)
    def cached(*args):
        key = tuple(map(id, args))
        entry = cache.get(key)
        if entry is None:
            if len(cache) >= CACHE_ENTRIES:
                cache.clear()
            entry = cache[key] = (args, fn(*args))
        return entry[1]
    return cached


def _bounding_box_of(rects) -> tuple[float, float, float, float]:
    return (
        min(r[0] for r in rects),
        min(r[1] for r in rects),
        max(r[2] for r in rects),
        max(r[3] for r in rects),
    )


@cache_by_identity
def _bounding_box(blocks: tuple[Block, ...]) -> tuple[float, float, float, float]:
    """Bounding box of the fixed blocks; min/max are exact, so folding it into
    the farms' box gives the same floats as one pass over every rect."""
    return _bounding_box_of([b.rect for b in blocks])


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
        rects = [f.rect for f in self.farms]
        if self.blocks:
            rects.append(_bounding_box(self.blocks))
        if not rects:
            return (0.0, 0.0, 0.0, 0.0)
        return _bounding_box_of(rects)


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

    @property
    def nets(self) -> tuple[Net, ...]:
        return tuple(
            Net(f.name, f.clients) for f in self.floorplan.farms if f.clients
        )

    def with_floorplan(self, floorplan: Floorplan) -> "Design":
        return dataclasses.replace(self, floorplan=floorplan)


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    detail: str

    def __str__(self):
        return f"{self.entity}: {self.rule} ({self.detail})"


def rects_overlap(a, b, eps: float = 1e-12) -> bool:
    """Strict interior overlap; touching edges are legal.

    eps (meters) absorbs unit-conversion ulps so abutting rectangles whose
    shared edge differs in the last bit do not read as overlapping.
    """
    return (min(a[2], b[2]) - max(a[0], b[0]) > eps
            and min(a[3], b[3]) - max(a[1], b[1]) > eps)


def _inside_footprint(rect, stack: Stack, tol: float) -> bool:
    w, h = stack.footprint
    return rect[0] >= -tol and rect[1] >= -tol and rect[2] <= w + tol and rect[3] <= h + tol


def _layer_rects(fp: Floorplan, layer: int):
    """(name, rect) pairs occupying a layer; farms appear on every spanned layer."""
    out = [(b.name, b.rect) for b in fp.blocks if b.layer == layer]
    out += [(f.name, f.rect) for f in fp.farms if f.spans(layer)]
    return out


def validate(design: Design) -> list[Violation]:
    """Check every structural invariant; an empty list means the design is legal.

    Each bound is written so that NaN fails it.
    """
    v: list[Violation] = []
    stack, fp = design.stack, design.floorplan
    tech = stack.tech
    tol = 1e-12 * max(stack.footprint)

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
    if not tech.k_farm_min <= tech.k_farm_max:
        v.append(Violation("tech", "k-farm-range", "k_farm_min > k_farm_max"))

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
        rects = _layer_rects(fp, layer)
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if rects_overlap(rects[i][1], rects[j][1]):
                    v.append(Violation(
                        f"{rects[i][0]}+{rects[j][0]}", "no-overlap",
                        f"layer {layer}"))

    known = seen
    for net in design.nets:
        if len(net.clients) < 1:
            v.append(Violation(net.farm, "net-nonempty", "no clients"))
        for c in net.clients:
            if c not in known:
                v.append(Violation(net.farm, "net-resolves", f"unknown client {c!r}"))

    return v


def require_valid(design: Design) -> Design:
    """The design itself if validate finds nothing, else DesignError listing why."""
    violations = validate(design)
    if violations:
        raise DesignError("invalid design: " + "; ".join(str(v) for v in violations))
    return design


@cache_by_identity
def _block_rects_by_layer(blocks: tuple[Block, ...]) -> dict[int, list[tuple[Block, tuple]]]:
    """(block, rect) of the fixed blocks on each layer, in floorplan order."""
    out: dict[int, list[tuple[Block, tuple]]] = {}
    for b in blocks:
        out.setdefault(b.layer, []).append((b, b.rect))
    return out


class _BlockHits:
    """Memo of (start_layer, end_layer, rect) -> the first fixed block, layer
    by layer, that the farm prism overlaps, or None, for one blocks tuple at
    a time. Blocks never move, so an entry stays true while its tuple is the
    memo's; a run anneals one blocks tuple after another (a sweep, one per
    point), so a new tuple starts the memo over, and so does a full one."""

    def __init__(self):
        self.blocks: tuple[Block, ...] | None = None
        self.hits: dict = {}


_BLOCK_HITS = _BlockHits()


def _block_hit(blocks: tuple[Block, ...], start: int, end: int, rect) -> Block | None:
    memo = _BLOCK_HITS
    if memo.blocks is not blocks:
        memo.blocks = blocks
        memo.hits.clear()
    hits = memo.hits
    key = (start, end, rect)
    hit = hits.get(key, hits)   # the dict itself marks a miss
    if hit is not hits:
        return hit
    if len(hits) >= BLOCK_MEMO_ENTRIES:
        hits.clear()
    by_layer = _block_rects_by_layer(blocks)
    hits[key] = hit = next(
        (b for layer in range(start, end + 1) for b, block_rect in by_layer.get(layer, ())
         if rects_overlap(rect, block_rect)), None)
    return hit


def _place_farm(design: Design, index: int, x: float, y: float,
                width: float, height: float) -> Design:
    """Give farm `index` a new rectangle on all its layers.

    Raises InvalidMoveError if the rectangle leaves the footprint or
    collides on any spanned layer; the farm is only rebuilt once legal.
    """
    stack, fp = design.stack, design.floorplan
    farm = fp.farms[index]
    start, end = farm.start_layer, farm.end_layer
    rect = (x, y, x + width, y + height)
    tol = 1e-12 * max(stack.footprint)
    if not _inside_footprint(rect, stack, tol):
        raise InvalidMoveError(f"{farm.name}: leaves footprint")
    hit = _block_hit(fp.blocks, start, end, rect)
    if hit is not None:
        raise InvalidMoveError(f"{farm.name}: overlaps {hit.name} on layer {hit.layer}")
    for k, other in enumerate(fp.farms):
        if (k != index and other.start_layer <= end and start <= other.end_layer
                and rects_overlap(rect, other.rect)):
            raise InvalidMoveError(f"{farm.name}: overlaps {other.name} on layer "
                                   f"{max(start, other.start_layer)}")
    candidate = TsvFarm(farm.name, x, y, width, height, start, end, farm.k_lateral,
                        farm.k_metal, farm.area, farm.clients)
    farms = fp.farms[:index] + (candidate,) + fp.farms[index + 1:]
    return Design(stack, Floorplan(fp.blocks, farms), design.materials)


def _farm_index(floorplan: Floorplan, farm: str | int) -> int:
    return farm if isinstance(farm, int) else floorplan.farm_index(farm)


def reshape_farm(design: Design, farm: str | int, ratio: float) -> Design:
    """Change a farm's aspect ratio, conserving area, anchored at the lower-left.

    The farm is given by name or by its index in the floorplan's farms.
    Raises InvalidMoveError if the reshaped rectangle leaves the footprint or
    collides on any spanned layer.
    """
    index = _farm_index(design.floorplan, farm)
    farm = design.floorplan.farms[index]
    if not any(abs(ratio - r) <= 1e-9 * r for r in design.stack.tech.aspect_ratios):
        raise InvalidMoveError(f"{farm.name}: ratio {ratio} not a configured candidate")
    width = math.sqrt(farm.area * ratio)
    height = math.sqrt(farm.area / ratio)
    return _place_farm(design, index, farm.x, farm.y, width, height)


def move_farm(design: Design, farm: str | int, origin: tuple[float, float]) -> Design:
    """Translate a farm, given by name or by index, to a new lower-left origin
    on all spanned layers.

    Raises InvalidMoveError on footprint exit or overlap on any spanned layer.
    """
    index = _farm_index(design.floorplan, farm)
    farm = design.floorplan.farms[index]
    return _place_farm(design, index, origin[0], origin[1], farm.width, farm.height)
