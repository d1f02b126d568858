"""Parameter sweeps: memory-layer count and farm conductivity.

Each sweep point runs the full optimization on a transformed copy of the
design with a seed derived as base seed + point index, so points are
independent and reproducible (and safe to run concurrently).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .anneal import AnnealConfig, FlowConfig, optimize_stack
from .errors import DesignError, SolverError
from .model import Design, Floorplan, Layer, Stack


def set_farm_conductivity(design: Design, k_lateral: float) -> Design:
    """Override the lateral conductivity of every farm."""
    if k_lateral <= 0:
        raise DesignError(f"farm conductivity must be > 0, got {k_lateral}")
    farms = tuple(dataclasses.replace(f, k_lateral=k_lateral)
                  for f in design.floorplan.farms)
    return design.with_floorplan(
        dataclasses.replace(design.floorplan, farms=farms))


def with_memory_layers(design: Design, count: int) -> Design:
    """Resize the stack to `count` stacked layers above the base layer.

    Layer 0 is the core layer; the current top layer is the template that
    gets cloned upward (blocks renamed name_m<i>). Farms landing on the old
    top extend to the new top; shrinking truncates spans and drops blocks
    on removed layers.
    """
    if count < 1:
        raise DesignError("need at least one stacked layer")
    current = design.stack.num_layers - 1
    if current < 1:
        raise DesignError("layer sweep needs a design with >= 2 layers")
    if count == current:
        return design

    layers = list(design.stack.layers)
    blocks = list(design.floorplan.blocks)
    farms = list(design.floorplan.farms)
    old_top = current

    if count > current:
        template = layers[old_top]
        template_blocks = [b for b in blocks if b.layer == old_top]
        for m in range(old_top + 1, count + 1):
            layers.append(Layer(m, template.thickness, template.material))
            for b in template_blocks:
                blocks.append(dataclasses.replace(b, name=f"{b.name}_m{m}", layer=m))
        farms = [dataclasses.replace(f, end_layer=count)
                 if f.end_layer == old_top else f for f in farms]
    else:
        layers = layers[:count + 1]
        kept = {b.name for b in blocks if b.layer <= count}
        blocks = [b for b in blocks if b.layer <= count]
        farms = [
            dataclasses.replace(
                f, end_layer=min(f.end_layer, count),
                clients=tuple(c for c in f.clients if c in kept))
            for f in farms if f.start_layer <= count
        ]

    stack = Stack(tuple(layers), design.stack.tech)
    return dataclasses.replace(
        design, stack=stack, floorplan=Floorplan(tuple(blocks), tuple(farms)))


AXES = ("layers", "k_farm")


def default_values(design: Design, axis: str) -> list[float]:
    if axis == "layers":
        return [1, 2, 3, 4]
    tech = design.stack.tech
    return [float(v) for v in np.geomspace(tech.k_farm_min, tech.k_farm_max, 5)]


@dataclass
class SweepPoint:
    value: float
    status: str   # "ok" or the error message
    before_core_peak: float | None = None
    after_core_peak: float | None = None
    before_core_avg: float | None = None
    after_core_avg: float | None = None
    before_stack_avg: float | None = None
    after_stack_avg: float | None = None

    @property
    def peak_reduction(self) -> float | None:
        if self.status != "ok":
            return None
        return self.before_core_peak - self.after_core_peak

    @property
    def stack_avg_reduction(self) -> float | None:
        if self.status != "ok":
            return None
        return self.before_stack_avg - self.after_stack_avg


def run_sweep(design: Design, axis: str, values, anneal: AnnealConfig,
              flow: FlowConfig, weights=None) -> list[SweepPoint]:
    """Optimize once per axis value; failures mark the point and continue."""
    if axis not in AXES:
        raise DesignError(f"unknown sweep axis {axis!r} (use {'|'.join(AXES)})")
    points = []
    for index, value in enumerate(values):
        point = SweepPoint(value=float(value), status="ok")
        try:
            if axis == "layers":
                variant = with_memory_layers(design, int(value))
            else:
                variant = set_farm_conductivity(design, float(value))
            cfg = dataclasses.replace(anneal, seed=anneal.seed + index)
            result = optimize_stack(variant, cfg, flow, weights=weights)
            point.before_core_peak = result.before.layer_peaks[0]
            point.after_core_peak = result.after.layer_peaks[0]
            point.before_core_avg = result.before.per_layer_average[0]
            point.after_core_avg = result.after.per_layer_average[0]
            point.before_stack_avg = result.before.average
            point.after_stack_avg = result.after.average
        except (DesignError, SolverError) as exc:  # record it, go on to the next point
            point.status = f"error: {exc}"
        points.append(point)
    return points


def format_sweep_table(axis: str, points: list[SweepPoint]) -> str:
    head = (f"{axis:>10} {'core peak b/a (K)':>24} {'core avg b/a (K)':>24} "
            f"{'stack avg b/a (K)':>24} status")
    lines = [head]
    for p in points:
        if p.status == "ok":
            lines.append(
                f"{p.value:>10.4g} "
                f"{p.before_core_peak:>11.3f}/{p.after_core_peak:<12.3f} "
                f"{p.before_core_avg:>11.3f}/{p.after_core_avg:<12.3f} "
                f"{p.before_stack_avg:>11.3f}/{p.after_stack_avg:<12.3f} ok")
        else:
            lines.append(f"{p.value:>10.4g} {'-':>24} {'-':>24} {'-':>24} {p.status}")
    return "\n".join(lines)
