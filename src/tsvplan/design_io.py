"""Design-file parsing and emission, thermal-map files, run reports.

The design format is line-oriented with [section] headers, # comments,
key = value lines in [tech], and whitespace-separated table rows elsewhere.
Lengths carry a unit suffix (um, mm, m), temperatures K or C, powers are
bare watts. See the README for the full grammar.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .anneal import DesignSummary
from .errors import DesignError, ParseError
from .model import (DEFAULT_MATERIALS, Block, Design, Floorplan, Layer,
                    Material, Stack, TechnologyParams, TsvFarm, require_valid)
from .thermal import GridSpec, TemperatureField
from .units import (format_length, format_temperature, parse_float, parse_length,
                    parse_temperature)

SECTIONS = ("materials", "tech", "layers", "blocks", "farms", "nets", "power")

_TECH_REQUIRED = ("footprint_width", "footprint_height", "grid_cell",
                  "ambient", "package_resistance")
_TECH_LENGTHS = {"footprint_width", "footprint_height", "grid_cell",
                 "adjacency_window", "bond_thickness"}
_TECH_FLOATS = {"package_resistance", "k_farm_min", "k_farm_max",
                "leakage_coeff", "bond_conductivity"}
# Keys that older files carry and that no longer set anything: the lengths
# are still checked, and the switches may only be false.
_TECH_RETIRED_LENGTHS = {"tsv_pitch", "tsv_size"}
_TECH_RETIRED_SWITCHES = {"vertical_parallel", "gradient_weighting"}


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise DesignError(f"bad boolean {text!r}")


def parse_design(source: str | Path, text: str | None = None,
                 check: bool = True) -> Design:
    """Parse a design file into a validated model.

    Raises ParseError with (line, message) pairs on any syntax, unit, or
    reference problem; with check=True a structurally invalid model also
    raises DesignError listing the violations.
    """
    if text is None:
        text = Path(source).read_text()
    errors: list[tuple[int, str]] = []
    rows: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in SECTIONS}
    section = None
    seen_sections: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                errors.append((lineno, f"unknown section [{name}]"))
                section = None
            else:
                section = name
                seen_sections.append(name)
            continue
        if section is None:
            errors.append((lineno, f"content outside any section: {line!r}"))
            continue
        rows[section].append((lineno, line.split()))

    if seen_sections.count("tech") != 1:
        errors.append((0, f"expected exactly one [tech] section, "
                          f"found {seen_sections.count('tech')}"))
    if errors:
        raise ParseError(errors)

    materials: dict[str, Material] = {}
    declared: list[Material] = []
    for lineno, tok in rows["materials"]:
        if len(tok) != 2:
            errors.append((lineno, "material row needs: name conductivity"))
            continue
        try:
            mat = Material(tok[0], parse_float(tok[1]))
        except DesignError as exc:
            errors.append((lineno, f"bad conductivity: {exc}"))
            continue
        materials[mat.name] = mat
        declared.append(mat)

    tech_kv: dict[str, tuple[int, str]] = {}
    for lineno, tok in rows["tech"]:
        if "=" not in tok:
            errors.append((lineno, "tech line needs: key = value"))
            continue
        eq = tok.index("=")
        key = " ".join(tok[:eq])
        value = " ".join(tok[eq + 1:])
        if not key or not value:
            errors.append((lineno, "tech line needs: key = value"))
            continue
        if key in tech_kv:
            errors.append((lineno, f"duplicate tech key {key!r}"))
        tech_kv[key] = (lineno, value)

    tech_args: dict = {}
    for key, (lineno, value) in tech_kv.items():
        try:
            if key in _TECH_LENGTHS:
                tech_args[key] = parse_length(value)
            elif key == "ambient" or key == "leakage_tref":
                tech_args[key] = parse_temperature(value)
            elif key in _TECH_FLOATS:
                tech_args[key] = parse_float(value)
            elif key in _TECH_RETIRED_LENGTHS:
                parse_length(value)
            elif key in _TECH_RETIRED_SWITCHES:
                if _parse_bool(value):
                    errors.append((lineno, f"{key} = true is no longer supported"))
            elif key == "aspect_ratios":
                tech_args[key] = tuple(parse_float(v) for v in value.split())
            else:
                errors.append((lineno, f"unknown tech key {key!r}"))
        except DesignError as exc:
            errors.append((lineno, f"tech key {key!r}: {exc}"))
    for key in _TECH_REQUIRED:
        if key not in tech_kv:
            errors.append((0, f"missing required tech key {key!r}"))
    if errors:
        raise ParseError(errors)
    tech = TechnologyParams(**tech_args)

    layers: list[Layer] = []
    for lineno, tok in rows["layers"]:
        if len(tok) != 3:
            errors.append((lineno, "layer row needs: index thickness material"))
            continue
        try:
            index = int(tok[0])
            thickness = parse_length(tok[1])
        except (ValueError, DesignError) as exc:
            errors.append((lineno, str(exc)))
            continue
        mat = materials.get(tok[2])
        if mat is None:
            if tok[2] in DEFAULT_MATERIALS:
                mat = Material(tok[2], DEFAULT_MATERIALS[tok[2]])
                materials[tok[2]] = mat
                declared.append(mat)
            else:
                errors.append((lineno, f"unknown material {tok[2]!r}"))
                continue
        layers.append(Layer(index, thickness, mat))
    layers.sort(key=lambda l: l.index)
    if not layers:
        errors.append((0, "design needs at least one layer"))

    blocks: list[Block] = []
    for lineno, tok in rows["blocks"]:
        if len(tok) != 7:
            errors.append((lineno, "block row needs: name layer x y width height kind"))
            continue
        try:
            blocks.append(Block(tok[0], int(tok[1]), parse_length(tok[2]),
                                parse_length(tok[3]), parse_length(tok[4]),
                                parse_length(tok[5]), kind=tok[6]))
        except (ValueError, DesignError) as exc:
            errors.append((lineno, str(exc)))

    farms: list[TsvFarm] = []
    for lineno, tok in rows["farms"]:
        if len(tok) != 9:
            errors.append((lineno, "farm row needs: name x y width height "
                                   "start_layer end_layer k_lateral k_metal"))
            continue
        try:
            w, h = parse_length(tok[3]), parse_length(tok[4])
            farms.append(TsvFarm(tok[0], parse_length(tok[1]), parse_length(tok[2]),
                                 w, h, int(tok[5]), int(tok[6]),
                                 parse_float(tok[7]), parse_float(tok[8]), area=w * h))
        except (ValueError, DesignError) as exc:
            errors.append((lineno, str(exc)))

    block_by_name = {b.name: i for i, b in enumerate(blocks)}
    farm_by_name = {f.name: i for i, f in enumerate(farms)}

    for lineno, tok in rows["nets"]:
        if len(tok) < 2:
            errors.append((lineno, "net row needs: farm client..."))
            continue
        if tok[0] not in farm_by_name:
            errors.append((lineno, f"net references unknown farm {tok[0]!r}"))
            continue
        for client in tok[1:]:
            if client not in block_by_name:
                errors.append((lineno, f"net references unknown block {client!r}"))
        i = farm_by_name[tok[0]]
        farms[i] = dataclasses.replace(farms[i], clients=tuple(tok[1:]))

    for lineno, tok in rows["power"]:
        if len(tok) not in (2, 3):
            errors.append((lineno, "power row needs: block watts [leakage_ref]"))
            continue
        if tok[0] not in block_by_name:
            errors.append((lineno, f"power references unknown block {tok[0]!r}"))
            continue
        try:
            watts = parse_float(tok[1])
            leak = parse_float(tok[2]) if len(tok) == 3 else 0.0
        except DesignError as exc:
            errors.append((lineno, f"bad power value: {exc}"))
            continue
        i = block_by_name[tok[0]]
        blocks[i] = dataclasses.replace(blocks[i], power=watts, leakage_ref=leak)

    if errors:
        raise ParseError(errors)

    design = Design(Stack(tuple(layers), tech),
                    Floorplan(tuple(blocks), tuple(farms)),
                    materials=tuple(declared))
    return require_valid(design) if check else design


def _fmt(value: float) -> str:
    return repr(value)


def emit_design(design: Design) -> str:
    """Serialize a design; emission is bit-stable and round-trips exactly
    (lengths are written in meters with full repr precision)."""
    tech = design.stack.tech
    out = []
    out.append("[materials]")
    for m in design.materials:
        out.append(f"{m.name} {_fmt(m.conductivity)}")
    out.append("")
    out.append("[tech]")
    out.append(f"footprint_width = {format_length(tech.footprint_width)}")
    out.append(f"footprint_height = {format_length(tech.footprint_height)}")
    out.append(f"grid_cell = {format_length(tech.grid_cell)}")
    out.append(f"ambient = {format_temperature(tech.ambient)}")
    out.append(f"package_resistance = {_fmt(tech.package_resistance)}")
    out.append(f"k_farm_min = {_fmt(tech.k_farm_min)}")
    out.append(f"k_farm_max = {_fmt(tech.k_farm_max)}")
    out.append("aspect_ratios = " + " ".join(_fmt(r) for r in tech.aspect_ratios))
    out.append(f"leakage_coeff = {_fmt(tech.leakage_coeff)}")
    out.append(f"leakage_tref = {format_temperature(tech.leakage_tref)}")
    if tech.adjacency_window is not None:
        out.append(f"adjacency_window = {format_length(tech.adjacency_window)}")
    out.append(f"bond_thickness = {format_length(tech.bond_thickness)}")
    out.append(f"bond_conductivity = {_fmt(tech.bond_conductivity)}")
    out.append("")
    out.append("[layers]")
    for layer in design.stack.layers:
        out.append(f"{layer.index} {format_length(layer.thickness)} {layer.material.name}")
    out.append("")
    out.append("[blocks]")
    for b in design.floorplan.blocks:
        out.append(f"{b.name} {b.layer} {format_length(b.x)} {format_length(b.y)} "
                   f"{format_length(b.width)} {format_length(b.height)} {b.kind}")
    out.append("")
    out.append("[farms]")
    for f in design.floorplan.farms:
        out.append(f"{f.name} {format_length(f.x)} {format_length(f.y)} "
                   f"{format_length(f.width)} {format_length(f.height)} "
                   f"{f.start_layer} {f.end_layer} {_fmt(f.k_lateral)} {_fmt(f.k_metal)}")
    out.append("")
    out.append("[nets]")
    for f in design.floorplan.farms:
        if f.clients:
            out.append(f"{f.name} " + " ".join(f.clients))
    out.append("")
    out.append("[power]")
    for b in design.floorplan.blocks:
        if b.power > 0 or b.leakage_ref > 0:
            out.append(f"{b.name} {_fmt(b.power)} {_fmt(b.leakage_ref)}")
    out.append("")
    return "\n".join(out)


def write_design(design: Design, path: str | Path) -> None:
    Path(path).write_text(emit_design(design))


def format_thermal_map(field: TemperatureField, grid: GridSpec, layer: int) -> str:
    """One text matrix per layer: metadata header then cells_y rows of 2-decimal K."""
    lines = [
        f"# layer {layer}",
        f"# cells_x {grid.cells_x} cells_y {grid.cells_y}",
        f"# cell_size_m {grid.cell_size!r}",
    ]
    for row in field.t[layer]:
        lines.append(" ".join(f"{v:.2f}" for v in row))
    return "\n".join(lines) + "\n"


def write_thermal_maps(field: TemperatureField, grid: GridSpec,
                       out_dir: str | Path, prefix: str = "") -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for layer in range(grid.num_layers):
        path = out / f"{prefix}layer{layer}.map"
        path.write_text(format_thermal_map(field, grid, layer))
        paths.append(path)
    return paths


@dataclass
class RunReport:
    """Before/after comparison rows plus the full configuration echo."""

    before: DesignSummary
    after: DesignSummary
    runtime_s: float
    config: dict

    def to_dict(self) -> dict:
        return {
            "before": dataclasses.asdict(self.before),
            "after": dataclasses.asdict(self.after),
            "runtime_s": self.runtime_s,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_table(self) -> str:
        b, a = self.before, self.after
        rows = [
            ("wirelength (m)", b.wirelength, a.wirelength),
            ("area (m^2)", b.area, a.area),
            ("avgT (K)", b.average, a.average),
            ("peakT (K)", b.peak, a.peak),
            ("hottest blk (K)", b.hottest_block_avg, a.hottest_block_avg),
        ]
        lines = [f"{'metric':<18}{'before':>16}{'after':>16}"]
        for name, before, after in rows:
            bv = "-" if before is None else f"{before:.6g}"
            av = "-" if after is None else f"{after:.6g}"
            lines.append(f"{name:<18}{bv:>16}{av:>16}")
        lines.append(f"{'hottest block':<18}{str(b.hottest_block):>16}"
                     f"{str(a.hottest_block):>16}")
        lines.append("")
        lines.append("per-layer average T (K):")
        lines.append(f"{'layer':<8}{'before':>14}{'after':>14}")
        for i, (pb, pa) in enumerate(zip(b.per_layer_average, a.per_layer_average)):
            lines.append(f"{i:<8}{pb:>14.4f}{pa:>14.4f}")
        lines.append(f"{'stack':<8}{b.average:>14.4f}{a.average:>14.4f}")
        lines.append("")
        lines.append(f"run time: {self.runtime_s:.2f} s")
        return "\n".join(lines)


def write_report(report: RunReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(report.to_json() + "\n")
    (out / "report.txt").write_text(report.format_table() + "\n")
    return path


def format_trace(trace) -> str:
    """Line-oriented log of every move, pass, and outer iteration."""
    lines = []
    for m in trace.moves:
        draw = "-" if m.draw is None else f"{m.draw:.6f}"
        lines.append(
            f"move outer={m.outer} layer={m.layer} kind={m.kind} farm={m.farm} "
            f"dC={m.delta_cost!r} T={m.temperature!r} draw={draw} "
            f"accepted={int(m.accepted)} best={m.best_cost!r}")
    for p in trace.passes:
        lines.append(
            f"pass outer={p.outer} layer={p.layer} eligible={p.eligible} "
            f"moves={p.moves} accepted={p.accepted} pre_avg={p.pre_avg!r} "
            f"pre_peak={p.pre_peak!r} post_avg={p.post_avg!r} post_peak={p.post_peak!r}")
    for o in trace.outers:
        lines.append(f"outer iter={o.outer} stack_avg={o.stack_average!r} "
                     f"best_avg={o.best_average!r}")
    return "\n".join(lines) + "\n"
