"""Design-file parsing and emission, thermal-map files, run reports.

The design format is line-oriented with [section] headers, # comments,
key = value lines in [tech], and whitespace-separated table rows elsewhere.
Lengths carry a unit suffix (um, mm, m) and are read as whole nanometres,
temperatures K or C, powers are bare watts. See the README for the full
grammar.

The format of [tech] and of the fixed-width sections is written down once,
in the tables _TECH and _ROWS, which parse_design and emit_design both read.
"""

from __future__ import annotations

import codecs
import dataclasses
import json
from pathlib import Path

from .errors import DesignError, ParseError
from .model import (DEFAULT_MATERIALS, Block, Design, Floorplan, Layer,
                    Material, Stack, TechnologyParams, TsvFarm, require_valid)
from .thermal import GridSpec, TemperatureField
from .units import (format_length, format_temperature, metres, parse_float, parse_length,
                    parse_temperature)

SECTIONS = ("materials", "tech", "layers", "blocks", "farms", "nets", "power")

# How a value is read from its text and written back: (reader, writer).
_WORD = (str, str)
_INT = (int, str)
_FLOAT = (parse_float, repr)
_LENGTH = (parse_length, format_length)
_TEMPERATURE = (parse_temperature, format_temperature)
_FLOATS = (lambda text: tuple(parse_float(v) for v in text.split()),
           lambda values: " ".join(map(repr, values)))

# Each [tech] key is a TechnologyParams field; this is the order they are
# written in, and a value of None is not written. The fields without a
# default are the required keys.
_TECH = {
    "footprint_width": _LENGTH, "footprint_height": _LENGTH, "grid_cell": _LENGTH,
    "ambient": _TEMPERATURE, "package_resistance": _FLOAT,
    "k_farm_min": _FLOAT, "k_farm_max": _FLOAT, "aspect_ratios": _FLOATS,
    "leakage_coeff": _FLOAT, "leakage_tref": _TEMPERATURE,
    "adjacency_window": _LENGTH, "bond_thickness": _LENGTH, "bond_conductivity": _FLOAT,
}
_TECH_REQUIRED = tuple(f.name for f in dataclasses.fields(TechnologyParams)
                       if f.default is dataclasses.MISSING)


def _retired_switch(text: str) -> None:
    if text.lower() in ("true", "1", "yes"):
        raise DesignError("true is no longer supported")
    if text.lower() not in ("false", "0", "no"):
        raise DesignError(f"bad boolean {text!r}")


# Keys that older files carry and that no longer set anything: the lengths
# are still checked, and the switches may only be false.
_TECH_RETIRED = {"tsv_pitch": parse_length, "tsv_size": parse_length,
                 "vertical_parallel": _retired_switch, "gradient_weighting": _retired_switch}
_TECH_READERS = {key: read for key, (read, _) in _TECH.items()} | _TECH_RETIRED

# Each fixed-width section: the name of its row, the model object a row
# builds, and its columns in order, each named after the field it fills. A
# layer's material is read by parse_design, against the file's [materials].
_ROWS = {
    "materials": ("material", Material, {"name": _WORD, "conductivity": _FLOAT}),
    "layers": ("layer", Layer, {"index": _INT, "thickness": _LENGTH,
                                "material": (None, lambda material: material.name)}),
    "blocks": ("block", Block, {"name": _WORD, "layer": _INT, "x": _LENGTH, "y": _LENGTH,
                                "width": _LENGTH, "height": _LENGTH, "kind": _WORD}),
    "farms": ("farm", lambda **f: TsvFarm(**f, area=f["width"] * f["height"]),
              {"name": _WORD, "x": _LENGTH, "y": _LENGTH, "width": _LENGTH,
               "height": _LENGTH, "start_layer": _INT, "end_layer": _INT,
               "k_lateral": _FLOAT, "k_metal": _FLOAT}),
}


def _read_rows(rows: dict, section: str, errors: list, **readers) -> list:
    """The objects a fixed-width section's rows build, in file order. A row
    with the wrong column count or a bad value is reported with its line and
    skipped; a bad value is named by its column. readers replaces the
    table's reader of the named columns."""
    noun, build, columns = _ROWS[section]
    items = []
    for lineno, tok in rows[section]:
        if len(tok) != len(columns):
            errors.append((lineno, f"{noun} row needs: {' '.join(columns)}"))
            continue
        values = {}
        for (name, (read, _)), text in zip(columns.items(), tok):
            try:
                values[name] = readers.get(name, read)(text)
            except (ValueError, DesignError) as exc:
                errors.append((lineno, f"{noun} column {name!r}: {exc}"))
                break
        else:
            items.append(build(**values))
    return items


def _write_rows(section: str, items) -> list[str]:
    columns = _ROWS[section][2]
    return [" ".join(write(getattr(item, name)) for name, (_, write) in columns.items())
            for item in items]


def parse_design(source: str | Path, text: str | None = None,
                 check: bool = True) -> Design:
    """Parse a design file (UTF-8 text, a leading byte-order mark ignored)
    into a validated model.

    Raises ParseError with (line, message) pairs on any syntax, unit, or
    reference problem; with check=True a structurally invalid model also
    raises DesignError listing the violations.
    """
    if text is None:
        data = Path(source).read_bytes().removeprefix(codecs.BOM_UTF8)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line of the first bad byte, counted as the rows below are
            line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
            raise ParseError([(line, f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                     f"({exc.reason})")]) from None
    errors: list[tuple[int, str]] = []
    rows: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in SECTIONS}
    section = None
    tech_sections = 0

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
                tech_sections += name == "tech"
            continue
        if section is None:
            errors.append((lineno, f"content outside any section: {line!r}"))
            continue
        rows[section].append((lineno, line.split()))

    if tech_sections != 1:
        errors.append((0, f"expected exactly one [tech] section, found {tech_sections}"))
    if errors:
        raise ParseError(errors)

    declared: list[Material] = _read_rows(rows, "materials", errors)
    materials = {m.name: m for m in declared}

    tech_kv: dict[str, tuple[int, str]] = {}
    for lineno, tok in rows["tech"]:
        key, eq, value = " ".join(tok).partition("=")
        key, value = key.strip(), value.strip()
        if not (eq and key and value):
            errors.append((lineno, "tech line needs: key = value"))
            continue
        if key in tech_kv:
            errors.append((lineno, f"duplicate tech key {key!r}"))
        tech_kv[key] = (lineno, value)

    tech_args: dict = {}
    for key, (lineno, value) in tech_kv.items():
        read = _TECH_READERS.get(key)
        if read is None:
            errors.append((lineno, f"unknown tech key {key!r}"))
            continue
        try:
            tech_args[key] = read(value)
        except DesignError as exc:
            errors.append((lineno, f"tech key {key!r}: {exc}"))
    for key in _TECH_REQUIRED:
        if key not in tech_kv:
            errors.append((0, f"missing required tech key {key!r}"))
    if errors:
        raise ParseError(errors)
    tech = TechnologyParams(**{k: v for k, v in tech_args.items() if k in _TECH})

    def material(name: str) -> Material:
        # a built-in material a layer names is declared on first use
        if name not in materials:
            if name not in DEFAULT_MATERIALS:
                raise DesignError(f"unknown material {name!r}")
            materials[name] = Material(name, DEFAULT_MATERIALS[name])
            declared.append(materials[name])
        return materials[name]

    layers = sorted(_read_rows(rows, "layers", errors, material=material),
                    key=lambda layer: layer.index)
    if not layers:
        errors.append((0, "design needs at least one layer"))
    blocks: list[Block] = _read_rows(rows, "blocks", errors)
    farms: list[TsvFarm] = _read_rows(rows, "farms", errors)

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
        if farms[i].clients:   # a net row names at least one client
            errors.append((lineno, f"duplicate net farm {tok[0]!r}"))
        farms[i] = dataclasses.replace(farms[i], clients=tuple(tok[1:]))

    powered = set()
    for lineno, tok in rows["power"]:
        if len(tok) not in (2, 3):
            errors.append((lineno, "power row needs: block watts [leakage_ref]"))
            continue
        if tok[0] not in block_by_name:
            errors.append((lineno, f"power references unknown block {tok[0]!r}"))
            continue
        if tok[0] in powered:
            errors.append((lineno, f"duplicate power block {tok[0]!r}"))
        powered.add(tok[0])
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


def emit_design(design: Design) -> str:
    """Serialize a design from the tables parse_design reads; emission is
    bit-stable and round-trips exactly (each length in its shortest exact
    form, floats with full repr precision)."""
    tech, floorplan = design.stack.tech, design.floorplan
    body = {
        "materials": _write_rows("materials", design.materials),
        "tech": [f"{key} = {write(value)}" for key, (_, write) in _TECH.items()
                 if (value := getattr(tech, key)) is not None],
        "layers": _write_rows("layers", design.stack.layers),
        "blocks": _write_rows("blocks", floorplan.blocks),
        "farms": _write_rows("farms", floorplan.farms),
        "nets": [" ".join((f.name, *f.clients)) for f in floorplan.farms if f.clients],
        "power": [f"{b.name} {b.power!r} {b.leakage_ref!r}" for b in floorplan.blocks
                  if b.power > 0 or b.leakage_ref > 0],
    }
    return "\n".join(line for s in SECTIONS for line in (f"[{s}]", *body[s], ""))


def write_design(design: Design, path: str | Path) -> None:
    Path(path).write_text(emit_design(design), encoding="utf-8")


def format_thermal_map(field: TemperatureField, grid: GridSpec, layer: int) -> str:
    """One text matrix per layer: metadata header then cells_y rows of 2-decimal K."""
    lines = [
        f"# layer {layer}",
        f"# cells_x {grid.cells_x} cells_y {grid.cells_y}",
        f"# cell_size_m {metres(grid.cell_size)!r}",
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


def format_report(before, after, runtime_s: float) -> str:
    """The before/after table of two anneal.DesignSummary rows, with the run time."""
    b, a = before, after
    rows = [
        ("wirelength (m)", b.wirelength, a.wirelength),
        ("area (m^2)", b.area, a.area),
        ("avgT (K)", b.average, a.average),
        ("peakT (K)", b.peak, a.peak),
        ("hottest blk (K)", b.hottest_block_avg, a.hottest_block_avg),
    ]
    lines = [f"{'metric':<18}{'before':>16}{'after':>16}"]
    for name, *values in rows:
        bv, av = ("-" if value is None else f"{value:.6g}" for value in values)
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
    lines.append(f"run time: {runtime_s:.2f} s")
    return "\n".join(lines)


def write_report(before, after, runtime_s: float, config: dict,
                 out_dir: str | Path) -> Path:
    """Write report.json, the two summaries and the configuration echo, and
    report.txt, format_report's table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps({"before": before._asdict(), "after": after._asdict(),
                                "runtime_s": runtime_s, "config": config},
                               indent=2, sort_keys=True) + "\n")
    (out / "report.txt").write_text(format_report(before, after, runtime_s) + "\n")
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
        lines.append(f"outer iter={o.outer} stack_peak={o.stack_peak!r} "
                     f"stack_avg={o.stack_average!r} best_peak={o.best_peak!r} "
                     f"best_avg={o.best_average!r}")
    return "\n".join(lines) + "\n"
