"""Output checks for one benchmark unit, run after the timed region.

Each check returns a list of problems; an empty list means the unit's
outputs are correct. The re-solve is independent of the run: it parses the
written files and calls couple_leakage directly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import tsvplan.thermal as thermal
from tsvplan.design_io import parse_design
from tsvplan.errors import DesignError, SolverError
from tsvplan.model import validate

# what a check raises on unreadable outputs (bad design or JSON, missing
# farm or key, failed re-solve); the unit then counts as failed
CHECK_ERRORS = (DesignError, SolverError, ValueError, KeyError)
TEMPERATURE_TOL_K = 1e-6
ENERGY_RTOL = 1e-6
AREA_RTOL = 1e-12


def resolve(design, grid):
    """Cold leakage-coupled solve; returns (field, relative energy imbalance).

    The imbalance compares the heat leaving through the package with the power
    injected in the final solve of the fixed point (dynamic plus leakage).
    """
    solves = []
    original = thermal.solve_steady_state

    def capture(network, power, ambient, *args, **kwargs):
        field = original(network, power, ambient, *args, **kwargs)
        solves.append((network, power, ambient, field))
        return field

    thermal.solve_steady_state = capture
    try:
        field = thermal.couple_leakage(design, grid).field
    finally:
        thermal.solve_steady_state = original
    network, power, ambient, last = solves[-1]
    heat_out = float((network.g_ambient * (last.t[0] - ambient)).sum())
    injected = float(power.sum())
    return field, abs(heat_out - injected) / injected


def check_optimize(out: Path, design_path: Path, record: dict) -> list[str]:
    problems = []
    before = parse_design(design_path)
    layers = before.stack.num_layers
    expected = ["optimized.design", "report.json", "report.txt", "trace.log"]
    expected += [f"{side}_layer{i}.map" for side in ("before", "after") for i in range(layers)]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]

    after = parse_design(out / "optimized.design", check=False)
    problems += [f"optimized.design invalid: {v}" for v in validate(after)]
    for farm in before.floorplan.farms:
        area = after.floorplan.farm(farm.name).area
        if abs(area - farm.area) > AREA_RTOL * farm.area:
            problems.append(f"farm {farm.name} area {area!r} != {farm.area!r}")

    report = json.loads((out / "report.json").read_text())
    grid = thermal.grid_for(before.stack)
    for side, design in (("before", before), ("after", after)):
        field, imbalance = resolve(design, grid)
        for key, value in (("average", field.average), ("peak", field.peak)):
            if abs(report[side][key] - value) > TEMPERATURE_TOL_K:
                problems.append(f"report {side} {key} {report[side][key]!r} "
                                f"!= re-solve {value!r}")
        if imbalance > ENERGY_RTOL:
            problems.append(f"{side} re-solve energy imbalance {imbalance:.3g}")

    digest = hashlib.sha256((out / "trace.log").read_bytes()).hexdigest()
    if digest != record["trace_sha256"]:
        problems.append("trace.log differs from the trace optimize_stack returned")
    return problems


def check_sweep(out: Path, values: list[str]) -> list[str]:
    path = out / "sweep.json"
    if not path.is_file() or not (out / "sweep.txt").is_file():
        return ["missing sweep.json or sweep.txt"]
    points = json.loads(path.read_text())["points"]
    problems = [f"point {p['value']}: {p['status']}" for p in points if p["status"] != "ok"]
    if [p["value"] for p in points] != [float(v) for v in values]:
        problems.append(f"sweep points {[p['value'] for p in points]} != {values}")
    return problems
