"""Command-line entry points: analyze, optimize, sweep.

Exit codes: 0 success, 1 data error, 2 solver error, 3 internal error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import click

from .anneal import RNG_KIND, AnnealConfig, FlowConfig, optimize_stack
from .design_io import (RunReport, format_trace, parse_design, write_design,
                        write_report, write_thermal_maps)
from .errors import DesignError, SolverError
from .metrics import CostWeights
from .model import validate
from .sweeps import default_values, format_sweep_table, run_sweep
from .thermal import field_stats, grid_for, solve_field
from .units import parse_length


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DesignError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(1)
        except SolverError as exc:
            click.echo(f"solver error: {exc}", err=True)
            sys.exit(2)
        except click.exceptions.Exit:
            raise
        except Exception as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(3)
    return wrapper


@click.group()
def main():
    """Thermal analysis and blockage-aware farm placement for 3-D stacks."""


def _load(design_path, grid_cell):
    design = parse_design(design_path)
    cell = parse_length(grid_cell) if grid_cell else None
    grid = grid_for(design.stack, cell)
    return design, grid


def _parse_weights(spec_str, preset_ratio):
    parts = [float(v) for v in spec_str.split(",")]
    if len(parts) != 4:
        raise DesignError("--weights needs four comma-separated values: "
                          "area,efficiency,ratio,wirelength")
    return CostWeights(area=parts[0], efficiency=parts[1], ratio=parts[2],
                       wirelength=parts[3],
                       ratio_target=preset_ratio if preset_ratio is not None else 1.0)


def _config_echo(design, grid, anneal, flow, weights):
    return {
        "rng": RNG_KIND,
        "seed": anneal.seed,
        "grid": {"cells_x": grid.cells_x, "cells_y": grid.cells_y,
                 "cell_size_m": grid.cell_size, "layers": grid.num_layers},
        "anneal": dataclasses.asdict(anneal),
        "flow": dataclasses.asdict(flow),
        "weights": dataclasses.asdict(weights) if weights else None,
        "ambient_K": design.stack.tech.ambient,
        "package_resistance_K_per_W": design.stack.tech.package_resistance,
    }


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid-cell", default=None, help="Override grid cell size, e.g. 100um.")
@click.option("--leakage-lambda", type=float, default=None,
              help="Leakage slope 1/K (default: design file).")
@click.option("--out-dir", default="out", show_default=True)
@guarded
def analyze(design_path, grid_cell, leakage_lambda, out_dir):
    """Solve the thermal field of a design and write per-layer map files."""
    design, grid = _load(design_path, grid_cell)
    field = solve_field(design, grid, leakage_lambda)
    paths = write_thermal_maps(field, grid, out_dir)
    stats = field_stats(field, design, grid)
    line = f"peakT {stats.peak:.4f} K  avgT {stats.average:.4f} K"
    if stats.hottest_block:
        line += f"  hottest {stats.hottest_block} ({stats.hottest_block_avg:.4f} K)"
    click.echo(line)
    for layer in range(grid.num_layers):
        s = field_stats(field, layer=layer)
        click.echo(f"layer {layer}: avg {s.average:.4f} K  peak {s.peak:.4f} K")
    for p in paths:
        click.echo(f"wrote {p}")


def _anneal_flow_options(fn):
    fn = click.option("--seed", type=int, default=AnnealConfig.seed, show_default=True)(fn)
    fn = click.option("--grid-cell", default=None)(fn)
    fn = click.option("--outer-iters", type=int, default=FlowConfig.outer_iterations,
                      show_default=True)(fn)
    fn = click.option("--weights", "weights_spec", default=None,
                      help="area,efficiency,ratio,wirelength (default: calibrated).")(fn)
    fn = click.option("--preset-ratio", type=float, default=None,
                      help="Target bounding-box aspect ratio. A sweep accepts it "
                           "only with --weights: calibrated sweeps use each "
                           "point's own bounding ratio.")(fn)
    fn = click.option("--leakage-lambda", type=float, default=None)(fn)
    fn = click.option("--max-moves", type=int, default=AnnealConfig.max_moves,
                      show_default=True)(fn)
    fn = click.option("--cooling", type=float, default=AnnealConfig.cooling,
                      show_default=True)(fn)
    fn = click.option("--t-initial", type=float, default=None)(fn)
    fn = click.option("--t-threshold", type=float, default=None)(fn)
    fn = click.option("--out-dir", default="out", show_default=True)(fn)
    return fn


def _build_configs(seed, outer_iters, max_moves, cooling, t_initial, t_threshold,
                   leakage_lambda, grid_cell):
    anneal = AnnealConfig(t_initial=t_initial, t_threshold=t_threshold,
                          cooling=cooling, max_moves=max_moves, seed=seed)
    cell = parse_length(grid_cell) if grid_cell else None
    flow = FlowConfig(outer_iterations=outer_iters, cell_size=cell,
                      leakage_coeff=leakage_lambda)
    return anneal, flow


def _resolve_weights(design, grid, flow, weights_spec, preset_ratio):
    if weights_spec:
        return _parse_weights(weights_spec, preset_ratio)
    # the same cold solve optimize_stack summarizes as `before`, done once
    field0 = solve_field(design, grid, flow.leakage_coeff, flow.leakage_tref)
    weights = CostWeights.calibrated(design, field0, grid)
    if preset_ratio is not None:
        weights = dataclasses.replace(weights, ratio_target=preset_ratio)
    return weights


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@_anneal_flow_options
@guarded
def optimize(design_path, seed, grid_cell, outer_iters, weights_spec, preset_ratio,
             leakage_lambda, max_moves, cooling, t_initial, t_threshold, out_dir):
    """Run the two-loop farm placement flow and write the optimized design,
    before/after maps, trace log, and report."""
    design = parse_design(design_path)
    anneal, flow = _build_configs(seed, outer_iters, max_moves, cooling,
                                  t_initial, t_threshold, leakage_lambda, grid_cell)
    grid = grid_for(design.stack, flow.cell_size)
    weights = _resolve_weights(design, grid, flow, weights_spec, preset_ratio)

    started = time.perf_counter()
    result = optimize_stack(design, anneal, flow, weights=weights, grid=grid)
    runtime = time.perf_counter() - started

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_design(result.best, out / "optimized.design")
    write_thermal_maps(result.before_field, grid, out, prefix="before_")
    write_thermal_maps(result.after_field, grid, out, prefix="after_")
    (out / "trace.log").write_text(format_trace(result.trace))

    report = RunReport(result.before, result.after, runtime,
                       _config_echo(design, grid, anneal, flow, result.weights))
    write_report(report, out)
    click.echo(report.format_table())
    click.echo(f"wrote {out / 'optimized.design'}, {out / 'report.json'}")


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--axis", type=click.Choice(["layers", "k_farm"]), required=True)
@click.option("--values", default=None,
              help="Comma-separated axis values (default: layers 1..4, "
                   "k_farm log-spaced over the tech range).")
@_anneal_flow_options
@guarded
def sweep(design_path, axis, values, seed, grid_cell, outer_iters, weights_spec,
          preset_ratio, leakage_lambda, max_moves, cooling, t_initial,
          t_threshold, out_dir):
    """Optimize across an axis and tabulate before/after temperatures."""
    design = parse_design(design_path)
    anneal, flow = _build_configs(seed, outer_iters, max_moves, cooling,
                                  t_initial, t_threshold, leakage_lambda, grid_cell)
    if values:
        axis_values = [float(v) for v in values.split(",")]
    else:
        axis_values = default_values(design, axis)
    weights = None
    if weights_spec:
        weights = _parse_weights(weights_spec, preset_ratio)
    elif preset_ratio is not None:
        raise DesignError("--preset-ratio needs --weights in a sweep: calibrated "
                          "sweeps use each point's own bounding ratio")

    points = run_sweep(design, axis, axis_values, anneal, flow, weights=weights)
    table = format_sweep_table(axis, points)
    click.echo(table)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.txt").write_text(table + "\n")
    (out / "sweep.json").write_text(json.dumps(
        {"axis": axis, "points": [dataclasses.asdict(p) for p in points]},
        indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out / 'sweep.json'}")
    if any(p.status != "ok" for p in points):
        sys.exit(2)


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@guarded
def check(design_path):
    """Parse and validate a design file."""
    design = parse_design(design_path, check=False)
    violations = validate(design)
    if violations:
        for v in violations:
            click.echo(str(v), err=True)
        sys.exit(1)
    click.echo(f"ok: {len(design.floorplan.blocks)} blocks, "
               f"{len(design.floorplan.farms)} farms, "
               f"{design.stack.num_layers} layers")


if __name__ == "__main__":
    main()
