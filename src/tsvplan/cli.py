"""Command-line entry points: analyze, optimize, sweep.

Exit codes: 0 success, 1 data error, 2 solver error, 3 internal error (its
traceback follows the message on stderr), 141 (128 + SIGPIPE) stdout closed
by its reader, with nothing on stderr. A usage error, such as a malformed
option value, is a data error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import click

from .anneal import RNG_KIND, AnnealConfig, FlowConfig, optimize_stack, summarize
from .design_io import (format_report, format_trace, parse_design, write_design,
                        write_report, write_thermal_maps)
from .errors import DesignError, SolverError
from .metrics import CostWeights
from .model import require_valid, validate
from .sweeps import default_values, format_sweep_table, run_sweep
from .thermal import couple_leakage, grid_for
from .units import parse_float, parse_length


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
        except BrokenPipeError:
            # the flush at interpreter exit then writes to devnull, not the pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except Exception as exc:
            import traceback   # here, so that start-up does not pay for it
            click.echo(f"internal error: {exc}", err=True)
            click.echo(traceback.format_exc(), err=True, nl=False)
            sys.exit(3)
    return wrapper


class _Main(click.Group):
    """The command group, whose usage errors exit 1 rather than click's 2,
    the solver-error code. They are raised while the group's arguments are
    parsed (make_context) and while a subcommand's are (invoke)."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Main)
def main():
    """Thermal analysis and blockage-aware farm placement for 3-D stacks."""


def _with_leakage(design, leakage_lambda):
    """The design the run solves: --leakage-lambda, when given, replaces the
    design's leakage coefficient, and the result is validated again."""
    if leakage_lambda is None:
        return design
    tech = dataclasses.replace(design.stack.tech, leakage_coeff=leakage_lambda)
    stack = dataclasses.replace(design.stack, tech=tech)
    return require_valid(dataclasses.replace(design, stack=stack))


def _parse_weights(spec_str, preset_ratio):
    """--weights aimed at --preset-ratio, or None without --weights (then
    optimize_stack calibrates them); either way both are checked here."""
    # without --weights the all-zero weighting checks --preset-ratio alone
    parts = [parse_float(v) for v in spec_str.split(",")] if spec_str else [0.0] * 4
    if len(parts) != 4:
        raise DesignError("--weights needs four comma-separated values: "
                          "area,efficiency,ratio,wirelength")
    try:
        weights = CostWeights(*parts, ratio_target=1.0 if preset_ratio is None
                              else preset_ratio)
    except ValueError as exc:
        raise DesignError(f"--weights/--preset-ratio: {exc}") from None
    return weights if spec_str else None


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
        "leakage_coeff_per_K": design.stack.tech.leakage_coeff,
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
    design = _with_leakage(parse_design(design_path), leakage_lambda)
    grid = grid_for(design.stack, parse_length(grid_cell) if grid_cell else None)
    field = couple_leakage(design, grid).field
    summary = summarize(design, grid, field)
    paths = write_thermal_maps(field, grid, out_dir)
    line = f"peakT {summary.peak:.4f} K  avgT {summary.average:.4f} K"
    if summary.hottest_block:
        line += f"  hottest {summary.hottest_block} ({summary.hottest_block_avg:.4f} K)"
    click.echo(line)
    for layer, (avg, peak) in enumerate(zip(summary.per_layer_average,
                                            summary.layer_peaks)):
        click.echo(f"layer {layer}: avg {avg:.4f} K  peak {peak:.4f} K")
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
                   grid_cell):
    cell = parse_length(grid_cell) if grid_cell else None
    try:
        return (AnnealConfig(t_initial=t_initial, t_threshold=t_threshold,
                             cooling=cooling, max_moves=max_moves, seed=seed),
                FlowConfig(outer_iterations=outer_iters, cell_size=cell))
    except ValueError as exc:
        raise DesignError(str(exc)) from None


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@_anneal_flow_options
@guarded
def optimize(design_path, seed, grid_cell, outer_iters, weights_spec, preset_ratio,
             leakage_lambda, max_moves, cooling, t_initial, t_threshold, out_dir):
    """Run the two-loop farm placement flow and write the optimized design,
    before/after maps, trace log, and report."""
    source = parse_design(design_path)
    design = _with_leakage(source, leakage_lambda)
    anneal, flow = _build_configs(seed, outer_iters, max_moves, cooling,
                                  t_initial, t_threshold, grid_cell)
    weights = _parse_weights(weights_spec, preset_ratio)

    started = time.perf_counter()
    result = optimize_stack(design, anneal, flow, weights=weights,
                            ratio_target=preset_ratio)
    runtime = time.perf_counter() - started

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the input's own tech, not the --leakage-lambda the run used
    write_design(source.with_floorplan(result.best.floorplan), out / "optimized.design")
    write_thermal_maps(result.before_field, result.grid, out, prefix="before_")
    write_thermal_maps(result.after_field, result.grid, out, prefix="after_")
    (out / "trace.log").write_text(format_trace(result.trace))

    write_report(result.before, result.after, runtime,
                 _config_echo(design, result.grid, anneal, flow, result.weights), out)
    click.echo(format_report(result.before, result.after, runtime))
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
    design = _with_leakage(parse_design(design_path), leakage_lambda)
    anneal, flow = _build_configs(seed, outer_iters, max_moves, cooling,
                                  t_initial, t_threshold, grid_cell)
    if values:
        axis_values = [parse_float(v) for v in values.split(",")]
    else:
        axis_values = default_values(design, axis)
    if preset_ratio is not None and not weights_spec:
        raise DesignError("--preset-ratio needs --weights in a sweep: calibrated "
                          "sweeps use each point's own bounding ratio")
    weights = _parse_weights(weights_spec, preset_ratio)

    points = run_sweep(design, axis, axis_values, anneal, flow, weights=weights)
    table = format_sweep_table(axis, points)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.txt").write_text(table + "\n")
    (out / "sweep.json").write_text(json.dumps(
        {"axis": axis, "points": [dataclasses.asdict(p) for p in points]},
        indent=2, sort_keys=True) + "\n")
    click.echo(table)
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
