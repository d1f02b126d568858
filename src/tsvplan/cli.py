"""Command-line entry points: analyze, optimize, sweep, check.

Exit codes, which _Main sets for every command:
  0    success.
  1    data error: a design file that does not parse (one that is not UTF-8
       included) or fails validation, an option value that is malformed,
       empty or out of range (click's usage errors would exit 2), or an OS
       error such as an --out-dir that is a file, with the OS message.
  2    solver error, or a sweep with a failed point.
  3    internal error; its traceback follows the message on stderr.
  141  (128 + SIGPIPE) stdout closed by its reader, with nothing on stderr.
"""

from __future__ import annotations

import dataclasses
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
from .sweeps import AXES, default_values, format_sweep_table, run_sweep
from .thermal import couple_leakage, grid_for
from .units import metres, parse_float, parse_length


class _Main(click.Group):
    """The command group, and the one place where what a command raises
    becomes its exit code: _exit_codes runs the parse of the group's own
    arguments (make_context), which prints the group's --help, and the
    subcommand with its arguments (invoke)."""

    def make_context(self, *args, **kwargs):
        return _exit_codes(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _exit_codes(super().invoke, ctx)


def _exit_codes(step, *args, **kwargs):
    """step(*args, **kwargs), with what it raises mapped to the exit codes."""
    try:
        return step(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except (click.exceptions.Exit, click.Abort, click.ClickException):
        raise   # click's own, such as the Exit of a --help
    except BrokenPipeError:
        # the flush at interpreter exit then writes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    except (DesignError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(1)
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:
        import traceback   # here, so that start-up does not pay for it
        click.echo(f"internal error: {exc}", err=True)
        click.echo(traceback.format_exc(), err=True, nl=False)
        sys.exit(3)


@click.group(cls=_Main)
def main():
    """Thermal analysis and blockage-aware farm placement for 3-D stacks."""


def _read_design(design_path, grid_cell, leakage_lambda):
    """The design file's design, the design the run solves and --grid-cell's
    cell size (None without it). --leakage-lambda, when given, replaces the
    design's leakage coefficient, and the result is validated again."""
    source = design = parse_design(design_path)
    if leakage_lambda is not None:
        tech = dataclasses.replace(source.stack.tech, leakage_coeff=leakage_lambda)
        design = require_valid(dataclasses.replace(
            source, stack=dataclasses.replace(source.stack, tech=tech)))
    return source, design, None if grid_cell is None else parse_length(grid_cell)


def _run_setup(design_path, grid_cell, leakage_lambda, seed, outer_iters, max_moves,
               cooling, t_initial, t_threshold, weights_spec, preset_ratio):
    """What optimize and sweep read from the options they share: the design
    file's design, the design the run solves, its configs, and --weights
    aimed at --preset-ratio, or None without --weights (then optimize_stack
    calibrates them); either way both are checked here."""
    source, design, cell = _read_design(design_path, grid_cell, leakage_lambda)
    try:
        anneal = AnnealConfig(t_initial=t_initial, t_threshold=t_threshold,
                              cooling=cooling, max_moves=max_moves, seed=seed)
        flow = FlowConfig(outer_iterations=outer_iters, cell_size=cell)
    except ValueError as exc:
        raise DesignError(str(exc)) from None
    # without --weights the all-zero weighting checks --preset-ratio alone
    parts = ([0.0] * 4 if weights_spec is None
             else [parse_float(v) for v in weights_spec.split(",")])
    if len(parts) != 4:
        raise DesignError("--weights needs four comma-separated values: "
                          "area,efficiency,ratio,wirelength")
    try:
        weights = CostWeights(*parts, ratio_target=1.0 if preset_ratio is None
                              else preset_ratio)
    except ValueError as exc:
        raise DesignError(f"--weights/--preset-ratio: {exc}") from None
    return source, design, anneal, flow, None if weights_spec is None else weights


def _config_echo(design, grid, anneal, flow, weights):
    return {
        "rng": RNG_KIND,
        "seed": anneal.seed,
        "grid": {"cells_x": grid.cells_x, "cells_y": grid.cells_y,
                 "cell_size_m": metres(grid.cell_size), "layers": grid.num_layers},
        "anneal": dataclasses.asdict(anneal),
        "flow": {"outer_iterations": flow.outer_iterations,
                 "cell_size_m": None if flow.cell_size is None else metres(flow.cell_size)},
        "weights": dataclasses.asdict(weights) if weights else None,
        "ambient_K": design.stack.tech.ambient,
        "package_resistance_K_per_W": design.stack.tech.package_resistance,
        "leakage_coeff_per_K": design.stack.tech.leakage_coeff,
    }


_grid_cell = click.option("--grid-cell", default=None,
                          help="Override grid cell size, a length such as 100um or "
                               "0.1mm, held as whole nanometres.")
_leakage_lambda = click.option("--leakage-lambda", type=float, default=None,
                               help="Leakage slope 1/K (default: design file).")
_out_dir = click.option("--out-dir", default="out", show_default=True)


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@_grid_cell
@_leakage_lambda
@_out_dir
def analyze(design_path, grid_cell, leakage_lambda, out_dir):
    """Solve the thermal field of a design and write per-layer map files."""
    _, design, cell = _read_design(design_path, grid_cell, leakage_lambda)
    grid = grid_for(design.stack, cell)
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
    fn = _grid_cell(fn)
    fn = click.option("--outer-iters", type=int, default=FlowConfig.outer_iterations,
                      show_default=True)(fn)
    fn = click.option("--weights", "weights_spec", default=None,
                      help="area,efficiency,ratio,wirelength (default: calibrated).")(fn)
    fn = click.option("--preset-ratio", type=float, default=None,
                      help="Target bounding-box aspect ratio. A sweep accepts it "
                           "only with --weights: calibrated sweeps use each "
                           "point's own bounding ratio.")(fn)
    fn = _leakage_lambda(fn)
    fn = click.option("--max-moves", type=int, default=AnnealConfig.max_moves,
                      show_default=True)(fn)
    fn = click.option("--cooling", type=float, default=AnnealConfig.cooling,
                      show_default=True)(fn)
    fn = click.option("--t-initial", type=float, default=None)(fn)
    fn = click.option("--t-threshold", type=float, default=None)(fn)
    return _out_dir(fn)


@main.command()
@click.argument("design_path", type=click.Path(exists=True, dir_okay=False))
@_anneal_flow_options
def optimize(design_path, out_dir, **options):
    """Run the two-loop farm placement flow and write the optimized design,
    before/after maps, trace log, and report."""
    source, design, anneal, flow, weights = _run_setup(design_path, **options)

    started = time.perf_counter()
    result = optimize_stack(design, anneal, flow, weights=weights,
                            ratio_target=options["preset_ratio"])
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
@click.option("--axis", type=click.Choice(AXES), required=True)
@click.option("--values", default=None,
              help="Comma-separated axis values (default: layers 1..4, "
                   "k_farm log-spaced over the tech range).")
@_anneal_flow_options
def sweep(design_path, axis, values, out_dir, **options):
    """Optimize across an axis and tabulate before/after temperatures."""
    _, design, anneal, flow, weights = _run_setup(design_path, **options)
    axis_values = (default_values(design, axis) if values is None
                   else [parse_float(v) for v in values.split(",")])
    if options["preset_ratio"] is not None and weights is None:
        raise DesignError("--preset-ratio needs --weights in a sweep: calibrated "
                          "sweeps use each point's own bounding ratio")

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
