"""The benchmark's contract with tsvplan.

perfbench/spans.py looks up public functions and methods by name when a
unit runs with --trace 1, perfbench/checks.py re-solves each unit's designs
through thermal.couple_leakage, and perfbench/unit.py ends set-up at the
first call of the module-global anneal.gen_move; a change in tsvplan would
otherwise only surface as a crash or as incorrect outputs there. The
perfbench files are loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
import inspect

import numpy as np
import pytest

from tsvplan import anneal
from tsvplan.thermal import grid_for

from conftest import REPO, shipped_design

PERFBENCH = REPO / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_layer_functions_resolve(spans):
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"tsvplan.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tsvplan.{layer}.{name}"


def test_methods_resolve(spans):
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"tsvplan.{layer}")
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for name in methods:
                assert callable(getattr(cls, name, None)), f"tsvplan.{layer}.{cname}.{name}"


def test_commands_and_observed_arguments_resolve(spans):
    from tsvplan import cli, thermal
    for command in spans.COMMANDS:
        assert command in cli.main.commands
    # the observers bind these arguments by name
    assert "network" in inspect.signature(thermal.solve_steady_state).parameters


@pytest.mark.parametrize("leakage", [None, 0.0], ids=["leakage", "no-leakage"])
def test_checks_resolve_balances_energy_and_matches_solve_field(leakage):
    checks = _load("checks")
    design = shipped_design("blockage")
    if leakage is not None:
        tech = dataclasses.replace(design.stack.tech, leakage_coeff=leakage)
        design = dataclasses.replace(design, stack=dataclasses.replace(design.stack, tech=tech))
    grid = grid_for(design.stack)
    field, imbalance = checks.resolve(design, grid)
    assert imbalance <= checks.ENERGY_RTOL
    context = anneal.Evaluator(design, grid)   # the field a run reads
    solved = context.solve(context.state_of(design))
    assert np.abs(field.t - solved.t).max() <= checks.TEMPERATURE_TOL_K


def test_every_candidate_goes_through_the_module_gen_move(monkeypatch):
    """One anneal.gen_move call per candidate, calibration probes included,
    and no origin raster built before the first: unit.py's set-up ends
    there, so work done earlier, or candidates drawn around it, would move
    into setup_s."""
    calls = []
    inner = anneal.gen_move

    def counted(context, *args):
        if not calls:
            assert not context._origins and not context._groups
        calls.append(args)
        return inner(context, *args)

    monkeypatch.setattr(anneal, "gen_move", counted)
    design = shipped_design("multicore")
    result = anneal.optimize_stack(design, anneal.AnnealConfig(seed=1, max_moves=5),
                                   anneal.FlowConfig(outer_iterations=2))
    passes = sum(p.eligible > 0 for p in result.trace.passes)
    assert passes == 2
    assert len(calls) == len(result.trace.moves) + passes * anneal.PROBE_MOVES
