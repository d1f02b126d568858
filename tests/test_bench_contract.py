"""Every name the traced benchmark wraps must exist in tsvplan.

perfbench/spans.py looks up public functions and methods by name when a
unit runs with --trace 1; a rename in tsvplan would otherwise only surface
as a crash there. The file is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
