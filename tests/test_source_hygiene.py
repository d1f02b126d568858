"""Source hygiene of the package modules, read with the standard library's
ast: every import is used, and every module-level private name is referenced
in its own module. The package's __init__ re-exports names, so it is left out."""

import ast
from pathlib import Path

import pytest

import tsvplan

MODULES = sorted(p for p in Path(tsvplan.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded(tree):
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    assert sorted(imported - _loaded(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_referenced(path):
    tree = _tree(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - _loaded(tree)) == []


def test_a_stale_import_and_an_unread_private_name_are_caught(tmp_path):
    # the checks above on a module with one of each
    path = tmp_path / "stale.py"
    path.write_text("from itertools import accumulate, chain\n\n"
                    "def _unread():\n    return list(accumulate([1, 2]))\n")
    with pytest.raises(AssertionError, match="chain"):
        test_every_import_is_used(path)
    with pytest.raises(AssertionError, match="_unread"):
        test_every_private_name_is_referenced(path)


def _imported_modules(path):
    """The module of every import in the file, relative ones with their dots."""
    modules = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_metrics_does_not_import_the_solver():
    # the cost terms are priced from rectangles alone; calibration takes the
    # input's solved average temperature as a number
    modules = _imported_modules(Path(tsvplan.__file__).parent / "metrics.py")
    assert ".thermal" not in modules and "tsvplan.thermal" not in modules


# Every length is whole nanometres, so model.py and anneal.py hold no length
# tolerance. A 1e-9 or 1e-12 literal may stay only where it bounds another
# quantity; each such bound is named here with the function it sits in, and
# CHANGES.md keeps the ledger of them.
KEPT_BOUNDS = {
    # the floor of a calibrated initial temperature, in cost units, when no
    # probe move went uphill
    ("anneal.py", "calibrate_t_initial", 1e-9),
}
TOLERANCES = ("RECT_EPS", "_footprint_tol")


def _tolerances(path):
    """(function, name or value) of every tolerance name and 1e-9 or 1e-12
    literal in the module, outside KEPT_BOUNDS."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else function)
            name = (getattr(child, "id", None) or getattr(child, "attr", None)
                    or getattr(child, "name", None))
            if name in TOLERANCES:
                found.append((inner, name))
            if (isinstance(child, ast.Constant) and type(child.value) is float
                    and child.value in (1e-9, 1e-12)
                    and (path.name, inner, child.value) not in KEPT_BOUNDS):
                found.append((inner, child.value))
            visit(child, inner)
    visit(_tree(path), None)
    return found


@pytest.mark.parametrize("name", ["model.py", "anneal.py"])
def test_no_length_tolerance_is_left(name):
    assert _tolerances(Path(tsvplan.__file__).parent / name) == []


def test_a_length_tolerance_is_caught(tmp_path):
    path = tmp_path / "anneal.py"
    path.write_text("RECT_EPS = 1e-12\n\ndef calibrate_t_initial():\n"
                    "    return max(0.0, 1e-9) + 1e-09 * 0.000000000001\n")
    assert _tolerances(path) == [(None, "RECT_EPS"), (None, 1e-12),
                                 ("calibrate_t_initial", 1e-12)]
