"""The study scripts in scripts/ import what they use from tsvplan.

Each script is loaded as a module, which runs its imports but not main(),
so a library name a script relies on cannot be removed or renamed unseen.
The analysis-only blockage study also runs, so its path to designs/ is read.
"""

import importlib.util

import pytest

from conftest import REPO

SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(load(path).main)


def test_blockage_study_prints_a_row_per_conductivity(capsys):
    study = load(REPO / "scripts" / "blockage_study.py")
    study.main()
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert [float(row[0]) for row in rows] == study.LADDER
    peak = {float(row[0]): float(row[1]) for row in rows}
    assert peak[0.5] > peak[149.0]
