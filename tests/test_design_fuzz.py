"""Mutated shipped design files are accepted or rejected as data, never crash.

Each example drops, duplicates or swaps lines of a file in designs/, or
replaces one of its tokens with a non-finite, negative, overflowing, bare-word
or wrongly-unitted one. `tsvplan check` must exit 0 or 1 (never 3) within the
deadline, and a file it accepts must round-trip through emit_design. Only
`check` runs: a mutated grid_cell can ask for a solve far too large for a test.
"""

from datetime import timedelta
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvplan.cli import main
from tsvplan.design_io import emit_design, parse_design

DESIGNS = {p.stem: p.read_text()
           for p in sorted((Path(__file__).resolve().parents[1] / "designs").glob("*.design"))}
TOKENS = ("nan", "inf", "-inf", "-1", "0", "1e999", "-1e999", "banana", "true", "=",
          "10furlongs", "25 F", "10um", "1e999um", "25C", "1.5", "[tech]", "#")


@st.composite
def mutated(draw):
    lines = DESIGNS[draw(st.sampled_from(sorted(DESIGNS)))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "token")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def design_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.design"


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(text=mutated())
def test_check_accepts_or_rejects_mutated_designs(design_path, text):
    design_path.write_text(text)
    result = CliRunner().invoke(main, ["check", str(design_path)])
    assert result.exit_code in (0, 1), result.output
    if result.exit_code == 0:
        design = parse_design(design_path)
        assert parse_design("<emitted>", text=emit_design(design)) == design
