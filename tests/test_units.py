"""Lengths are whole nanometres: parse_length reads any spelling of a length
exactly, and format_length writes the shortest exact one back."""

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from tsvplan.cli import main
from tsvplan.design_io import emit_design
from tsvplan.errors import DesignError
from tsvplan.units import MAX_LENGTH_NM, format_length, parse_length

from conftest import SHIPPED, shipped_design

UNIT_EXPONENT = {"um": 3, "mm": 6, "m": 9}


def spelled(n, unit, zeros=0, plus=False, exponent=False, spaces=False):
    """n nanometres written in unit: as a decimal with `zeros` trailing zeros,
    or as digits and a decimal exponent, with a leading + on a positive n and
    spaces around it and before the unit."""
    k = UNIT_EXPONENT[unit]
    sign = "-" if n < 0 else "+" if plus else ""
    if exponent:
        body = f"{abs(n)}{'0' * zeros}e-{k + zeros}"
    else:
        whole, part = divmod(abs(n), 10**k)
        body = f"{whole}.{part:0{k}d}{'0' * zeros}"
    return f"  {sign}{body} {unit} " if spaces else f"{sign}{body}{unit}"


@given(st.integers(-MAX_LENGTH_NM, MAX_LENGTH_NM), st.data())
def test_every_spelling_of_a_length_parses_to_it(n, data):
    for unit in UNIT_EXPONENT:
        text = spelled(n, unit, data.draw(st.integers(0, 3)), data.draw(st.booleans()),
                       data.draw(st.booleans()), data.draw(st.booleans()))
        assert parse_length(text) == n, text
    assert parse_length(format_length(n)) == n


@given(st.sampled_from([MAX_LENGTH_NM + 1, -MAX_LENGTH_NM - 1, 10**17]), st.data())
def test_a_length_past_2_53_nm_is_a_data_error(n, data):
    text = spelled(n, data.draw(st.sampled_from(sorted(UNIT_EXPONENT))),
                   data.draw(st.integers(0, 3)), data.draw(st.booleans()),
                   data.draw(st.booleans()), data.draw(st.booleans()))
    with pytest.raises(DesignError, match="out of range"):
        parse_length(text)


def test_check_exits_1_on_a_length_past_2_53_nm(tmp_path):
    path = tmp_path / "huge.design"
    path.write_text(f"""[tech]
footprint_width = {spelled(MAX_LENGTH_NM + 1, "mm")}
footprint_height = 2mm
grid_cell = 100um
ambient = 25C
package_resistance = 10.0

[layers]
0 10um silicon
""")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1
    assert "data error: " in result.output and "out of range" in result.output


@pytest.mark.parametrize("text, nm", [
    ("100um", 100_000), ("0.1mm", 100_000), ("0.0001m", 100_000), ("1e-4m", 100_000),
    ("9.999999999999999e-05m", 100_000), ("0.0013000000000000002m", 1_300_000),
    # finer digits round half to even, on the exact decimal
    ("0.0005um", 0), ("0.0015um", 2), ("0.0025um", 2), ("-0.0015um", -2),
    ("0.00050000000000000000000000000001um", 1), ("1e-999999999m", 0),
])
def test_parse_length_is_exact(text, nm):
    assert parse_length(text) == nm


@pytest.mark.parametrize("nm, text", [
    (2_000_000, "2mm"), (1_300_000, "1300um"), (100_000, "100um"), (500, "0.5um"),
    (1, "0.001um"), (0, "0mm"), (-100_000, "-100um"), (-3_000_000, "-3mm"),
])
def test_format_length_writes_the_shortest_exact_form(nm, text):
    assert format_length(nm) == text


@pytest.mark.parametrize("name", SHIPPED)
def test_every_emitted_length_is_canonical(name):
    # each length of an emitted design is the shortest exact form of its nanometres
    design = shipped_design(name)
    lengths = 0
    for line in emit_design(design).splitlines():
        for token in line.split():
            try:
                nm = parse_length(token)
            except DesignError:
                continue
            assert token == format_length(nm)
            lengths += 1
    assert lengths > 20
