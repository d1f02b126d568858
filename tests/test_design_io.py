import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

from tsvplan.cli import main
from tsvplan.design_io import (emit_design, format_thermal_map, parse_design,
                               write_thermal_maps)
from tsvplan.errors import DesignError, ParseError
from tsvplan.model import TechnologyParams, validate
from tsvplan.thermal import TemperatureField, GridSpec
from tsvplan.units import parse_length, parse_temperature

from conftest import REPO, SHIPPED, shipped_design

# [tech] keys that the shipped files still carry and that no longer set
# anything; emit_design does not write them
RETIRED_TECH_KEYS = ("tsv_pitch", "tsv_size", "vertical_parallel", "gradient_weighting")

MINIMAL = """
[tech]
footprint_width = 1 mm
footprint_height = 1 mm
grid_cell = 100 um
ambient = 25 C
package_resistance = 10.0

[layers]
0 10um silicon

[blocks]
heater 0 100um 100um 400um 400um macro

[power]
heater 0.5
"""

FULL = MINIMAL.replace("[tech]", "[materials]\nsilicon 149.0\n\n[tech]").replace(
    "package_resistance = 10.0", "package_resistance = 10.0\naspect_ratios = 1.0") + """
[farms]
bus 600um 600um 200um 200um 0 0 0.5 173
"""


class TestUnits:
    def test_length_forms(self):
        # whole nanometres, read from the digits
        assert parse_length("10um") == 10_000
        assert parse_length("1.5 mm") == 1_500_000
        assert parse_length("0.002m") == 2_000_000
        assert parse_length("9.999999999999999e-05m") == parse_length("100um") == 100_000

    def test_temperature_forms(self):
        assert parse_temperature("25 C") == pytest.approx(298.15)
        assert parse_temperature("298.15K") == pytest.approx(298.15)

    def test_bad_unit_rejected(self):
        with pytest.raises(DesignError):
            parse_length("10 furlongs")
        with pytest.raises(DesignError):
            parse_temperature("25 F")


class TestParse:
    def test_minimal_file(self):
        d = parse_design("<inline>", text=MINIMAL)
        assert validate(d) == []
        assert d.stack.num_layers == 1
        assert d.floorplan.blocks[0].power == 0.5
        assert d.stack.tech.ambient == pytest.approx(298.15)
        assert d.floorplan.blocks[0].x == 100_000

    def test_unknown_tech_key_rejected(self):
        text = MINIMAL.replace("package_resistance = 10.0",
                               "package_resistance = 10.0\nfrobnicate = 3")
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=text)
        assert any("frobnicate" in msg for _, msg in err.value.errors)

    def test_unknown_section_rejected_with_line(self):
        text = MINIMAL + "\n[shenanigans]\nx 1\n"
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=text)
        lines = [line for line, _ in err.value.errors]
        assert any(line > 0 for line in lines)

    def test_missing_tech_section(self):
        with pytest.raises(ParseError):
            parse_design("<inline>", text="[layers]\n0 10um silicon\n")

    def test_unresolved_net_reference(self):
        text = MINIMAL + """
[farms]
bus 500um 600um 200um 200um 0 0 0.5 173

[nets]
bus heater ghost
"""
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=text)
        assert any("ghost" in msg for _, msg in err.value.errors)

    def test_syntax_error_carries_line_number(self):
        bad = MINIMAL.replace("heater 0 100um 100um 400um 400um macro",
                              "heater 0 100um")
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=bad)
        assert err.value.errors[0][0] > 0

    def test_invalid_geometry_rejected_on_check(self):
        text = MINIMAL + """
[farms]
bus 50um 50um 200um 200um 0 0 0.5 173
"""
        with pytest.raises(DesignError):
            parse_design("<inline>", text=text)  # farm overlaps heater

    @pytest.mark.parametrize("old, new", [
        ("silicon 149.0", "silicon nan"),                          # material
        ("package_resistance = 10.0", "package_resistance = inf"),  # tech float
        ("ambient = 25 C", "ambient = 1e999 C"),                   # tech temperature
        ("grid_cell = 100 um", "grid_cell = 1e999 um"),            # tech length
        ("aspect_ratios = 1.0", "aspect_ratios = 1.0 -inf"),       # tech list
        ("0 10um silicon", "0 1e400um silicon"),                   # layer
        ("heater 0 100um 100um 400um", "heater 0 100um 100um 1e999um"),  # block
        ("0 0 0.5 173", "0 0 nan 173"),                            # farm k_lateral
        ("0 0 0.5 173", "0 0 0.5 inf"),                            # farm k_metal
        ("heater 0.5", "heater NaN"),                              # power
        ("heater 0.5", "heater 0.5 infinity"),                     # leakage power
    ])
    def test_non_finite_value_rejected_with_line(self, old, new):
        text = FULL.replace(old, new)
        assert text != FULL
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if new.split("\n")[-1] in row)
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=text)
        # a length is read from its digits, never as a float, so a huge one
        # is out of range rather than infinite
        expected = "out of range" if "um" in new.split("\n")[-1] else "non-finite"
        assert any(n == line and expected in message
                   for n, message in err.value.errors)

    def test_retired_tech_keys_are_accepted_and_not_emitted(self):
        # the shipped files were written before the keys were retired
        path = REPO / "designs" / "blockage.design"
        assert all(f"\n{key} = " in path.read_text() for key in RETIRED_TECH_KEYS)
        emitted = emit_design(parse_design(path))
        assert not any(key in emitted for key in RETIRED_TECH_KEYS)

    @pytest.mark.parametrize("row", ["vertical_parallel = true", "gradient_weighting = true",
                                     "tsv_pitch = banana"])
    def test_bad_retired_tech_key_rejected_with_line(self, row):
        text = MINIMAL.replace("package_resistance = 10.0",
                               f"package_resistance = 10.0\n{row}")
        line = text.splitlines().index(row) + 1
        with pytest.raises(ParseError) as err:
            parse_design("<inline>", text=text)
        assert [n for n, message in err.value.errors
                if row.split(" = ")[0] in message] == [line]

    def test_power_row_requires_known_block(self):
        bad = MINIMAL.replace("heater 0.5", "phantom 0.5")
        with pytest.raises(ParseError):
            parse_design("<inline>", text=bad)


class TestRoundTrip:
    def test_parse_emit_parse_identity(self):
        for design in (*map(shipped_design, SHIPPED), parse_design("<inline>", text=MINIMAL)):
            emitted = emit_design(design)
            reparsed = parse_design("<emitted>", text=emitted)
            assert reparsed == parse_design("<emitted>", text=emit_design(reparsed))
            assert emit_design(reparsed) == emitted  # bit-stable emission

    def test_round_trip_preserves_model(self):
        d1 = parse_design("<inline>", text=MINIMAL)
        d2 = parse_design("<emitted>", text=emit_design(d1))
        assert d1 == d2


class TestThermalMaps:
    def _field(self):
        grid = GridSpec(3, 2, 100_000, 1)
        t = np.array([[[300.0, 301.234, 302.567],
                       [303.0, 304.5, 305.999]]])
        return TemperatureField(t, 0.0), grid

    def test_format_contract(self):
        field, grid = self._field()
        text = format_thermal_map(field, grid, 0)
        lines = text.strip().splitlines()
        header = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == grid.cells_y
        assert all(len(r.split()) == grid.cells_x for r in rows)
        assert rows[0].split()[1] == "301.23"  # 2 decimal places
        assert any("cells_x 3" in h for h in header)
        assert any("layer 0" in h for h in header)

    def test_writes_one_file_per_layer(self, tmp_path):
        grid = GridSpec(2, 2, 100_000, 3)
        field = TemperatureField(np.full((3, 2, 2), 300.0), 0.0)
        paths = write_thermal_maps(field, grid, tmp_path)
        assert [p.name for p in paths] == ["layer0.map", "layer1.map", "layer2.map"]
        for p in paths:
            assert p.read_text().count("300.00") == 4


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_design_file_equals_its_builder(name):
    # the file is the one source: tests load its parse, and the text that
    # emit_design builds from that parse parses back to the same design
    design = parse_design(REPO / "designs" / f"{name}.design")
    assert design == shipped_design(name)
    assert parse_design("<emitted>", text=emit_design(design)) == design


def _same_lengths(line, emitted):
    """Whether two lines have the same tokens, a length in any spelling."""
    def value(token):
        try:
            return parse_length(token)
        except DesignError:
            return token
    return [value(t) for t in line.split()] == [value(t) for t in emitted.split()]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_design_is_its_builder_plus_the_retired_lines(name):
    # the file is emit_design of its own parse plus the four retired lines;
    # the file spells lengths in float metres, as emit_design once wrote them
    path = REPO / "designs" / f"{name}.design"
    shipped = path.read_text().splitlines()
    key = lambda line: line.partition("=")[0].strip()
    retired = [i for i, line in enumerate(shipped) if key(line) in RETIRED_TECH_KEYS]
    assert sorted(key(shipped[i]) for i in retired) == sorted(RETIRED_TECH_KEYS)
    tech = shipped.index("[tech]")
    section_end = next(i for i in range(tech + 1, len(shipped)) if not shipped[i])
    assert all(tech < i < section_end for i in retired)
    kept = [line for i, line in enumerate(shipped) if i not in retired]
    emitted = emit_design(parse_design(path)).splitlines()
    assert len(kept) == len(emitted)
    assert all(_same_lengths(line, again) for line, again in zip(kept, emitted))


# FULL plus a [nets] section, so that every section of the format is present
EVERY_SECTION = FULL + "\n[nets]\nbus heater\n"

# (old, new, [(line, message fragment)]): the mutation replaces the first
# `old` of EVERY_SECTION by `new`; a line is the last line of the mutated text
# equal to the given row, or 0 for a file-level error. The list is the whole
# ParseError, in order.
PARSE_BRANCHES = {
    "tech-duplicate-key": (
        "grid_cell = 100 um", "grid_cell = 100 um\ngrid_cell = 100 um",
        [("grid_cell = 100 um", "duplicate tech key 'grid_cell'")]),
    "tech-duplicate-key-first-value-bad": (
        "grid_cell = 100 um", "grid_cell = 100 furlongs\ngrid_cell = 100 um",
        [("grid_cell = 100 um", "duplicate tech key 'grid_cell'")]),
    "tech-duplicate-retired-key-first-value-bad": (
        "ambient = 25 C", "ambient = 25 C\ntsv_pitch = banana\ntsv_pitch = 4um",
        [("tsv_pitch = 4um", "duplicate tech key 'tsv_pitch'")]),
    "tech-duplicate-key-last-value-bad": (
        "grid_cell = 100 um", "grid_cell = 100 um\ngrid_cell = 100 furlongs",
        [("grid_cell = 100 furlongs", "duplicate tech key 'grid_cell'"),
         ("grid_cell = 100 furlongs", "bad length")]),
    "tech-line-without-equals": (
        "ambient = 25 C", "ambient = 25 C\nfrobnicate 3",
        [("frobnicate 3", "tech line needs: key = value")]),
    "tech-line-without-key": (
        "ambient = 25 C", "ambient = 25 C\n= 3",
        [("= 3", "tech line needs: key = value")]),
    "tech-line-without-value": (
        "ambient = 25 C", "ambient = 25 C\nleakage_coeff =",
        [("leakage_coeff =", "tech line needs: key = value")]),
    "tech-missing-required-key": (
        "ambient = 25 C\n", "", [(0, "missing required tech key 'ambient'")]),
    "tech-required-key-with-bad-value-counts-as-present": (
        "ambient = 25 C", "ambient = 25 F",
        [("ambient = 25 F", "bad temperature '25 F'")]),
    "tech-unknown-key": (
        "ambient = 25 C", "ambient = 25 C\nfrobnicate = 3",
        [("frobnicate = 3", "unknown tech key 'frobnicate'")]),
    "tech-two-sections": (
        "[farms]", "[tech]\n[farms]", [(0, "expected exactly one [tech] section, found 2")]),
    "tech-no-section": (
        "[tech]", "[nothing]",
        [("[nothing]", "unknown section [nothing]")]
        + [(row, "content outside any section") for row in (
            "footprint_width = 1 mm", "footprint_height = 1 mm", "grid_cell = 100 um",
            "ambient = 25 C", "package_resistance = 10.0", "aspect_ratios = 1.0")]
        + [(0, "expected exactly one [tech] section, found 0")]),
    "content-outside-any-section": (
        "[materials]", "stray 1\n[materials]",
        [("stray 1", "content outside any section: 'stray 1'")]),
    "retired-switch-not-a-boolean": (
        "ambient = 25 C", "ambient = 25 C\nvertical_parallel = maybe",
        [("vertical_parallel = maybe", "bad boolean 'maybe'")]),
    "retired-switch-off": (
        "ambient = 25 C", "ambient = 25 C\ngradient_weighting = no", []),
    "material-columns": (
        "silicon 149.0", "silicon 149.0 extra",
        [("silicon 149.0 extra", "material row needs: name conductivity")]),
    "material-bad-number": (
        "silicon 149.0", "silicon abc",
        [("silicon abc", "material column 'conductivity': bad number 'abc'")]),
    "layer-unknown-material": (
        "0 10um silicon", "0 10um unobtainium",
        [("0 10um unobtainium", "layer column 'material': unknown material 'unobtainium'"),
         (0, "design needs at least one layer")]),
    "layer-none": (
        "0 10um silicon\n", "", [(0, "design needs at least one layer")]),
    "layer-columns": (
        "0 10um silicon", "0 10um",
        [("0 10um", "layer row needs: index thickness material"),
         (0, "design needs at least one layer")]),
    "layer-index-not-an-integer": (
        "0 10um silicon", "x 10um silicon",
        [("x 10um silicon", "layer column 'index': invalid literal for int()"),
         (0, "design needs at least one layer")]),
    "block-columns": (
        "400um 400um macro", "400um 400um",
        [("heater 0 100um 100um 400um 400um",
          "block row needs: name layer x y width height kind"),
         ("bus heater", "net references unknown block 'heater'"),
         ("heater 0.5", "power references unknown block 'heater'")]),
    "block-layer-not-an-integer": (
        "heater 0 100um", "heater 0.0 100um",
        [("heater 0.0 100um 100um 400um 400um macro",
          "block column 'layer': invalid literal for int()"),
         ("bus heater", "net references unknown block 'heater'"),
         ("heater 0.5", "power references unknown block 'heater'")]),
    "farm-columns": (
        "0 0 0.5 173", "0 0 0.5",
        [("bus 600um 600um 200um 200um 0 0 0.5",
          "farm row needs: name x y width height start_layer end_layer k_lateral k_metal"),
         ("bus heater", "net references unknown farm 'bus'")]),
    "farm-bad-length": (
        "bus 600um 600um 200um", "bus 600um 600um banana",
        [("bus 600um 600um banana 200um 0 0 0.5 173", "farm column 'width': bad length 'banana'"),
         ("bus heater", "net references unknown farm 'bus'")]),
    "net-columns": (
        "bus heater", "bus", [("bus", "net row needs: farm client...")]),
    "net-unknown-farm": (
        "bus heater", "ghost heater",
        [("ghost heater", "net references unknown farm 'ghost'")]),
    "net-unknown-client": (
        "bus heater", "bus heater ghost",
        [("bus heater ghost", "net references unknown block 'ghost'")]),
    "power-one-column": (
        "heater 0.5", "heater", [("heater", "power row needs: block watts [leakage_ref]")]),
    "power-four-columns": (
        "heater 0.5", "heater 0.5 0.1 0.2",
        [("heater 0.5 0.1 0.2", "power row needs: block watts [leakage_ref]")]),
    "power-unknown-block": (
        "heater 0.5", "phantom 0.5",
        [("phantom 0.5", "power references unknown block 'phantom'")]),
    "power-bad-number": (
        "heater 0.5", "heater 0.5 x", [("heater 0.5 x", "bad power value: bad number 'x'")]),
    "net-duplicate-farm": (
        "bus heater", "bus heater\nbus heater",
        [("bus heater", "duplicate net farm 'bus'")]),
    "power-duplicate-block": (
        "heater 0.5", "heater 0.5 0.1\nheater 99",
        [("heater 99", "duplicate power block 'heater'")]),
}


@pytest.mark.parametrize("case", sorted(PARSE_BRANCHES))
def test_parse_error_branch(case):
    old, new, expected = PARSE_BRANCHES[case]
    assert old in EVERY_SECTION
    text = EVERY_SECTION.replace(old, new, 1)
    rows = text.splitlines()
    lines = [row and max(i for i, r in enumerate(rows, start=1) if r == row)
             for row, _ in expected]
    if not expected:
        assert parse_design("<inline>", text=text) == parse_design("<inline>",
                                                                   text=EVERY_SECTION)
        return
    with pytest.raises(ParseError) as err:
        parse_design("<inline>", text=text)
    assert [n for n, _ in err.value.errors] == lines
    for (_, fragment), (_, message) in zip(expected, err.value.errors):
        assert fragment in message


def test_duplicate_material_row_fails_validation(tmp_path):
    text = EVERY_SECTION.replace("silicon 149.0", "silicon 149.0\nsilicon 149.0", 1)
    design = parse_design("<inline>", text=text, check=False)
    assert [m.name for m in design.materials] == ["silicon", "silicon"]
    path = tmp_path / "dup.design"
    path.write_text(text)
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1
    assert "silicon: material-name-unique" in result.output


def test_default_materials_are_declared_in_first_use_order():
    text = MINIMAL.replace("0 10um silicon", "1 10um copper\n0 10um silicon\n2 5um copper")
    design = parse_design("<inline>", text=text, check=False)
    assert [m.name for m in design.materials] == ["copper", "silicon"]
    assert [layer.material.name for layer in design.stack.layers] == [
        "silicon", "copper", "copper"]


def test_tech_keys_are_the_tech_fields_in_order():
    from tsvplan.design_io import _TECH
    assert list(_TECH) == [f.name for f in dataclasses.fields(TechnologyParams)]


def test_round_trip_with_every_tech_field_off_its_default():
    text = FULL.replace("aspect_ratios = 1.0", """aspect_ratios = 0.5 1.0 2.0
k_farm_min = 0.25
k_farm_max = 7.5
leakage_coeff = 0.01
leakage_tref = 310 K
adjacency_window = 300 um
bond_thickness = 1 um
bond_conductivity = 0.5""")
    design = parse_design("<inline>", text=text)
    tech = design.stack.tech
    for field in dataclasses.fields(TechnologyParams):
        if field.default is not dataclasses.MISSING:
            assert getattr(tech, field.name) != field.default, field.name
    emitted = emit_design(design)
    assert parse_design("<emitted>", text=emitted) == design
    assert emit_design(parse_design("<emitted>", text=emitted)) == emitted
