import numpy as np
import pytest

from tsvplan.design_io import (emit_design, format_thermal_map, parse_design,
                               write_thermal_maps)
from tsvplan.errors import DesignError, ParseError
from tsvplan.model import validate
from tsvplan.thermal import TemperatureField, GridSpec
from tsvplan.units import parse_length, parse_temperature

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
        assert parse_length("10um") == pytest.approx(1e-5)
        assert parse_length("1.5 mm") == pytest.approx(1.5e-3)
        assert parse_length("0.002m") == pytest.approx(0.002)

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
        assert d.floorplan.blocks[0].x == pytest.approx(1e-4)

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
        assert any(n == line and "non-finite" in message
                   for n, message in err.value.errors)

    def test_power_row_requires_known_block(self):
        bad = MINIMAL.replace("heater 0.5", "phantom 0.5")
        with pytest.raises(ParseError):
            parse_design("<inline>", text=bad)


class TestRoundTrip:
    def test_parse_emit_parse_identity(self):
        from tsvplan.benchmarks import blockage_design, corememory_design
        for design in (blockage_design(), corememory_design(),
                       parse_design("<inline>", text=MINIMAL)):
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
        grid = GridSpec(3, 2, 1e-4, 1)
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
        grid = GridSpec(2, 2, 1e-4, 3)
        field = TemperatureField(np.full((3, 2, 2), 300.0), 0.0)
        paths = write_thermal_maps(field, grid, tmp_path)
        assert [p.name for p in paths] == ["layer0.map", "layer1.map", "layer2.map"]
        for p in paths:
            assert p.read_text().count("300.00") == 4
