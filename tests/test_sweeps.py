import json

import pytest
from click.testing import CliRunner

from tsvplan.anneal import AnnealConfig, FlowConfig
from tsvplan import sweeps
from tsvplan.cli import main
from tsvplan.errors import DesignError, GridError, SolverError
from tsvplan.model import validate
from tsvplan.sweeps import (default_values, run_sweep, set_farm_conductivity,
                            with_memory_layers)
from tsvplan.thermal import grid_for

from conftest import REPO, shipped_design


class TestSetFarmConductivity:
    def test_overrides_every_farm(self):
        d = set_farm_conductivity(shipped_design("corememory"), 2.75)
        assert all(f.k_lateral == 2.75 for f in d.floorplan.farms)
        assert validate(d) == []

    def test_rejects_nonpositive(self):
        for k in (0.0, float("nan")):
            with pytest.raises(DesignError):
                set_farm_conductivity(shipped_design("corememory"), k)


class TestWithMemoryLayers:
    def test_identity_when_count_matches(self):
        d = shipped_design("corememory")
        assert with_memory_layers(d, 1) is d

    def test_extension_clones_template_layer(self):
        d = shipped_design("corememory")
        d4 = with_memory_layers(d, 4)
        assert d4.stack.num_layers == 5
        assert validate(d4) == []
        # template blocks replicated per new layer with unique names
        mem_blocks = [b for b in d4.floorplan.blocks if b.name.startswith("mem")]
        assert len(mem_blocks) == 2 * 4
        assert len({b.name for b in d4.floorplan.blocks}) == len(d4.floorplan.blocks)
        # farms landing on the old top now land on the new top
        assert all(f.end_layer == 4 for f in d4.floorplan.farms)

    def test_extension_preserves_power_scaling(self):
        d = shipped_design("corememory")
        base = sum(b.power for b in d.floorplan.blocks if b.layer == 1)
        d3 = with_memory_layers(d, 3)
        for layer in (1, 2, 3):
            layer_power = sum(b.power for b in d3.floorplan.blocks
                              if b.layer == layer)
            assert layer_power == pytest.approx(base)

    def test_shrink_is_inverse_of_extension(self):
        d = shipped_design("corememory")
        d4 = with_memory_layers(d, 4)
        back = with_memory_layers(d4, 1)
        assert back.stack.num_layers == 2
        assert validate(back) == []
        assert all(f.end_layer == 1 for f in back.floorplan.farms)
        assert {b.name for b in back.floorplan.blocks} \
            == {b.name for b in d.floorplan.blocks}

    def test_requires_two_layers(self):
        from conftest import make_design, block
        single = make_design(blocks=(block("b", 0, 0.2, 0.2, 0.4, 0.4),),
                             num_layers=1)
        with pytest.raises(DesignError):
            with_memory_layers(single, 2)

    @pytest.mark.parametrize("count", [1.9, 2.5])
    def test_fractional_count_is_a_point_error(self, count):
        d = shipped_design("corememory")
        with pytest.raises(DesignError, match="whole number"):
            with_memory_layers(d, count)
        (point,) = run_sweep(d, "layers", [count], AnnealConfig(), FlowConfig())
        assert point.value == count
        assert point.status.startswith("error: ") and "whole number" in point.status

    def test_an_oversized_count_fails_before_any_layer_is_cloned(self, monkeypatch):
        def clone(*args):
            raise AssertionError("a layer was cloned")
        monkeypatch.setattr(sweeps, "Layer", clone)
        d = shipped_design("corememory")
        with pytest.raises(GridError, match="grid cells"):
            with_memory_layers(d, 1e12)

    def test_the_layer_limit_reads_the_run_cell_size(self, monkeypatch):
        d = shipped_design("corememory")
        monkeypatch.setattr(sweeps, "MAX_GRID_CELLS", 4 * grid_for(d.stack).cells_per_layer)
        assert with_memory_layers(d, 3).stack.num_layers == 4
        with pytest.raises(GridError, match="grid cells"):
            with_memory_layers(d, 4)
        # cells twice as wide: a quarter of the cells per layer
        assert with_memory_layers(d, 15, 200_000).stack.num_layers == 16
        with pytest.raises(GridError, match="grid cells"):
            with_memory_layers(d, 16, 200_000)

        # a sweep checks each count at its run's cell size
        def reached(*args, **kwargs):
            raise SolverError("past the limit")
        monkeypatch.setattr(sweeps, "optimize_stack", reached)
        statuses = [point.status for cell in (None, 200_000) for point in
                    run_sweep(d, "layers", [15], AnnealConfig(), FlowConfig(cell_size=cell))]
        assert "grid cells" in statuses[0] and statuses[1] == "error: past the limit"

    def test_integral_float_count_is_accepted(self):
        d = shipped_design("corememory")
        assert with_memory_layers(d, 2.0) == with_memory_layers(d, 2)


def test_a_layer_sweep_variant_that_fails_validation_fails_its_point(tmp_path):
    # cpu1 takes the name with_memory_layers gives mem_n_l1's clone on layer 2:
    # the file validates, its 2-layer variant does not
    path = tmp_path / "clash.design"
    path.write_text((REPO / "designs" / "corememory.design").read_text()
                    .replace("cpu1", "mem_n_l1_m2"))
    out = tmp_path / "out"
    runner = CliRunner()
    assert runner.invoke(main, ["check", str(path)]).exit_code == 0
    result = runner.invoke(main, ["sweep", str(path), "--axis", "layers", "--values", "2",
                                  "--max-moves", "2", "--out-dir", str(out)])
    assert result.exit_code == 2
    [point] = json.loads((out / "sweep.json").read_text())["points"]
    assert point["status"].startswith("error: invalid design: ")
    assert "mem_n_l1_m2: name-unique" in point["status"]
    assert point["after_stack_avg"] is None


def test_default_axis_values():
    d = shipped_design("corememory")
    assert default_values(d, "layers") == [1, 2, 3, 4]
    ks = default_values(d, "k_farm")
    assert ks[0] == pytest.approx(d.stack.tech.k_farm_min)
    assert ks[-1] == pytest.approx(d.stack.tech.k_farm_max)
    assert all(a < b for a, b in zip(ks, ks[1:]))
