import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvplan import metrics, model
from tsvplan.anneal import gen_move
from tsvplan.benchmarks import BUILDERS
from tsvplan.metrics import (CostWeights, adjacent_block_pairs, combine,
                             conduction_efficiency, cost, floorplan_area,
                             path_conductivity, ratio_penalty, strip_table,
                             total_efficiency, wirelength)
from tsvplan.model import move_farm
from tsvplan.thermal import grid_for, solve_design
from tsvplan.errors import DesignError

from conftest import (MM, block, farm, make_design, make_tech, one_cell_resistances,
                      path_conductivity_reference)


class TestConductionEfficiency:
    def test_no_shared_face(self):
        assert conduction_efficiency(149.0, 0.0, 1e-4) == 0.0

    def test_silicon_example(self):
        assert conduction_efficiency(149.0, 1e-9, 1e-4) == pytest.approx(1.49e-3)

    @given(st.floats(0.1, 500.0), st.floats(1e-12, 1e-6), st.floats(1e-6, 1e-2))
    def test_reciprocal_of_resistance(self, k, area, distance):
        eff = conduction_efficiency(k, area, distance)
        # the in-plane resistance of a silicon cell `distance` wide with an
        # `area` section
        r_lat, _ = one_cell_resistances(distance, area / distance, k)
        assert eff == pytest.approx(1.0 / r_lat, rel=1e-12)

    def test_farm_segment_lowers_efficiency_vs_series_oracle(self):
        # 40% of the path crossing k=2.75 material, the rest silicon
        x, area = 1e-3, 1e-9
        k_si, k_f = 149.0, 2.75
        pure = conduction_efficiency(k_si, area, x)
        # series oracle: x / (k_eff A) = sum x_i / (k_i A)
        k_eff = x / (0.4 * x / k_f + 0.6 * x / k_si)
        mixed = conduction_efficiency(k_eff, area, x)
        assert mixed < pure
        assert 1.0 / mixed == pytest.approx(
            (0.4 * x) / (k_f * area) + (0.6 * x) / (k_si * area), rel=1e-12)


class TestWirelength:
    def test_single_client(self):
        d = make_design(
            blocks=(block("b", 0, 1.3, 1.6, 0.4, 0.4),),  # center (1.5, 1.8)
            farms=(farm("f", 0.0, 0.0, 0.4, 0.4, clients=("b",)),))  # center (.2, .2)
        assert wirelength(d) == pytest.approx((1.3 + 1.6) * MM)

    def test_two_clients_sum(self):
        d = make_design(
            blocks=(block("p", 0, 0.8, 1.8, 0.4, 0.2),   # center (1.0, 1.9)
                    block("q", 0, 1.4, 0.8, 0.4, 0.2),), # center (1.6, 0.9)
            farms=(farm("f", 0.0, 0.0, 0.4, 0.4, clients=("p", "q")),))
        expected = (0.8 + 1.7) * MM + (1.4 + 0.7) * MM
        assert wirelength(d) == pytest.approx(expected)

    def test_translation_invariance(self):
        def design(offset):
            return make_design(
                blocks=(block("b", 0, 0.5 + offset, 0.5, 0.4, 0.4),),
                farms=(farm("f", 0.0 + offset, 0.0, 0.4, 0.4, clients=("b",)),))
        assert wirelength(design(0.0)) == pytest.approx(wirelength(design(0.7)))

    def test_dangling_reference(self):
        d = make_design(farms=(farm("f", 0.0, 0.0, 0.4, 0.4, clients=("nope",)),))
        with pytest.raises(DesignError):
            wirelength(d)


class TestRatioPenalty:
    def test_matching_target_is_zero(self):
        fp = make_design(blocks=(block("b", 0, 0.0, 0.0, 1.0, 1.0),)).floorplan
        assert ratio_penalty(fp, 1.0) == 0.0

    def test_simple_deviation(self):
        fp = make_design(blocks=(block("b", 0, 0.0, 0.0, 1.5, 1.0),)).floorplan
        assert ratio_penalty(fp, 1.0) == pytest.approx(0.5)

    def test_symmetric(self):
        wide = make_design(blocks=(block("b", 0, 0.0, 0.0, 1.5, 1.0),)).floorplan
        tall = make_design(blocks=(block("b", 0, 0.0, 0.0, 0.5, 1.0),)).floorplan
        assert ratio_penalty(wide, 1.0) == pytest.approx(ratio_penalty(tall, 1.0))


class TestCost:
    def test_weighted_sum_example(self):
        # raw-unit example: A=100, f_H=5, R=0.2, W=1000 with weights
        # (1, -2, 3, 0.001) -> 100 - 10 + 0.6 + 1 = 91.6
        w = CostWeights(area=1.0, efficiency=-2.0, ratio=3.0, wirelength=0.001)
        breakdown = combine(w, 100.0, 5.0, 0.2, 1000.0)
        assert breakdown.total == pytest.approx(91.6)

    def test_all_zero_weights(self):
        w = CostWeights(area=0.0, efficiency=0.0, ratio=0.0, wirelength=0.0)
        assert combine(w, 123.0, 4.5, 0.7, 99.0).total == 0.0

    def test_positive_efficiency_weight_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(area=1.0, efficiency=0.5, ratio=1.0, wirelength=1.0)

    def test_higher_efficiency_lowers_cost(self):
        w = CostWeights(area=1.0, efficiency=-2.0, ratio=3.0, wirelength=0.001)
        low = combine(w, 100.0, 5.0, 0.2, 1000.0)
        high = combine(w, 100.0, 6.0, 0.2, 1000.0)
        assert high.total < low.total

    def test_cost_is_deterministic(self, two_layer_design):
        d = two_layer_design
        w = CostWeights(area=1.0, efficiency=-1.0, ratio=1.0, wirelength=1.0)
        first = cost(d, w)
        second = cost(d, w)
        assert first == second

    def test_breakdown_identity(self, two_layer_design):
        d = two_layer_design
        w = CostWeights(area=2.0, efficiency=-3.0, ratio=0.5, wirelength=4.0)
        b = cost(d, w)
        assert b.total == pytest.approx(
            2.0 * b.area - 3.0 * b.efficiency + 0.5 * b.ratio + 4.0 * b.wirelength)


class TestTotalEfficiency:
    def test_single_block_has_no_pairs(self):
        d = make_design(blocks=(block("solo", 0, 0.5, 0.5, 0.4, 0.4),))
        assert total_efficiency(d) == 0.0

    def test_two_abutting_blocks_single_pair(self):
        d = make_design(blocks=(block("a", 0, 0.4, 0.4, 0.4, 0.4),
                                block("b", 0, 0.8, 0.4, 0.4, 0.4)))
        pairs = adjacent_block_pairs(d.floorplan.blocks, d.stack.tech)
        assert len(pairs) == 1
        # shared face 0.4 mm x 10 um thick silicon, centers 0.4 mm apart
        expected = 149.0 * (0.4 * MM * 10e-6) / (0.4 * MM)
        assert total_efficiency(d) == pytest.approx(expected)

    def test_farm_in_corridor_lowers_pair_efficiency(self):
        tech = make_tech(adjacency_window=1.0 * MM)
        blocks = (block("hot", 0, 0.2, 0.8, 0.4, 0.4),
                  block("cold", 0, 1.4, 0.8, 0.4, 0.4))
        blocked = make_design(
            blocks=blocks, tech=tech,
            farms=(farm("f", 0.7, 0.8, 0.4, 0.4, start=0, end=1),))
        open_corridor = move_farm(blocked, "f", (0.7 * MM, 1.5 * MM))
        assert total_efficiency(open_corridor) > total_efficiency(blocked)
        # series oracle for the blocked value: the farm covers the whole
        # shared face, so every strip crosses 0.4 mm of it
        table = strip_table(blocked.floorplan.blocks, blocked.stack)
        k_eff = path_conductivity(table, blocked.floorplan.farms)
        assert len(table.pairs) == 1 and len(k_eff) == 4
        x, crossing = 1.2 * MM, 0.4 * MM
        k_oracle = x / (crossing / 0.5 + (x - crossing) / 149.0)
        assert k_eff == pytest.approx([k_oracle] * 4, rel=1e-12)

    def test_landing_layer_farm_does_not_block(self):
        blocks = (block("a", 1, 0.2, 0.8, 0.4, 0.4),
                  block("b", 1, 1.4, 0.8, 0.4, 0.4))
        d = make_design(blocks=blocks, tech=make_tech(adjacency_window=1.0 * MM),
                        farms=(farm("f", 0.7, 0.8, 0.4, 0.4, start=0, end=1),))
        pure = 149.0 * (0.4 * MM * 10e-6) / (1.2 * MM)
        assert total_efficiency(d) == pytest.approx(pure)

    def test_area_term_stable_under_interior_move(self, two_layer_design):
        d = two_layer_design
        before = floorplan_area(d.floorplan)
        moved = move_farm(d, "bus", (1.0 * MM, 0.4 * MM))
        assert floorplan_area(moved.floorplan) == before


class TestCalibratedWeights:
    def test_scales_follow_initial_state(self):
        d = make_design(blocks=(block("hot", 0, 0.2, 0.8, 0.4, 0.4, power=1.0),
                                block("cold", 0, 0.8, 0.8, 0.4, 0.4)),
                        farms=(farm("f", 0.1, 0.1, 0.4, 0.4, clients=("hot",)),),
                        tech=make_tech(adjacency_window=1.0 * MM))
        grid = grid_for(d.stack)
        field = solve_design(d, grid)
        w = CostWeights.calibrated(d, field)
        assert w.efficiency == -1.0
        assert w.area > 0 and w.wirelength > 0
        f_h = total_efficiency(d)
        anchor = f_h / max(field.average - d.stack.tech.ambient, 1.0)
        assert w.area * 0.01 * floorplan_area(d.floorplan) == pytest.approx(anchor)
        assert w.wirelength * 0.01 * wirelength(d) == pytest.approx(anchor)


def _random_walk(design, steps, seed):
    """Candidates of an always-accepting random move/reshape walk over every
    farm, drawn by the annealer's own move generator."""
    names = [f.name for f in design.floorplan.farms]
    grid = grid_for(design.stack)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        design, kind, _ = gen_move(design, names, rng, grid)
        if kind != "null":
            yield design


class TestPerFarmRows:
    """path_conductivity adds memoized per-farm rows; the batch formula in
    conftest is the oracle it must match bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 16),
                              st.integers(0, 2), st.integers(0, 2),
                              st.floats(0.05, 20.0)), min_size=1, max_size=6))
    @example([(i, 0, 16, 0, 2, k) for i, k in enumerate((0.37, 1.9, 7.3, 0.11, 13.7, 2.9))])
    def test_rows_add_like_the_batch_formula(self, specs):
        # one corridor per layer between a west and an east block; farms of any
        # span and conductivity, overlapping freely, so a strip may be crossed
        # by several farms and the order of its additions shows in the last bit
        blocks = tuple(block(f"{side}{layer}", layer, x, 0.2, 0.2, 1.6)
                       for layer in range(3) for side, x in (("w", 0.0), ("e", 1.8)))
        farms = tuple(farm(f"f{i}", 0.2 + 0.1 * ix, 0.2 + 0.1 * iy, 0.1,
                           0.1 * min(height, 16 - iy) or 0.1, start=start,
                           end=min(start + extra, 2), k_lat=k)
                      for i, (ix, iy, height, start, extra, k) in enumerate(specs))
        design = make_design(blocks=blocks, farms=farms, num_layers=3,
                             tech=make_tech(adjacency_window=2.0 * MM))
        table = strip_table(design.floorplan.blocks, design.stack)
        expected = path_conductivity_reference(table, farms)
        for _ in range(2):   # the first call fills the rows memo, the second reads it
            assert np.array_equal(path_conductivity(table, farms), expected)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_the_batch_formula_across_a_start_over(self, name, monkeypatch):
        # a walk this long meets 130-320 distinct farm states; the smaller cap
        # makes the memo start over within it
        monkeypatch.setattr(metrics, "ROW_MEMO_ENTRIES", 64)
        design = BUILDERS[name]()
        table = strip_table(design.floorplan.blocks, design.stack)
        sizes = []
        for candidate in _random_walk(design, 800, seed=3):
            farms = candidate.floorplan.farms
            assert np.array_equal(path_conductivity(table, farms),
                                  path_conductivity_reference(table, farms))
            sizes.append(len(table.farm_rows))
        assert max(sizes) <= 64
        assert any(b < a for a, b in zip(sizes, sizes[1:])), "memo never started over"

    def test_memos_stay_within_their_caps(self, monkeypatch):
        monkeypatch.setattr(metrics, "ROW_MEMO_ENTRIES", 16)
        monkeypatch.setattr(model, "BLOCK_MEMO_ENTRIES", 64)
        design = BUILDERS["multicore"]()
        table = strip_table(design.floorplan.blocks, design.stack)
        rows, blocks = [], []
        for candidate in _random_walk(design, 400, seed=5):
            total_efficiency(candidate)
            rows.append(len(table.farm_rows))
            blocks.append(len(model._BLOCK_HITS.hits))
        assert max(rows) <= 16 and max(blocks) <= 64
        for sizes in (rows, blocks):
            assert any(b < a for a, b in zip(sizes, sizes[1:]))
        # several blocks tuples, walked one after another as a sweep's points
        # are, then interleaved, stay within the one cap all together
        names = sorted(BUILDERS)
        walks = [_random_walk(BUILDERS[name](), 150, seed=6) for name in names]
        sizes = [len(model._BLOCK_HITS.hits) for walk in walks for _ in walk]
        interleaved = zip(*[_random_walk(BUILDERS[name](), 150, seed=7) for name in names])
        sizes += [len(model._BLOCK_HITS.hits) for _ in interleaved]
        assert max(sizes) <= 64
