from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvplan import anneal, metrics
from tsvplan.anneal import Evaluator, gen_move
from tsvplan.metrics import (UNWEIGHTED, CostWeights, adjacent_block_pairs, combine,
                             conduction_efficiency, cost, floorplan_area,
                             pair_efficiency, path_conductivity, ratio_penalty,
                             strip_table, total_efficiency, wirelength)
from tsvplan.model import move_farm
from tsvplan.thermal import grid_for, solve_design
from tsvplan.errors import DesignError

from tsvplan.units import metres

from conftest import (MM, SHIPPED, block, farm, make_design, make_tech, mm,
                      one_cell_resistances, shipped_design)


class TestConductionEfficiency:
    def test_no_shared_face(self):
        assert conduction_efficiency(149.0, 0.0, 1e-4) == 0.0

    def test_silicon_example(self):
        assert conduction_efficiency(149.0, 1e-9, 1e-4) == pytest.approx(1.49e-3)

    @given(st.floats(0.1, 500.0), st.integers(1, 10**6), st.integers(10**3, 10**7))
    def test_reciprocal_of_resistance(self, k, thickness, distance):
        eff = conduction_efficiency(k, metres(distance * thickness, 2), metres(distance))
        # the in-plane resistance of a silicon cell `distance` nm wide and
        # `thickness` nm thick
        r_lat, _ = one_cell_resistances(distance, thickness, k)
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
        assert wirelength(d) == metres(mm(1.3) + mm(1.6)) == 2.9e-3

    def test_two_clients_sum(self):
        d = make_design(
            blocks=(block("p", 0, 0.8, 1.8, 0.4, 0.2),   # center (1.0, 1.9)
                    block("q", 0, 1.4, 0.8, 0.4, 0.2),), # center (1.6, 0.9)
            farms=(farm("f", 0.0, 0.0, 0.4, 0.4, clients=("p", "q")),))
        expected = 0.8e-3 + 1.7e-3 + 1.4e-3 + 0.7e-3
        assert wirelength(d) == pytest.approx(expected)

    def test_translation_invariance(self):
        def design(offset):
            return make_design(
                blocks=(block("b", 0, 0.5 + offset, 0.5, 0.4, 0.4),),
                farms=(farm("f", 0.0 + offset, 0.0, 0.4, 0.4, clients=("b",)),))
        assert wirelength(design(0.0)) == wirelength(design(0.7))

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
        expected = 149.0 * (0.4e-3 * 10e-6) / 0.4e-3
        assert total_efficiency(d) == pytest.approx(expected)

    def test_farm_in_corridor_lowers_pair_efficiency(self):
        tech = make_tech(adjacency_window=MM)
        blocks = (block("hot", 0, 0.2, 0.8, 0.4, 0.4),
                  block("cold", 0, 1.4, 0.8, 0.4, 0.4))
        blocked = make_design(
            blocks=blocks, tech=tech,
            farms=(farm("f", 0.7, 0.8, 0.4, 0.4, start=0, end=1),))
        open_corridor = move_farm(blocked, "f", (mm(0.7), mm(1.5)))
        assert total_efficiency(open_corridor) > total_efficiency(blocked)
        # series oracle for the blocked value: the farm covers the whole
        # shared face, so every strip crosses 0.4 mm of it
        table = strip_table(blocked.floorplan.blocks, blocked.stack)
        k_eff = path_conductivity(table, blocked.floorplan.farms)
        assert len(table.pairs) == 1 and len(k_eff) == 4
        x, crossing = 1.2e-3, 0.4e-3
        k_oracle = x / (crossing / 0.5 + (x - crossing) / 149.0)
        assert k_eff == pytest.approx([k_oracle] * 4, rel=1e-12)

    def test_landing_layer_farm_does_not_block(self):
        blocks = (block("a", 1, 0.2, 0.8, 0.4, 0.4),
                  block("b", 1, 1.4, 0.8, 0.4, 0.4))
        d = make_design(blocks=blocks, tech=make_tech(adjacency_window=MM),
                        farms=(farm("f", 0.7, 0.8, 0.4, 0.4, start=0, end=1),))
        pure = 149.0 * (0.4e-3 * 10e-6) / 1.2e-3
        assert total_efficiency(d) == pytest.approx(pure)

    def test_area_term_stable_under_interior_move(self, two_layer_design):
        d = two_layer_design
        before = floorplan_area(d.floorplan)
        moved = move_farm(d, "bus", (MM, mm(0.4)))
        assert floorplan_area(moved.floorplan) == before

    @pytest.mark.parametrize("name", ["tenths", "blockage"])
    def test_sum_is_a_left_fold_on_every_python(self, name, monkeypatch):
        # Python 3.12's sum() compensates (Neumaier) and 3.11's does not; on
        # these terms the two orders differ, and f_H must be the left fold
        design = shipped_design("blockage")
        table = strip_table(design.floorplan.blocks, design.stack)
        terms = pair_efficiency(
            table, path_conductivity(table, design.floorplan.farms)).tolist()
        if name == "tenths":
            # ten unblocked pairs whose farm-free terms are 0.1 each
            terms = [0.1] * 10
            tenths = table._replace(faces=(), free=tuple(terms))
            monkeypatch.setattr(metrics, "strip_table", lambda blocks, stack: tenths)
        left = 0.0
        for term in terms:
            left += term
        assert neumaier_sum(terms) != left
        assert total_efficiency(design) == left


def neumaier_sum(terms):
    """Compensated summation, the order of Python 3.12's sum() over floats."""
    total = compensation = 0.0
    for term in terms:
        t = total + term
        if abs(total) >= abs(term):
            compensation += (total - t) + term
        else:
            compensation += (term - t) + total
        total = t
    return total + compensation


class TestCalibratedWeights:
    def test_scales_follow_initial_state(self):
        d = make_design(blocks=(block("hot", 0, 0.2, 0.8, 0.4, 0.4, power=1.0),
                                block("cold", 0, 0.8, 0.8, 0.4, 0.4)),
                        farms=(farm("f", 0.1, 0.1, 0.4, 0.4, clients=("hot",)),),
                        tech=make_tech(adjacency_window=MM))
        grid = grid_for(d.stack)
        field = solve_design(d, grid)
        w = CostWeights.calibrated(d, cost(d, UNWEIGHTED), field)
        assert w.efficiency == -1.0
        assert w.area > 0 and w.wirelength > 0
        f_h = total_efficiency(d)
        anchor = f_h / max(field.average - d.stack.tech.ambient, 1.0)
        assert w.area * 0.01 * floorplan_area(d.floorplan) == pytest.approx(anchor)
        assert w.wirelength * 0.01 * wirelength(d) == pytest.approx(anchor)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_equals_the_formula_of_the_separate_terms(self, name):
        # calibrated reads f_H, area and wirelength from one unweighted cost
        # breakdown; its weights are those of the three terms computed one by one
        d = shipped_design(name)
        field = solve_design(d, grid_for(d.stack))
        tech = d.stack.tech
        f_h = total_efficiency(d)
        anchor = f_h / max(field.average - tech.ambient, 1.0) if f_h > 0 else 1.0
        area0, wl0 = floorplan_area(d.floorplan), wirelength(d)
        area_w = anchor / (0.01 * area0) if area0 > 0 else 0.0
        wl_w = anchor / (0.01 * wl0) if wl0 > 0 else 0.0
        x0, y0, x1, y1 = d.floorplan.bounding_box
        assert CostWeights.calibrated(d, cost(d, UNWEIGHTED), field) == CostWeights(
            area_w, -1.0, area_w * metres(tech.footprint_width * tech.footprint_height, 2), wl_w,
            (x1 - x0) / (y1 - y0) if y1 - y0 > 0 else 1.0)


def batch_efficiency(design):
    """f_H from all farms at once: pair_efficiency over path_conductivity,
    folded in pair order."""
    table = strip_table(design.floorplan.blocks, design.stack)
    if not table.pairs:
        return 0.0
    terms = pair_efficiency(table, path_conductivity(table, design.floorplan.farms))
    return float(np.cumsum(terms)[-1])


def batch_wirelength(design):
    """A plain walk over every farm and client, recomputing each centre."""
    centers = {}
    for b in design.floorplan.blocks:
        centers.setdefault(b.name, (b.x + b.width / 2, b.y + b.height / 2))
    total = 0.0
    for f in design.floorplan.farms:
        fx, fy = f.x + f.width / 2, f.y + f.height / 2
        for client in f.clients:
            cx, cy = centers[client]
            total += abs(fx - cx) + abs(fy - cy)
    return metres(total)


def batch_area(design):
    """The bounding-box area from freshly computed rects of everything placed."""
    fp = design.floorplan
    rects = [(e.x, e.y, e.x + e.width, e.y + e.height) for e in fp.blocks + fp.farms]
    x0, y0 = min(r[0] for r in rects), min(r[1] for r in rects)
    return metres((max(r[2] for r in rects) - x0) * (max(r[3] for r in rects) - y0), 2)


WEIGHTS = CostWeights(area=1e3, efficiency=-1.0, ratio=1e-6, wirelength=0.5)


def batch_cost(design, weights=WEIGHTS):
    return combine(weights, batch_area(design), batch_efficiency(design),
                   ratio_penalty(design.floorplan, weights.ratio_target),
                   batch_wirelength(design))


def _walk(design, steps, seed):
    """An always-accepting random move/reshape walk over every farm, drawn by
    the annealer's own move generator through one search context; yields the
    context and each candidate state."""
    ev = Evaluator(design, grid_for(design.stack), WEIGHTS)
    state = ev.state_of(design)
    eligible = list(range(len(design.floorplan.farms)))
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        state, kind, _ = gen_move(ev, state, eligible, rng)
        if kind != "null":
            yield ev, state


def _memos(ev):
    """Every memo of a search context, its field memo first."""
    return ev._fields, ev._priced, ev._rows, ev._terms, ev._groups, ev._origins


class TestPerFarmRows:
    """total_efficiency, cost and a search context's pricing fold per-farm
    and per-pair terms, memoized in the context; the batch formulas above are
    the oracle they must match bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 16),
                              st.integers(0, 2), st.integers(0, 2),
                              st.floats(0.05, 20.0)), min_size=1, max_size=6))
    @example([(i, 0, 16, 0, 2, k) for i, k in enumerate((0.37, 1.9, 7.3, 0.11, 13.7, 2.9))])
    @example([(3, 0, 16, 0, 2, 0.37), (3, 0, 16, 0, 2, 1.9)])   # same rect, other k
    @example([(0, 0, 16, 0, 2, 7.44), (1, 0, 16, 0, 2, 14.67), (2, 0, 16, 0, 2, 9.41)])
    def test_rows_add_like_the_batch_formula(self, specs):
        # one corridor per layer between a west and an east block; farms of any
        # span and conductivity, overlapping freely, so a strip may be crossed
        # by several farms and the order of its additions shows in the last bit
        # (in the third example, summing its farms in reverse changes f_H)
        blocks = tuple(block(f"{side}{layer}", layer, x, 0.2, 0.2, 1.6)
                       for layer in range(3) for side, x in (("w", 0.0), ("e", 1.8)))
        farms = tuple(farm(f"f{i}", 0.2 + 0.1 * ix, 0.2 + 0.1 * iy, 0.1,
                           0.1 * min(height, 16 - iy) or 0.1, start=start,
                           end=min(start + extra, 2), k_lat=k,
                           clients=(f"w{start}", f"e{min(start + extra, 2)}"))
                      for i, (ix, iy, height, start, extra, k) in enumerate(specs))
        design = make_design(blocks=blocks, farms=farms, num_layers=3,
                             tech=make_tech(adjacency_window=2 * MM))
        expected = batch_efficiency(design), batch_cost(design)
        ev = Evaluator(design, grid_for(design.stack), WEIGHTS)
        for _ in range(2):   # the first call fills the context's memos, the second reads them
            again = make_design(blocks=blocks, farms=farms, num_layers=3,
                                tech=design.stack.tech)
            assert total_efficiency(design) == expected[0]
            assert cost(design, WEIGHTS) == cost(again, WEIGHTS) == expected[1]
            assert ev.breakdown(ev.state_of(again)) == expected[1]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_the_batch_formula_across_a_start_over(self, name, monkeypatch):
        # a walk this long meets 130-320 distinct farm states, and each design
        # has at least three farm shapes, so with a cap of 2 every memo of the
        # context starts over within it
        monkeypatch.setattr(anneal, "MEMO_ENTRIES", 2)
        sizes = defaultdict(list)   # id(memo) -> its size after each lookup
        inner = anneal._recall

        def recall(memo, *args):
            value = inner(memo, *args)
            sizes[id(memo)].append(len(memo))
            return value
        monkeypatch.setattr(anneal, "_recall", recall)
        for ev, state in _walk(shipped_design(name), 800, seed=3):
            candidate = ev.design_of(state)
            assert ev.breakdown(state) == cost(candidate, WEIGHTS) == batch_cost(candidate)
        for memo in _memos(ev)[1:]:   # the walk prices states and solves none
            seen = sizes[id(memo)]
            assert max(seen) <= 2
            assert any(b < a for a, b in zip(seen, seen[1:])), "a memo never started over"

    def test_memos_stay_within_their_caps(self, monkeypatch):
        monkeypatch.setattr(anneal, "MEMO_ENTRIES", 16)
        sizes = []
        for ev, state in _walk(shipped_design("multicore"), 400, seed=5):
            ev.cost(state)
            if len(sizes) < 20:
                ev.solve(state)
            sizes.append(tuple(len(memo) for memo in _memos(ev)))
        assert max(max(s) for s in sizes) <= 16
        # the memos keyed on farm rectangles, the fields of the first 20
        # states among them, outgrow the cap and start over; legal_origins'
        # is keyed on the farm shapes, of which there are three
        for memo in list(zip(*sizes))[:5]:
            assert any(b < a for a, b in zip(memo, memo[1:]))
        # several contexts, walked one after another as a sweep's points are,
        # then interleaved, each stay within the cap and share no memo
        def largest(ev, state):
            ev.cost(state)
            return ev, max(len(memo) for memo in _memos(ev))

        walks = [_walk(shipped_design(name), 150, seed=6) for name in SHIPPED]
        steps = [largest(ev, state) for walk in walks for ev, state in walk]
        interleaved = zip(*[_walk(shipped_design(name), 150, seed=7) for name in SHIPPED])
        steps += [largest(ev, state) for step in interleaved for ev, state in step]
        assert max(size for _, size in steps) <= 16
        contexts = list({id(ev): ev for ev, _ in steps}.values())
        assert len(contexts) == 2 * len(SHIPPED)
        assert len({id(memo) for ev in contexts for memo in _memos(ev)}) == 6 * len(contexts)
