import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvplan.errors import InvalidMoveError
import numpy as np

from tsvplan.anneal import Evaluator, gen_move
from tsvplan.metrics import CostWeights
from tsvplan.model import (Block, Floorplan, Material, TsvFarm, _place_farm, farm_neighbours,
                           farm_overlap, farm_shape, fixed_conflict, legal_origins, move_farm,
                           origin_lattice, rects_overlap, reshape_farm,
                           validate)
from tsvplan.thermal import grid_for

from conftest import MM, SHIPPED, UM, block, farm, make_design, make_tech, mm, shipped_design


def rect_intersects(a, b):
    # independent oracle: closed-interval test with strict interior overlap
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    return ix > 0 and iy > 0


NAN = float("nan")


def _tech(**kw):
    return lambda d: dataclasses.replace(d, stack=dataclasses.replace(
        d.stack, tech=dataclasses.replace(d.stack.tech, **kw)))


def _layers(**kw):
    return lambda d: dataclasses.replace(d, stack=dataclasses.replace(
        d.stack, layers=tuple(dataclasses.replace(l, **kw) for l in d.stack.layers)))


def _block(**kw):
    return lambda d: d.with_floorplan(dataclasses.replace(
        d.floorplan, blocks=(dataclasses.replace(d.floorplan.blocks[0], **kw),)))


def _farm(**kw):
    return lambda d: d.with_floorplan(dataclasses.replace(
        d.floorplan, farms=(dataclasses.replace(d.floorplan.farms[0], **kw),)))


BAD_NUMBERS = {
    "footprint-nan": (_tech(footprint_width=NAN), "footprint-positive"),
    "grid-cell-nan": (_tech(grid_cell=NAN), "grid-cell-positive"),
    "ambient-nan": (_tech(ambient=NAN), "ambient-positive"),
    "package-resistance-nan": (_tech(package_resistance=NAN), "package-resistance-positive"),
    "package-resistance-zero": (_tech(package_resistance=0.0), "package-resistance-positive"),
    "leakage-coeff-nan": (_tech(leakage_coeff=NAN), "leakage-coeff-range"),
    "leakage-coeff-negative": (_tech(leakage_coeff=-1.0), "leakage-coeff-range"),
    "leakage-coeff-inf": (_tech(leakage_coeff=float("inf")), "leakage-coeff-range"),
    "k-farm-range-nan": (_tech(k_farm_min=NAN), "k-farm-range"),
    "k-farm-min-negative": (_tech(k_farm_min=-1.0), "k-farm-range"),
    "k-farm-max-inf": (_tech(k_farm_max=float("inf")), "k-farm-range"),
    "aspect-ratio-zero": (_tech(aspect_ratios=(0.0, 1.0)), "aspect-ratios-positive"),
    "aspect-ratio-nan": (_tech(aspect_ratios=(1.0, NAN)), "aspect-ratios-positive"),
    "bond-thickness-negative": (_tech(bond_thickness=-5 * UM), "bond-thickness-range"),
    "bond-thickness-nan": (_tech(bond_thickness=NAN), "bond-thickness-range"),
    "bond-conductivity-zero": (_tech(bond_conductivity=0.0), "bond-conductivity-positive"),
    "bond-conductivity-negative": (_tech(bond_conductivity=-0.29),
                                   "bond-conductivity-positive"),
    "bond-conductivity-inf": (_tech(bond_conductivity=float("inf")),
                              "bond-conductivity-positive"),
    "leakage-tref-negative": (_tech(leakage_tref=-5.0), "leakage-tref-positive"),
    "leakage-tref-nan": (_tech(leakage_tref=NAN), "leakage-tref-positive"),
    "adjacency-window-negative": (_tech(adjacency_window=-MM), "adjacency-window-positive"),
    "adjacency-window-nan": (_tech(adjacency_window=NAN), "adjacency-window-positive"),
    "material-nan": (lambda d: dataclasses.replace(d, materials=(Material("silicon", NAN),)),
                     "conductivity-positive"),
    "layer-material-nan": (_layers(material=Material("silicon", NAN)), "conductivity-positive"),
    "layer-thickness-nan": (_layers(thickness=NAN), "layer-thickness-range"),
    "block-width-nan": (_block(width=NAN), "size-positive"),
    "block-power-nan": (_block(power=NAN), "power-nonnegative"),
    "block-power-inf": (_block(power=float("inf")), "power-nonnegative"),
    "block-leakage-nan": (_block(leakage_ref=NAN), "leakage-nonnegative"),
    "farm-height-nan": (_farm(height=NAN), "size-positive"),
    "farm-area-nan": (_farm(area=NAN), "area-positive"),
    "farm-k-metal-nan": (_farm(k_metal=NAN), "conductivity-positive"),
}


class TestValidate:
    @pytest.mark.parametrize("case", list(BAD_NUMBERS))
    def test_nan_and_out_of_range_numbers_flagged(self, case):
        change, rule = BAD_NUMBERS[case]
        d = make_design(blocks=(block("a", 0, 0.0, 0.0, 0.5, 0.5, power=1.0, leakage=0.1),),
                        farms=(farm("f", 1.0, 1.0, 0.4, 0.4),))
        assert validate(d) == []
        assert rule in [v.rule for v in validate(change(d))]

    def test_nan_silicon_in_a_built_design_flagged(self):
        # a design built in code never meets the parser's non-finite check
        base = shipped_design("blockage")
        silicon = Material("silicon", NAN)
        layers = tuple(dataclasses.replace(l, material=silicon) for l in base.stack.layers)
        d = dataclasses.replace(base, stack=dataclasses.replace(base.stack, layers=layers))
        assert validate(base) == []
        assert [v.rule for v in validate(d)] == ["conductivity-positive"] * len(layers)

    def test_overlapping_blocks_flagged(self):
        d = make_design(blocks=(block("a", 0, 0.0, 0.0, 1.0, 1.0),
                                block("b", 0, 0.5, 0.0, 1.0, 1.0)))
        rules = [v.rule for v in validate(d)]
        assert "no-overlap" in rules

    def test_area_conservation_flagged(self):
        good = farm("f", 0.5, 0.5, 0.4, 0.4)
        # w * h may miss the area by farm_shape's rounding, half a nm per side
        slack = (good.width + good.height) // 2
        for area, conserved in ((good.area + slack, True), (good.area - slack, True),
                                (good.area + slack + 1, False), (good.area * 1001 // 1000, False)):
            d = make_design(farms=(dataclasses.replace(good, area=area),))
            assert any(v.rule == "area-conserved" for v in validate(d)) is not conserved

    def test_wellformed_design_is_clean(self, two_layer_design):
        d = two_layer_design
        assert validate(d) == []
        # cross-check with a brute-force pairwise intersection oracle
        for layer in range(d.stack.num_layers):
            rects = [b.rect for b in d.floorplan.blocks if b.layer == layer]
            rects += [f.rect for f in d.floorplan.farms if f.spans(layer)]
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    assert not rect_intersects(rects[i], rects[j])

    def test_farm_overlap_counts_on_every_spanned_layer(self):
        d = make_design(blocks=(block("upper", 1, 0.8, 0.8, 0.4, 0.4),),
                        farms=(farm("f", 0.8, 0.8, 0.4, 0.4, start=0, end=1),))
        assert any(v.rule == "no-overlap" for v in validate(d))

    def test_unknown_net_client_flagged(self):
        d = make_design(farms=(farm("f", 0.5, 0.5, 0.4, 0.4, clients=("ghost",)),))
        assert any(v.rule == "net-resolves" for v in validate(d))

    def test_aspect_ratio_outside_candidates_flagged(self):
        odd = farm("f", 0.5, 0.5, 0.3, 0.9)  # ratio 1/3
        d = make_design(farms=(odd,))
        assert any(v.rule == "aspect-ratio-candidate" for v in validate(d))

    def test_bad_layer_thickness_flagged(self):
        d = make_design(thickness=5 * UM)
        assert any(v.rule == "layer-thickness-range" for v in validate(d))
        assert validate(make_design(thickness=10 * UM)) == []
        assert validate(make_design(thickness=800 * UM)) == []
        assert any(v.rule == "layer-thickness-range"
                   for v in validate(make_design(thickness=800 * UM + 1)))


class TestReshape:
    def test_square_ratio(self):
        d = make_design(farms=(farm("f", 0.5, 0.5, 0.4, 0.4),))
        out = reshape_farm(d, "f", 1.0).floorplan.farm("f")
        assert (out.width, out.height) == (mm(0.4), mm(0.4))

    def test_ratio_four(self):
        # area 4 mm^2, ratio 4 -> 4 mm x 1 mm
        tech = make_tech(footprint_width=4 * MM, footprint_height=4 * MM)
        d = make_design(farms=(farm("f", 0.0, 0.0, 2.0, 2.0),), tech=tech)
        out = reshape_farm(d, "f", 4.0).floorplan.farm("f")
        assert (out.width, out.height) == (4 * MM, MM)

    def test_footprint_exit_rejected(self):
        # 4 mm wide result does not fit a 3 mm footprint
        tech = make_tech(footprint_width=3 * MM, footprint_height=3 * MM)
        d = make_design(farms=(farm("f", 0.0, 0.0, 2.0, 2.0),), tech=tech)
        with pytest.raises(InvalidMoveError):
            reshape_farm(d, "f", 4.0)

    def test_collision_rejected(self):
        d = make_design(blocks=(block("wall", 0, 0.9, 0.0, 0.2, 2.0),),
                        farms=(farm("f", 0.2, 0.2, 0.4, 0.4),))
        with pytest.raises(InvalidMoveError):
            reshape_farm(d, "f", 4.0)  # 0.8 mm wide would hit the wall

    def test_anchor_is_lower_left(self):
        d = make_design(farms=(farm("f", 0.3, 0.7, 0.4, 0.4),))
        out = reshape_farm(d, "f", 4.0).floorplan.farm("f")
        assert (out.x, out.y) == (mm(0.3), mm(0.7))

    @given(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    def test_reshape_round_trip(self, ratio):
        d = make_design(farms=(farm("f", 0.4, 0.4, 0.4, 0.4),))
        original = d.floorplan.farm("f")
        try:
            there = reshape_farm(d, "f", ratio)
        except InvalidMoveError:
            return
        back = reshape_farm(there, "f", original.aspect_ratio).floorplan.farm("f")
        assert (back.width, back.height) == (original.width, original.height)


class TestMove:
    def test_move_into_whitespace(self):
        d = make_design(farms=(farm("f", 0.5, 0.5, 0.4, 0.4),))
        out = move_farm(d, "f", (mm(1.2), mm(1.2))).floorplan.farm("f")
        assert (out.x, out.y) == (mm(1.2), mm(1.2))
        assert validate(move_farm(d, "f", (mm(1.2), mm(1.2)))) == []

    def test_move_onto_macro_rejected(self):
        d = make_design(blocks=(block("m", 0, 1.0, 1.0, 0.6, 0.6),),
                        farms=(farm("f", 0.1, 0.1, 0.4, 0.4),))
        with pytest.raises(InvalidMoveError):
            move_farm(d, "f", (mm(1.1), mm(1.1)))

    def test_prism_rule_rejects_upper_layer_conflict(self):
        # legal on layer 0 but an obstacle sits on layer 1: prism must reject
        d = make_design(blocks=(block("obstacle", 1, 1.0, 1.0, 0.6, 0.6),),
                        farms=(farm("f", 0.1, 0.1, 0.4, 0.4, start=0, end=1),))
        with pytest.raises(InvalidMoveError):
            move_farm(d, "f", (mm(1.1), mm(1.1)))
        # same target with a farm that does not span layer 1 is fine
        d2 = make_design(blocks=(block("obstacle", 1, 1.0, 1.0, 0.6, 0.6),),
                         farms=(farm("f", 0.1, 0.1, 0.4, 0.4, start=0, end=0),))
        assert move_farm(d2, "f", (mm(1.1), mm(1.1)))

    def test_out_of_footprint_rejected(self):
        d = make_design(farms=(farm("f", 0.5, 0.5, 0.4, 0.4),))
        with pytest.raises(InvalidMoveError):
            move_farm(d, "f", (mm(1.9), 0))

    def test_touching_edges_are_legal(self):
        d = make_design(blocks=(block("m", 0, 1.0, 1.0, 0.6, 0.6),),
                        farms=(farm("f", 0.1, 0.1, 0.4, 0.4),))
        out = move_farm(d, "f", (mm(0.6), MM))
        assert validate(out) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["move", "reshape"]),
                          st.integers(0, 15), st.integers(0, 15),
                          st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])),
                max_size=12))
def test_accepted_operations_keep_design_valid(ops):
    d = make_design(
        blocks=(block("m", 0, 1.2, 1.2, 0.5, 0.5), block("n", 1, 0.0, 0.0, 0.5, 0.5)),
        farms=(farm("f", 0.6, 0.6, 0.4, 0.4), farm("g", 0.0, 1.4, 0.4, 0.4)),
    )
    total_area = sum(f.area for f in d.floorplan.farms)
    cell = d.stack.tech.grid_cell
    for kind, ix, iy, ratio in ops:
        name = "f" if ix % 2 == 0 else "g"
        try:
            if kind == "move":
                d = move_farm(d, name, (ix * cell, iy * cell))
            else:
                d = reshape_farm(d, name, ratio)
        except InvalidMoveError:
            continue
        assert validate(d) == []
    assert sum(f.area for f in d.floorplan.farms) == total_area
    # prism property: every spanned layer sees the identical rectangle
    for f in d.floorplan.farms:
        rects = {f.rect for layer in range(f.start_layer, f.end_layer + 1)}
        assert len(rects) == 1


def test_rects_overlap_matches_oracle():
    cases = [
        ((0, 0, 2, 2), (1, 0, 3, 2)),
        ((0, 0, 2, 2), (2, 0, 4, 2)),   # touching
        ((0, 0, 2, 2), (2, 2, 3, 3)),   # touching at a corner
        ((0, 0, 2, 2), (4, 4, 6, 6)),
        ((0, 0, 4, 4), (1, 1, 2, 2)),   # containment
        ((0, 0, 2, 2), (1, 1, 3, 3)),   # one nanometre square in common
    ]
    for a, b in cases:
        assert rects_overlap(a, b) == rect_intersects(a, b)


# one design object per shipped design for the whole session; every shipped farm
# spans layers 0-1, so a three-layer design adds farms of other spans
DESIGNS = {name: shipped_design(name) for name in SHIPPED}
DESIGNS["mixed-spans"] = make_design(
    blocks=(block("a", 0, 0.2, 0.2, 0.6, 0.6), block("b", 1, 1.0, 0.2, 0.6, 0.6),
            block("c", 2, 0.2, 1.0, 0.6, 0.6), block("d", 2, 1.2, 1.2, 0.4, 0.4)),
    farms=(farm("f01", 1.2, 1.2, 0.4, 0.4, start=0, end=1),
           farm("f12", 0.2, 0.2, 0.4, 0.4, start=1, end=2),
           farm("f22", 1.0, 0.2, 0.4, 0.4, start=2, end=2),
           farm("f02", 0.0, 1.6, 0.4, 0.4, start=0, end=2)),
    num_layers=3)


def legal_by_full_scan(design, index, rect):
    """Uncached oracle: the footprint, then every block and every other farm
    on every layer the farm spans."""
    stack, fp = design.stack, design.floorplan
    farm = fp.farms[index]
    w, h = stack.footprint
    if not (rect[0] >= 0 and rect[1] >= 0 and rect[2] <= w and rect[3] <= h):
        return False
    for layer in range(farm.start_layer, farm.end_layer + 1):
        occupants = [b.rect for b in fp.blocks if b.layer == layer]
        occupants += [f.rect for k, f in enumerate(fp.farms) if k != index and f.spans(layer)]
        if any(rects_overlap(rect, other) for other in occupants):
            return False
    return True


def overlap_by_scan(design, index, rect):
    """Uncached oracle of the farm-against-farm rule: every other farm, in
    floorplan order, that shares a layer with farm index."""
    farms = design.floorplan.farms
    start, end = farms[index].start_layer, farms[index].end_layer
    for k, other in enumerate(farms):
        if (k != index and other.start_layer <= end and start <= other.end_layer
                and rects_overlap(rect, other.rect)):
            return f"overlaps {other.name} on layer {max(start, other.start_layer)}"
    return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DESIGNS)), st.integers(0, 2 ** 32 - 1), st.data())
def test_move_farm_reports_fixed_conflict_then_farm_overlap(name, seed, data):
    design = DESIGNS[name]
    ev = Evaluator(design, grid_for(design.stack), CostWeights(0.0, -1.0, 0.0, 0.0))
    state = ev.state_of(design)
    rng = np.random.default_rng(seed)
    layers = [layer for layer, movable in enumerate(ev.movable) if movable]
    for step in range(data.draw(st.integers(0, 40), label="walk")):   # a random state
        state, _, _ = gen_move(ev, state, layers[step % len(layers)], rng)
    design = ev.design_of(state)
    half = design.stack.tech.grid_cell // 2
    sides = st.sampled_from(["none", "east", "west", "north", "south"])
    # every farm, placed next to every farm: on the half-cell lattice around
    # it, or abutting it exactly on one side
    for index, moved in enumerate(design.floorplan.farms):
        for near in design.floorplan.farms:
            dx, dy = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
            x, y = near.x + dx * half, near.y + dy * half
            side = data.draw(sides)
            x = {"east": near.x + near.width, "west": near.x - moved.width}.get(side, x)
            y = {"north": near.y + near.height, "south": near.y - moved.height}.get(side, y)
            rect = (x, y, x + moved.width, y + moved.height)
            expected = overlap_by_scan(design, index, rect)
            assert farm_overlap(farm_neighbours(design.floorplan.farms, index), state,
                                rect) == expected
            fixed = fixed_conflict(design.stack, design.floorplan.blocks, moved.start_layer,
                                   moved.end_layer, rect)
            reason = fixed if fixed is not None else expected
            if reason is None:
                assert move_farm(design, moved.name, (x, y)).floorplan.farms[index].rect == rect
            else:
                with pytest.raises(InvalidMoveError) as raised:
                    move_farm(design, moved.name, (x, y))
                assert str(raised.value) == f"{moved.name}: {reason}"


def test_fixed_conflict_names_the_first_block_layer_by_layer():
    d = make_design(blocks=(block("upper", 1, 0.8, 0.8, 0.4, 0.4),
                            block("lower", 0, 0.9, 0.9, 0.4, 0.4),
                            block("lower2", 0, 0.6, 0.6, 0.4, 0.4)))
    rect = (mm(0.8), mm(0.8), mm(1.2), mm(1.2))
    assert fixed_conflict(d.stack, d.floorplan.blocks, 0, 1, rect) == "overlaps lower on layer 0"
    assert fixed_conflict(d.stack, d.floorplan.blocks, 1, 1, rect) == "overlaps upper on layer 1"
    assert fixed_conflict(d.stack, d.floorplan.blocks, 0, 1, (mm(1.8), 0, mm(2.2), mm(0.4))) \
        == "leaves footprint"


def _place_as_the_full_scan_says(design, index, rect):
    """_place_farm's verdict on rect for farm index, checked against the full
    scan; returns the placed design, or None when illegal."""
    expected = legal_by_full_scan(design, index, rect)
    try:
        placed = _place_farm(design, index, rect[0], rect[1],
                             rect[2] - rect[0], rect[3] - rect[1])
    except InvalidMoveError:
        assert not expected
        return None
    assert expected
    assert placed.floorplan.farms[index].rect == rect
    return placed


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DESIGNS)), st.data())
def test_memoized_legality_matches_a_full_scan(name, data):
    designs = dict(DESIGNS)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        # a step may switch designs, and so blocks tuples, as a sweep's points do
        if data.draw(st.booleans(), label="switch"):
            name = data.draw(st.sampled_from(sorted(DESIGNS)), label="design")
        design = designs[name]
        fw, fh = design.stack.footprint
        cell = design.stack.tech.grid_cell
        index = data.draw(st.integers(0, len(design.floorplan.farms) - 1), label="farm")
        farm = design.floorplan.farms[index]
        width, height = farm.width, farm.height
        kind = data.draw(st.sampled_from(["grid", "touch", "edge", "reshape"]), label="kind")
        if kind == "reshape":   # anchored at the lower-left, as reshape_farm does
            ratio = data.draw(st.sampled_from(design.stack.tech.aspect_ratios))
            width, height = farm_shape(farm.area, ratio)
            x, y = farm.x, farm.y
        elif kind == "touch":   # abut a block on one side, or share its edge
            b = data.draw(st.sampled_from(design.floorplan.blocks))
            x = data.draw(st.sampled_from([b.x - width, b.x, b.x + b.width]))
            y = data.draw(st.sampled_from([b.y - height, b.y, b.y + b.height]))
        elif kind == "edge":    # origins on and just past the footprint's edges
            x = data.draw(st.sampled_from([0, fw - width, fw - width + 1, -1, -cell]))
            y = data.draw(st.sampled_from([0, fh - height, fh - height + 1, -1, -cell]))
        else:
            x = data.draw(st.integers(0, fw // cell)) * cell
            y = data.draw(st.integers(0, fh // cell)) * cell
        rect = (x, y, x + width, y + height)
        # the same rectangle for each farm of the same shape, whose span may differ
        same_shape = [k for k, f in enumerate(design.floorplan.farms)
                      if k != index and (f.width, f.height) == (width, height)]
        for k in same_shape:
            _place_as_the_full_scan_says(design, k, rect)
        # and for the first farm of every other design: the same rectangle
        # under another blocks tuple, whose answer may differ
        for other in designs:
            if other != name:
                _place_as_the_full_scan_says(designs[other], 0, rect)
        placed = _place_as_the_full_scan_says(design, index, rect)
        if placed is not None:
            designs[name] = placed


@pytest.mark.parametrize("cell", [100 * UM, 50 * UM, 25 * UM], ids=["100um", "50um", "25um"])
@pytest.mark.parametrize("name", SHIPPED)
def test_origin_raster_equals_the_scalar_check(name, cell):
    """legal_origins against the full scan at every lattice origin, for each
    farm span of the shipped design and every configured aspect ratio."""
    design = shipped_design(name)
    stack, fp = design.stack, design.floorplan
    # a raster depends on the farm's span and shape only
    shapes = {(f.start_layer, f.end_layer, *farm_shape(f.area, r)): f
              for f in fp.farms for r in stack.tech.aspect_ratios}
    legal = illegal = 0
    for (_, _, width, height), f in shapes.items():
        alone = design.with_floorplan(Floorplan(fp.blocks, (f,)))   # no farm to collide with
        nx, ny = origin_lattice(stack, width, height, cell)
        expected = [ix * ny + iy for ix in range(nx) for iy in range(ny)
                    if legal_by_full_scan(alone, 0, (ix * cell, iy * cell,
                                                     ix * cell + width, iy * cell + height))]
        raster = legal_origins(stack, fp.blocks, width, height, f.start_layer, f.end_layer, cell)
        assert raster.tolist() == expected
        legal += len(expected)
        illegal += nx * ny - len(expected)
    assert legal and illegal


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_origin_raster_equals_the_scalar_check_on_random_floorplans(data):
    """The same comparison on random footprints, cells, shapes and blocks,
    with lengths that are not multiples of the cell."""
    cell = data.draw(st.sampled_from([100 * UM, 25 * UM, 33_333, 7]))
    side = data.draw(st.integers(2, 24)) * cell
    length = st.builds(lambda n, d: n * cell // d, st.integers(1, 12), st.sampled_from([1, 2, 3]))
    blocks = tuple(
        Block(f"b{i}", data.draw(st.integers(0, 1)), data.draw(length), data.draw(length),
              data.draw(length), data.draw(length))
        for i in range(data.draw(st.integers(0, 4), label="blocks")))
    start = data.draw(st.integers(0, 1))
    end = data.draw(st.integers(start, 1))
    width, height = data.draw(length), data.draw(length)
    f = TsvFarm("f", 0, 0, width, height, start, end, 0.5, 173.0, width * height)
    design = make_design(blocks=blocks, farms=(f,),
                         tech=make_tech(footprint_width=side, footprint_height=side,
                                        grid_cell=cell))
    nx, ny = origin_lattice(design.stack, width, height, cell)
    expected = [ix * ny + iy for ix in range(nx) for iy in range(ny)
                if legal_by_full_scan(design, 0, (ix * cell, iy * cell,
                                                  ix * cell + width, iy * cell + height))]
    assert legal_origins(design.stack, blocks, width, height, start, end,
                         cell).tolist() == expected
