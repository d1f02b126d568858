"""The table-based f_H must equal a plain per-strip scalar walk bit for bit,
and a fixed-seed optimization must replay the annealing trace recorded
before the strip table existed."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tsvplan.anneal import AnnealConfig, FlowConfig, optimize_stack
from tsvplan.errors import InvalidMoveError
from tsvplan.metrics import total_efficiency
from tsvplan.model import move_farm, reshape_farm
from tsvplan.units import metres

from conftest import SHIPPED, shipped_design, split_digests


def oracle_pairs(design):
    tech = design.stack.tech
    window = tech.adjacency_window if tech.adjacency_window is not None else tech.grid_cell
    blocks = design.floorplan.blocks
    pairs = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            a, b = blocks[i], blocks[j]
            if a.layer != b.layer:
                continue
            ax0, ay0, ax1, ay1 = a.rect
            bx0, by0, bx1, by1 = b.rect
            overlap_x = min(ax1, bx1) - max(ax0, bx0)
            overlap_y = min(ay1, by1) - max(ay0, by0)
            gap_x = max(ax0 - bx1, bx0 - ax1)
            gap_y = max(ay0 - by1, by0 - ay1)
            if overlap_y > 0 and 0 <= gap_x < window:
                pairs.append((a, b, "x"))
            elif overlap_x > 0 and 0 <= gap_y < window:
                pairs.append((a, b, "y"))
    return pairs


def oracle_strip_k(design, a, b, axis, line):
    """Series conductivity of one strip, walking the farms one by one, and
    the strip's path length, in m."""
    k_si = design.stack.layers[a.layer].material.conductivity
    if axis == "x":
        lo, hi = sorted((a.center[0], b.center[0]))
    else:
        lo, hi = sorted((a.center[1], b.center[1]))
    distance = metres(hi - lo)
    crossing = farm_length = 0.0
    for farm in design.floorplan.farms:
        if not farm.blocks_laterally(a.layer):
            continue
        fx0, fy0, fx1, fy1 = farm.rect
        if axis == "x":
            if not (fy0 <= line <= fy1):
                continue
            seg = min(hi, fx1) - max(lo, fx0)
        else:
            if not (fx0 <= line <= fx1):
                continue
            seg = min(hi, fy1) - max(lo, fy0)
        if seg > 0:
            seg = metres(seg)
            crossing += seg / farm.k_lateral
            farm_length += seg
    return distance / (crossing + (distance - farm_length) / k_si), distance


def oracle_pair(design, a, b, axis):
    thickness = design.stack.layers[a.layer].thickness
    ax0, ay0, ax1, ay1 = a.rect
    bx0, by0, bx1, by1 = b.rect
    if axis == "x":
        span_lo, span_hi = max(ay0, by0), min(ay1, by1)
    else:
        span_lo, span_hi = max(ax0, bx0), min(ax1, bx1)
    shared = span_hi - span_lo
    count = math.ceil(shared / design.stack.tech.grid_cell)   # exact on these integers
    width = shared / count
    total = 0.0
    for i in range(count):
        k_eff, distance = oracle_strip_k(design, a, b, axis, span_lo + (i + 0.5) * width)
        total += k_eff * metres(width * thickness, 2) / distance
    return total


def oracle_total(design):
    pairs = oracle_pairs(design)
    return float(sum(oracle_pair(design, a, b, axis) for a, b, axis in pairs))


def strip_lines(design, a, b, axis):
    ax0, ay0, ax1, ay1 = a.rect
    bx0, by0, bx1, by1 = b.rect
    if axis == "x":
        span_lo, span_hi = max(ay0, by0), min(ay1, by1)
    else:
        span_lo, span_hi = max(ax0, bx0), min(ax1, bx1)
    count = math.ceil((span_hi - span_lo) / design.stack.tech.grid_cell)
    width = (span_hi - span_lo) / count
    return [span_lo + (i + 0.5) * width for i in range(count)]


def drawn_origin(design, farm, kind, pick, fx, fy):
    """A random origin (kind 1, snapped to half cells when pick is odd) or one
    that puts the farm's near (pick even) or far edge on a strip's centre
    line (kind 2), exactly where the line is a whole nanometre."""
    fw, fh = design.stack.footprint
    if kind == 1:
        x, y = round(fx * (fw - farm.width)), round(fy * (fh - farm.height))
        if pick % 2:
            half = design.stack.tech.grid_cell // 2
            x, y = x // half * half, y // half * half
        return x, y
    pairs = oracle_pairs(design)
    a, b, axis = pairs[pick % len(pairs)]
    lines = strip_lines(design, a, b, axis)
    line = lines[min(int(fx * len(lines)), len(lines) - 1)]
    if axis == "x":
        lo, hi = sorted((a.center[0], b.center[0]))
        y = round(line) - farm.height if pick % 2 else round(line)
        return round(lo + fy * (hi - lo) - farm.width / 2), y
    lo, hi = sorted((a.center[1], b.center[1]))
    x = round(line) - farm.width if pick % 2 else round(line)
    return x, round(lo + fy * (hi - lo) - farm.height / 2)


# (farm draw, kind: 0 reshape / 1 random move / 2 move onto a strip line,
#  ratio or pair draw, x fraction, y fraction)
steps = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 2), st.integers(0, 63),
                           st.floats(0, 1), st.floats(0, 1)),
                 min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SHIPPED), moves=steps)
def test_table_matches_scalar_walk_over_random_moves(name, moves):
    design = shipped_design(name)
    for pick, kind, draw, fx, fy in moves:
        farms = design.floorplan.farms
        farm = farms[pick % len(farms)]
        try:
            if kind == 0:
                ratios = design.stack.tech.aspect_ratios
                design = reshape_farm(design, farm.name, ratios[draw % len(ratios)])
            else:
                design = move_farm(design, farm.name,
                                   drawn_origin(design, farm, kind, draw, fx, fy))
        except InvalidMoveError:
            continue
        assert total_efficiency(design) == oracle_total(design)


# split_digests of the run below, re-recorded when gen_move started drawing
# from the block-legal candidates (move_table) with the rejection sampler's
# law, and annealing began to take a cost tie of a few ulps without a draw;
# and again when the leakage fixed point became one solve of G_eff, which
# moved the calibration field, and so every cost delta, but no move or draw;
# and when every solve took the V-cycle, which moved fields by at most
# 8.3e-11 K and kept every move, draw, acceptance and the best floorplan;
# and when the V-cycle's smoothed levels went to float32, which moved fields
# by at most 1.4e-10 K and kept the same; and when lengths became whole
# nanometres, which made the grid cell exactly 100 um and changed the moves;
# and when the stack loop began to keep the coolest snapshot by peak, whose
# outer line now carries the peaks (the moves, passes and `after` stayed).
GOLDEN_TRACE_SHA256 = (
    "7a365c829f378ef59e3df50b71dd97473e948408a63fe882d8a17dde5f850c0c",
    "078230ba3591a67f6d67be602b812eb564eae4c21470acad6176234529ac653f",
)


def test_golden_trace_replays():
    result = optimize_stack(shipped_design("blockage"), AnnealConfig(seed=1, max_moves=10),
                            FlowConfig(outer_iterations=1))
    assert split_digests([result]) == GOLDEN_TRACE_SHA256
