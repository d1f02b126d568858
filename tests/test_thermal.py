import dataclasses
import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import cg

from click.testing import CliRunner

from tsvplan.cli import main
from tsvplan.design_io import emit_design
from tsvplan.errors import SingularNetworkError, SolverError, ThermalRunawayError
from tsvplan.model import reshape_farm
from tsvplan.sweeps import set_farm_conductivity, with_memory_layers
from tsvplan import thermal
from tsvplan.thermal import (COARSE_SOLVE_MAX_UNKNOWNS, RESIDUAL_RTOL,
                             ConductanceNetwork, GridSpec,
                             block_cell_weights, build_network, couple_leakage,
                             field_stats, grid_for, rasterize, solve_design,
                             solve_steady_state, system_matrix)
from conftest import (MM, SHIPPED, UM, block, csr_reference, farm, make_design, make_tech, mm,
                      one_cell_resistances, shipped_design)

AMBIENT = 298.15


def leakless_blockage(k_farm):
    """The shipped blockage design with every farm at k_farm and no block leaking."""
    d = set_farm_conductivity(shipped_design("blockage"), k_farm)
    blocks = tuple(dataclasses.replace(b, leakage_ref=0.0) for b in d.floorplan.blocks)
    return d.with_floorplan(dataclasses.replace(d.floorplan, blocks=blocks))


def agreement_bound(reference, t):
    """How far a solve of the CSR matrix reference may land from a field near
    t: 1e-8 K, plus what one rounding of the system can move the field by,
    eps cond_inf(G) ||t||_inf, which also bounds a dense solve's own error."""
    dense = reference.toarray()
    return 1e-8 + np.finfo(float).eps * np.linalg.cond(dense, np.inf) * np.abs(t).max()


# ---------------------------------------------------------------- rasterize

class TestRasterize:
    def test_half_cell_farm(self):
        d = make_design(farms=(farm("f", 0.0, 0.0, 0.05, 0.1, start=0, end=1),))
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        assert occ.farm_fraction[0, 0, 0] == pytest.approx(0.5)
        assert occ.farm_fraction[0].sum() == pytest.approx(0.5)

    def test_block_power_split_equally(self):
        d = make_design(blocks=(block("b", 0, 0.0, 0.0, 0.2, 0.2, power=1.0),))
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        quarter = occ.power[0, :2, :2]
        assert quarter == pytest.approx(np.full((2, 2), 0.25))
        assert occ.power.sum() == pytest.approx(1.0)

    def test_fraction_sum_matches_pixel_sampling_oracle(self):
        # farm at an arbitrary offset crossing a 2x2 cell neighborhood
        f = farm("f", 0.13, 0.07, 0.14, 0.11, start=0, end=1)
        d = make_design(farms=(f,))
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        total = occ.farm_fraction[0].sum()
        assert total == pytest.approx(f.width * f.height / grid.cell_size ** 2,
                                      rel=1e-9)
        # pixel-sampling oracle at 1000x subresolution per cell axis
        sub = 1000
        step = grid.cell_size / sub
        xs = (np.arange(4 * sub) + 0.5) * step
        ys = (np.arange(4 * sub) + 0.5) * step
        inside = ((xs[None, :] > f.x) & (xs[None, :] < f.x + f.width)
                  & (ys[:, None] > f.y) & (ys[:, None] < f.y + f.height))
        for cy in range(2):
            for cx in range(2):
                patch = inside[cy * sub:(cy + 1) * sub, cx * sub:(cx + 1) * sub]
                assert occ.farm_fraction[0, cy, cx] == pytest.approx(
                    patch.mean(), abs=1e-3)

    def test_landing_layer_has_no_lateral_blockage(self):
        d = make_design(farms=(farm("f", 0.5, 0.5, 0.4, 0.4, start=0, end=1),))
        occ = rasterize(d, grid_for(d.stack))
        assert occ.lateral_fraction[0].sum() > 0
        assert occ.lateral_fraction[1].sum() == 0
        assert occ.farm_fraction[1].sum() > 0  # vertical metal still present


# --------------------------------------------------------------- resistance
# One silicon cell, 100 um wide: the in-plane path spans the cell through a
# cell-width x thickness section, the through-plane path spans the thickness.

class TestResistance:
    def test_zero_thickness(self):
        with np.errstate(divide="ignore"):   # the in-plane section is zero
            _, r_vert = one_cell_resistances(100 * UM, 0, 149.0)
        assert r_vert == 0.0

    def test_silicon_slab(self):
        # 100 um span, silicon, 1e-9 m^2 section
        r_lat, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0)
        assert r_lat == pytest.approx(671.1409395973154)

    def test_doubling_area_halves_resistance(self):
        r1, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0)
        r2, _ = one_cell_resistances(100 * UM, 20 * UM, 149.0)
        assert r2 == pytest.approx(r1 / 2)


class TestCompositeResistance:
    def test_pure_farm_cell(self):
        r, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0, farm_fraction=1.0, k_farm=2.75)
        assert r == pytest.approx(36363.636363636364)

    def test_pure_silicon_cell_reduces_to_slab(self):
        r, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0, farm_fraction=0.0, k_farm=2.75)
        assert r == pytest.approx(671.1409395973154)

    def test_mixed_lateral_cell(self):
        r, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0, farm_fraction=0.4, k_farm=2.75)
        assert r == pytest.approx(92027.65914175311)

    def test_mixed_vertical_cell(self):
        # 10 um thick layer, 100 um cell, tungsten vias
        _, r = one_cell_resistances(100 * UM, 10 * UM, 149.0, farm_fraction=0.4, k_metal=173.0)
        assert r == pytest.approx(25.636549378645047)


# ------------------------------------------------------------ build_network

def _single_cell_network(g_ambient):
    grid = GridSpec(1, 1, 100 * UM, 1)
    return ConductanceNetwork(
        grid,
        g_x=np.zeros((1, 1, 0)), g_y=np.zeros((1, 0, 1)),
        g_z=np.zeros((0, 1, 1)),
        g_ambient=np.full((1, 1), g_ambient))


def _stacked_pair_network(g_z, g_ambient):
    grid = GridSpec(1, 1, 100 * UM, 2)
    return ConductanceNetwork(
        grid,
        g_x=np.zeros((2, 1, 0)), g_y=np.zeros((2, 0, 1)),
        g_z=np.full((1, 1, 1), g_z),
        g_ambient=np.full((1, 1), g_ambient))


class TestBuildNetwork:
    def test_identical_cells_reproduce_single_cell_resistance(self):
        d = make_design(num_layers=1)
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        net = build_network(occ, grid, d.stack)
        r_cell, _ = one_cell_resistances(100 * UM, 10 * UM, 149.0)
        assert net.g_x == pytest.approx(np.full_like(net.g_x, 1.0 / r_cell))

    def test_matrix_symmetric_for_random_occupancy(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.integers(1, 4, size=2) * 0.1
            f = farm("f", float(x), float(y), 0.3, 0.3, start=0, end=1,
                     k_lat=float(rng.uniform(0.5, 5.0)))
            d = make_design(farms=(f,))
            grid = grid_for(d.stack, 200 * UM)
            net = build_network(rasterize(d, grid), grid, d.stack)
            m = csr_reference(net)
            assert (m - m.T).nnz == 0

    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(1, 4), rows=st.integers(1, 5), cols=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(layers=1, rows=1, cols=1, seed=0)
    @example(layers=3, rows=1, cols=4, seed=1)     # one row
    @example(layers=3, rows=4, cols=1, seed=2)     # one column
    @example(layers=1, rows=3, cols=4, seed=3)     # one layer
    def test_stencil_matches_csr_reference(self, layers, rows, cols, seed):
        rng = np.random.default_rng(seed)
        g = lambda *shape: rng.uniform(1e-4, 1.0, shape)
        net = ConductanceNetwork(
            GridSpec(cols, rows, 100 * UM, layers), g_x=g(layers, rows, cols - 1),
            g_y=g(layers, rows - 1, cols), g_z=g(layers - 1, rows, cols),
            g_ambient=g(rows, cols))
        operator, reference = system_matrix(net), csr_reference(net)
        assert np.array_equal(operator.diagonal(), reference.diagonal())
        for x in (rng.uniform(250.0, 450.0, layers * rows * cols),
                  rng.normal(0.0, 1.0, layers * rows * cols)):
            assert np.array_equal(operator @ x, reference @ x)

    def test_farm_cell_coupling_weaker_than_silicon(self):
        d = make_design(farms=(farm("f", 0.0, 0.0, 0.1, 0.1, start=0, end=1),))
        grid = grid_for(d.stack)
        net = build_network(rasterize(d, grid), grid, d.stack)
        silicon_pair = net.g_x[0, 5, 5]
        farm_pair = net.g_x[0, 0, 0]
        assert farm_pair < silicon_pair

    def test_ambient_share_is_uniform(self):
        d = make_design()
        grid = grid_for(d.stack)
        net = build_network(rasterize(d, grid), grid, d.stack)
        share = 1.0 / (d.stack.tech.package_resistance * grid.cells_per_layer)
        assert net.g_ambient == pytest.approx(np.full_like(net.g_ambient, share))


# ------------------------------------------------------------------- solve

class TestSolve:
    def test_single_cell_ohms_law(self):
        net = _single_cell_network(g_ambient=0.1)  # 10 K/W to ambient
        field = solve_steady_state(net, np.full((1, 1, 1), 1.0), AMBIENT)
        assert field.t[0, 0, 0] == pytest.approx(308.15, abs=1e-9)

    def test_two_cells_in_series(self):
        # 1 W injected in the far (top) cell, 5 K/W per hop
        net = _stacked_pair_network(g_z=0.2, g_ambient=0.2)
        power = np.zeros((2, 1, 1))
        power[1] = 1.0
        field = solve_steady_state(net, power, AMBIENT)
        assert field.t[1, 0, 0] == pytest.approx(308.15, abs=1e-9)
        assert field.t[0, 0, 0] == pytest.approx(303.15, abs=1e-9)

    def test_energy_conservation(self, two_layer_design):
        d = two_layer_design
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        net = build_network(occ, grid, d.stack)
        field = solve_steady_state(net, occ.power, AMBIENT)
        heat_out = float((net.g_ambient * (field.t[0] - AMBIENT)).sum())
        assert heat_out == pytest.approx(occ.power.sum(), rel=1e-6)

    def test_matches_dense_oracle_on_small_grids(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            grid = GridSpec(6, 6, 100 * UM, 2)
            net = ConductanceNetwork(
                grid,
                g_x=rng.uniform(1e-4, 1e-2, (2, 6, 5)),
                g_y=rng.uniform(1e-4, 1e-2, (2, 5, 6)),
                g_z=rng.uniform(1e-2, 1.0, (1, 6, 6)),
                g_ambient=rng.uniform(1e-4, 1e-3, (6, 6)))
            power = rng.uniform(0.0, 0.5, (2, 6, 6))
            field = solve_steady_state(net, power, AMBIENT)
            dense = csr_reference(net).toarray()
            rhs = power.ravel().copy()
            rhs[:36] += net.g_ambient.ravel() * AMBIENT
            exact = np.linalg.solve(dense, rhs).reshape(2, 6, 6)
            assert np.abs(field.t - exact).max() < 1e-8

    def test_zero_power_gives_exact_ambient(self):
        d = make_design()
        grid = grid_for(d.stack)
        occ = rasterize(d, grid)
        net = build_network(occ, grid, d.stack)
        field = solve_steady_state(net, np.zeros_like(occ.power), AMBIENT)
        assert np.all(field.t == AMBIENT)

    def test_maximum_principle(self, two_layer_design):
        field = solve_design(two_layer_design)
        assert field.t.min() >= AMBIENT - 1e-6

    def test_floating_network_raises(self):
        net = _single_cell_network(g_ambient=0.0)
        with pytest.raises(SingularNetworkError):
            solve_steady_state(net, np.ones((1, 1, 1)), AMBIENT)

    def test_warm_start_agrees_with_cold(self, two_layer_design):
        grid = grid_for(two_layer_design.stack)
        occ = rasterize(two_layer_design, grid)
        net = build_network(occ, grid, two_layer_design.stack)
        cold = solve_steady_state(net, occ.power, AMBIENT)
        warm = solve_steady_state(net, occ.power, AMBIENT, x0=cold.t + 3.0)
        assert np.abs(warm.t - cold.t).max() < 1e-6

    def test_grid_refinement_consistency(self):
        # smooth fixture: broad block, peak moves < 2% of the rise on refinement
        d = make_design(blocks=(block("b", 0, 0.6, 0.6, 0.8, 0.8, power=1.0),))
        coarse = solve_design(d, grid_for(d.stack, 200 * UM))
        fine = solve_design(d, grid_for(d.stack, 100 * UM))
        rise_c = coarse.peak - AMBIENT
        rise_f = fine.peak - AMBIENT
        assert abs(rise_f - rise_c) / rise_c < 0.02

    def test_blockage_monotone_in_farm_conductivity(self):
        peaks = []
        for k in (0.5, 1.0, 2.75, 5.0, 23.1, 149.0):
            d = leakless_blockage(k)
            peaks.append(solve_design(d).peak)
        assert all(a >= b - 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_insulated_ring_raises_peak_over_no_ring(self):
        ringed = leakless_blockage(0.5)
        bare = ringed.with_floorplan(
            dataclasses.replace(ringed.floorplan, farms=()))
        assert solve_design(ringed).peak > solve_design(bare).peak + 1.0


def mirrored(design, axis):
    """The design reflected across the footprint's centre line in x or y."""
    width, height = design.stack.footprint

    def flip(item):
        if axis == "x":
            return dataclasses.replace(item, x=width - item.x - item.width)
        return dataclasses.replace(item, y=height - item.y - item.height)
    fp = design.floorplan
    return design.with_floorplan(dataclasses.replace(
        fp, blocks=tuple(map(flip, fp.blocks)), farms=tuple(map(flip, fp.farms))))


@pytest.mark.parametrize("solve", ["couple_leakage", "solve_design"])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("name", SHIPPED)
def test_mirrored_design_gives_mirrored_field(name, axis, solve):
    # a reshaped first farm breaks the builders' own mirror symmetries
    design = shipped_design(name)
    design = reshape_farm(design, design.floorplan.farms[0].name, 0.25)
    grid = grid_for(design.stack)

    def field(d):
        if solve == "couple_leakage":
            return couple_leakage(d, grid).field.t
        return solve_design(d, grid).t
    original = field(design)
    expected = np.flip(original, 2 if axis == "x" else 1)
    assert np.abs(expected - original).max() > 1.0
    np.testing.assert_allclose(field(mirrored(design, axis)), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", SHIPPED)
def test_swapping_identical_farms_leaves_the_field(name):
    design = shipped_design(name)
    first, second = design.floorplan.farms[:2]
    assert dataclasses.replace(first, x=second.x, y=second.y, name=second.name,
                               clients=second.clients) == second
    swapped = design.with_floorplan(dataclasses.replace(design.floorplan, farms=(
        dataclasses.replace(first, x=second.x, y=second.y),
        dataclasses.replace(second, x=first.x, y=first.y),
        *design.floorplan.farms[2:])))
    grid = grid_for(design.stack)
    np.testing.assert_allclose(couple_leakage(swapped, grid).field.t,
                               couple_leakage(design, grid).field.t, rtol=0, atol=1e-9)


@st.composite
def rasterized_designs(draw):
    """A random design on the 2 x 2 mm fixture footprint, its grid and a start."""
    layers = draw(st.integers(1, 3))
    cell = draw(st.sampled_from([100 * UM, 200 * UM, 250 * UM]))
    size = st.floats(0.05, 0.9)
    blocks = []
    for i in range(draw(st.integers(0, 3))):
        w, h = draw(size), draw(size)
        blocks.append(block(f"b{i}", draw(st.integers(0, layers - 1)),
                            draw(st.floats(0, 2 - w)), draw(st.floats(0, 2 - h)),
                            w, h, power=draw(st.floats(0, 3))))
    farms = []
    if draw(st.booleans()):
        w, h = draw(size), draw(size)
        farms.append(farm("f", draw(st.floats(0, 2 - w)), draw(st.floats(0, 2 - h)),
                          w, h, start=0, end=layers - 1,
                          k_lat=draw(st.floats(0.5, 149.0))))
    design = make_design(blocks=blocks, farms=farms, num_layers=layers)
    return design, grid_for(design.stack, cell), draw(
        st.sampled_from(["ambient", "zeros", "warm"]))


class TestInlineConjugateGradients:
    @settings(max_examples=40, deadline=None)
    @given(case=rasterized_designs())
    def test_agrees_with_scipy_cg(self, case):
        design, grid, start_kind = case
        occ = rasterize(design, grid)
        net = build_network(occ, grid, design.stack)
        matrix = csr_reference(net)
        x0 = None
        if start_kind == "zeros":
            x0 = np.zeros(occ.power.shape)
        elif start_kind == "warm":
            noise = np.random.default_rng(grid.num_cells).uniform(-2, 2, occ.power.shape)
            x0 = solve_steady_state(net, occ.power, AMBIENT).t + noise
        field = solve_steady_state(net, occ.power, AMBIENT, x0=x0)

        n = grid.num_cells
        rhs = occ.power.ravel().copy()
        rhs[:grid.cells_per_layer] += net.g_ambient.ravel() * AMBIENT
        start = np.full(n, AMBIENT) if x0 is None else x0.ravel()
        atol = RESIDUAL_RTOL * max(float(occ.power.max()), 1.0) * 1e-4
        expected, info = cg(matrix, rhs, x0=start, rtol=0.0, atol=atol,
                            maxiter=100 * n, M=sp.diags(1.0 / matrix.diagonal()))
        assert info == 0
        assert np.abs(field.t.ravel() - expected).max() <= agreement_bound(matrix, expected)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    @pytest.mark.parametrize("watts", [float("nan"), float("inf")])
    @pytest.mark.parametrize("leakage", [0.0, 0.02])
    def test_non_finite_power_fails_at_once(self, watts, leakage):
        # 3,200 unknowns: a 320,000-step budget
        _assert_non_finite_power_fails_at_once(watts, leakage, cell=50 * UM)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("watts", [float("nan"), float("inf")])
    @pytest.mark.parametrize("leakage", [0.0, 0.02])
    def test_non_finite_power_fails_fast_at_25um(self, watts, leakage):
        # an 80 x 80 plane: a V-cycle of three smoothed levels, not two
        _assert_non_finite_power_fails_at_once(watts, leakage, cell=25 * UM)


def _assert_non_finite_power_fails_at_once(watts, leakage, cell):
    d = make_design(blocks=(block("b", 0, 0.5, 0.5, 0.6, 0.6, power=watts,
                                  leakage=0.1),),
                    tech=make_tech(leakage_coeff=leakage))
    grid = grid_for(d.stack, cell)
    started = time.perf_counter()
    with pytest.raises(SolverError, match="non-finite"):
        couple_leakage(d, grid)
    assert time.perf_counter() - started < 2.0


def random_network(layers, rows, cols, seed, strong_z, patch):
    """A network with conductances log-uniform in [1e-4, 1], vertical ones in
    the top decade when strong (no bond layer), and lateral ones 300 times
    lower around the cells patch = (y0, y1, x0, x1), like an insulated farm."""
    rng = np.random.default_rng(seed)
    g = lambda *shape, low=-4.0: 10.0 ** rng.uniform(low, 0.0, shape)
    g_x, g_y = g(layers, rows, cols - 1), g(layers, rows - 1, cols)
    y0, y1, x0, x1 = patch
    g_x[:, y0:y1, max(x0 - 1, 0):x1] /= 300.0
    g_y[:, max(y0 - 1, 0):y1, x0:x1] /= 300.0
    g_z = g(layers - 1, rows, cols, low=-1.0 if strong_z else -4.0)
    return ConductanceNetwork(GridSpec(cols, rows, 100 * UM, layers), g_x=g_x, g_y=g_y,
                              g_z=g_z, g_ambient=g(rows, cols))


@st.composite
def random_networks(draw):
    """random_network on 1 to 5 layers and a plane of any shape up to 9 x 9."""
    layers, rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    y0, x0 = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    patch = (y0, draw(st.integers(y0 + 1, rows)), x0, draw(st.integers(x0 + 1, cols)))
    return random_network(layers, rows, cols, draw(st.integers(0, 2 ** 32 - 1)),
                          draw(st.booleans()), patch)


def with_odd_planes(test):
    """Always try a one-cell, one-row, one-column and odd planes too."""
    for layers, rows, cols in [(1, 1, 1), (3, 1, 7), (3, 7, 1), (1, 5, 9), (5, 9, 9),
                               (2, 2, 3)]:
        net = random_network(layers, rows, cols, seed=rows * cols, strong_z=True,
                             patch=(0, (rows + 1) // 2, 0, (cols + 1) // 2))
        test = example(net=net, seed=layers)(test)
    return test


# the V-cycle's dense cut as shipped, which solves most random networks here
# outright, and at 0, which smooths every plane down to one cell per layer
cuts = pytest.mark.parametrize("cut", [COARSE_SOLVE_MAX_UNKNOWNS, 0],
                               ids=["dense-cut", "one-cell-plane"])

# the leakage-coupled solves of a 20 x 20 x 2 plane at two depths of the
# V-cycle: "multigrid", as shipped, one smoothed level over a dense coarsest
# level of 200 unknowns; "jacobi", at cut 0, block-Jacobi sweeps on every
# level down to one cell per layer, a dense solve of just 2 unknowns
depths = pytest.mark.parametrize("cut", [0, COARSE_SOLVE_MAX_UNKNOWNS],
                                 ids=["jacobi", "multigrid"])


# planes the shipped designs never make: one cell, one row, one column, one
# layer, odd sides, and some above the dense cut, whose V-cycle smooths
BIT_PIN_SHAPES = [(1, 1, 1), (3, 1, 7), (3, 7, 1), (1, 5, 9), (5, 9, 9), (2, 2, 3),
                  (1, 1, 301), (2, 151, 1), (1, 33, 31), (3, 17, 13), (4, 12, 21), (2, 31, 33)]
BIT_PIN_SHA256 = "4a6b8e7fbdd88c8294578f8c2e93ee771652f921af0fe4ebfbd5d8e81edf8b5d"


class TestMultigrid:
    """The V-cycle, the preconditioner of every solve."""

    @cuts
    @settings(max_examples=80, deadline=None)
    @given(net=random_networks(), seed=st.integers(0, 2 ** 32 - 1))
    @with_odd_planes
    def test_vcycle_is_symmetric_and_positive(self, cut, net, seed):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
            vcycle = system_matrix(net).vcycle
        x, y = rng.normal(size=(2, net.grid.num_cells))
        mx, my = vcycle(x).copy(), vcycle(y).copy()
        xmx, ymy = x @ mx, y @ my
        assert xmx > 0 and ymy > 0
        # the smoothed levels run in float32, so the cycle is symmetric only to
        # their rounding: the worst of 5,000 draws at cut 0 read 3.4e-5, while
        # a cycle with one pre-sweep fewer than post-sweeps reads a median 3e-3
        assert abs(y @ mx - x @ my) <= 3e-4 * math.sqrt(xmx * ymy)

    @cuts
    @settings(max_examples=80, deadline=None)
    @given(net=random_networks(), seed=st.integers(0, 2 ** 32 - 1))
    @with_odd_planes
    # the draw closest to 1e-8 K in a scan of 4,800 (5.45e-9 K at cut 0)
    @example(net=random_network(5, 1, 4, 247, True, (0, 1, 2, 3)), seed=247)
    # a column at about 19,000 K, 2e-8 K from the dense solve, whose own error
    # eps cond_inf(G) ||T||_inf is 1.4e-7 K
    @example(net=ConductanceNetwork(
        GridSpec(1, 1, 100 * UM, 5), g_x=np.zeros((5, 1, 0)), g_y=np.zeros((5, 0, 1)),
        g_z=np.array([1.7546263805505059e-04, 1.1353808798581187e-02,
                      9.7541100204715078e-04, 2.8049310351501955e-01]).reshape(4, 1, 1),
        g_ambient=np.array([[0.00014583212332070885]])), seed=42911)
    def test_multigrid_pcg_matches_a_dense_solve(self, cut, net, seed):
        grid = net.grid
        power = np.random.default_rng(seed).uniform(0.0, 0.5, (grid.num_layers, grid.cells_y,
                                                               grid.cells_x))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
            field = solve_steady_state(net, power, AMBIENT)
        rhs = power.ravel().copy()
        rhs[:grid.cells_per_layer] += net.g_ambient.ravel() * AMBIENT
        reference = csr_reference(net)
        exact = np.linalg.solve(reference.toarray(), rhs)
        assert np.abs(field.t.ravel() - exact).max() <= agreement_bound(reference, exact)
        # a wrong operator could not meet the residual contract on the reference
        residual = np.abs(reference @ field.t.ravel() - rhs).max()
        assert residual <= RESIDUAL_RTOL * max(power.max(), 1.0)

    @pytest.mark.parametrize("layers, rows, cols", [(4, 8, 8), (1, 16, 16), (3, 1, 9),
                                                    (3, 9, 1)])
    def test_a_network_at_the_cut_takes_one_iteration(self, layers, rows, cols):
        # its V-cycle is the dense inverse alone, one-row and one-column planes
        # included, where g_x and g_y couple at the same flat offset
        assert layers * rows * cols <= COARSE_SOLVE_MAX_UNKNOWNS
        rng = np.random.default_rng(layers * rows * cols)
        g = lambda *shape: rng.uniform(1e-3, 1e-1, shape)
        net = ConductanceNetwork(GridSpec(cols, rows, 100 * UM, layers),
                                 g_x=g(layers, rows, cols - 1), g_y=g(layers, rows - 1, cols),
                                 g_z=g(layers - 1, rows, cols), g_ambient=g(rows, cols))
        power = rng.uniform(0.0, 0.01, (layers, rows, cols))
        field = solve_steady_state(net, power, AMBIENT)
        assert field.iterations == 1
        rhs = power.ravel().copy()
        rhs[:rows * cols] += net.g_ambient.ravel() * AMBIENT
        exact = np.linalg.solve(csr_reference(net).toarray(), rhs)
        assert np.abs(field.t.ravel() - exact).max() < 1e-8

    def test_a_large_plane_agrees_with_scipy_cg(self):
        # 64 x 65 cells on two layers: the V-cycle smooths three levels, of
        # 65, 33 and 17 rows, and scipy's cg is preconditioned by the Jacobi
        # diagonal
        rows = 65
        rng = np.random.default_rng(rows)
        g = lambda *shape: rng.uniform(1e-3, 1e-1, shape)
        net = ConductanceNetwork(GridSpec(64, rows, 100 * UM, 2), g_x=g(2, rows, 63),
                                 g_y=g(2, rows - 1, 64), g_z=g(1, rows, 64),
                                 g_ambient=g(rows, 64))
        power = rng.uniform(0.0, 0.01, (2, rows, 64))
        field = solve_steady_state(net, power, AMBIENT)
        rhs = power.ravel().copy()
        rhs[:64 * rows] += net.g_ambient.ravel() * AMBIENT
        reference = csr_reference(net)
        expected, info = cg(reference, rhs, x0=np.full(rhs.size, AMBIENT), rtol=0.0,
                            atol=RESIDUAL_RTOL * 1e-4, maxiter=100 * rhs.size,
                            M=sp.diags(1.0 / reference.diagonal()))
        assert info == 0
        assert field.iterations <= 20
        assert np.abs(field.t.ravel() - expected).max() < 1e-8

    def test_a_vcycle_answer_survives_later_products(self):
        # multicore at 100 um has more unknowns than the dense cut, so its
        # V-cycle smooths; neither G's product nor G_eff's may touch its answer
        design = shipped_design("multicore")
        grid = grid_for(design.stack)
        assert grid.num_cells > COARSE_SOLVE_MAX_UNKNOWNS
        matrix = system_matrix(build_network(rasterize(design, grid), grid, design.stack))
        leaky = [b for b in design.floorplan.blocks if b.leakage_ref > 0]
        g_eff = thermal.LeakageOperator(matrix, leaky, design.stack.tech.leakage_coeff)
        b = np.random.default_rng(7).uniform(0.0, 0.01, grid.num_cells)
        z = matrix.vcycle(b)
        kept = z.copy()
        for operator in (matrix, g_eff):
            operator @ b
            assert np.array_equal(z, kept)

    def test_solver_bits_on_shapes_the_designs_do_not_reach(self):
        # one digest over a product, a V-cycle application and a solved field
        # of each network, at both cuts; recorded before the couplings were
        # stored positive and subtracted, which must not move a bit
        digest = hashlib.sha256()
        for i, (layers, rows, cols) in enumerate(BIT_PIN_SHAPES):
            net = random_network(layers, rows, cols, seed=i, strong_z=i % 2 == 0,
                                 patch=(0, (rows + 1) // 2, cols // 3, cols))
            rng = np.random.default_rng(i)
            x = rng.normal(size=net.grid.num_cells)
            power = rng.uniform(0.0, 0.5, (layers, rows, cols))
            for cut in (COARSE_SOLVE_MAX_UNKNOWNS, 0):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
                    matrix = system_matrix(net)
                    field = solve_steady_state(net, power, AMBIENT)
                    for array in (matrix @ x, matrix.vcycle(x), field.t):
                        digest.update(array.tobytes())
        assert digest.hexdigest() == BIT_PIN_SHA256

    @pytest.mark.parametrize("name", SHIPPED)
    def test_energy_balance_at_25um(self, name):
        design = shipped_design(name)
        grid = grid_for(design.stack, 25 * UM)
        occ = rasterize(design, grid)
        net = build_network(occ, grid, design.stack)
        field = solve_steady_state(net, occ.power, design.stack.tech.ambient)
        assert field.iterations <= 20
        heat_out = float((net.g_ambient * (field.t[0] - design.stack.tech.ambient)).sum())
        assert heat_out == pytest.approx(occ.power.sum(), rel=1e-6)

    # the benchmark's largest problems: the last point of its layer sweep,
    # corememory under 4 memory layers (46,080 unknowns), and multicore's
    # leakage fixed point (32,768)
    @pytest.mark.parametrize("design", [with_memory_layers(shipped_design("corememory"), 4),
                                        shipped_design("multicore")],
                             ids=["corememory-4-memory-layers", "multicore-leakage"])
    def test_energy_balance_of_the_largest_solves_at_25um(self, design):
        grid = grid_for(design.stack, 25 * UM)
        net = build_network(rasterize(design, grid), grid, design.stack)
        field = couple_leakage(design, grid).field
        assert field.iterations <= 20
        tech = design.stack.tech
        power = sum(b.power + b.leakage_ref * (1 + tech.leakage_coeff * (
            float((field.t[b.layer] * block_cell_weights(b, grid)).sum()) - tech.leakage_tref))
            for b in design.floorplan.blocks)
        heat_out = float((net.g_ambient * (field.t[0] - tech.ambient)).sum())
        assert heat_out == pytest.approx(power, rel=1e-6)

    # traced at 130 and 146 B; they read 168 and 216 B while the operator
    # kept negated copies of the network's couplings beside them, and CG its
    # own residual and work vectors beside the right-hand side and the
    # V-cycle's answer
    @pytest.mark.parametrize("coeff, limit", [(0.0, 140), (None, 150)],
                             ids=["leakage-off", "leakage-on"])
    def test_bytes_per_unknown_of_the_largest_cold_solve(self, coeff, limit):
        # corememory under 4 memory layers at 25 um, 46,080 unknowns; a
        # warm-up solve fills the run's block raster first, as a run's first
        # solve does
        design = with_memory_layers(shipped_design("corememory"), 4, 25 * UM)
        if coeff is not None:
            design = with_leakage_coeff(design, coeff)
        grid = grid_for(design.stack, 25 * UM)
        couple_leakage(design, grid)
        tracemalloc.start()
        try:
            couple_leakage(design, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / grid.num_cells <= limit


# ---------------------------------------------------------- leakage coupling

@st.composite
def leaky_designs(draw):
    """A random design with one to three leaky blocks, and its grid."""
    layers = draw(st.integers(1, 3))
    cell = draw(st.sampled_from([100 * UM, 200 * UM, 250 * UM]))
    size = st.floats(0.1, 0.9)
    blocks = []
    for i in range(draw(st.integers(1, 3))):
        w, h = draw(size), draw(size)
        blocks.append(block(f"b{i}", draw(st.integers(0, layers - 1)),
                            draw(st.floats(0, 2 - w)), draw(st.floats(0, 2 - h)), w, h,
                            power=draw(st.floats(0, 3)), leakage=draw(st.floats(0.01, 1))))
    farms = []
    if draw(st.booleans()):
        w, h = draw(size), draw(size)
        farms.append(farm("f", draw(st.floats(0, 2 - w)), draw(st.floats(0, 2 - h)),
                          w, h, start=0, end=layers - 1))
    design = make_design(blocks=blocks, farms=farms, num_layers=layers)
    return design, grid_for(design.stack, cell)


def with_leakage_coeff(design, coeff):
    tech = dataclasses.replace(design.stack.tech, leakage_coeff=coeff)
    return dataclasses.replace(design, stack=dataclasses.replace(design.stack, tech=tech))


def _leaky_weights(design, grid):
    """[n, B] cell weights of the leaky blocks, and their reference leakages."""
    leaky = [b for b in design.floorplan.blocks if b.leakage_ref > 0]
    w = np.zeros((grid.num_cells, len(leaky)))
    for j, b in enumerate(leaky):
        w[:, j].reshape(grid.num_layers, -1)[b.layer] = block_cell_weights(b, grid).ravel()
    return w, np.array([b.leakage_ref for b in leaky])


def dense_leakage_system(design, grid):
    """Dense G, K = sum_b c l_b w_b w_b^T and the source P(T_amb) of the
    leakage fixed point's rise, G_eff u = P(T_amb) with G_eff = G - K."""
    net = build_network(rasterize(design, grid), grid, design.stack)
    w, leakage = _leaky_weights(design, grid)
    k = (w * design.stack.tech.leakage_coeff * leakage) @ w.T
    source = dense_leakage_power(design, grid, np.full(grid.num_cells, AMBIENT))
    return csr_reference(net).toarray(), k, source


def dense_leakage_power(design, grid, t):
    """Every cell's dynamic power plus its leakage at t's block averages."""
    tech = design.stack.tech
    w, leakage = _leaky_weights(design, grid)
    scale = 1 + tech.leakage_coeff * (w.T @ np.ravel(t) - tech.leakage_tref)
    return rasterize(design, grid).power.ravel() + w @ (leakage * (scale - 1))


def runaway_coeff(design, grid):
    """The leakage coefficient c at which lambda_max(G^-1 K) = 1: K is
    c W L W^T, so that is 1 / lambda_max of the B x B L^1/2 W^T G^-1 W L^1/2."""
    net = build_network(rasterize(design, grid), grid, design.stack)
    w, leakage = _leaky_weights(design, grid)
    root = np.sqrt(leakage)
    reduced = root[:, None] * (w.T @ np.linalg.solve(csr_reference(net).toarray(), w)) * root
    return 1.0 / np.linalg.eigvalsh(reduced).max()


class TestCoupleLeakage:
    def _leaky_design(self, lam=0.02):
        tech = make_tech(leakage_coeff=lam)
        return make_design(
            blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6, power=1.0, leakage=0.2),),
            tech=tech)

    def test_zero_lambda_takes_one_solve(self):
        d = self._leaky_design(lam=0.0)
        grid = grid_for(d.stack)
        result = couple_leakage(d, grid)
        assert result.iterations == 1
        assert np.array_equal(result.field.t, solve_design(d, grid).t)

    def test_no_leaky_block_takes_one_solve(self):
        d = make_design(blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6, power=1.0),),
                        tech=make_tech(leakage_coeff=0.05))
        grid = grid_for(d.stack)
        result = couple_leakage(d, grid)
        assert result.iterations == 1
        assert np.array_equal(result.field.t, solve_design(d, grid).t)

    def test_a_leaky_field_reports_both_solves_iterations(self, monkeypatch):
        design = shipped_design("multicore")
        counts = []
        inner = thermal.solve_steady_state

        def recorded(*args, **kwargs):
            field = inner(*args, **kwargs)
            counts.append(field.iterations)
            return field
        monkeypatch.setattr(thermal, "solve_steady_state", recorded)
        result = couple_leakage(design, grid_for(design.stack))
        assert result.iterations == len(counts) == 2
        assert result.field.iterations == sum(counts) > 0

    def test_positive_lambda_heats_every_cell(self):
        d = self._leaky_design(lam=0.05)
        grid = grid_for(d.stack)
        coupled = couple_leakage(d, grid).field
        base = solve_design(d, grid)
        assert np.all(coupled.t >= base.t - 1e-9)
        assert coupled.peak > base.peak

    def test_agrees_with_bisection_oracle_on_reduced_system(self):
        # single block covering the whole 2x2x1 grid: one unknown, its avg T
        lam, t_ref = 0.05, 298.15
        tech = make_tech(footprint_width=mm(0.2), footprint_height=mm(0.2),
                         leakage_coeff=lam, package_resistance=50.0)
        d = make_design(blocks=(block("b", 0, 0.0, 0.0, 0.2, 0.2,
                                      power=1.0, leakage=0.2),),
                        num_layers=1, tech=tech)
        grid = grid_for(d.stack)
        assert (grid.cells_x, grid.cells_y) == (2, 2)
        blk = d.floorplan.blocks[0]
        weights = block_cell_weights(blk, grid)

        occ = rasterize(d, grid)
        net = build_network(occ, grid, d.stack)
        unit = solve_steady_state(net, weights[None, :, :], AMBIENT)
        r_eff = float((unit.t[0] * weights).sum()) - AMBIENT  # K per W

        def residual(t_avg):
            power = 1.0 + 0.2 * (1.0 + lam * (t_avg - t_ref))
            return AMBIENT + r_eff * power - t_avg

        lo, hi = AMBIENT, AMBIENT + 500.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle_t = 0.5 * (lo + hi)

        coupled = couple_leakage(d, grid).field
        block_avg = float((coupled.t[0] * weights).sum())
        assert block_avg == pytest.approx(oracle_t, abs=1e-6)

    def test_thermal_runaway_detected(self):
        tech = make_tech(leakage_coeff=0.5, package_resistance=100.0)
        d = make_design(blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6,
                                      power=1.0, leakage=1.0),),
                        tech=tech)
        with pytest.raises(ThermalRunawayError):
            couple_leakage(d, grid_for(d.stack))

    # fraction of the runaway coefficient: the shipped designs sit at 0.16-0.28.
    # Much nearer to 1 the rise reaches thousands of kelvin, and 1e-8 K falls
    # below what the residual contract, or a dense solve's rounding, resolves
    @settings(max_examples=30, deadline=None)
    @given(case=leaky_designs(), fraction=st.floats(0.05, 0.8))
    def test_matches_a_dense_solve_of_g_eff(self, case, fraction):
        design, grid = case
        d = with_leakage_coeff(design, fraction * runaway_coeff(design, grid))
        field = couple_leakage(d, grid).field
        net = build_network(rasterize(d, grid), grid, d.stack)
        g, k, source = dense_leakage_system(d, grid)
        exact = AMBIENT + np.linalg.solve(g - k, source)
        assert np.abs(field.t.ravel() - exact).max() < 1e-8
        # the fixed point's own residual contract and energy balance, at the field
        power = dense_leakage_power(d, grid, field.t)
        rhs = power.copy()
        rhs[:grid.cells_per_layer] += net.g_ambient.ravel() * AMBIENT
        assert np.abs(g @ field.t.ravel() - rhs).max() <= RESIDUAL_RTOL * max(power.max(), 1.0)
        heat_out = float((net.g_ambient * (field.t[0] - AMBIENT)).sum())
        assert heat_out == pytest.approx(power.sum(), rel=1e-6)

    @staticmethod
    def _two_block_design():
        return make_design(
            blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6, power=1.0, leakage=0.2),
                    block("warm", 1, 0.2, 1.1, 0.5, 0.3, power=0.3, leakage=0.1)),
            tech=make_tech(package_resistance=50.0))

    @depths
    @pytest.mark.parametrize("factor", [0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-5,
                                        1 + 1e-5, 1 + 1e-4, 1.01, 1.1, 2.0, 10.0])
    def test_runaway_exactly_above_the_dense_threshold(self, monkeypatch, cut, factor):
        # the coefficient at which a dense lambda_max(G^-1 K) reaches 1
        d = self._two_block_design()
        grid = grid_for(d.stack)
        monkeypatch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
        d = with_leakage_coeff(d, factor * runaway_coeff(d, grid))
        if factor > 1:
            with pytest.raises(ThermalRunawayError, match="diverging"):
                couple_leakage(d, grid)
        else:
            assert couple_leakage(d, grid).field.t.min() > AMBIENT

    @depths
    def test_a_near_runaway_stop_reports_its_true_residual(self, monkeypatch, tmp_path, cut):
        # 1e-6 below the threshold the rise is about 1e8 K: CG's updated
        # residual meets its stop long before the budget is spent, while the
        # true residual stays above the contract
        d = self._two_block_design()
        grid = grid_for(d.stack)
        monkeypatch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
        coeff = float((1 - 1e-6) * runaway_coeff(d, grid))
        with pytest.raises(SolverError) as error:
            couple_leakage(with_leakage_coeff(d, coeff), grid)
        assert not isinstance(error.value, ThermalRunawayError)
        budget = thermal.CG_ITERATIONS_PER_DESIGN_SOLVE
        message = str(error.value)
        taken = int(re.search(rf"after (\d+) of {budget} CG iterations", message).group(1))
        assert taken < budget
        assert f"true residual {error.value.residual:g}" in message
        assert error.value.residual > RESIDUAL_RTOL
        assert "may be at the thermal-runaway threshold" in message
        path_ = tmp_path / "near.design"
        path_.write_text(emit_design(d))
        result = CliRunner().invoke(main, ["analyze", str(path_), "--leakage-lambda",
                                           repr(coeff), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "thermal-runaway threshold" in result.output

    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0, 10.0])
    def test_a_positive_rise_certifies_stability(self, monkeypatch, factor):
        # CG meets an indefinite G_eff first; the certificate alone must
        # still reject the exact rise of one, which is not positive somewhere
        d = self._leaky_design()
        grid = grid_for(d.stack)
        d = with_leakage_coeff(d, factor * runaway_coeff(d, grid))
        g, k, source = dense_leakage_system(d, grid)
        inner = thermal.solve_steady_state

        def dense(network, power, ambient, **kwargs):
            if isinstance(kwargs["matrix"], thermal.LeakageOperator):
                return thermal.TemperatureField(
                    np.linalg.solve(g - k, power.ravel()).reshape(power.shape), 0.0)
            return inner(network, power, ambient, **kwargs)
        monkeypatch.setattr(thermal, "solve_steady_state", dense)
        if factor > 1:
            with pytest.raises(ThermalRunawayError, match="rise is not positive"):
                couple_leakage(d, grid)
        else:
            assert couple_leakage(d, grid).field.t.min() > AMBIENT

    def test_a_source_the_rise_solve_cannot_resolve_is_no_runaway(self):
        # blockage with no dynamic power: with leakage_tref = T_amb + 1/c no
        # power, to rounding, is injected at T_amb, and a leakage of a few pW
        # is below the rise solve's absolute stop, so its rise may be 0;
        # neither is a runaway
        shipped = shipped_design("blockage")
        for leakage in (None, 1e-13, 5e-12):
            tech = shipped.stack.tech
            if leakage is None:
                tech = dataclasses.replace(tech,
                                           leakage_tref=tech.ambient + 1 / tech.leakage_coeff)
            blocks = tuple(dataclasses.replace(
                b, power=0.0, leakage_ref=b.leakage_ref if leakage is None or not b.leakage_ref
                else leakage) for b in shipped.floorplan.blocks)
            assert any(b.leakage_ref > 0 for b in blocks)
            design = dataclasses.replace(
                shipped, stack=dataclasses.replace(shipped.stack, tech=tech),
                floorplan=dataclasses.replace(shipped.floorplan, blocks=blocks))
            field = couple_leakage(design, grid_for(design.stack)).field
            assert np.abs(field.t - tech.ambient).max() < 1e-6

    @depths
    def test_one_budget_for_both_solves(self, monkeypatch, cut):
        d = self._leaky_design()
        grid = grid_for(d.stack)
        monkeypatch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
        solves = []
        inner = thermal.solve_steady_state

        def recorded(*args, **kwargs):
            field = inner(*args, **kwargs)
            solves.append((kwargs.get("maxiter"), field.iterations))
            return field
        monkeypatch.setattr(thermal, "solve_steady_state", recorded)
        assert couple_leakage(d, grid).iterations == 2
        (first, spent), (second, _) = solves
        budget = thermal.CG_ITERATIONS_PER_DESIGN_SOLVE
        assert first is None and second == budget - spent
        # two iterations cannot reach the contract: the budget runs out
        monkeypatch.setattr(thermal, "CG_ITERATIONS_PER_DESIGN_SOLVE", 2)
        with pytest.raises(SolverError, match="within 2 CG iterations") as error:
            couple_leakage(d, grid)
        assert not isinstance(error.value, ThermalRunawayError)


# ------------------------------------------------------------- field stats

class TestFieldStats:
    def test_uniform_field(self):
        net = _single_cell_network(0.1)
        field = solve_steady_state(net, np.zeros((1, 1, 1)), 300.0)
        stats = field_stats(field)
        assert stats.peak == stats.average == 300.0

    def test_two_value_field(self):
        from tsvplan.thermal import TemperatureField
        field = TemperatureField(np.array([[[300.0, 310.0]]]), 0.0)
        stats = field_stats(field)
        assert stats.average == pytest.approx(305.0)
        assert stats.peak == pytest.approx(310.0)

    def test_hottest_block_tie_breaks_lexicographically(self):
        from tsvplan.thermal import TemperatureField
        d = make_design(blocks=(block("zeta", 0, 0.0, 0.0, 0.2, 0.2),
                                block("alpha", 0, 1.0, 1.0, 0.2, 0.2)),
                        num_layers=1)
        grid = grid_for(d.stack)
        uniform = TemperatureField(np.full((1, grid.cells_y, grid.cells_x), 320.0), 0.0)
        stats = field_stats(uniform, d, grid)
        assert stats.hottest_block == "alpha"

    def test_hottest_block_identified(self, two_layer_design):
        d = two_layer_design
        grid = grid_for(d.stack)
        field = solve_design(d, grid)
        stats = field_stats(field, d, grid)
        assert stats.hottest_block == "alpha"  # carries 1 W vs beta's 0.5 W


def test_grid_must_tile_footprint():
    from tsvplan.errors import GridError
    d = make_design()
    with pytest.raises(GridError):
        grid_for(d.stack, 300 * UM)  # 2 mm / 0.3 mm is not integral
    with pytest.raises(GridError):
        grid_for(d.stack, float("nan"))
    # a cell size in float metres, as lengths were once held, is not whole nanometres
    for cell in (1e-4, 100_000.0):
        with pytest.raises(GridError, match="positive whole nanometres"):
            grid_for(d.stack, cell)


def test_a_grid_over_the_cell_limit_is_a_grid_error(monkeypatch):
    # the limit is checked on the cell counts, before anything is allocated
    from tsvplan.errors import GridError
    d = make_design()
    cells = grid_for(d.stack).num_cells
    monkeypatch.setattr(thermal, "MAX_GRID_CELLS", cells)
    assert grid_for(d.stack).num_cells == cells
    with pytest.raises(GridError, match="grid cells"):
        grid_for(d.stack, 50 * UM)
    monkeypatch.undo()
    for cell in (10, 1):   # 4e10 and 4e12 cells a layer
        with pytest.raises(GridError, match="grid cells"):
            grid_for(d.stack, cell)
