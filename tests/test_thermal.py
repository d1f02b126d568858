import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import cg

from tsvplan.benchmarks import BUILDERS
from tsvplan.errors import SingularNetworkError, SolverError, ThermalRunawayError
from tsvplan.model import reshape_farm
from tsvplan import thermal
from tsvplan.thermal import (JACOBI_MAX_PLANE_CELLS, RESIDUAL_RTOL, ConductanceNetwork,
                             GridSpec, block_cell_weights, build_network, couple_leakage,
                             field_stats, grid_for, rasterize, solve_design,
                             solve_field, solve_steady_state, system_matrix)
from conftest import (MM, UM, block, csr_reference, farm, make_design, make_tech,
                      one_cell_resistances)

AMBIENT = 298.15


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
            _, r_vert = one_cell_resistances(1e-4, 0.0, 149.0)
        assert r_vert == 0.0

    def test_silicon_slab(self):
        # 100 um span, silicon, 1e-9 m^2 section
        r_lat, _ = one_cell_resistances(1e-4, 1e-5, 149.0)
        assert r_lat == pytest.approx(671.1409395973154)

    def test_doubling_area_halves_resistance(self):
        r1, _ = one_cell_resistances(1e-4, 1e-5, 149.0)
        r2, _ = one_cell_resistances(1e-4, 2e-5, 149.0)
        assert r2 == pytest.approx(r1 / 2)


class TestCompositeResistance:
    def test_pure_farm_cell(self):
        r, _ = one_cell_resistances(1e-4, 1e-5, 149.0, farm_fraction=1.0, k_farm=2.75)
        assert r == pytest.approx(36363.636363636364)

    def test_pure_silicon_cell_reduces_to_slab(self):
        r, _ = one_cell_resistances(1e-4, 1e-5, 149.0, farm_fraction=0.0, k_farm=2.75)
        assert r == pytest.approx(671.1409395973154)

    def test_mixed_lateral_cell(self):
        r, _ = one_cell_resistances(1e-4, 1e-5, 149.0, farm_fraction=0.4, k_farm=2.75)
        assert r == pytest.approx(92027.65914175311)

    def test_mixed_vertical_cell(self):
        # 10 um thick layer, 100 um cell, tungsten vias
        _, r = one_cell_resistances(1e-4, 1e-5, 149.0, farm_fraction=0.4, k_metal=173.0)
        assert r == pytest.approx(25.636549378645047)


# ------------------------------------------------------------ build_network

def _single_cell_network(g_ambient):
    grid = GridSpec(1, 1, 1e-4, 1)
    return ConductanceNetwork(
        grid,
        g_x=np.zeros((1, 1, 0)), g_y=np.zeros((1, 0, 1)),
        g_z=np.zeros((0, 1, 1)),
        g_ambient=np.full((1, 1), g_ambient))


def _stacked_pair_network(g_z, g_ambient):
    grid = GridSpec(1, 1, 1e-4, 2)
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
        r_cell, _ = one_cell_resistances(1e-4, 10 * UM, 149.0)
        assert net.g_x == pytest.approx(np.full_like(net.g_x, 1.0 / r_cell))

    def test_matrix_symmetric_for_random_occupancy(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.integers(1, 4, size=2) * 0.1
            f = farm("f", float(x), float(y), 0.3, 0.3, start=0, end=1,
                     k_lat=float(rng.uniform(0.5, 5.0)))
            d = make_design(farms=(f,))
            grid = grid_for(d.stack, 2e-4)
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
            GridSpec(cols, rows, 1e-4, layers), g_x=g(layers, rows, cols - 1),
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
            grid = GridSpec(6, 6, 1e-4, 2)
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
        cold = solve_design(two_layer_design, grid)
        warm = solve_design(two_layer_design, grid, x0=cold.t + 3.0)
        assert np.abs(warm.t - cold.t).max() < 1e-6

    def test_grid_refinement_consistency(self):
        # smooth fixture: broad block, peak moves < 2% of the rise on refinement
        d = make_design(blocks=(block("b", 0, 0.6, 0.6, 0.8, 0.8, power=1.0),))
        coarse = solve_design(d, grid_for(d.stack, 2e-4))
        fine = solve_design(d, grid_for(d.stack, 1e-4))
        rise_c = coarse.peak - AMBIENT
        rise_f = fine.peak - AMBIENT
        assert abs(rise_f - rise_c) / rise_c < 0.02

    def test_blockage_monotone_in_farm_conductivity(self):
        from tsvplan.benchmarks import blockage_design
        peaks = []
        for k in (0.5, 1.0, 2.75, 5.0, 23.1, 149.0):
            d = blockage_design(k_farm=k, leakage_ref=0.0)
            peaks.append(solve_design(d).peak)
        assert all(a >= b - 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_insulated_ring_raises_peak_over_no_ring(self):
        from tsvplan.benchmarks import blockage_design
        ringed = blockage_design(k_farm=0.5, leakage_ref=0.0)
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
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_mirrored_design_gives_mirrored_field(name, axis, solve):
    # a reshaped first farm breaks the builders' own mirror symmetries
    design = BUILDERS[name]()
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


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_swapping_identical_farms_leaves_the_field(name):
    design = BUILDERS[name]()
    first, second = design.floorplan.farms[:2]
    assert dataclasses.replace(first, x=second.x, y=second.y, name=second.name,
                               clients=second.clients) == second
    swapped = design.with_floorplan(dataclasses.replace(design.floorplan, farms=(
        dataclasses.replace(first, x=second.x, y=second.y),
        dataclasses.replace(second, x=first.x, y=first.y),
        *design.floorplan.farms[2:])))
    grid = grid_for(design.stack)
    np.testing.assert_allclose(solve_field(swapped, grid).t, solve_field(design, grid).t,
                               rtol=0, atol=1e-9)


@st.composite
def rasterized_designs(draw):
    """A random design on the 2 x 2 mm fixture footprint, its grid and a start."""
    layers = draw(st.integers(1, 3))
    cell = draw(st.sampled_from([1e-4, 2e-4, 2.5e-4]))
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
    def test_bit_identical_to_scipy_cg(self, case):
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
        assert np.array_equal(field.t.ravel(), expected)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    @pytest.mark.parametrize("watts", [float("nan"), float("inf")])
    @pytest.mark.parametrize("leakage", [0.0, 0.02])
    def test_non_finite_power_fails_at_once(self, watts, leakage):
        # 3,200 unknowns: a 320,000-step budget
        _assert_non_finite_power_fails_at_once(watts, leakage, cell=5e-5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("watts", [float("nan"), float("inf")])
    @pytest.mark.parametrize("leakage", [0.0, 0.02])
    def test_non_finite_power_fails_at_once_above_the_switch(self, watts, leakage):
        # an 80 x 80 plane takes the multigrid path
        assert 80 * 80 > JACOBI_MAX_PLANE_CELLS
        _assert_non_finite_power_fails_at_once(watts, leakage, cell=2.5e-5)


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
    return ConductanceNetwork(GridSpec(cols, rows, 1e-4, layers), g_x=g_x, g_y=g_y,
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


class TestMultigrid:
    """The V-cycle preconditioner, which planes above JACOBI_MAX_PLANE_CELLS
    cells take."""

    @settings(max_examples=80, deadline=None)
    @given(net=random_networks(), seed=st.integers(0, 2 ** 32 - 1))
    @with_odd_planes
    def test_vcycle_is_symmetric_and_positive(self, net, seed):
        rng = np.random.default_rng(seed)
        vcycle = system_matrix(net).vcycle
        x, y = rng.normal(size=(2, net.grid.num_cells))
        mx, my = vcycle(x).copy(), vcycle(y).copy()
        xmx, ymy = x @ mx, y @ my
        assert xmx > 0 and ymy > 0
        assert abs(y @ mx - x @ my) <= 1e-12 * math.sqrt(xmx * ymy)

    @settings(max_examples=80, deadline=None)
    @given(net=random_networks(), seed=st.integers(0, 2 ** 32 - 1))
    @with_odd_planes
    def test_multigrid_pcg_matches_a_dense_solve(self, net, seed):
        grid = net.grid
        power = np.random.default_rng(seed).uniform(0.0, 0.5, (grid.num_layers, grid.cells_y,
                                                               grid.cells_x))
        matrix = system_matrix(net)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermal, "JACOBI_MAX_PLANE_CELLS", 0)
            field = solve_steady_state(net, power, AMBIENT, matrix=matrix)
        assert "vcycle" in vars(matrix)   # built, so the multigrid path ran
        rhs = power.ravel().copy()
        rhs[:grid.cells_per_layer] += net.g_ambient.ravel() * AMBIENT
        exact = np.linalg.solve(csr_reference(net).toarray(), rhs)
        assert np.abs(field.t.ravel() - exact).max() < 1e-8

    @pytest.mark.parametrize("rows, taken", [(JACOBI_MAX_PLANE_CELLS // 64, "jacobi"),
                                             (JACOBI_MAX_PLANE_CELLS // 64 + 1, "multigrid")])
    def test_the_switch_is_on_the_plane_size(self, rows, taken):
        # a plane exactly at the constant is solved as scipy's cg solves it;
        # one row more builds and uses the V-cycle
        rng = np.random.default_rng(rows)
        g = lambda *shape: rng.uniform(1e-3, 1e-1, shape)
        net = ConductanceNetwork(GridSpec(64, rows, 1e-4, 2), g_x=g(2, rows, 63),
                                 g_y=g(2, rows - 1, 64), g_z=g(1, rows, 64),
                                 g_ambient=g(rows, 64))
        power = rng.uniform(0.0, 0.01, (2, rows, 64))
        matrix = system_matrix(net)
        field = solve_steady_state(net, power, AMBIENT, matrix=matrix)
        assert ("vcycle" in vars(matrix)) == (taken == "multigrid")
        rhs = power.ravel().copy()
        rhs[:64 * rows] += net.g_ambient.ravel() * AMBIENT
        reference = csr_reference(net)
        expected, info = cg(reference, rhs, x0=np.full(rhs.size, AMBIENT), rtol=0.0,
                            atol=RESIDUAL_RTOL * 1e-4, maxiter=100 * rhs.size,
                            M=sp.diags(1.0 / reference.diagonal()))
        assert info == 0
        if taken == "jacobi":
            assert np.array_equal(field.t.ravel(), expected)
        else:
            assert field.iterations <= 20
            assert np.abs(field.t.ravel() - expected).max() < 1e-8

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_energy_balance_at_25um(self, name):
        design = BUILDERS[name]()
        grid = grid_for(design.stack, 25e-6)
        assert grid.cells_per_layer > JACOBI_MAX_PLANE_CELLS
        occ = rasterize(design, grid)
        net = build_network(occ, grid, design.stack)
        field = solve_steady_state(net, occ.power, design.stack.tech.ambient)
        assert field.iterations <= 20
        heat_out = float((net.g_ambient * (field.t[0] - design.stack.tech.ambient)).sum())
        assert heat_out == pytest.approx(occ.power.sum(), rel=1e-6)


# ---------------------------------------------------------- leakage coupling

class TestCoupleLeakage:
    def _leaky_design(self, lam=0.02):
        tech = make_tech(leakage_coeff=lam)
        return make_design(
            blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6, power=1.0, leakage=0.2),),
            tech=tech)

    def test_zero_lambda_converges_in_two_solves(self):
        d = self._leaky_design(lam=0.0)
        grid = grid_for(d.stack)
        result = couple_leakage(d, grid)
        assert result.iterations == 2
        base = solve_design(d, grid)
        assert np.abs(result.field.t - base.t).max() < 1e-9

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
        tech = make_tech(footprint_width=0.2 * MM, footprint_height=0.2 * MM,
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
        assert block_avg == pytest.approx(oracle_t, abs=0.02)

    def test_thermal_runaway_detected(self):
        tech = make_tech(leakage_coeff=0.5, package_resistance=100.0)
        d = make_design(blocks=(block("hot", 0, 0.7, 0.7, 0.6, 0.6,
                                      power=1.0, leakage=1.0),),
                        tech=tech)
        with pytest.raises(ThermalRunawayError):
            couple_leakage(d, grid_for(d.stack))


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
        grid_for(d.stack, 3e-4)  # 2 mm / 0.3 mm is not integral
