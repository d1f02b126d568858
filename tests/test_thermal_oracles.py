"""The thermal build and V-cycle against full-plane, unbound references.

rasterize and cell_resistances work only on the cells the farms can cover,
coarsen adds strided pairs, and the V-cycle runs steps bound once per
hierarchy. Each reference below is the straightforward full-plane or
per-call form of the same arithmetic, and every result must match it bit
for bit.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvplan import thermal
from tsvplan.model import Design, Floorplan, Layer, Material, Stack, TsvFarm
from tsvplan.thermal import (ConductanceNetwork, GridSpec, block_raster, build_network,
                             cell_resistances, coarsen, couple_leakage, grid_for, rasterize,
                             system_matrix)
from conftest import MM, SHIPPED, SILICON, UM, farm, make_tech, shipped_design


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 differs from 0.0 and NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- references

def full_plane_overlap(lo, hi, cell, n):
    edges = np.arange(n + 1) * cell
    return np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)


def full_plane_rasterize(design, grid):
    """rasterize, with every farm's areas computed over the whole plane."""
    shape = (grid.num_layers, grid.cells_y, grid.cells_x)
    farm_fraction, lateral_fraction, k_farm, k_metal, best_area = (np.zeros(shape)
                                                                   for _ in range(5))
    for f in design.floorplan.farms:
        areas = np.outer(full_plane_overlap(f.rect[1], f.rect[3], grid.cell_size, grid.cells_y),
                         full_plane_overlap(f.rect[0], f.rect[2], grid.cell_size, grid.cells_x))
        frac = areas / grid.cell_size ** 2
        for layer in range(f.start_layer, f.end_layer + 1):
            farm_fraction[layer] += frac
            if f.blocks_laterally(layer):
                lateral_fraction[layer] += frac
            take = areas > best_area[layer]
            best_area[layer][take] = areas[take]
            k_farm[layer][take] = f.k_lateral
            k_metal[layer][take] = f.k_metal
    np.clip(farm_fraction, 0.0, 1.0, out=farm_fraction)
    np.clip(lateral_fraction, 0.0, 1.0, out=lateral_fraction)
    farm_fraction[farm_fraction < 1e-12] = 0.0
    farm_fraction[farm_fraction > 1 - 1e-12] = 1.0
    lateral_fraction[lateral_fraction < 1e-12] = 0.0
    lateral_fraction[lateral_fraction > 1 - 1e-12] = 1.0
    lateral_fraction = np.minimum(lateral_fraction, farm_fraction)
    return thermal.CellOccupancy(farm_fraction, lateral_fraction, k_farm, k_metal,
                                 block_raster(design.floorplan.blocks, grid).power)


def full_plane_series_terms(fraction, k, span, area):
    r = np.zeros_like(fraction)
    mask = fraction > 0
    np.divide(span, k * fraction * area, out=r, where=mask)
    return r


def full_plane_cell_resistances(occ, grid, stack):
    """cell_resistances, with the series terms of every cell of every layer."""
    cell = grid.cell_size
    r_lat, r_vert = np.zeros_like(occ.farm_fraction), np.zeros_like(occ.farm_fraction)
    for layer in stack.layers:
        t, k_si, i = layer.thickness, layer.material.conductivity, layer.index
        eta_l, eta_v = occ.lateral_fraction[i], occ.farm_fraction[i]
        r_lat[i] = (full_plane_series_terms(eta_l, occ.k_farm[i], cell, cell * t)
                    + full_plane_series_terms(1.0 - eta_l, k_si, cell, cell * t))
        r_vert[i] = (full_plane_series_terms(eta_v, occ.k_metal[i], t, cell * cell)
                     + full_plane_series_terms(1.0 - eta_v, k_si, t, cell * cell))
    return r_lat, r_vert


def full_plane_network(occ, grid, stack):
    r_lat, r_vert = full_plane_cell_resistances(occ, grid, stack)
    g_x = 2.0 / (r_lat[:, :, :-1] + r_lat[:, :, 1:])
    g_y = 2.0 / (r_lat[:, :-1, :] + r_lat[:, 1:, :])
    r_z = 0.5 * (r_vert[:-1] + r_vert[1:])
    if stack.tech.bond_thickness > 0:
        r_z = r_z + stack.tech.bond_thickness / (stack.tech.bond_conductivity
                                                 * grid.cell_size ** 2)
    share = 1.0 / (stack.tech.package_resistance * grid.cells_per_layer)
    return ConductanceNetwork(grid, g_x, g_y, 1.0 / r_z,
                              np.full((grid.cells_y, grid.cells_x), share))


def reduceat_coarsen(network):
    """coarsen, with each aggregate summed by np.add.reduceat."""
    grid = network.grid
    rows, cols = np.arange(0, grid.cells_y, 2), np.arange(0, grid.cells_x, 2)
    by_rows = lambda a: np.add.reduceat(a, rows, axis=-2)
    by_cols = lambda a: np.add.reduceat(a, cols, axis=-1)
    return ConductanceNetwork(
        GridSpec(len(cols), len(rows), 2 * grid.cell_size, grid.num_layers),
        g_x=0.5 * by_rows(network.g_x[:, :, 1::2]), g_y=0.5 * by_cols(network.g_y[:, 1::2, :]),
        g_z=by_cols(by_rows(network.g_z)), g_ambient=by_cols(by_rows(network.g_ambient)))


class ReferenceOperator:
    """StencilOperator's diagonal and -g couplings, zero-padded and negated."""

    def __init__(self, network):
        self.network = network
        grid = network.grid
        shape = (grid.num_layers, grid.cells_y, grid.cells_x)
        diag, g_x, g_y = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        g_x[:, :, :-1] = network.g_x
        g_y[:, :-1, :] = network.g_y
        for lo, hi, g in ((np.s_[:, :, :-1], np.s_[:, :, 1:], network.g_x),
                          (np.s_[:, :-1], np.s_[:, 1:], network.g_y),
                          (np.s_[:-1], np.s_[1:], network.g_z)):
            diag[lo] += g
            diag[hi] += g
        diag[0] += network.g_ambient
        self.diag = diag.ravel()
        n = grid.num_cells
        self.couplings = ((grid.cells_per_layer, -network.g_z.ravel()),
                          (grid.cells_x, -g_y.ravel()[:n - grid.cells_x]),
                          (1, -g_x.ravel()[:n - 1]))


def coupling_views(couplings, x, term, out):
    n = len(x)
    return ([(g, x[:n - k], term[k:], out[k:]) for k, g in couplings],
            [(g, x[k:], term[:n - k], out[:n - k]) for k, g in reversed(couplings)])


class ReferenceLevel:
    """A smoothed level that slices its buffers anew on every call."""

    def __init__(self, operator, r, term):
        grid = operator.network.grid
        n, layers, plane = grid.num_cells, grid.num_layers, grid.cells_per_layer
        self.shape = (layers, grid.cells_y, grid.cells_x)
        diag = operator.diag.reshape(layers, plane)
        c = operator.couplings[0][1].reshape(layers - 1, plane)
        c_m, m = np.empty((layers - 1, plane)), np.empty((layers, plane))
        m[0] = diag[0]
        for k in range(1, layers):
            np.divide(c[k - 1], m[k - 1], out=c_m[k - 1])
            m[k] = diag[k] - c[k - 1] * c_m[k - 1]
        np.divide(thermal.SMOOTHER_DAMPING, m, out=m)
        self.c_m, self.damped_inv_m = c_m.astype(np.float32), m.astype(np.float32)
        couplings = [(k, g.astype(np.float32)) for k, g in operator.couplings]
        self.s = np.empty(plane, np.float32)
        self.b, self.x = np.empty(n, np.float32), np.empty(n, np.float32)
        self.r, self.term = r[:n], term[:n]
        self.diag, self.couplings = operator.diag.astype(np.float32), couplings

    def solve_columns(self, v):
        v = v.reshape(self.damped_inv_m.shape)
        for k in range(1, len(v)):
            np.multiply(self.c_m[k - 1], v[k - 1], out=self.s)
            v[k] -= self.s
        v *= self.damped_inv_m
        for k in range(len(v) - 2, -1, -1):
            np.multiply(self.c_m[k], v[k + 1], out=self.s)
            v[k] -= self.s

    def residual(self, b):
        before, after = coupling_views(self.couplings, self.x, self.term, self.r)
        self.r.fill(0.0)
        for g, xs, ts, ys in before + [(self.diag, self.x, self.term, self.r)] + after:
            np.multiply(g, xs, out=ts)
            ys += ts
        np.subtract(b, self.r, out=self.r)

    def smooth(self, b):
        np.copyto(self.r, b)
        before, after = coupling_views(self.couplings[1:], self.x, self.term, self.r)
        for g, xs, ts, rs in before + after:
            np.multiply(g, xs, out=ts)
            rs -= ts
        self.solve_columns(self.r)
        self.x *= 1.0 - thermal.SMOOTHER_DAMPING
        self.x += self.r


def aggregate_views(fine, coarse, shape):
    _, ny, nx = shape
    fine, coarse = fine.reshape(shape), coarse.reshape(-1, (ny + 1) // 2, (nx + 1) // 2)
    return [(fine[:, dy::2, dx::2], coarse[:, :(ny - dy + 1) // 2, :(nx - dx + 1) // 2])
            for dy in (0, 1) for dx in (0, 1)]


class ReferenceVCycle:
    """The V-cycle as a recursion over levels, built from reduceat_coarsen."""

    def __init__(self, network, cut):
        operator = ReferenceOperator(network)
        r, term = np.empty((2, network.grid.num_cells), np.float32)
        self.levels = []
        while operator.network.grid.num_cells > cut and operator.network.grid.cells_per_layer > 1:
            self.levels.append(ReferenceLevel(operator, r, term))
            operator = ReferenceOperator(reduceat_coarsen(operator.network))
        n = len(operator.diag)
        dense = np.diag(operator.diag)
        for k, g in operator.couplings:
            rows = np.arange(n - k)
            dense[rows, rows + k] += g
            dense[rows + k, rows] += g
        inverse = np.linalg.inv(dense)
        self.inverse = 0.5 * (inverse + inverse.T)
        self.coarse_b, self.coarse_x = np.empty(n), np.empty(n)

    def __call__(self, b):
        (self.levels[0].b if self.levels else self.coarse_b)[:] = b
        return self.cycle(0).astype(float)

    def cycle(self, depth):
        if depth == len(self.levels):
            return np.matmul(self.inverse, self.coarse_b, out=self.coarse_x)
        level = self.levels[depth]
        coarser = self.levels[depth + 1] if depth + 1 < len(self.levels) else None
        next_b = coarser.b if coarser else self.coarse_b
        next_x = coarser.x if coarser else self.coarse_x
        np.copyto(level.x, level.b)
        level.solve_columns(level.x)
        for _ in range(thermal.SMOOTHER_SWEEPS - 1):
            level.smooth(level.b)
        level.residual(level.b)
        (fine, coarse), *rest = aggregate_views(level.r, next_b, level.shape)
        coarse[...] = fine
        for fine, coarse in rest:
            coarse += fine
        self.cycle(depth + 1)
        for fine, coarse in aggregate_views(level.x, next_x, level.shape):
            fine += coarse
        for _ in range(thermal.SMOOTHER_SWEEPS):
            level.smooth(level.b)
        return level.x


# ------------------------------------------------------------- window build

lattice = 0.1   # mm, the test grid's cell


@st.composite
def farmed_designs(draw):
    """A stack of 1 to 5 layers, some of zero thickness or of another
    conductivity, bond on or off, on a plane of 1 to 9 cells a side, with up
    to 4 farms: on or off the lattice, overlapping, at the footprint's edge,
    over any run of layers."""
    layers, nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    width, height = nx * lattice, ny * lattice

    def span(extent):
        coordinate = st.one_of(st.integers(0, round(extent / lattice)).map(lambda i: i * lattice),
                               st.floats(0.0, extent))
        lo, hi = sorted((draw(coordinate), draw(coordinate)))
        return lo, hi

    farms = []
    for i in range(draw(st.integers(0, 4))):
        (x0, x1), (y0, y1) = span(width), span(height)
        start = draw(st.integers(0, layers - 1))
        farms.append(farm(f"f{i}", x0, y0, x1 - x0, y1 - y0, start=start,
                          end=draw(st.integers(start, layers - 1)),
                          k_lat=draw(st.sampled_from([0.5, 2.75])),
                          k_met=draw(st.sampled_from([173.0, 400.0]))))
    thickness = st.sampled_from([10 * UM, 50 * UM, 0.0])
    materials = st.sampled_from([SILICON, Material("thinned", 120.0)])
    stack = Stack(tuple(Layer(i, draw(thickness), draw(materials)) for i in range(layers)),
                  make_tech(footprint_width=width * MM, footprint_height=height * MM,
                            bond_thickness=draw(st.sampled_from([0.0, 5 * UM]))))
    return Design(stack, Floorplan((), tuple(farms)), materials=(SILICON,))


def quiet_if_zero_thickness(design):
    """A zero-thickness layer's lateral resistance is cell / 0, inf as intended."""
    if any(layer.thickness == 0 for layer in design.stack.layers):
        return np.errstate(divide="ignore", invalid="ignore")
    return contextlib.nullcontext()


class TestWindowBuild:
    @settings(max_examples=150, deadline=None)
    @given(design=farmed_designs())
    @example(design=Design(  # 9 cells of 1e-4 m end at 9.000000000000001e-4 m, so a farm
        # from 9e-4 m overlaps cell 8 by 1e-19 m: dust that its k_farm and k_metal keep
        Stack((Layer(0, 10 * UM, SILICON), Layer(1, 10 * UM, SILICON)), make_tech(grid_cell=1e-4)),
        Floorplan((), (TsvFarm("f", 9e-4, 9e-4, 3e-4, 3e-4, 0, 1, 0.5, 173.0, 9e-8),)),
        materials=(SILICON,)))
    @example(design=Design(  # farms across the footprint's edges and wholly off it
        Stack((Layer(0, 10 * UM, SILICON), Layer(1, 10 * UM, SILICON)), make_tech()),
        Floorplan((), tuple(farm(f"f{i}", x, y, 0.3, 0.3) for i, (x, y) in enumerate(
            [(-0.15, 0.5), (1.85, 1.9), (-0.9, 0.5), (0.5, 2.4), (-0.3, -0.3)]))),
        materials=(SILICON,)))
    @example(design=Design(  # a farm on every layer of a one-cell-wide plane, landing on the top
        Stack(tuple(Layer(i, 10 * UM, SILICON) for i in range(3)),
              make_tech(footprint_width=0.1 * MM, footprint_height=0.7 * MM)),
        Floorplan((), (farm("f", 0.0, 0.25, 0.1, 0.3, start=0, end=2),)), materials=(SILICON,)))
    def test_the_build_matches_the_full_plane_one(self, design):
        grid = grid_for(design.stack)
        occ = rasterize(design, grid)
        reference = full_plane_rasterize(design, grid)
        for name in thermal.CellOccupancy._fields:
            assert same_bits(getattr(occ, name), getattr(reference, name)), name
        with quiet_if_zero_thickness(design):
            for mine, theirs in zip(cell_resistances(occ, grid, design.stack),
                                    full_plane_cell_resistances(occ, grid, design.stack)):
                assert same_bits(mine, theirs)
            network = build_network(occ, grid, design.stack)
            expected = full_plane_network(occ, grid, design.stack)
        for name in ("g_x", "g_y", "g_z", "g_ambient"):
            assert same_bits(getattr(network, name), getattr(expected, name)), name

    def test_a_zero_thickness_layer_is_infinitely_resistive_in_plane(self):
        design = Design(Stack((Layer(0, 0.0, SILICON),), make_tech()),
                        Floorplan((), (farm("f", 0.55, 0.55, 0.3, 0.3, start=0, end=0),)),
                        materials=(SILICON,))
        grid = grid_for(design.stack)
        with np.errstate(divide="ignore"):
            r_lat, r_vert = cell_resistances(rasterize(design, grid), grid, design.stack)
        assert np.isinf(r_lat).all() and not r_vert.any()

    @settings(max_examples=100, deadline=None)
    @given(layers=st.integers(1, 5), rows=st.integers(1, 9), cols=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(layers=2, rows=1, cols=1, seed=0)
    @example(layers=3, rows=1, cols=7, seed=1)
    @example(layers=3, rows=7, cols=1, seed=2)
    @example(layers=1, rows=9, cols=9, seed=3)
    def test_coarsen_matches_reduceat(self, layers, rows, cols, seed):
        rng = np.random.default_rng(seed)
        g = lambda *shape: rng.uniform(1e-4, 1.0, shape)
        network = ConductanceNetwork(
            GridSpec(cols, rows, 1e-4, layers), g_x=g(layers, rows, cols - 1),
            g_y=g(layers, rows - 1, cols), g_z=g(layers - 1, rows, cols), g_ambient=g(rows, cols))
        mine, reference = coarsen(network), reduceat_coarsen(network)
        assert mine.grid == reference.grid
        for name in ("g_x", "g_y", "g_z", "g_ambient"):
            assert same_bits(getattr(mine, name), getattr(reference, name)), name

    def test_a_solve_evaluates_only_the_farm_window(self, monkeypatch):
        # corememory at 25 um has 2 layers of 96 x 96 cells. The full-plane
        # build evaluated the 4 series terms on every cell, 73,728 in all.
        # Now they take the 16 x 56 window its two farms span, on both
        # layers, and each layer's constant once: 4 x (1,792 + 2)
        evaluated = []
        series_terms = thermal._series_terms

        def counted(fraction, k, span, area):
            evaluated.append(np.size(fraction))
            return series_terms(fraction, k, span, area)
        monkeypatch.setattr(thermal, "_series_terms", counted)
        design = shipped_design("corememory")
        couple_leakage(design, grid_for(design.stack, 25e-6))
        assert sum(evaluated) == 7176


# ------------------------------------------------------------- bound V-cycle

def random_odd_network(layers, rows, cols, seed):
    rng = np.random.default_rng(seed)
    g = lambda *shape: rng.uniform(1e-3, 1e-1, shape)
    return ConductanceNetwork(GridSpec(cols, rows, 1e-4, layers), g_x=g(layers, rows, cols - 1),
                              g_y=g(layers, rows - 1, cols),
                              g_z=g(layers - 1, rows, cols), g_ambient=g(rows, cols))


def shipped_network(name, cell):
    design = shipped_design(name)
    grid = grid_for(design.stack, cell)
    return build_network(rasterize(design, grid), grid, design.stack)


class TestBoundVCycle:
    @pytest.mark.parametrize("cell", [100 * UM, 25 * UM], ids=["100um", "25um"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_designs(self, name, cell):
        self.check(shipped_network(name, cell), thermal.COARSE_SOLVE_MAX_UNKNOWNS, seed=7)

    @pytest.mark.parametrize("cut", [thermal.COARSE_SOLVE_MAX_UNKNOWNS, 0],
                             ids=["dense-cut", "one-cell-plane"])
    @pytest.mark.parametrize("layers, rows, cols", [(1, 1, 1), (3, 1, 7), (3, 7, 1), (2, 9, 9),
                                                    (5, 13, 11), (2, 65, 33), (4, 1, 300)])
    def test_odd_planes(self, layers, rows, cols, cut, monkeypatch):
        monkeypatch.setattr(thermal, "COARSE_SOLVE_MAX_UNKNOWNS", cut)
        self.check(random_odd_network(layers, rows, cols, seed=rows * cols), cut,
                   seed=layers)

    @staticmethod
    def check(network, cut, seed):
        bound = system_matrix(network).vcycle
        reference = ReferenceVCycle(network, cut)
        rng = np.random.default_rng(seed)
        # the bound views alias the levels' shared r and term buffers, so
        # every call must leave nothing behind that the next one reads
        for b in (rng.normal(size=network.grid.num_cells),
                  rng.uniform(0.0, 1e-3, network.grid.num_cells),
                  rng.normal(size=network.grid.num_cells)):
            assert same_bits(bound(b), reference(b))
