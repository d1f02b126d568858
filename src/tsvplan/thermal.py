"""Grid RC thermal model: rasterization, conductance network, steady solve.

Each layer is divided into equal square cells. A cell that contains both
silicon and farm material gets composite lateral/vertical resistances built
from the area fractions of each material (series combination of the two
fraction-scaled terms). Neighboring cells couple through half-resistances;
the bottom layer couples to ambient through a lumped package resistance
shared equally by its cells. Lateral faces and the top are adiabatic.
Cell areas are exact in integer nanometres; lengths become float metres
only where conductances are formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, SingularNetworkError, SolverError, ThermalRunawayError
from .model import Design, Stack
from .units import format_length, metres

RESIDUAL_RTOL = 1e-8  # on the infinity norm, relative to max(max cell power, 1 W)
# CG iterations a design solve may spend, whatever its size: one solve at
# reference leakage gets them all, and the leakage fixed point's two solves
# share them. Every shipped solve takes at most 13
CG_ITERATIONS_PER_DESIGN_SOLVE = 1000
SMOOTHER_DAMPING = 0.8  # of the V-cycle's column block-Jacobi sweeps
SMOOTHER_SWEEPS = 2     # before, and again after, each coarse correction
# The V-cycle stops coarsening at the first level of at most this many unknowns
# and solves it by a dense inverse, in float64: below it, a level costs more
# in per-call overhead than in arithmetic. The finer, smoothed levels run in
# float32, while CG, the operators' products and the residual contract stay
# in float64
COARSE_SOLVE_MAX_UNKNOWNS = 256
# The most grid cells (unknowns) grid_for accepts: at 146 B per unknown (a cold
# 46,080-unknown leakage solve peaks at 6.72 MB traced), 2.4 GB for one solve
MAX_GRID_CELLS = 2**24


class GridSpec(NamedTuple):
    cells_x: int
    cells_y: int
    cell_size: int   # nm
    num_layers: int

    @property
    def cells_per_layer(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def num_cells(self) -> int:
        return self.cells_per_layer * self.num_layers


def grid_for(stack: Stack, cell_size: int | None = None) -> GridSpec:
    """Build the grid for a stack: cells that tile the footprint exactly, at most MAX_GRID_CELLS."""
    cell = stack.tech.grid_cell if cell_size is None else cell_size
    if not (isinstance(cell, int) and cell > 0):
        raise GridError(f"cell size must be positive whole nanometres, got {format_length(cell)}")
    w, h = stack.footprint
    nx, ny = w // cell, h // cell
    if nx * ny * stack.num_layers > MAX_GRID_CELLS:
        raise GridError(f"cell size {format_length(cell)} on {stack.num_layers} layers "
                        f"needs more than {MAX_GRID_CELLS} grid cells")
    for side, n, name in ((w, nx, "width"), (h, ny, "height")):
        if n < 1 or n * cell != side:
            raise GridError(f"cell size {format_length(cell)} does not tile footprint "
                            f"{name} {format_length(side)}")
    return GridSpec(nx, ny, cell, stack.num_layers)


class CellOccupancy(NamedTuple):
    """Per-layer grids of material fractions and injected power.

    farm_fraction is the geometric farm coverage of each cell.
    lateral_fraction excludes farms that land on the layer (their blockage
    is eliminated there, so that share conducts as silicon in-plane).
    Everything not farm is silicon; blocks conduct as silicon.
    """

    farm_fraction: np.ndarray     # [L, ny, nx] in [0, 1]
    lateral_fraction: np.ndarray  # [L, ny, nx] in [0, 1]
    k_farm: np.ndarray            # [L, ny, nx] lateral conductivity of the farm share
    k_metal: np.ndarray           # [L, ny, nx] vertical conductivity of the farm share
    power: np.ndarray             # [L, ny, nx] W at reference temperature


def _window_areas(rect, grid: GridSpec) -> tuple[slice, slice, np.ndarray]:
    """The window of a layer's cells that rect overlaps, (rows, columns),
    clipped to the grid, and rect's area in nm^2 in each of its cells, an
    exact integer held as a float."""
    cell, spans = grid.cell_size, []
    for lo, hi, n in ((rect[1], rect[3], grid.cells_y), (rect[0], rect[2], grid.cells_x)):
        start = min(max(lo // cell, 0), n)
        stop = max(min(-(-hi // cell), n), start)
        edges = np.arange(start, stop + 1, dtype=np.int64) * cell
        spans.append((slice(start, stop), np.clip(
            np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0, None).astype(float)))
    (rows, oy), (cols, ox) = spans
    return rows, cols, np.outer(oy, ox)


def block_cell_weights(block, grid: GridSpec) -> np.ndarray:
    """Fraction of a block's area falling in each cell of its layer (sums to
    1): its window's, written into a zeroed plane."""
    rows, cols, areas = _window_areas(block.rect, grid)
    weights = np.zeros((grid.cells_y, grid.cells_x))
    weights[rows, cols] = areas / (block.width * block.height)
    return weights


class BlockRaster(NamedTuple):
    """What a design's fixed blocks put on a grid, which no farm changes:
    each block's nonzero block_cell_weights as (flat cells of its layer,
    their weights), in floorplan order, and the blocks' power raster; all
    read-only."""

    entries: tuple
    power: np.ndarray   # [L, ny, nx] W at reference temperature


@functools.lru_cache(maxsize=1)
def block_raster(blocks: tuple, grid: GridSpec) -> BlockRaster:
    """The blocks' cell weights and power raster on grid. The last one is
    kept: a run's designs share their blocks tuple and grid, so every
    rasterize, couple_leakage and field_stats of a run reads one raster.
    Blocks of one rectangle, such as a memory layer's clones, share one
    entry, and each block's watts go onto its entry's cells alone: its
    weights elsewhere are 0, and validate makes watts >= 0."""
    power = np.zeros((grid.num_layers, grid.cells_y, grid.cells_x))
    planes = power.reshape(grid.num_layers, -1)
    shared, entries = {}, []
    for block in blocks:
        key = block.rect
        if key not in shared:
            weights = block_cell_weights(block, grid).ravel()
            cells = np.flatnonzero(weights)
            shared[key] = (cells, weights[cells])
        cells, weights = entry = shared[key]
        watts = block.power + block.leakage_ref
        if watts != 0:  # a NaN power must reach the solver, which rejects it
            planes[block.layer, cells] += watts * weights
        entries.append(entry)
    for array in (power, *(a for entry in shared.values() for a in entry)):
        array.flags.writeable = False   # every caller shares them
    return BlockRaster(tuple(entries), power)


def rasterize(design: Design, grid: GridSpec) -> CellOccupancy:
    """Rasterize a floorplan: exact area fractions and proportional power split.

    Each farm's area in each cell of its window, the cells its rectangle
    overlaps on its layers, is summed in exact integer nm^2 and divided by
    the cell's once, so a covered cell's fraction is exactly 1.0, and a cell
    no farm overlaps stays 0.
    """
    shape = (grid.num_layers, grid.cells_y, grid.cells_x)
    farm_fraction = np.zeros(shape)
    lateral_fraction = np.zeros(shape)
    k_farm = np.zeros(shape)
    k_metal = np.zeros(shape)
    best_area = np.zeros(shape)

    for farm in design.floorplan.farms:
        rows, cols, areas = _window_areas(farm.rect, grid)
        for layer in range(farm.start_layer, farm.end_layer + 1):
            window = (layer, rows, cols)
            farm_fraction[window] += areas
            if farm.blocks_laterally(layer):
                lateral_fraction[window] += areas
            best = best_area[window]
            take = areas > best
            best[take] = areas[take]
            k_farm[window][take] = farm.k_lateral
            k_metal[window][take] = farm.k_metal

    for share in (farm_fraction, lateral_fraction):
        np.divide(share, grid.cell_size ** 2, out=share)
        # a fraction of the cell: overlapping farms, which only an invalid
        # design holds, cannot claim more than all of it
        np.minimum(share, 1.0, out=share)
    return CellOccupancy(farm_fraction, lateral_fraction, k_farm, k_metal,
                         block_raster(design.floorplan.blocks, grid).power)


class ConductanceNetwork(NamedTuple):
    """Edge conductances of the grid, all W/K. Symmetric by construction."""

    grid: GridSpec
    g_x: np.ndarray    # [L, ny, nx-1] between (y, x) and (y, x+1)
    g_y: np.ndarray    # [L, ny-1, nx] between (y, x) and (y+1, x)
    g_z: np.ndarray    # [L-1, ny, nx] between layer l and l+1
    g_ambient: np.ndarray  # [ny, nx] bottom layer to ambient


def _series_terms(fraction, k, span, area):
    r = np.zeros_like(fraction)
    mask = fraction > 0
    np.divide(span, k * fraction * area, out=r, where=mask)
    return r


def cell_resistances(occ: CellOccupancy, grid: GridSpec, stack: Stack):
    """Per-cell composite lateral and vertical resistances, [L, ny, nx].

    Cells outside the bounding window of nonzero farm_fraction, over all
    layers, hold no farm (lateral_fraction <= farm_fraction, as rasterize
    makes it). So a layer's cells there take one silicon constant, the same
    expression at fraction 0, and only the window is evaluated cell by
    cell.
    """
    cell = metres(grid.cell_size)
    t = metres(np.array([layer.thickness for layer in stack.layers])).reshape(-1, 1, 1)
    k_si = np.array([layer.material.conductivity for layer in stack.layers]).reshape(-1, 1, 1)
    a_lat, a_vert = cell * t, cell * cell

    def resistances(eta_l, eta_v, k_farm, k_metal):
        return (_series_terms(eta_l, k_farm, cell, a_lat)
                + _series_terms(1.0 - eta_l, k_si, cell, a_lat),
                _series_terms(eta_v, k_metal, t, a_vert)
                + _series_terms(1.0 - eta_v, k_si, t, a_vert))
    r_lat = np.empty_like(occ.farm_fraction)
    r_vert = np.empty_like(occ.farm_fraction)
    no_farm = np.zeros_like(t)
    r_lat[:], r_vert[:] = resistances(no_farm, no_farm, no_farm, no_farm)
    farmed = occ.farm_fraction.any(axis=0)
    rows, cols = np.flatnonzero(farmed.any(axis=1)), np.flatnonzero(farmed.any(axis=0))
    if rows.size:
        window = np.s_[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        r_lat[window], r_vert[window] = resistances(
            occ.lateral_fraction[window], occ.farm_fraction[window],
            occ.k_farm[window], occ.k_metal[window])
    return r_lat, r_vert


def build_network(occ: CellOccupancy, grid: GridSpec, stack: Stack) -> ConductanceNetwork:
    """Couple neighbor cells through half-resistances; bottom cells to ambient."""
    r_lat, r_vert = cell_resistances(occ, grid, stack)
    # each edge's series resistance, then its conductance, in one buffer
    g_x = np.add(r_lat[:, :, :-1], r_lat[:, :, 1:])
    np.divide(2.0, g_x, g_x)
    g_y = np.add(r_lat[:, :-1, :], r_lat[:, 1:, :])
    np.divide(2.0, g_y, g_y)
    g_z = np.add(r_vert[:-1], r_vert[1:])
    np.multiply(0.5, g_z, g_z)
    if stack.tech.bond_thickness > 0:
        np.add(g_z, metres(stack.tech.bond_thickness) / (
            stack.tech.bond_conductivity * metres(grid.cell_size ** 2, 2)), g_z)
    np.divide(1.0, g_z, g_z)
    share = 1.0 / (stack.tech.package_resistance * grid.cells_per_layer)
    g_ambient = np.full((grid.cells_y, grid.cells_x), share)
    return ConductanceNetwork(grid, g_x, g_y, g_z, g_ambient)


@dataclass(frozen=True)
class TemperatureField:
    t: np.ndarray        # [L, ny, nx] kelvin
    residual: float      # infinity norm of the final solve residual
    iterations: int = 0  # CG iterations the solve took, over all its solves

    @property
    def peak(self) -> float:
        return float(self.t.max())

    @property
    def average(self) -> float:
        return float(self.t.mean())


class StencilOperator:
    """The SPD conductance matrix G as a matrix-free 7-point stencil.

    Node order is layer-major, then row-major. The diagonal sums each node's
    conductances in the order CSR assembly sums its duplicate entries: g_x as
    left then as right node, g_y likewise, g_z as lower then upper node, then
    g_ambient. A product adds each row's terms to 0 in ascending column order
    (below, south, west, diagonal, east, north, above), as scipy's csr_matvec
    does, so G and G @ x are bit-identical to the assembled CSR matrix's for
    finite input. It holds the only copy of the couplings, positive: g_x and
    g_y padded to the whole plane, 0.0 where a row or column ends, and the
    network's own g_z; self.network views them, so a caller that goes on
    with it lets the built network's arrays go. A product subtracts each
    coupling's term where CSR adds a negative one: a - b is a + (-b), and
    (-g) x is -(g x), so no bit moves.
    """

    def __init__(self, network: ConductanceNetwork):
        grid = network.grid
        shape = (grid.num_layers, grid.cells_y, grid.cells_x)
        diag = np.zeros(shape)
        for lo, hi, g in ((np.s_[:, :, :-1], np.s_[:, :, 1:], network.g_x),
                          (np.s_[:, :-1], np.s_[:, 1:], network.g_y),
                          (np.s_[:-1], np.s_[1:], network.g_z)):
            diag[lo] += g
            diag[hi] += g
        diag[0] += network.g_ambient
        self._diag = diag.ravel()
        self._diag.flags.writeable = False
        n = grid.num_cells
        g_x, g_y = np.empty((2, *shape))
        g_x[:, :, -1] = g_y[:, -1] = 0.0
        g_x[:, :, :-1], g_y[:, :-1] = network.g_x, network.g_y
        self.network = network._replace(g_x=g_x[:, :, :-1], g_y=g_y[:, :-1])
        # (offset, g to the node offset further on)
        self._couplings = ((grid.cells_per_layer, network.g_z.ravel()),
                           (grid.cells_x, g_y.ravel()[:n - grid.cells_x]),
                           (1, g_x.ravel()[:n - 1]))

    def diagonal(self) -> np.ndarray:
        return self._diag

    def bind(self, x: np.ndarray, out: np.ndarray, term: np.ndarray):
        """Return a function that writes G @ x into out, using term for the
        product's terms."""
        steps = _product_steps(self._diag, self._couplings, x, out, term)

        def apply() -> np.ndarray:
            for step, args in steps:
                step(*args)
            return out
        return apply

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.bind(x, _aligned_empty(len(x)), _aligned_empty(len(x)))()

    @functools.cached_property
    def vcycle(self) -> VCycle:
        """The multigrid preconditioner of this matrix, built on first use, so
        every solve with the matrix shares one hierarchy."""
        return VCycle(self)


def _aligned_empty(n: int, dtype=np.float64) -> np.ndarray:
    """An empty vector whose data starts on a 64-byte boundary. numpy's
    vector loops write whole cache lines there; into a vector that starts
    off it, as a large np.empty often does, a product runs about half as
    fast."""
    size = n * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype)


def _coupling_views(couplings, x, term, out):
    """The (g, x, term, out) views of each coupling's terms of a product, in
    StencilOperator's order: those to nodes before a row's own, then those
    to nodes after it."""
    n = len(x)
    return ([(g, x[:n - k], term[:n - k], out[k:]) for k, g in couplings],
            [(g, x[k:], term[:n - k], out[:n - k]) for k, g in reversed(couplings)])


def _term_steps(views, combine) -> list:
    """Bound steps that, for each (g, x, term, out) view in turn, write g x
    into term and then combine(out, term) into out. A bound step is
    (function, arguments): its views are taken, and its output passed
    positionally, when it is bound, so a call costs only the arithmetic."""
    return [step for g, xs, ts, ys in views
            for step in ((np.multiply, (g, xs, ts)), (combine, (ys, ts, ys)))]


def _product_steps(diag, couplings, x, out, term) -> list:
    """Bound steps that write the stencil's product with x into out, using
    term for its terms, in StencilOperator's order: the coupling terms are
    subtracted and the diagonal's added."""
    before, after = _coupling_views(couplings, x, term, out)
    return ([(out.fill, (0.0,))] + _term_steps(before, np.subtract)
            + _term_steps([(diag, x, term, out)], np.add) + _term_steps(after, np.subtract))


def system_matrix(network: ConductanceNetwork) -> StencilOperator:
    """The system matrix G of a network, as a matrix-free stencil operator."""
    return StencilOperator(network)


def _pair_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums of a's adjacent pairs along axis -1 or -2, an odd last element
    kept alone: np.add.reduceat(a, range(0, n, 2), axis), element for
    element."""
    n = a.shape[axis]
    after = (slice(None),) * (-1 - axis)
    sums = np.empty(a.shape[:axis] + ((n + 1) // 2,) + a.shape[a.ndim + axis + 1:], a.dtype)
    np.add(a[(..., np.s_[0:n - 1:2], *after)], a[(..., np.s_[1::2], *after)],
           sums[(..., np.s_[:n // 2], *after)])
    sums[(..., np.s_[n // 2:], *after)] = a[(..., np.s_[n - n % 2:], *after)]
    return sums


def coarsen(network: ConductanceNetwork) -> ConductanceNetwork:
    """The network on 2 x 2 aggregates of the layer plane, layers kept.

    An odd row or column count ends in one-cell aggregates. g_z and
    g_ambient sum over each aggregate. A lateral coarse conductance is half
    the sum of the fine edges that cross the aggregates' shared boundary,
    which on uniform cells is the series rule at twice the cell size.
    """
    grid = network.grid
    g_x = _pair_sums(network.g_x[:, :, 1::2], -2)
    g_y = _pair_sums(network.g_y[:, 1::2, :], -1)
    g_x *= 0.5
    g_y *= 0.5
    return ConductanceNetwork(
        GridSpec((grid.cells_x + 1) // 2, (grid.cells_y + 1) // 2, 2 * grid.cell_size,
                 grid.num_layers),
        g_x=g_x, g_y=g_y, g_z=_pair_sums(_pair_sums(network.g_z, -2), -1),
        g_ambient=_pair_sums(_pair_sums(network.g_ambient, -2), -1))


def _column_steps(c_m, damped_inv_m, b, v, s) -> list:
    """Bound steps that write SMOOTHER_DAMPING * D^-1 b into v, D the column
    blocks: a forward and a back substitution, each vectorized over the
    plane, with s for the terms, which are added, as c_m holds the
    multipliers' negatives. b is v, or v's first layer already holds b's."""
    b, v = b.reshape(damped_inv_m.shape), v.reshape(damped_inv_m.shape)
    forward = [step for k in range(1, len(v))
               for step in ((np.multiply, (c_m[k - 1], v[k - 1], s)), (np.add, (b[k], s, v[k])))]
    back = [step for k in range(len(v) - 2, -1, -1)
            for step in ((np.multiply, (c_m[k], v[k + 1], s)), (np.add, (v[k], s, v[k])))]
    return forward + [(np.multiply, (v, damped_inv_m, v))] + back


class _Level:
    """One smoothed level of the V-cycle, all in float32: its b and x, and
    the bound steps of its first sweep, of each later sweep and of its
    residual, which hold the factors of its vertical columns' tridiagonal
    blocks and its operator's couplings.

    The factors are computed in float64 and then rounded, and the level
    keeps no float64 array. Like the operator's, its couplings and the
    multipliers' negatives g/m are positive: the sweeps add the lateral
    and column terms and the residual subtracts the coupling terms. A level
    owns its b, x, factors and float32 operator; its residual r and product
    term are views of buffers that all levels share, since a level's
    residual is dead while coarser levels run. A level keeps no reference
    to its operator, whose cached vcycle would otherwise form a cycle that
    only the garbage collector frees.
    """

    def __init__(self, operator: StencilOperator, r: np.ndarray, term: np.ndarray):
        grid = operator.network.grid
        n, layers, plane = grid.num_cells, grid.num_layers, grid.cells_per_layer
        self.shape = (layers, grid.cells_y, grid.cells_x)
        diag = operator.diagonal().reshape(layers, plane)
        # a column block is L M L^T, L unit lower bidiagonal: elimination down
        # the column leaves the pivots m and the multipliers -g/m below the
        # diagonal, kept as g/m; the sweeps' damping is folded into the
        # pivots' inverses
        g = operator._couplings[0][1].reshape(layers - 1, plane)   # g_z
        c_m, m = np.empty((layers - 1, plane)), np.empty((layers, plane))
        m[0] = diag[0]
        for k in range(1, layers):
            np.divide(g[k - 1], m[k - 1], c_m[k - 1])
            np.multiply(g[k - 1], c_m[k - 1], m[k])
            np.subtract(diag[k], m[k], m[k])
        np.divide(SMOOTHER_DAMPING, m, m)
        c_m, inv_m = c_m.astype(np.float32), m.astype(np.float32)
        couplings = [(k, g.astype(np.float32)) for k, g in operator._couplings]
        s = _aligned_empty(plane, np.float32)
        self.b, self.x = b, x = _aligned_empty(n, np.float32), _aligned_empty(n, np.float32)
        self.r = r = r[:n]
        term = term[:n]
        # from x = 0, a sweep is x <- w D^-1 b
        self.first_sweep = ([(np.copyto, (x[:plane], b[:plane]))]
                            + _column_steps(c_m, inv_m, b, x, s))
        # x <- x + w D^-1 (b - G x), computed as (1 - w) x + w D^-1 (b + N x):
        # N = D - G holds only the lateral couplings, since D holds the
        # vertical ones. The first term is taken off b itself, and r's cells
        # before its first, k, are b's
        (g, xs, ts, rs), *rest = sum(_coupling_views(couplings[1:], x, term, r), [])
        k = n - len(rs)
        self.sweep = ([(np.copyto, (r[:k], b[:k])), (np.multiply, (g, xs, ts)),
                       (np.add, (b[k:], ts, rs))]
                      + _term_steps(rest, np.add)
                      + _column_steps(c_m, inv_m, r, r, s)
                      + [(np.multiply, (x, 1.0 - SMOOTHER_DAMPING, x)), (np.add, (x, r, x))])
        # r <- b - G x
        self.residual = (_product_steps(operator.diagonal().astype(np.float32), couplings,
                                        x, r, term)
                         + [(np.subtract, (b, r, r))])


def _dense_inverse(operator: StencilOperator) -> np.ndarray:
    """The inverse of a small operator's matrix, dense and exactly symmetric."""
    diag = operator.diagonal()
    n = len(diag)
    dense = np.diag(diag)
    for k, g in operator._couplings:   # on a one-column plane, g_y and g_x share k = 1
        rows = np.arange(n - k)
        dense[rows, rows + k] -= g
        dense[rows + k, rows] -= g
    inverse = np.linalg.inv(dense)
    np.add(inverse, inverse.T, out=dense)
    dense *= 0.5
    return dense


def _aggregate_views(fine: np.ndarray, coarse: np.ndarray, shape):
    """(fine, coarse) view pairs, one per position in a 2 x 2 aggregate, that
    together pair every fine cell with its aggregate."""
    _, ny, nx = shape
    fine, coarse = fine.reshape(shape), coarse.reshape(-1, (ny + 1) // 2, (nx + 1) // 2)
    return [(fine[:, dy::2, dx::2], coarse[:, :(ny - dy + 1) // 2, :(nx - dx + 1) // 2])
            for dy in (0, 1) for dx in (0, 1)]


class VCycle:
    """A symmetric multigrid V-cycle: the SPD preconditioner of a matrix.

    Levels coarsen the layer plane 2 x 2 (coarsen) down to the first level
    of at most COARSE_SOLVE_MAX_UNKNOWNS unknowns, or of one cell per layer.
    That level is solved exactly, by its dense inverse. Every finer level
    smooths by damped column block-Jacobi, SMOOTHER_SWEEPS times before and
    after the coarse correction; a sweep solves every vertical column's
    tridiagonal block exactly and takes the lateral couplings from x.
    Restriction sums over an aggregate and prolongation is piecewise
    constant, its transpose. Smoothing is symmetric and the coarse solve
    SPD, so the cycle is SPD, to float32 rounding, and fits conjugate
    gradients. Every call copies b into the finest level's b, and the answer
    into the cycle's own float64 buffer, out, which CG borrows as its work
    vector once it has read the answer. The smoothed levels, with
    restriction and prolongation, run in float32; the dense coarsest level
    runs in float64, and is the finest when the matrix has at most
    COARSE_SOLVE_MAX_UNKNOWNS unknowns. Buffers, the dense inverse and the
    cycle's bound steps, in the order they run, are built once, with the
    hierarchy.
    """

    def __init__(self, matrix: StencilOperator):
        n = len(matrix.diagonal())
        r, term = _aligned_empty(n, np.float32), _aligned_empty(n, np.float32)
        levels = []
        operator = matrix
        while (operator.network.grid.num_cells > COARSE_SOLVE_MAX_UNKNOWNS
               and operator.network.grid.cells_per_layer > 1):
            levels.append(_Level(operator, r, term))
            operator = StencilOperator(coarsen(operator.network))
        inverse = _dense_inverse(operator)
        coarse_b, coarse_x = np.empty((2, len(inverse)))
        self.out = _aligned_empty(n)
        self._b = levels[0].b if levels else coarse_b
        # down each level: its sweeps, its residual and the residual's
        # restriction into the next level's b; up: the prolongation of the
        # next level's x, and the sweeps
        down, up = [], [(np.copyto, (self.out, levels[0].x if levels else coarse_x))]
        next_bx = [(level.b, level.x) for level in levels[1:]] + [(coarse_b, coarse_x)]
        for level, (b, x) in zip(levels, next_bx):
            (fine, coarse), *rest = _aggregate_views(level.r, b, level.shape)
            down += (level.first_sweep + level.sweep * (SMOOTHER_SWEEPS - 1) + level.residual
                     + [(np.copyto, (coarse, fine))]
                     + [(np.add, (coarse, fine, coarse)) for fine, coarse in rest])
            up = ([(np.add, (fine, coarse, fine))
                   for fine, coarse in _aggregate_views(level.x, x, level.shape)]
                  + level.sweep * SMOOTHER_SWEEPS + up)
        self._steps = down + [(np.matmul, (inverse, coarse_b, coarse_x))] + up

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b, in the cycle's float64 buffer out, which the next call
        overwrites."""
        np.copyto(self._b, b)
        for step, args in self._steps:
            step(*args)
        return self.out


def _pcg(matrix: StencilOperator, b: np.ndarray, x: np.ndarray,
         atol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Conjugate gradients preconditioned by the matrix's V-cycle, updating x
    in place; returns x and the number of iterations taken.

    The residual r overwrites b. The solve owns two vectors, the search
    direction p and its product q, bound to the operator once per solve;
    the V-cycle's answer z doubles as the work vector, since z is dead once
    p is updated: it holds the product's terms and then the steps alpha p
    and alpha q. The V-cycle is built first, so the temporaries of its
    build are gone before p and q exist. A NaN or inf residual norm or rho
    raises SolverError at once instead of running out the budget.
    """
    if math.sqrt(b.dot(b)) == 0:
        return b, 0
    vcycle = matrix.vcycle
    r, work = b, vcycle.out
    p, q = _aligned_empty(len(b)), _aligned_empty(len(b))
    if x.any():
        np.subtract(b, matrix.bind(x, q, work)(), r)
    product = matrix.bind(p, q, work)
    rho_prev = None
    for iteration in range(maxiter):
        norm = math.sqrt(r.dot(r))
        if norm < atol:
            return x, iteration
        z = vcycle(r)
        rho = np.dot(r, z)
        if not (math.isfinite(norm) and math.isfinite(rho)):
            raise SolverError("non-finite residual in the steady-state solve",
                              residual=norm)
        if rho_prev is None:
            np.copyto(p, z)
        else:
            np.multiply(p, rho / rho_prev, p)
            np.add(p, z, p)
        product()
        curvature = np.dot(p, q)
        if not (rho > 0 and curvature > 0):  # never on SPD G; on G_eff, leakage runs away
            raise ThermalRunawayError("leakage fixed point diverging: G_eff is not SPD")
        alpha = rho / curvature
        np.add(x, np.multiply(alpha, p, work), x)
        np.subtract(r, np.multiply(alpha, q, work), r)
        rho_prev = rho
    return x, maxiter


def solve_steady_state(network: ConductanceNetwork, power: np.ndarray,
                       ambient: float, x0: np.ndarray | None = None,
                       matrix=None, maxiter: int | None = None) -> TemperatureField:
    """Solve G*T = P + G_amb*T_amb by preconditioned conjugate gradients.

    The preconditioner is the matrix's multigrid V-cycle, G's also for
    G_eff, whose smoothed levels run in float32; CG, every product with the
    matrix and the residual check run in float64. CG stops once the
    residual's 2-norm is below 1e-4 times the contract, so small fixtures
    agree with a dense solve to ~1e-8 K; the contract is an infinity norm of
    the final residual below RESIDUAL_RTOL times max(max cell power, 1 W).
    Pass a prebuilt matrix, G or couple_leakage's G_eff, to reuse it.
    maxiter caps the CG iterations, by default at
    CG_ITERATIONS_PER_DESIGN_SOLVE.

    Beside the matrix and its V-cycle, a solve owns the field x, the
    right-hand side, which CG overwrites with its residual, and CG's p and
    q; the right-hand side is built again for the residual check.
    """
    grid = network.grid
    n = grid.num_cells
    if float(network.g_ambient.sum()) <= 0.0:
        raise SingularNetworkError("no conductance to ambient; network is floating")

    def right_hand_side() -> np.ndarray:
        rhs = power.ravel().astype(float)   # a copy, as the ambient term goes into it
        rhs[:grid.cells_per_layer] += network.g_ambient.ravel() * ambient
        return rhs

    if matrix is None:
        matrix = system_matrix(network)
    target = RESIDUAL_RTOL * max(float(power.max(initial=0.0)), 1.0)
    start = np.full(n, ambient) if x0 is None else x0.ravel().copy()
    if maxiter is None:
        maxiter = CG_ITERATIONS_PER_DESIGN_SOLVE
    x, iterations = _pcg(matrix, right_hand_side(), start, atol=target * 1e-4,
                         maxiter=maxiter)
    misfit = matrix @ x
    np.subtract(right_hand_side(), misfit, misfit)
    residual = float(np.abs(misfit, misfit).max())
    if not residual <= target:
        taken = (f"within {maxiter}" if iterations == maxiter
                 else f"after {iterations} of {maxiter}")
        raise SolverError(f"steady-state solve did not reach residual {target:g} {taken} "
                          f"CG iterations; true residual {residual:g}", residual=residual)
    return TemperatureField(x.reshape(grid.num_layers, grid.cells_y, grid.cells_x),
                            residual, iterations)


def solve_design(design: Design, grid: GridSpec | None = None) -> TemperatureField:
    """Rasterize, build the network, and solve one design at reference leakage."""
    grid = grid_for(design.stack) if grid is None else grid
    occ = rasterize(design, grid)
    network = build_network(occ, grid, design.stack)
    return solve_steady_state(network, occ.power, design.stack.tech.ambient)


class LeakageOperator:
    """G_eff = G - K, the leakage fixed point's matrix, matrix-free. K is
    sum_b c l_b w_b w_b^T over the leaky blocks b of `blocks`, those with
    l_b > 0 (c the leakage coefficient, l_b the reference leakage, w_b the
    cell weights), kept as one entry per nonzero weight, as block_raster
    holds them. Its preconditioner is G's V-cycle, and its products take
    their buffers as G's do."""

    def __init__(self, matrix: StencilOperator, blocks, coeff: float):
        self.matrix = matrix
        grid = matrix.network.grid
        entries = block_raster(tuple(blocks), grid).entries
        leaky = [(b, cells, w) for b, (cells, w) in zip(blocks, entries) if b.leakage_ref > 0]
        self._block = np.repeat(np.arange(len(leaky)), [len(cells) for _, cells, _ in leaky])
        self._cells = np.concatenate([b.layer * grid.cells_per_layer + cells
                                      for b, cells, _ in leaky])
        self._w = np.concatenate([w for _, _, w in leaky])
        self._gain_w = self._w * np.array([coeff * b.leakage_ref for b, _, _ in leaky])[self._block]

    vcycle = property(lambda self: self.matrix.vcycle)

    def leakage(self, x: np.ndarray) -> np.ndarray:
        """K x, the sum over the leaky blocks b of c l_b (w_b . x) w_b, shaped as x."""
        dots = np.bincount(self._block, x.ravel()[self._cells] * self._w)
        return np.bincount(self._cells, dots[self._block] * self._gain_w,
                           minlength=x.size).reshape(x.shape)

    def bind(self, x: np.ndarray, out: np.ndarray, term: np.ndarray):
        """Return a function that writes G_eff @ x into out, as StencilOperator.bind."""
        product = self.matrix.bind(x, out, term)
        return lambda: np.subtract(product(), self.leakage(x), out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x - self.leakage(x)


class LeakageSolve(NamedTuple):
    field: TemperatureField
    iterations: int  # solves: 1 when no leakage feeds back, else 2


def couple_leakage(design: Design, grid: GridSpec) -> LeakageSolve:
    """Solve a design: the fixed point of its temperature-dependent leakage.

    Block leakage is leakage_ref * (1 + leakage_coeff * (block average T -
    leakage_tref)), with both values from the design's tech, distributed over
    the block footprint like its dynamic power. Leakage that cannot feed back
    (a zero coefficient, or no block with leakage_ref > 0) takes one solve.
    Otherwise the rise u = T - T_amb solves G_eff u = P(T_amb), P(T) the
    power at T, and a closing solve at P(T_amb + u), started there, keeps the
    residual contract on G. The two share one budget of
    CG_ITERATIONS_PER_DESIGN_SOLVE CG iterations, running out of which is a
    SolverError, and the field reports the iterations of both. G_eff is an
    irreducible symmetric Z-matrix, so with P(T_amb) >= 0 a u > 0 in every
    cell proves it positive definite, and any other u that resolves its
    source (a residual below RESIDUAL_RTOL times the source's largest cell)
    is a ThermalRunawayError; so is a CG step that meets its
    indefiniteness. A source too small for the residual contract's 1 W
    floor to resolve, such as none at all, proves nothing either way.
    """
    tech = design.stack.tech
    lam, ref = tech.leakage_coeff, tech.leakage_tref
    if not lam >= 0:
        raise ValueError(f"leakage coefficient must be >= 0, got {lam}")

    occ = rasterize(design, grid)
    network, power = build_network(occ, grid, design.stack), occ.power
    del occ   # so the solve's buffers can reuse its memory
    matrix = system_matrix(network)
    network = matrix.network   # the matrix's views, so the built arrays go
    if not any(lam > 0 and b.leakage_ref > 0 for b in design.floorplan.blocks):
        return LeakageSolve(solve_steady_state(network, power, tech.ambient,
                                               matrix=matrix), 1)

    g_eff = LeakageOperator(matrix, design.floorplan.blocks, lam)
    source = power + g_eff.leakage(np.full(power.shape, tech.ambient - ref))
    try:
        rise = solve_steady_state(network, source, 0.0, matrix=g_eff)
    except SolverError as error:
        if type(error) is not SolverError:   # a runaway or a floating network says why
            raise
        raise SolverError(f"{error}; the leakage coefficient {lam:g} 1/K may be at the "
                          "thermal-runaway threshold", residual=error.residual) from None
    if (source.min() >= 0 and rise.residual < RESIDUAL_RTOL * source.max()
            and not rise.t.min() > 0):
        raise ThermalRunawayError("leakage fixed point diverging: a rise is not positive")
    t, spent = tech.ambient + rise.t, rise.iterations
    del rise, source   # so the closing solve's buffers can reuse their memory
    field = solve_steady_state(
        network, power + g_eff.leakage(t - ref), tech.ambient, x0=t, matrix=matrix,
        maxiter=CG_ITERATIONS_PER_DESIGN_SOLVE - spent)
    return LeakageSolve(TemperatureField(field.t, field.residual,
                                         spent + field.iterations), 2)


class FieldStats(NamedTuple):
    peak: float
    average: float
    hottest_block: str | None
    hottest_block_avg: float | None


def field_stats(field: TemperatureField, design: Design | None = None,
                grid: GridSpec | None = None) -> FieldStats:
    """Peak and average of the field; hottest block when a design is given.

    Ties on the hottest block break toward the lexicographically smallest name.
    """
    hottest = None
    hottest_avg = None
    if design is not None and grid is not None:
        raster = block_raster(design.floorplan.blocks, grid)
        # each block's weights over its whole layer, so the sum adds the
        # products in the order of a full-plane block_cell_weights
        plane = np.zeros(grid.cells_per_layer)
        for block, (cells, weights) in sorted(zip(design.floorplan.blocks, raster.entries),
                                              key=lambda pair: pair[0].name):
            plane[cells] = weights
            avg = float((field.t[block.layer] * plane.reshape(grid.cells_y, grid.cells_x)).sum())
            plane[cells] = 0.0
            if hottest_avg is None or avg > hottest_avg:
                hottest, hottest_avg = block.name, avg
    return FieldStats(field.peak, field.average, hottest, hottest_avg)
