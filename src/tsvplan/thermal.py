"""Grid RC thermal model: rasterization, conductance network, steady solve.

Each layer is divided into equal square cells. A cell that contains both
silicon and farm material gets composite lateral/vertical resistances built
from the area fractions of each material (series combination of the two
fraction-scaled terms). Neighboring cells couple through half-resistances;
the bottom layer couples to ambient through a lumped package resistance
shared equally by its cells. Lateral faces and the top are adiabatic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridError, SingularNetworkError, SolverError, ThermalRunawayError
from .model import Design, Stack

RESIDUAL_RTOL = 1e-8  # on the infinity norm, relative to max(max cell power, 1 W)


@dataclass(frozen=True)
class GridSpec:
    cells_x: int
    cells_y: int
    cell_size: float
    num_layers: int

    @property
    def cells_per_layer(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def num_cells(self) -> int:
        return self.cells_per_layer * self.num_layers


def grid_for(stack: Stack, cell_size: float | None = None) -> GridSpec:
    """Build the grid for a stack, requiring the cells to tile the footprint exactly."""
    cell = stack.tech.grid_cell if cell_size is None else cell_size
    if cell <= 0:
        raise GridError(f"cell size must be positive, got {cell}")
    w, h = stack.footprint
    nx, ny = round(w / cell), round(h / cell)
    if nx < 1 or abs(nx * cell - w) > 1e-9 * w:
        raise GridError(f"cell size {cell} does not tile footprint width {w}")
    if ny < 1 or abs(ny * cell - h) > 1e-9 * h:
        raise GridError(f"cell size {cell} does not tile footprint height {h}")
    return GridSpec(nx, ny, cell, stack.num_layers)


@dataclass(frozen=True)
class CellOccupancy:
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

    @property
    def silicon_fraction(self) -> np.ndarray:
        return 1.0 - self.farm_fraction


def _overlap_1d(lo: float, hi: float, cell: float, n: int) -> np.ndarray:
    edges = np.arange(n + 1) * cell
    return np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)


def rect_cell_areas(rect, grid: GridSpec) -> np.ndarray:
    """Exact [ny, nx] intersection areas of a rectangle with every grid cell."""
    ox = _overlap_1d(rect[0], rect[2], grid.cell_size, grid.cells_x)
    oy = _overlap_1d(rect[1], rect[3], grid.cell_size, grid.cells_y)
    return np.outer(oy, ox)


def block_cell_weights(block, grid: GridSpec) -> np.ndarray:
    """Fraction of a block's area falling in each cell of its layer (sums to 1)."""
    areas = rect_cell_areas(block.rect, grid)
    return areas / (block.width * block.height)


def rasterize(design: Design, grid: GridSpec) -> CellOccupancy:
    """Rasterize a floorplan: exact area fractions and proportional power split."""
    shape = (grid.num_layers, grid.cells_y, grid.cells_x)
    farm_fraction = np.zeros(shape)
    lateral_fraction = np.zeros(shape)
    k_farm = np.zeros(shape)
    k_metal = np.zeros(shape)
    best_area = np.zeros(shape)
    power = np.zeros(shape)
    cell_area = grid.cell_size ** 2

    for farm in design.floorplan.farms:
        areas = rect_cell_areas(farm.rect, grid)
        frac = areas / cell_area
        for layer in range(farm.start_layer, farm.end_layer + 1):
            farm_fraction[layer] += frac
            if farm.blocks_laterally(layer):
                lateral_fraction[layer] += frac
            take = areas > best_area[layer]
            best_area[layer][take] = areas[take]
            k_farm[layer][take] = farm.k_lateral
            k_metal[layer][take] = farm.k_metal

    for block in design.floorplan.blocks:
        watts = block.power + block.leakage_ref
        if watts != 0:  # a NaN power must reach the solver, which rejects it
            power[block.layer] += watts * block_cell_weights(block, grid)

    np.clip(farm_fraction, 0.0, 1.0, out=farm_fraction)
    np.clip(lateral_fraction, 0.0, 1.0, out=lateral_fraction)
    # floating-point dust at aligned edges must not become a series term:
    # the composite resistance diverges as the farm fraction approaches zero
    farm_fraction[farm_fraction < 1e-12] = 0.0
    farm_fraction[farm_fraction > 1 - 1e-12] = 1.0
    lateral_fraction[lateral_fraction < 1e-12] = 0.0
    lateral_fraction[lateral_fraction > 1 - 1e-12] = 1.0
    lateral_fraction = np.minimum(lateral_fraction, farm_fraction)
    return CellOccupancy(farm_fraction, lateral_fraction, k_farm, k_metal, power)


def resistance(thickness: float, conductivity: float, area: float) -> float:
    """Conduction resistance of a slab: thickness / (conductivity * area), K/W."""
    if conductivity <= 0:
        raise ValueError(f"conductivity must be > 0, got {conductivity}")
    if area <= 0:
        raise ValueError(f"area must be > 0, got {area}")
    if thickness < 0:
        raise ValueError(f"thickness must be >= 0, got {thickness}")
    return thickness / (conductivity * area)


def composite_resistance(span, area, farm_fraction, k_farm,
                         silicon_fraction, k_silicon) -> float:
    """Series sum of the fraction-scaled farm and silicon terms of a mixed cell.

    A fraction of zero contributes no term; both zero is a domain error.
    """
    if farm_fraction <= 0 and silicon_fraction <= 0:
        raise ValueError("cell has no material")
    r = 0.0
    if farm_fraction > 0:
        r += resistance(span, k_farm * farm_fraction, area)
    if silicon_fraction > 0:
        r += resistance(span, k_silicon * silicon_fraction, area)
    return r


def composite_lateral_resistance(cell_size, layer_thickness, farm_fraction,
                                 k_farm, silicon_fraction, k_silicon) -> float:
    """In-plane cell resistance: span = cell size, area = cell size * thickness."""
    return composite_resistance(cell_size, cell_size * layer_thickness,
                                farm_fraction, k_farm, silicon_fraction, k_silicon)


def composite_vertical_resistance(layer_thickness, cell_size, farm_fraction,
                                  k_metal, silicon_fraction, k_silicon) -> float:
    """Through-plane cell resistance: span = thickness, area = cell size squared."""
    return composite_resistance(layer_thickness, cell_size ** 2,
                                farm_fraction, k_metal, silicon_fraction, k_silicon)


@dataclass(frozen=True)
class ConductanceNetwork:
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
    """Per-cell composite lateral and vertical resistances, [L, ny, nx]."""
    cell = grid.cell_size
    r_lat = np.zeros_like(occ.farm_fraction)
    r_vert = np.zeros_like(occ.farm_fraction)
    for layer in stack.layers:
        t = layer.thickness
        k_si = layer.material.conductivity
        a_lat = cell * t
        a_vert = cell * cell
        eta_l = occ.lateral_fraction[layer.index]
        eta_v = occ.farm_fraction[layer.index]
        r_lat[layer.index] = (
            _series_terms(eta_l, occ.k_farm[layer.index], cell, a_lat)
            + _series_terms(1.0 - eta_l, k_si, cell, a_lat)
        )
        if stack.tech.vertical_parallel:
            k_eff = occ.k_metal[layer.index] * eta_v + k_si * (1.0 - eta_v)
            r_vert[layer.index] = t / (k_eff * a_vert)
        else:
            r_vert[layer.index] = (
                _series_terms(eta_v, occ.k_metal[layer.index], t, a_vert)
                + _series_terms(1.0 - eta_v, k_si, t, a_vert)
            )
    return r_lat, r_vert


def build_network(occ: CellOccupancy, grid: GridSpec, stack: Stack) -> ConductanceNetwork:
    """Couple neighbor cells through half-resistances; bottom cells to ambient."""
    r_lat, r_vert = cell_resistances(occ, grid, stack)
    g_x = 2.0 / (r_lat[:, :, :-1] + r_lat[:, :, 1:])
    g_y = 2.0 / (r_lat[:, :-1, :] + r_lat[:, 1:, :])
    r_z = 0.5 * (r_vert[:-1] + r_vert[1:])
    if stack.tech.bond_thickness > 0:
        r_z = r_z + stack.tech.bond_thickness / (
            stack.tech.bond_conductivity * grid.cell_size ** 2)
    g_z = 1.0 / r_z
    share = 1.0 / (stack.tech.package_resistance * grid.cells_per_layer)
    g_ambient = np.full((grid.cells_y, grid.cells_x), share)
    return ConductanceNetwork(grid, g_x, g_y, g_z, g_ambient)


@dataclass(frozen=True)
class TemperatureField:
    t: np.ndarray        # [L, ny, nx] kelvin
    residual: float      # infinity norm of the final solve residual

    def layer(self, index: int) -> np.ndarray:
        return self.t[index]

    @property
    def peak(self) -> float:
        return float(self.t.max())

    @property
    def average(self) -> float:
        return float(self.t.mean())


def system_matrix(network: ConductanceNetwork):
    """Assemble the SPD matrix G with node order layer-major, then row-major."""
    grid = network.grid
    n = grid.num_cells
    node = np.arange(n).reshape(grid.num_layers, grid.cells_y, grid.cells_x)

    rows, cols, data = [], [], []

    def couple(i_idx, j_idx, g):
        i = i_idx.ravel()
        j = j_idx.ravel()
        gv = g.ravel()
        rows.extend((i, j, i, j))
        cols.extend((j, i, i, j))
        data.extend((-gv, -gv, gv, gv))

    couple(node[:, :, :-1], node[:, :, 1:], network.g_x)
    couple(node[:, :-1, :], node[:, 1:, :], network.g_y)
    if grid.num_layers > 1:
        couple(node[:-1], node[1:], network.g_z)

    bottom = node[0].ravel()
    rows.append(bottom)
    cols.append(bottom)
    data.append(network.g_ambient.ravel())

    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return matrix


def _jacobi_pcg(matrix, b: np.ndarray, x: np.ndarray, inv_diag: np.ndarray,
                atol: float, maxiter: int) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients, updating x in place.

    Performs scipy.sparse.linalg.cg's arithmetic (scipy 1.17, rtol=0,
    M = diag(inv_diag)) operation for operation, so the result is bit-identical
    to it, without the LinearOperator dispatch. A NaN or inf residual norm or
    rho raises SolverError at once instead of running out the budget.
    """
    if np.linalg.norm(b) == 0:
        return b
    r = b - matrix @ x if x.any() else b.copy()
    rho_prev = p = None
    for _ in range(maxiter):
        norm = np.linalg.norm(r)
        if norm < atol:
            return x
        z = inv_diag * r
        rho = np.dot(r, z)
        if not (math.isfinite(norm) and math.isfinite(rho)):
            raise SolverError("non-finite residual in the steady-state solve",
                              residual=float(norm))
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def solve_steady_state(network: ConductanceNetwork, power: np.ndarray,
                       ambient: float, x0: np.ndarray | None = None,
                       matrix=None) -> TemperatureField:
    """Solve G*T = P + G_amb*T_amb by Jacobi-preconditioned conjugate gradients.

    The residual contract is an infinity norm below RESIDUAL_RTOL times
    max(max cell power, 1 W); the solver aims two decades tighter so small
    fixtures agree with a dense solve to ~1e-8 K. Pass a prebuilt matrix
    when solving the same network repeatedly.
    """
    grid = network.grid
    n = grid.num_cells
    if float(network.g_ambient.sum()) <= 0.0:
        raise SingularNetworkError("no conductance to ambient; network is floating")

    if matrix is None:
        matrix = system_matrix(network)
    rhs = power.ravel().astype(float).copy()
    rhs[:grid.cells_per_layer] += network.g_ambient.ravel() * ambient

    target = RESIDUAL_RTOL * max(float(power.max(initial=0.0)), 1.0)
    start = np.full(n, ambient) if x0 is None else x0.ravel().copy()
    x = _jacobi_pcg(matrix, rhs, start, 1.0 / matrix.diagonal(),
                    atol=target * 1e-4, maxiter=100 * n)
    residual = float(np.abs(rhs - matrix @ x).max())
    if not residual <= target:
        raise SolverError(
            f"steady-state solve did not reach residual {target:g}", residual=residual)
    return TemperatureField(x.reshape(grid.num_layers, grid.cells_y, grid.cells_x),
                            residual)


def solve_design(design: Design, grid: GridSpec | None = None,
                 x0: np.ndarray | None = None) -> TemperatureField:
    """Rasterize, build the network, and solve one design at reference leakage."""
    grid = grid_for(design.stack) if grid is None else grid
    occ = rasterize(design, grid)
    network = build_network(occ, grid, design.stack)
    return solve_steady_state(network, occ.power, design.stack.tech.ambient, x0=x0)


@dataclass(frozen=True)
class LeakageSolve:
    field: TemperatureField
    iterations: int


def couple_leakage(design: Design, grid: GridSpec,
                   leakage_coeff: float | None = None,
                   t_ref: float | None = None,
                   x0: np.ndarray | None = None) -> LeakageSolve:
    """Fixed-point iteration of the solve with temperature-dependent leakage.

    Block leakage is leakage_ref * (1 + coeff * (block average T - t_ref)),
    distributed over the block footprint like its dynamic power. Converges
    when the largest cell temperature change drops below 0.01 K; five
    consecutive growing updates raise ThermalRunawayError.
    """
    tech = design.stack.tech
    lam = tech.leakage_coeff if leakage_coeff is None else leakage_coeff
    ref = tech.leakage_tref if t_ref is None else t_ref
    if lam < 0:
        raise ValueError(f"leakage coefficient must be >= 0, got {lam}")

    occ = rasterize(design, grid)
    network = build_network(occ, grid, design.stack)
    matrix = system_matrix(network)
    leaky = [(b, block_cell_weights(b, grid))
             for b in design.floorplan.blocks if b.leakage_ref > 0]

    # The leakage power for each solve comes from the previous temperature
    # estimate; a warm start therefore begins the fixed point at the warm
    # field instead of the reference-leakage solve.
    t_prev = None if x0 is None else x0.reshape(occ.power.shape)
    growing = 0
    last_delta = None
    for iteration in range(1, 51):
        power = occ.power
        if lam > 0 and leaky and t_prev is not None:
            power = occ.power.copy()
            for block, weights in leaky:
                t_avg = float((t_prev[block.layer] * weights).sum())
                power[block.layer] += block.leakage_ref * lam * (t_avg - ref) * weights
        field = solve_steady_state(network, power, tech.ambient, x0=t_prev,
                                   matrix=matrix)
        if t_prev is not None:
            delta = float(np.abs(field.t - t_prev).max())
            if delta < 0.01:
                return LeakageSolve(field, iteration)
            if last_delta is not None and delta > last_delta:
                growing += 1
                if growing >= 5:
                    raise ThermalRunawayError(
                        f"leakage iteration diverging (delta {delta:.3g} K)")
            else:
                growing = 0
            last_delta = delta
        t_prev = field.t
    raise SolverError("leakage iteration did not converge within 50 solves")


COLD_FIELDS_KEPT = 8
_cold_fields: dict = {}  # (id(design), id(grid), coeff, t_ref) -> (design, grid, field)


def solve_field(design: Design, grid: GridSpec, leakage_coeff: float | None = None,
                t_ref: float | None = None,
                x0: np.ndarray | None = None) -> TemperatureField:
    """Solve a design: the leakage fixed point when the coefficient (default:
    the design's) is positive, else one solve at reference leakage.

    A cold solve (no x0) depends only on its arguments, so its field is kept
    for the last COLD_FIELDS_KEPT (design, grid) objects and coefficient
    values, and returned read-only to every later caller. Each entry keeps
    its design and grid alive, so their ids cannot be reused while cached.
    """
    tech = design.stack.tech
    lam = tech.leakage_coeff if leakage_coeff is None else leakage_coeff
    ref = tech.leakage_tref if t_ref is None else t_ref
    if x0 is None:
        key = (id(design), id(grid), lam, ref)
        entry = _cold_fields.get(key)
        if entry is not None:
            return entry[2]
    if lam > 0:
        field = couple_leakage(design, grid, lam, ref, x0=x0).field
    else:
        field = solve_design(design, grid, x0=x0)
    if x0 is None:
        field.t.flags.writeable = False
        if len(_cold_fields) >= COLD_FIELDS_KEPT:
            del _cold_fields[next(iter(_cold_fields))]
        _cold_fields[key] = (design, grid, field)
    return field


def block_average_temperature(field: TemperatureField, block, grid: GridSpec) -> float:
    """Area-weighted mean temperature over a block footprint."""
    weights = block_cell_weights(block, grid)
    return float((field.t[block.layer] * weights).sum())


@dataclass(frozen=True)
class FieldStats:
    peak: float
    average: float
    hottest_block: str | None
    hottest_block_avg: float | None


def field_stats(field: TemperatureField, design: Design | None = None,
                grid: GridSpec | None = None, layer: int | None = None) -> FieldStats:
    """Peak and average of the field; hottest block when a design is given.

    Ties on the hottest block break toward the lexicographically smallest name.
    """
    if layer is not None:
        if not (0 <= layer < field.t.shape[0]):
            raise ValueError(f"layer {layer} out of range")
        values = field.t[layer]
    else:
        values = field.t
    if values.size == 0:
        raise ValueError("empty region")

    hottest = None
    hottest_avg = None
    if design is not None and grid is not None:
        blocks = [b for b in design.floorplan.blocks
                  if layer is None or b.layer == layer]
        for block in sorted(blocks, key=lambda b: b.name):
            avg = block_average_temperature(field, block, grid)
            if hottest_avg is None or avg > hottest_avg:
                hottest, hottest_avg = block.name, avg
    return FieldStats(float(values.max()), float(values.mean()), hottest, hottest_avg)


def layer_averages(field: TemperatureField) -> list[float]:
    return [float(field.t[i].mean()) for i in range(field.t.shape[0])]
