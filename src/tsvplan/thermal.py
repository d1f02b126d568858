"""Grid RC thermal model: rasterization, conductance network, steady solve.

Each layer is divided into equal square cells. A cell that contains both
silicon and farm material gets composite lateral/vertical resistances built
from the area fractions of each material (series combination of the two
fraction-scaled terms). Neighboring cells couple through half-resistances;
the bottom layer couples to ambient through a lumped package resistance
shared equally by its cells. Lateral faces and the top are adiabatic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, SingularNetworkError, SolverError, ThermalRunawayError
from .model import Design, Stack, cache_by_identity

RESIDUAL_RTOL = 1e-8  # on the infinity norm, relative to max(max cell power, 1 W)
# CG iterations a design solve may spend, per unknown: one solve at reference
# leakage gets them all, and the leakage fixed point's solves share them
CG_ITERATIONS_PER_UNKNOWN = 100
# Layer planes of more cells than this are preconditioned by the multigrid
# V-cycle, smaller ones by the Jacobi diagonal: the measured crossover (ROADMAP.md)
JACOBI_MAX_PLANE_CELLS = 4096
SMOOTHER_DAMPING = 0.8  # of the V-cycle's column block-Jacobi sweeps
SMOOTHER_SWEEPS = 2     # before, and again after, each coarse correction


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
    iterations: int = 0  # CG iterations the solve took

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
    finite input.
    """

    def __init__(self, network: ConductanceNetwork):
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
        self._diag = diag.ravel()
        self._diag.flags.writeable = False
        n = grid.num_cells
        # (offset, -g to the node offset further on), zero where a row or layer ends
        self._couplings = ((grid.cells_per_layer, -network.g_z.ravel()),
                           (grid.cells_x, -g_y.ravel()[:n - grid.cells_x]),
                           (1, -g_x.ravel()[:n - 1]))

    def diagonal(self) -> np.ndarray:
        return self._diag

    def bind(self, x: np.ndarray, out: np.ndarray, term: np.ndarray):
        """Return a function that writes G @ x into out, using term as scratch.

        The shifted views of the three buffers are taken once, here, so each
        call costs only the arithmetic.
        """
        n = len(self._diag)
        steps = [(g, x[:n - k], term[k:], out[k:]) for k, g in self._couplings]
        steps.append((self._diag, x, term, out))
        steps += [(g, x[k:], term[:n - k], out[:n - k])
                  for k, g in reversed(self._couplings)]

        def apply() -> np.ndarray:
            out.fill(0.0)
            for g, xs, ts, ys in steps:
                np.multiply(g, xs, out=ts)
                ys += ts
            return out
        return apply

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(self._diag)
        return self.bind(x, out, self.scratch)()

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """A work vector for the term buffer of products with this matrix and
        its V-cycle: a product uses it only while it runs."""
        return np.empty_like(self._diag)

    @functools.cached_property
    def vcycle(self) -> VCycle:
        """The multigrid preconditioner of this matrix, built on first use, so
        every solve with the matrix shares one hierarchy."""
        return VCycle(self)


def system_matrix(network: ConductanceNetwork) -> StencilOperator:
    """The system matrix G of a network, as a matrix-free stencil operator."""
    return StencilOperator(network)


def coarsen(network: ConductanceNetwork) -> ConductanceNetwork:
    """The network on 2 x 2 aggregates of the layer plane, layers kept.

    An odd row or column count ends in one-cell aggregates. g_z and
    g_ambient sum over each aggregate. A lateral coarse conductance is half
    the sum of the fine edges that cross the aggregates' shared boundary,
    which on uniform cells is the series rule at twice the cell size.
    """
    grid = network.grid
    rows, cols = np.arange(0, grid.cells_y, 2), np.arange(0, grid.cells_x, 2)

    def by_rows(a):
        return np.add.reduceat(a, rows, axis=-2)

    def by_cols(a):
        return np.add.reduceat(a, cols, axis=-1)
    return ConductanceNetwork(
        GridSpec(len(cols), len(rows), 2 * grid.cell_size, grid.num_layers),
        g_x=0.5 * by_rows(network.g_x[:, :, 1::2]),
        g_y=0.5 * by_cols(network.g_y[:, 1::2, :]),
        g_z=by_cols(by_rows(network.g_z)),
        g_ambient=by_cols(by_rows(network.g_ambient)))


class _Level:
    """One level of the V-cycle: the Thomas factors of its vertical columns'
    tridiagonal blocks, its operator's product, and buffers allocated once.

    Only a coarse level has a right-hand side b; the finest is handed the CG
    residual. Every level's residual r and product term are views of buffers
    that all levels share: a level's residual is dead while coarser levels
    run. A level keeps no reference to its operator, whose cached vcycle
    would otherwise form a cycle that only the garbage collector frees.
    """

    def __init__(self, operator: StencilOperator, r: np.ndarray, term: np.ndarray,
                 coarse: bool):
        grid = operator.network.grid
        n, layers, plane = grid.num_cells, grid.num_layers, grid.cells_per_layer
        self.shape = (layers, grid.cells_y, grid.cells_x)
        diag = operator.diagonal().reshape(layers, plane)
        _, coupling = operator._couplings[0]    # -g_z, between layers l and l+1
        # elimination down each column leaves 1/m per layer and c/m per coupling
        self._c = c = coupling.reshape(layers - 1, plane)
        self._inv_m = np.empty((layers, plane))
        self._c_m = np.empty((layers - 1, plane))
        self._inv_m[0] = 1.0 / diag[0]
        for k in range(1, layers):
            np.multiply(c[k - 1], self._inv_m[k - 1], out=self._c_m[k - 1])
            self._inv_m[k] = 1.0 / (diag[k] - c[k - 1] * self._c_m[k - 1])
        self._scratch = np.empty(plane)
        self.b = np.empty(n) if coarse else None
        self.x = np.empty(n)
        self.r = r[:n]
        self._product = operator.bind(self.x, self.r, term[:n])

    def solve_columns(self, v: np.ndarray) -> None:
        """Overwrite v with D^-1 v, D the column blocks, by a Thomas sweep
        vectorized over the plane."""
        v = v.reshape(self._inv_m.shape)
        s, c, inv_m, c_m = self._scratch, self._c, self._inv_m, self._c_m
        v[0] *= inv_m[0]
        for k in range(1, len(v)):
            np.multiply(c[k - 1], v[k - 1], out=s)
            v[k] -= s
            v[k] *= inv_m[k]
        for k in range(len(v) - 2, -1, -1):
            np.multiply(c_m[k], v[k + 1], out=s)
            v[k] -= s

    def residual(self, b: np.ndarray) -> np.ndarray:
        """b - G x, in the level's r buffer."""
        self._product()
        return np.subtract(b, self.r, out=self.r)

    def smooth(self, b: np.ndarray) -> None:
        """One damped column block-Jacobi sweep on x."""
        r = self.residual(b)
        r *= SMOOTHER_DAMPING
        self.solve_columns(r)
        self.x += r


def _aggregate_views(fine: np.ndarray, coarse: np.ndarray, shape):
    """(fine, coarse) view pairs, one per position in a 2 x 2 aggregate, that
    together pair every fine cell with its aggregate."""
    _, ny, nx = shape
    fine, coarse = fine.reshape(shape), coarse.reshape(-1, (ny + 1) // 2, (nx + 1) // 2)
    return [(fine[:, dy::2, dx::2], coarse[:, :(ny - dy + 1) // 2, :(nx - dx + 1) // 2])
            for dy in (0, 1) for dx in (0, 1)]


class VCycle:
    """A symmetric multigrid V-cycle: the SPD preconditioner of a matrix.

    Levels coarsen the layer plane 2 x 2 (coarsen) down to one cell per
    layer. Each level smooths by damped column block-Jacobi, solving every
    vertical column's tridiagonal block exactly, SMOOTHER_SWEEPS times
    before and after the coarse correction; restriction sums over an
    aggregate and prolongation is piecewise constant, its transpose. The
    one-cell plane is solved exactly by its column solve. Smoothing is
    symmetric and every coarse solve SPD, so the cycle is SPD and fits
    conjugate gradients. Buffers are allocated once, with the hierarchy.
    """

    def __init__(self, matrix: StencilOperator):
        r = np.empty_like(matrix.scratch)
        self._levels = [_Level(matrix, r, matrix.scratch, coarse=False)]
        network = matrix.network
        while network.grid.cells_per_layer > 1:
            network = coarsen(network)
            self._levels.append(
                _Level(StencilOperator(network), r, matrix.scratch, coarse=True))
        self._restrict = []  # per level but the last: (its r, next level's b) views
        self._prolong = []   # (its x, next level's x) views
        for fine, coarse in zip(self._levels, self._levels[1:]):
            self._restrict.append(_aggregate_views(fine.r, coarse.b, fine.shape))
            self._prolong.append(_aggregate_views(fine.x, coarse.x, fine.shape))

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b, in a buffer that the next call overwrites."""
        return self._cycle(0, b)

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        level = self._levels[depth]
        x = level.x
        if depth == len(self._levels) - 1:
            x[:] = b
            level.solve_columns(x)
            return x
        np.multiply(b, SMOOTHER_DAMPING, out=x)  # the first sweep, from x = 0
        level.solve_columns(x)
        for _ in range(SMOOTHER_SWEEPS - 1):
            level.smooth(b)
        level.residual(b)
        (fine, coarse), *rest = self._restrict[depth]
        coarse[...] = fine
        for fine, coarse in rest:
            coarse += fine
        self._cycle(depth + 1, self._levels[depth + 1].b)
        for fine, coarse in self._prolong[depth]:
            fine += coarse
        for _ in range(SMOOTHER_SWEEPS):
            level.smooth(b)
        return x


def _pcg(matrix: StencilOperator, b: np.ndarray, x: np.ndarray, precondition,
         atol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients, updating x in place; returns x and
    the number of iterations taken. precondition(r) returns M^-1 r.

    With M^-1 the Jacobi diagonal this performs scipy.sparse.linalg.cg's
    arithmetic (scipy 1.17, rtol=0) operation for operation on the CSR
    matrix that StencilOperator reproduces, so the result is bit-identical
    to it. The search direction p and its product q live in buffers bound
    to the operator once per solve. A NaN or inf residual norm or rho
    raises SolverError at once instead of running out the budget.
    """
    if math.sqrt(b.dot(b)) == 0:
        return b, 0
    r = b - matrix @ x if x.any() else b.copy()
    p, q = np.empty_like(b), np.empty_like(b)
    product = matrix.bind(p, q, matrix.scratch)
    rho_prev = None
    for iteration in range(maxiter):
        norm = math.sqrt(r.dot(r))
        if norm < atol:
            return x, iteration
        z = precondition(r)
        rho = np.dot(r, z)
        if not (math.isfinite(norm) and math.isfinite(rho)):
            raise SolverError("non-finite residual in the steady-state solve",
                              residual=norm)
        if rho_prev is None:
            p[:] = z
        else:
            p *= rho / rho_prev
            p += z
        product()
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def solve_steady_state(network: ConductanceNetwork, power: np.ndarray,
                       ambient: float, x0: np.ndarray | None = None,
                       matrix=None, maxiter: int | None = None) -> TemperatureField:
    """Solve G*T = P + G_amb*T_amb by preconditioned conjugate gradients.

    A layer plane of more than JACOBI_MAX_PLANE_CELLS cells is
    preconditioned by the matrix's multigrid V-cycle, a smaller one by the
    Jacobi diagonal. CG stops once the residual's 2-norm is below 1e-4
    times the contract, so small fixtures agree with a dense solve to
    ~1e-8 K; the contract is an infinity norm of the final residual below
    RESIDUAL_RTOL times max(max cell power, 1 W). Pass a prebuilt matrix
    when solving the same network repeatedly. maxiter caps the CG
    iterations, by default at CG_ITERATIONS_PER_UNKNOWN per unknown.
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
    if maxiter is None:
        maxiter = int(CG_ITERATIONS_PER_UNKNOWN * n)
    if grid.cells_per_layer > JACOBI_MAX_PLANE_CELLS:
        precondition = matrix.vcycle
    else:
        inv_diag = 1.0 / matrix.diagonal()

        def precondition(r):
            return inv_diag * r
    x, iterations = _pcg(matrix, rhs, start, precondition,
                         atol=target * 1e-4, maxiter=maxiter)
    residual = float(np.abs(rhs - matrix @ x).max())
    if not residual <= target:
        raise SolverError(f"steady-state solve did not reach residual {target:g} "
                          f"within {maxiter} CG iterations", residual=residual)
    return TemperatureField(x.reshape(grid.num_layers, grid.cells_y, grid.cells_x),
                            residual, iterations)


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
                   x0: np.ndarray | None = None) -> LeakageSolve:
    """Fixed-point iteration of the solve with temperature-dependent leakage.

    Block leakage is leakage_ref * (1 + leakage_coeff * (block average T -
    leakage_tref)), with both values from the design's tech, distributed over
    the block footprint like its dynamic power. Converges when the largest
    cell temperature change drops below 0.01 K; five consecutive growing
    updates raise ThermalRunawayError. All its solves draw on one budget of
    CG_ITERATIONS_PER_UNKNOWN CG iterations per unknown; running out of it
    is a SolverError.
    """
    tech = design.stack.tech
    lam, ref = tech.leakage_coeff, tech.leakage_tref
    if not lam >= 0:
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
    budget = int(CG_ITERATIONS_PER_UNKNOWN * grid.num_cells)
    for iteration in range(1, 51):
        power = occ.power
        if lam > 0 and leaky and t_prev is not None:
            power = occ.power.copy()
            for block, weights in leaky:
                t_avg = float((t_prev[block.layer] * weights).sum())
                power[block.layer] += block.leakage_ref * lam * (t_avg - ref) * weights
        field = solve_steady_state(network, power, tech.ambient, x0=t_prev,
                                   matrix=matrix, maxiter=budget)
        budget -= field.iterations
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


@cache_by_identity
def _cold_field(design: Design, grid: GridSpec) -> TemperatureField:
    if design.stack.tech.leakage_coeff > 0:
        field = couple_leakage(design, grid).field
    else:
        field = solve_design(design, grid)
    field.t.flags.writeable = False
    return field


def solve_field(design: Design, grid: GridSpec) -> TemperatureField:
    """Solve a design: the leakage fixed point when its leakage coefficient is
    positive, else one solve at reference leakage.

    The field depends only on the design and the grid, so it is kept per
    (design, grid) object pair, by cache_by_identity, and returned read-only
    to every later caller.
    """
    return _cold_field(design, grid)


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
                grid: GridSpec | None = None) -> FieldStats:
    """Peak and average of the field; hottest block when a design is given.

    Ties on the hottest block break toward the lexicographically smallest name.
    """
    hottest = None
    hottest_avg = None
    if design is not None and grid is not None:
        for block in sorted(design.floorplan.blocks, key=lambda b: b.name):
            avg = block_average_temperature(field, block, grid)
            if hottest_avg is None or avg > hottest_avg:
                hottest, hottest_avg = block.name, avg
    return FieldStats(field.peak, field.average, hottest, hottest_avg)
