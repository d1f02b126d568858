import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from tsvplan.design_io import format_trace, parse_design
from tsvplan.model import (Block, Design, Floorplan, Layer, Material, Stack,
                           TechnologyParams, TsvFarm)
from tsvplan.thermal import CellOccupancy, GridSpec, cell_resistances

MM = 1_000_000   # nm, the unit of every length
UM = 1_000
SILICON = Material("silicon", 149.0)

REPO = Path(__file__).resolve().parents[1]
SHIPPED = ("blockage", "corememory", "multicore")   # designs/<name>.design


@functools.cache
def shipped_design(name):
    """The design of the shipped file designs/<name>.design; a Design is
    frozen, so every caller may share the one parsed copy."""
    return parse_design(REPO / "designs" / f"{name}.design")


def make_tech(**kw):
    args = dict(footprint_width=2 * MM, footprint_height=2 * MM,
                grid_cell=100 * UM, ambient=298.15, package_resistance=10.0)
    args.update(kw)
    return TechnologyParams(**args)


def make_design(blocks=(), farms=(), num_layers=2, tech=None, thickness=10 * UM):
    tech = tech or make_tech()
    layers = tuple(Layer(i, thickness, SILICON) for i in range(num_layers))
    return Design(Stack(layers, tech), Floorplan(tuple(blocks), tuple(farms)),
                  materials=(SILICON,))


def mm(value):
    """value millimetres in whole nanometres."""
    return round(value * MM)


def block(name, layer, x, y, w, h, power=0.0, kind="macro", leakage=0.0):
    return Block(name, layer, mm(x), mm(y), mm(w), mm(h), power,
                 leakage_ref=leakage, kind=kind)


def farm(name, x, y, w, h, start=0, end=1, k_lat=0.5, k_met=173.0, clients=()):
    return TsvFarm(name, mm(x), mm(y), mm(w), mm(h), start, end,
                   k_lat, k_met, area=mm(w) * mm(h), clients=tuple(clients))


def one_cell_resistances(cell, thickness, k_silicon, farm_fraction=0.0,
                         k_farm=None, k_metal=None):
    """(lateral, vertical) resistance in K/W of the one cell of a one-layer grid;
    cell and thickness in nm.

    farm_fraction is the cell's farm share, both in-plane (k_farm) and
    through-plane (k_metal); an unset farm conductivity is the silicon's.
    """
    full = lambda value: np.full((1, 1, 1), float(value))
    k_farm = k_silicon if k_farm is None else k_farm
    k_metal = k_silicon if k_metal is None else k_metal
    occ = CellOccupancy(farm_fraction=full(farm_fraction),
                        lateral_fraction=full(farm_fraction), k_farm=full(k_farm),
                        k_metal=full(k_metal), power=full(0.0))
    stack = Stack((Layer(0, thickness, Material("silicon", k_silicon)),),
                  make_tech(footprint_width=cell, footprint_height=cell, grid_cell=cell))
    r_lat, r_vert = cell_resistances(occ, GridSpec(1, 1, cell, 1), stack)
    return float(r_lat[0, 0, 0]), float(r_vert[0, 0, 0])


def csr_reference(network):
    """The system matrix G of a network assembled as scipy CSR from COO triples,
    the reference that thermal.StencilOperator must reproduce bit for bit."""
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

    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def split_digests(results):
    """SHA-256 pair over OptimizeResults: (every format_trace line but the
    pass lines, plus the before/after summary reprs; the pass lines).

    The pass lines hold the per-layer temperatures of each layer pass; the
    rest is the annealing trajectory and its outcome.
    """
    rest, passes = hashlib.sha256(), hashlib.sha256()
    for result in results:
        for line in format_trace(result.trace).splitlines(keepends=True):
            (passes if line.startswith("pass ") else rest).update(line.encode())
        rest.update(repr(result.before).encode())
        rest.update(repr(result.after).encode())
    return rest.hexdigest(), passes.hexdigest()


@pytest.fixture
def two_layer_design():
    return make_design(
        blocks=(block("alpha", 0, 0.0, 0.0, 0.5, 0.5, power=1.0),
                block("beta", 1, 1.5, 1.5, 0.5, 0.5, power=0.5)),
        farms=(farm("bus", 0.8, 0.8, 0.4, 0.4, clients=("alpha", "beta")),),
    )
