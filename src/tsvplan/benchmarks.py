"""Synthetic benchmark designs shipped with the package.

Three stacks exercise the phenomena the optimizer targets:

* blockage: one hot block ringed by insulated farms in 10 um silicon, the
  canonical lateral-blockage fixture.
* multicore: two identical 6-core layers with per-core bus farms and a
  shared bus crossing the center band.
* corememory: a 2-core processor layer under one memory layer, with bus
  farms parked in the inter-core corridor.

Farm geometry is deliberately grid-friendly: 0.4 x 0.4 mm squares with the
ratio candidate set {0.25, 1, 4}, so every reshape lands back on the 100 um
raster and cells stay pure farm or pure silicon. Each farm's net pairs a
client block with a diagonal anchor pad, so the farm can slide inside the
client bounding box without any wirelength change; the deliberately bad
initial spots leave the optimizer real room.
"""

from __future__ import annotations

from .model import (Block, Design, Floorplan, Layer, Material, Stack,
                    TechnologyParams, TsvFarm)

MM = 1e-3
UM = 1e-6

SILICON = Material("silicon", 149.0)
TUNGSTEN = Material("tungsten", 173.0)

SQUARE_RATIOS = (0.25, 1.0, 4.0)


def _farm(name, x, y, w, h, start, end, clients, k_lateral=0.5):
    # area from the scaled extents so builder and parsed file agree exactly
    return TsvFarm(name, x * MM, y * MM, w * MM, h * MM, start, end,
                   k_lateral, TUNGSTEN.conductivity, area=(w * MM) * (h * MM),
                   clients=tuple(clients))


def _block(name, layer, x, y, w, h, power, kind="macro", leakage=0.0):
    return Block(name, layer, x * MM, y * MM, w * MM, h * MM, power,
                 leakage_ref=leakage, kind=kind)


def blockage_design(k_farm: float = 0.5, leakage_ref: float = 0.25) -> Design:
    """Hot 0.6 x 0.6 mm block at 3 W/mm^2 ringed by four farms on a
    2 x 2 mm, 2-layer stack; leakage_ref is the hot block's leakage share."""
    tech = TechnologyParams(
        footprint_width=2.0 * MM, footprint_height=2.0 * MM,
        grid_cell=100 * UM, ambient=298.15, package_resistance=15.0,
        adjacency_window=0.8 * MM, aspect_ratios=SQUARE_RATIOS,
        leakage_coeff=0.015,
    )
    layers = (Layer(0, 10 * UM, SILICON), Layer(1, 10 * UM, SILICON))
    hot_power = 0.6 * 0.6 * MM * MM * 3.0e6
    blocks = [
        _block("cpu", 0, 0.7, 0.7, 0.6, 0.6, hot_power, leakage=leakage_ref * hot_power),
        # edge-center neighbors forming the conduction pairs with cpu
        _block("io_e", 0, 1.7, 0.7, 0.2, 0.6, 0.02, kind="peripheral"),
        _block("io_w", 0, 0.1, 0.7, 0.2, 0.6, 0.02, kind="peripheral"),
        _block("io_n", 0, 0.7, 1.7, 0.6, 0.2, 0.02, kind="peripheral"),
        _block("io_s", 0, 0.7, 0.1, 0.6, 0.2, 0.02, kind="peripheral"),
        # corner anchors pinning the bounding box and terminating the nets
        _block("pad_ne", 0, 1.8, 1.8, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_nw", 0, 0.0, 1.8, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_sw", 0, 0.0, 0.0, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_se", 0, 1.8, 0.0, 0.2, 0.2, 0.01, kind="peripheral"),
        # quiet landing-layer corners
        _block("mem_ne", 1, 1.8, 1.8, 0.2, 0.2, 0.05),
        _block("mem_nw", 1, 0.0, 1.8, 0.2, 0.2, 0.05),
        _block("mem_sw", 1, 0.0, 0.0, 0.2, 0.2, 0.05),
        _block("mem_se", 1, 1.8, 0.0, 0.2, 0.2, 0.05),
    ]
    farms = [
        _farm("bus_e", 1.3, 0.8, 0.4, 0.4, 0, 1, ("cpu", "pad_ne"), k_farm),
        _farm("bus_n", 0.8, 1.3, 0.4, 0.4, 0, 1, ("cpu", "pad_nw"), k_farm),
        _farm("bus_w", 0.3, 0.8, 0.4, 0.4, 0, 1, ("cpu", "pad_sw"), k_farm),
        _farm("bus_s", 0.8, 0.3, 0.4, 0.4, 0, 1, ("cpu", "pad_se"), k_farm),
    ]
    return Design(Stack(layers, tech), Floorplan(tuple(blocks), tuple(farms)),
                  materials=(SILICON, TUNGSTEN))


def multicore_design() -> Design:
    """Two identical 6-core layers, local bus farms against the core faces and
    a shared bus in the center band, on a 3.2 x 3.2 mm footprint."""
    tech = TechnologyParams(
        footprint_width=3.2 * MM, footprint_height=3.2 * MM,
        grid_cell=100 * UM, ambient=298.15, package_resistance=2.0,
        adjacency_window=1.3 * MM, aspect_ratios=SQUARE_RATIOS,
        leakage_coeff=0.015, bond_thickness=1 * UM, bond_conductivity=0.29,
    )
    layers = (Layer(0, 10 * UM, SILICON), Layer(1, 10 * UM, SILICON))
    core_power = 0.8 * 0.8 * MM * MM * 2.5e6
    cols = (0.2, 1.2, 2.2)
    blocks = []
    for layer in (0, 1):
        for i, cx in enumerate(cols):
            # center-column cores run hotter, like the high-activity cores
            # that form the hotspots in stacked multicores
            watts = core_power * (1.2 if i == 1 else 1.0)
            blocks.append(_block(f"core{i}b_l{layer}", layer, cx, 0.2, 0.8, 0.8,
                                 watts, leakage=0.25 * watts))
            blocks.append(_block(f"core{i}t_l{layer}", layer, cx, 2.2, 0.8, 0.8,
                                 watts, leakage=0.25 * watts))
        blocks.append(_block(f"hub_l{layer}", layer, 1.5, 1.5, 0.2, 0.2, 0.05))
    blocks += [
        _block("io_w", 0, 0.0, 1.4, 0.1, 0.4, 0.02, kind="peripheral"),
        _block("io_e", 0, 3.1, 1.4, 0.1, 0.4, 0.02, kind="peripheral"),
        _block("pad_s", 0, 1.4, 0.0, 0.4, 0.1, 0.02, kind="peripheral"),
        _block("pad_n", 0, 1.4, 3.1, 0.4, 0.1, 0.02, kind="peripheral"),
    ]
    farms = [
        # bottom-row farms hug the north face of their core, top-row the south
        _farm("bus0b", 0.4, 1.0, 0.4, 0.4, 0, 1, ("core0b_l0", "hub_l0")),
        _farm("bus1b", 1.4, 1.0, 0.4, 0.4, 0, 1, ("core1b_l0", "io_e")),
        _farm("bus2b", 2.4, 1.0, 0.4, 0.4, 0, 1, ("core2b_l0", "hub_l0")),
        _farm("bus0t", 0.4, 1.8, 0.4, 0.4, 0, 1, ("core0t_l0", "hub_l0")),
        _farm("bus1t", 1.4, 1.8, 0.4, 0.4, 0, 1, ("core1t_l0", "io_w")),
        _farm("bus2t", 2.4, 1.8, 0.4, 0.4, 0, 1, ("core2t_l0", "hub_l0")),
        _farm("bus_shared", 1.0, 1.4, 0.4, 0.4, 0, 1, ("io_w", "pad_n")),
    ]
    return Design(Stack(layers, tech), Floorplan(tuple(blocks), tuple(farms)),
                  materials=(SILICON, TUNGSTEN))


def corememory_design() -> Design:
    """Two hot cores on a thinned processor layer under one memory layer.

    Memory sits in north/south stripes, leaving a free horizontal channel
    where the bus farms live; farms span the stack and land on top.
    sweeps.with_memory_layers stacks more memory layers.
    """
    tech = TechnologyParams(
        footprint_width=2.4 * MM, footprint_height=2.4 * MM,
        grid_cell=100 * UM, ambient=298.15, package_resistance=6.0,
        adjacency_window=1.3 * MM, aspect_ratios=SQUARE_RATIOS,
        leakage_coeff=0.015, bond_thickness=3 * UM, bond_conductivity=0.29,
    )
    layers = (Layer(0, 10 * UM, SILICON), Layer(1, 10 * UM, SILICON))
    core_power = 0.6 * 0.6 * MM * MM * 3.0e6
    stripe_power = 2.0 * 0.4 * MM * MM * 1.0e6
    blocks = [
        _block("cpu0", 0, 0.5, 0.9, 0.6, 0.6, core_power, leakage=0.25 * core_power),
        _block("cpu1", 0, 1.5, 0.9, 0.6, 0.6, core_power, leakage=0.25 * core_power),
        # neighbors on all four sides of the core row, so every face a farm
        # could hug forms a conduction pair the objective can see
        _block("io_w", 0, 0.0, 0.9, 0.1, 0.6, 0.01, kind="peripheral"),
        _block("io_e", 0, 2.3, 0.9, 0.1, 0.6, 0.01, kind="peripheral"),
        _block("ctl_n", 0, 0.2, 1.9, 2.0, 0.2, 0.05, kind="peripheral"),
        _block("ctl_s", 0, 0.2, 0.3, 2.0, 0.2, 0.05, kind="peripheral"),
        _block("pad_ne", 0, 2.2, 2.2, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_nw", 0, 0.0, 2.2, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_sw", 0, 0.0, 0.0, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("pad_se", 0, 2.2, 0.0, 0.2, 0.2, 0.01, kind="peripheral"),
        _block("mem_n_l1", 1, 0.2, 1.8, 2.0, 0.4, stripe_power),
        _block("mem_s_l1", 1, 0.2, 0.2, 2.0, 0.4, stripe_power),
    ]
    farms = [
        # parked in the inter-core corridor and against cpu0's west face
        _farm("bus_mid", 1.1, 0.9, 0.4, 0.4, 0, 1, ("cpu0", "pad_ne")),
        _farm("bus_w", 0.1, 0.9, 0.4, 0.4, 0, 1, ("cpu0", "pad_sw")),
    ]
    return Design(Stack(layers, tech), Floorplan(tuple(blocks), tuple(farms)),
                  materials=(SILICON, TUNGSTEN))


BUILDERS = {
    "blockage": blockage_design,
    "multicore": multicore_design,
    "corememory": corememory_design,
}
