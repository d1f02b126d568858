"""Thermal-blockage-aware TSV-farm placement for stacked ICs."""

from .anneal import (AnnealConfig, FlowConfig, OptimizeResult, RunTrace,
                     optimize_stack, sa_placement, gen_move, summarize)
from .design_io import emit_design, parse_design, write_design
from .errors import (DesignError, GridError, InvalidMoveError, ParseError,
                     SingularNetworkError, SolverError, ThermalRunawayError)
from .metrics import (CostBreakdown, CostWeights, conduction_efficiency, cost,
                      total_efficiency, wirelength)
from .model import (Block, Design, Floorplan, Layer, Material, Stack,
                    TechnologyParams, TsvFarm, move_farm, reshape_farm, validate)
from .thermal import (CellOccupancy, ConductanceNetwork, GridSpec,
                      TemperatureField, build_network, couple_leakage,
                      field_stats, grid_for, rasterize, solve_design,
                      solve_steady_state)

__version__ = "0.1.0"
