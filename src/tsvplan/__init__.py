"""Thermal-blockage-aware TSV-farm placement for stacked ICs."""

import os

# one BLAS thread unless the user set a count, before numpy loads: on 2 cores a
# threaded inverse of a coarsest level took up to 140 ms, one thread under 3 ms
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

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
