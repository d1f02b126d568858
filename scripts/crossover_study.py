#!/usr/bin/env python3
"""Where the multigrid V-cycle starts to beat the Jacobi diagonal.

Solves each shipped design at 100, 80, 50, 40 and 25 um with conjugate gradients
under either preconditioner, whatever JACOBI_MAX_PLANE_CELLS would pick,
and prints a markdown table: CG iterations and the fastest of REPEATS cold
design solves, each from rasterization on, so a V-cycle's hierarchy is
built every time. "plain" is one solve at reference leakage (solve_design);
"leakage" is the leakage fixed point (couple_leakage), whose iterations are
summed over its solves. The ratio is V-cycle time over Jacobi time.
Run it on an otherwise idle machine, with BLAS on one thread as the
benchmark runs it:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 scripts/crossover_study.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tsvplan import thermal
from tsvplan.benchmarks import BUILDERS

REPEATS = 5
CELLS_UM = (100, 80, 50, 40, 25)
SIDES = {"Jacobi": sys.maxsize, "V-cycle": 0}   # JACOBI_MAX_PLANE_CELLS forcing each


def measure(solve, switch):
    """(CG iterations, fastest seconds) of REPEATS calls of solve()."""
    thermal.JACOBI_MAX_PLANE_CELLS = switch
    iterations, best = [], float("inf")
    plain_solve = thermal.solve_steady_state

    def counted(*args, **kwargs):
        field = plain_solve(*args, **kwargs)
        iterations.append(field.iterations)
        return field
    thermal.solve_steady_state = counted
    try:
        for _ in range(REPEATS):
            iterations.clear()
            started = time.perf_counter()
            solve()
            best = min(best, time.perf_counter() - started)
    finally:
        thermal.solve_steady_state = plain_solve
    return sum(iterations), best


def main():
    shipped = thermal.JACOBI_MAX_PLANE_CELLS
    print("| design | grid | plane | solve | Jacobi its | V-cycle its "
          "| Jacobi ms | V-cycle ms | ratio |")
    print("|---|---|---|---|---|---|---|---|---|")
    try:
        for name in sorted(BUILDERS):
            design = BUILDERS[name]()
            for cell in CELLS_UM:
                grid = thermal.grid_for(design.stack, cell * 1e-6)
                for kind, solve in (("plain", lambda: thermal.solve_design(design, grid)),
                                    ("leakage", lambda: thermal.couple_leakage(design, grid))):
                    (j_its, j_s), (v_its, v_s) = (measure(solve, SIDES[side])
                                                  for side in SIDES)
                    print(f"| {name} | {cell} µm | {grid.cells_per_layer:,} | {kind} "
                          f"| {j_its} | {v_its} | {1e3 * j_s:.1f} | {1e3 * v_s:.1f} "
                          f"| {v_s / j_s:.2f} |")
    finally:
        thermal.JACOBI_MAX_PLANE_CELLS = shipped


if __name__ == "__main__":
    main()
