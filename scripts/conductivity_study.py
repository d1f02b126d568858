#!/usr/bin/env python3
"""Optimization gain versus farm thermal conductivity.

Sweeps the farm lateral conductivity across the materials ladder (insulated
composite up to bulk silicon) on the core+memory benchmark. The lower the
conductivity, the stronger the blockage and the larger the reduction there
is to recover; the recovered reduction follows that trend in the median
over seeds 1-8, not on every seed. The seed run here, 3, recovers 4.11 K of
core peak at k = 0.5 against 4.77 K at k = 1 (ROADMAP Finding 3). A
multi-seed table is ROADMAP item 7.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tsvplan.anneal import AnnealConfig, FlowConfig
from tsvplan.design_io import parse_design
from tsvplan.sweeps import format_sweep_table, run_sweep

LADDER = [0.5, 1.0, 2.75, 5.0, 23.1, 149.0]


def main():
    design = parse_design(REPO / "designs" / "corememory.design")
    anneal = AnnealConfig(seed=3, max_moves=40, cooling=0.88)
    flow = FlowConfig(outer_iterations=2)
    points = run_sweep(design, "k_farm", LADDER, anneal, flow)
    print(format_sweep_table("k_farm", points))
    print()
    for p in points:
        if p.status == "ok":
            print(f"k_farm {p.value:g}: core peak reduction "
                  f"{p.peak_reduction:.3f} K, stack avg reduction "
                  f"{p.stack_avg_reduction:.3f} K")


if __name__ == "__main__":
    main()
