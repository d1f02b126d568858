#!/usr/bin/env python3
"""Optimization gain versus the number of stacked memory layers.

Runs the full placement flow on the core+memory benchmark with 1..4 memory
layers and tabulates core-layer peak and stack-average temperatures before
and after, mirroring the layer-count study layout.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tsvplan.anneal import AnnealConfig, FlowConfig
from tsvplan.design_io import parse_design
from tsvplan.sweeps import format_sweep_table, run_sweep


def main():
    design = parse_design(REPO / "designs" / "corememory.design")
    anneal = AnnealConfig(seed=3, max_moves=40, cooling=0.88)
    flow = FlowConfig(outer_iterations=2)
    points = run_sweep(design, "layers", [1, 2, 3, 4], anneal, flow)
    print(format_sweep_table("layers", points))
    print()
    for p in points:
        if p.status == "ok":
            print(f"memory layers {int(p.value)}: core peak reduction "
                  f"{p.peak_reduction:.3f} K, stack avg reduction "
                  f"{p.stack_avg_reduction:.3f} K")


if __name__ == "__main__":
    main()
