#!/usr/bin/env python3
"""Peak temperature of the ringed hot block versus farm conductivity.

Analysis only (no optimization): shows the lateral blockage of insulated
farms in thinned silicon and how it vanishes as the farm conductivity
approaches that of bulk silicon.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tsvplan.design_io import parse_design
from tsvplan.sweeps import set_farm_conductivity
from tsvplan.thermal import couple_leakage, grid_for

LADDER = [0.5, 1.0, 2.75, 5.0, 23.1, 149.0, 173.0]


def main():
    print(f"{'k_farm (W/mK)':>14} {'peak T (K)':>12} {'avg T (K)':>12}")
    shipped = parse_design(REPO / "designs" / "blockage.design")
    baseline = None
    for k in LADDER:
        design = set_farm_conductivity(shipped, k)
        field = couple_leakage(design, grid_for(design.stack)).field
        if baseline is None:
            baseline = field.peak
        print(f"{k:>14.2f} {field.peak:>12.3f} {field.average:>12.3f}"
              f"   (peak vs k=0.5: {field.peak - baseline:+.3f} K)")


if __name__ == "__main__":
    main()
