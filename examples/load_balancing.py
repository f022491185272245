#!/usr/bin/env python3
"""Smarter exploitation of flow-based load balancing (paper §4.4 / Figure 2c).

A file transfer crosses two routers that ECMP-hash every subflow onto one of
four 8 Mbps paths.  Compares the in-kernel ndiffports strategy (five random
subflows, collisions and all) against the RefreshController, which polls each
subflow's pacing rate every 2.5 s and replaces the slowest one.  Runs the
``fig2c`` campaign grid at the given size: one ``bulk_transfer``/``ecmp``
cell per seed and controller.

Run with:  python examples/load_balancing.py [--runs 4] [--scale 0.05]
           --scale is the fraction of the paper's 100 MB transfer.
"""

import argparse

from repro.experiments.fig2c_loadbalance import run_fig2c


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=4, help="seeds per variant")
    parser.add_argument("--scale", type=float, default=0.05, help="fraction of the 100 MB transfer")
    args = parser.parse_args()

    result = run_fig2c(seeds=args.runs, scale=args.scale)
    print(result.format_report())
    speedup = result.cdf_ndiffports.mean / result.cdf_refresh.mean
    print(f"\nmean completion time: refresh is {speedup:.2f}x faster than ndiffports at this scale")


if __name__ == "__main__":
    main()
