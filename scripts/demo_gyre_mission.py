#!/usr/bin/env python3
"""End-to-end demo on a synthetic double-gyre field.

Synthesizes a time-perturbed gyre archive, writes a mission file, plans
it with `gliderplan plan`, which drops waypoints.json, plan.svg, and
summary.txt into the output directory.  Run it from anywhere:

    python3 scripts/demo_gyre_mission.py --out demo-out
"""

import argparse
import json
import os
import sys

import numpy as np

from gliderplan.cli import main as cli_main
from gliderplan.flowfield import save_flow_grid, synth_field


def build_field(path, amplitude):
    grid = synth_field(
        "gyre",
        np.linspace(0.0, 120_000.0, 41),
        np.linspace(0.0, 60_000.0, 21),
        (0.0, 150.0),
        np.linspace(0.0, 43_200.0, 7),
        params={"amplitude": amplitude, "epsilon": 0.3, "period": 43_200.0})
    save_flow_grid(grid, path)


def build_mission(path, flow_name):
    doc = {
        "flow": flow_name,
        "start": {"x": 8_000.0, "y": 8_000.0},
        "goal": {"x": 112_000.0, "y": 52_000.0},
        "start_time": 0.0,
        "vehicle": {"speed_through_water": 0.3},
        "grid_spacing": 4_000.0,
        "neighbor_set": 16,
        "h": 0.25,
        "n_sub": 2,
        "profile_family": {"z_min": 5.0, "z_climb_to_max": 20.0,
                           "z_max": 140.0, "z_min_range": 40.0,
                           "n_climb_to_levels": 2, "n_dive_to_levels": 3},
        "cost_mode": "fastest",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-out", help="output directory")
    parser.add_argument("--amplitude", type=float, default=0.04,
                        help="gyre speed scale, m/s")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    mission_path = os.path.join(args.out, "mission.json")
    build_field(os.path.join(args.out, "gyre.json"), args.amplitude)
    build_mission(mission_path, "gyre.json")
    return cli_main(["plan", mission_path, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
