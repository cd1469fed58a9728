"""Seeded inputs for the three benchmark missions.

Every field, archive and mission file is generated here, with the
benchmark's own numpy code and its own archive writer, so the inputs do
not change when the planner's synthesis or I/O code changes.  The same
seed always gives byte-identical files.

Run directly to regenerate the inputs of one workload:

    python3 bench/workloads.py --workload gyre-akima --seed 1 --out bench/work/x
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

FILL = -9999.0
SPEED = 0.3  # glider speed through water, m/s, on every workload


@dataclass
class Field:
    """A generated flow field as the archive stores it."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: np.ndarray
    u: np.ndarray  # [t][z][y][x]; FILL on land
    v: np.ndarray
    encoding: str  # "inline" (float64 text) or "binary" (float32)

    def stored(self) -> tuple[np.ndarray, np.ndarray]:
        """u, v exactly as a reader of the archive sees them."""
        if self.encoding == "binary":
            return (self.u.astype("<f4").astype(np.float64),
                    self.v.astype("<f4").astype(np.float64))
        return self.u, self.v


@dataclass
class Workload:
    """One generated mission: its flow field, its mission document, and
    facts the checks need (drift vector, island, polygons)."""

    name: str
    seed: int
    flow: Field
    mission: dict
    drift: tuple | None = None
    island: tuple | None = None  # (cx, cy, radius)
    polygons: list = field(default_factory=list)


def _gyre(x, y, t, amplitude, epsilon, period, nz):
    """Time-perturbed double gyre on [0, 2] x [0, 1] rescaled to the axes,
    with v scaled by the aspect factor so the field stays divergence-free."""
    xr = x[-1] - x[0]
    yr = y[-1] - y[0]
    xn = 2.0 * (x - x[0]) / xr
    yn = (y - y[0]) / yr
    aspect = 2.0 * yr / xr
    tt = t.reshape(-1, 1, 1, 1)
    xg = xn.reshape(1, 1, 1, -1)
    yg = yn.reshape(1, 1, -1, 1)
    a = epsilon * np.sin(2.0 * np.pi * tt / period)
    b = 1.0 - 2.0 * a
    f = a * xg * xg + b * xg
    dfdx = 2.0 * a * xg + b
    shape = (t.size, nz, y.size, x.size)
    u = np.broadcast_to(
        -np.pi * amplitude * np.sin(np.pi * f) * np.cos(np.pi * yg), shape)
    v = np.broadcast_to(
        np.pi * amplitude * aspect * np.cos(np.pi * f)
        * np.sin(np.pi * yg) * dfdx, shape)
    # a weak depth shear, so the dive band matters to the profile choice
    shear = (1.0 - 0.3 * np.arange(nz) / max(1, nz - 1)).reshape(1, -1, 1, 1)
    return u * shear, v * shear


def _stamp_island(u, v, x, y, cx, cy, radius):
    mask = ((x.reshape(1, -1) - cx) ** 2
            + (y.reshape(-1, 1) - cy) ** 2) <= radius ** 2
    u[:, :, mask] = FILL
    v[:, :, mask] = FILL


def _drift_lattice(seed: int) -> Workload:
    rng = random.Random(seed)
    extent = 50_000.0
    spacing = 5_000.0
    # drift roughly across the diagonal course, always slower than the glider
    ang = math.radians(-45.0 + rng.uniform(-3.0, 3.0))
    mag = rng.uniform(0.045, 0.055)
    cu, cv = mag * math.cos(ang), mag * math.sin(ang)
    x = np.linspace(0.0, extent, 6)
    t = np.linspace(0.0, 86_400.0, 3)
    z = np.array([0.0, 100.0])
    shape = (t.size, z.size, x.size, x.size)
    fld = Field(x, x.copy(), z, t, np.full(shape, cu), np.full(shape, cv),
                "inline")
    mission = {
        "flow": "flow.json",
        "start": {"x": spacing, "y": spacing},
        "goal": {"x": extent - spacing, "y": extent - spacing},
        "vehicle": {"speed_through_water": SPEED},
        "grid_spacing": spacing,
        "neighbor_set": 16,
        "h": 1.0,
        "n_sub": 1,
        "scheme": {"xy": "bilinear", "z": "linear", "t": "linear"},
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 20.0,
                           "z_max": 100.0, "z_min_range": 30.0,
                           "n_climb_to_levels": 3, "n_dive_to_levels": 5},
    }
    return Workload("drift-lattice", seed, fld, mission, drift=(cu, cv))


def _gyre_akima(seed: int) -> Workload:
    rng = random.Random(seed)
    extent = 32_000.0
    spacing = 8_000.0
    x = np.linspace(0.0, extent, 17)
    z = np.array([0.0, 40.0, 80.0, 120.0])
    t = np.linspace(0.0, 345_600.0, 13)
    u, v = _gyre(x, x, t, amplitude=0.03, epsilon=0.25, period=86_400.0,
                 nz=z.size)
    icx = 18_000.0 + rng.uniform(-1_000.0, 1_000.0)
    icy = 10_000.0 + rng.uniform(-1_000.0, 1_000.0)
    _stamp_island(u, v, x, x, icx, icy, 4_000.0)
    px = 16_000.0 + rng.uniform(-1_000.0, 1_000.0)
    py = 24_000.0 + rng.uniform(-1_000.0, 1_000.0)
    poly = [[px - 4_000.0, py - 4_000.0], [px + 4_000.0, py - 4_000.0],
            [px + 4_000.0, py + 4_000.0], [px - 4_000.0, py + 4_000.0]]
    start = (round(3_000.0 + rng.uniform(-500.0, 500.0)),
             round(3_000.0 + rng.uniform(-500.0, 500.0)))
    goal = (round(29_000.0 + rng.uniform(-500.0, 500.0)),
            round(29_000.0 + rng.uniform(-500.0, 500.0)))
    fld = Field(x, x.copy(), z, t, u, v, "binary")
    mission = {
        "flow": "flow.bin",
        "start": {"x": start[0], "y": start[1]},
        "goal": {"x": goal[0], "y": goal[1]},
        "start_time": 3_600.0,
        "vehicle": {"speed_through_water": SPEED},
        "grid_spacing": spacing,
        "neighbor_set": 16,
        "h": 0.25,
        "n_sub": 2,
        "scheme": {"xy": "bicubic", "z": "akima", "t": "akima"},
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 20.0,
                           "z_max": 120.0, "z_min_range": 20.0,
                           "n_climb_to_levels": 2, "n_dive_to_levels": 3},
        "cost_mode": "fastest",
        "restricted_areas": [poly],
        "projection_origin": {"lat": 47.5, "lon": -52.7},
    }
    return Workload("gyre-akima", seed, fld, mission,
                    island=(icx, icy, 4_000.0), polygons=[poly])


def _strong_gyre(seed: int) -> Workload:
    rng = random.Random(seed)
    extent = 120_000.0
    spacing = 10_000.0
    x = np.linspace(0.0, extent, 261)
    z = np.array([0.0, 150.0])
    t = np.linspace(0.0, 172_800.0, 5)
    # peak jet 2*pi*A = 0.53 m/s, well above the glider's 0.3 m/s
    u, v = _gyre(x, x, t, amplitude=0.085, epsilon=0.2, period=86_400.0,
                 nz=z.size)
    icx = 30_000.0 + rng.uniform(-3_000.0, 3_000.0)
    icy = 80_000.0 + rng.uniform(-3_000.0, 3_000.0)
    _stamp_island(u, v, x, x, icx, icy, 9_000.0)
    start = (round(8_000.0 + rng.uniform(-1_000.0, 1_000.0)),
             round(10_000.0 + rng.uniform(-1_000.0, 1_000.0)))
    goal = (round(110_000.0 + rng.uniform(-1_000.0, 1_000.0)),
            round(108_000.0 + rng.uniform(-1_000.0, 1_000.0)))
    fld = Field(x, x.copy(), z, t, u, v, "inline")
    mission = {
        "flow": "flow.json",
        "start": {"x": start[0], "y": start[1]},
        "goal": {"x": goal[0], "y": goal[1]},
        "vehicle": {"speed_through_water": SPEED},
        "grid_spacing": spacing,
        "neighbor_set": 16,
        "h": 1.0,
        "n_sub": 2,
        "scheme": {"xy": "bilinear", "z": "linear", "t": "linear"},
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 20.0,
                           "z_max": 150.0, "z_min_range": 40.0,
                           "n_climb_to_levels": 2, "n_dive_to_levels": 3},
        "cost_mode": "max_amplitude",
        "slack_factor": 1.1,
    }
    return Workload("strong-gyre", seed, fld, mission,
                    island=(icx, icy, 9_000.0))


_BUILDERS = {"drift-lattice": _drift_lattice, "gyre-akima": _gyre_akima,
             "strong-gyre": _strong_gyre}
WORKLOADS = tuple(_BUILDERS)


def make_workload(name: str, seed: int) -> Workload:
    return _BUILDERS[name](seed)


def write_archive(fld: Field, path: str) -> None:
    """Write the field in the archive format the planner reads."""
    header = {
        "version": 1,
        "encoding": fld.encoding,
        "fill_sentinel": FILL,
        "axes": {"x": fld.x.tolist(), "y": fld.y.tolist(),
                 "z": fld.z.tolist(), "t": fld.t.tolist()},
    }
    if fld.encoding == "inline":
        header["u"] = fld.u.ravel().tolist()
        header["v"] = fld.v.ravel().tolist()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, separators=(",", ":"))
        return
    # the header records the byte offset of the data blocks, which
    # depends on the header's own length
    offset = 0
    while True:
        header["data_offset"] = offset
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        if len(blob) + 1 == offset:
            break
        offset = len(blob) + 1
    with open(path, "wb") as fh:
        fh.write(blob + b"\n")
        fh.write(np.ascontiguousarray(fld.u, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(fld.v, dtype="<f4").tobytes())


def write_inputs(wl: Workload, out_dir: str) -> str:
    """Write the archive and mission file; returns the mission path."""
    os.makedirs(out_dir, exist_ok=True)
    write_archive(wl.flow, os.path.join(out_dir, wl.mission["flow"]))
    path = os.path.join(out_dir, "mission.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wl.mission, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description="Write one workload's inputs.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()
    print(write_inputs(make_workload(args.workload, args.seed), args.out))


if __name__ == "__main__":
    main()
