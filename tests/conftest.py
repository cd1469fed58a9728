"""Shared fixtures: small flow grids with known analytic structure, and
one-point views of the batched kernels (sample_batch, and the leg
timer as tests/oracles.py keeps it)."""

import collections
import json
import math

import numpy as np
import pytest

import gliderplan.mission as mission_mod
import gliderplan.search as search_mod
from gliderplan.errors import OutOfDomainError
from gliderplan.flowfield import (DEFAULT_SCHEME, SAMPLE_OUT_OF_DOMAIN,
                                  FlowGrid, InterpScheme, sample_batch,
                                  save_flow_grid, synth_field)
from gliderplan.kinematics import INFEASIBLE

from oracles import slant_times_reference


def make_uniform_grid(u0=0.0, v0=0.0, extent=100_000.0, depth=200.0,
                      duration=86_400.0, n=6, nz=3, nt=3):
    return synth_field(
        "uniform",
        np.linspace(0.0, extent, n),
        np.linspace(0.0, extent, n),
        np.linspace(0.0, depth, nz),
        np.linspace(0.0, duration, nt),
        params={"u0": u0, "v0": v0})


def make_gyre_grid(amplitude=0.04, extent=60_000.0, n=25, nt=5,
                   period=43_200.0):
    # on a square domain the divergence-free form doubles v, so the
    # peak current is 2*pi*amplitude; 0.04 keeps it below 0.3 m/s
    return synth_field(
        "gyre",
        np.linspace(0.0, extent, n),
        np.linspace(0.0, extent, n),
        (0.0, 120.0),
        np.linspace(0.0, period, nt),
        params={"amplitude": amplitude, "epsilon": 0.25, "period": period})


def write_gyre_mission(tmp_path, amplitude=0.035):
    """Acceptance test 8's mission: a 16-neighbour lattice over a gyre."""
    grid = make_gyre_grid(amplitude=amplitude)
    save_flow_grid(grid, tmp_path / "gyre.json")
    doc = {
        "flow": "gyre.json",
        "start": {"x": 5_000.0, "y": 5_000.0},
        "goal": {"x": 55_000.0, "y": 55_000.0},
        "vehicle": {"speed_through_water": 0.3},
        "grid_spacing": 5_000.0,
        "neighbor_set": 16,
        "h": 0.5,
        "n_sub": 2,
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                           "z_max": 60.0, "z_min_range": 30.0,
                           "n_dive_to_levels": 3},
    }
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def count_kernel_calls(monkeypatch) -> collections.Counter:
    """Count run_mission's leg-kernel calls by stage: "before", "smoothing"
    and "after" smooth_path.  Returns the Counter the calls fill."""
    calls = collections.Counter()
    stage = ["before"]
    kernel, smooth = search_mod.profile_times, mission_mod.smooth_path

    def counted(*args):
        calls[stage[0]] += 1
        return kernel(*args)

    def smoothing(*args):
        stage[0] = "smoothing"
        try:
            return smooth(*args)
        finally:
            stage[0] = "after"

    monkeypatch.setattr(search_mod, "profile_times", counted)
    monkeypatch.setattr(mission_mod, "smooth_path", smoothing)
    return calls


def make_tidal_grid(amplitude=0.2, period=43_200.0, extent=100_000.0,
                    nt=33, depth=200.0):
    # dense time axis so linear t-interpolation tracks the sine closely
    return synth_field(
        "tidal_channel",
        np.linspace(0.0, extent, 6),
        np.linspace(0.0, extent, 6),
        (0.0, depth),
        np.linspace(0.0, 2.0 * period, nt),
        params={"amplitude": amplitude, "period": period})


def make_land_grid(extent=50_000.0, n=6):
    """Uniform 0.05 m/s eastward flow with a filled (land) column x=idx 3."""
    grid = make_uniform_grid(u0=0.05, extent=extent, n=n, nz=2, nt=2)
    u = grid.u.copy()
    v = grid.v.copy()
    u[:, :, :, 3] = grid.fill_sentinel
    v[:, :, :, 3] = grid.fill_sentinel
    return FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                    grid.t_steps, u, v, fill_sentinel=grid.fill_sentinel)


def random_grid(rng, nx, ny, nz, nt, scale=1.0, land=True):
    """Irregular axes, random currents, one land column and one stray
    fill node (so stencils can touch fill without being land)."""
    x = np.cumsum(rng.uniform(500.0, 2_000.0, nx))
    y = np.cumsum(rng.uniform(500.0, 2_000.0, ny))
    z = np.cumsum(rng.uniform(5.0, 40.0, nz)) - 5.0
    t = np.cumsum(rng.uniform(600.0, 3_600.0, nt))
    u = rng.uniform(-scale, scale, (nt, nz, ny, nx))
    v = rng.uniform(-scale, scale, (nt, nz, ny, nx))
    if land and nx > 3 and ny > 3:
        u[:, :, ny // 2, nx // 2] = -9999.0
        v[:, :, ny // 2, nx // 2] = -9999.0
        u[0, 0, 1, nx - 2] = -9999.0
    return FlowGrid(x, y, z, t, u, v)


@pytest.fixture
def still_grid():
    return make_uniform_grid()


@pytest.fixture
def east_grid():
    return make_uniform_grid(u0=0.1)


@pytest.fixture
def gyre_grid():
    return make_gyre_grid()


@pytest.fixture
def tidal_grid():
    return make_tidal_grid()


@pytest.fixture
def land_grid():
    return make_land_grid()


def _slice_grid(x_coords, y_coords, z_levels, values) -> FlowGrid:
    # NaN as the sentinel: every finite value is data, not land
    values = np.asarray(values, dtype=np.float64).reshape(
        1, len(z_levels), len(y_coords), len(x_coords))
    return FlowGrid(x_coords, y_coords, z_levels, (0.0,), values,
                    np.zeros_like(values), fill_sentinel=math.nan)


def interp_1d(knots, values, q: float, method: str) -> float:
    """Interpolate 1-D samples at q through sample_batch's depth stage.

    method is one of nearest, linear, cubic (Catmull-Rom) or akima.
    Queries outside the knot range clamp to the boundary value, and the
    method degrades when the axis has too few knots.
    """
    grid = _slice_grid((0.0,), (0.0,), list(knots), list(values))
    u, _, _ = sample_batch(grid, 0.0, 0.0, q, 0.0,
                           InterpScheme("nearest", method, "nearest"))
    return float(u[0])


def interp_xy(layer, x_coords, y_coords, x: float, y: float,
              method: str = "bilinear") -> float:
    """Interpolate a 2-D slice (indexed [y][x]) at one position through
    sample_batch's horizontal stage; outside the axes raises
    OutOfDomainError."""
    grid = _slice_grid(list(x_coords), list(y_coords), (0.0,), layer)
    u, _, reason = sample_batch(grid, x, y, 0.0, 0.0,
                                InterpScheme(method, "nearest", "nearest"))
    if reason[0] == SAMPLE_OUT_OF_DOMAIN:
        raise OutOfDomainError(
            f"position ({x:g}, {y:g}) outside slice domain")
    return float(u[0])


def travel_time(p_start, p_end, t_start: float, grid, vehicle,
                scheme=DEFAULT_SCHEME, n_sub: int = 4) -> float:
    """One straight 3-D leg's time through slant_times_reference, which
    samples through sample_batch, or INFEASIBLE."""
    if math.isinf(t_start):
        return INFEASIBLE
    dt, ok = slant_times_reference(
        grid, vehicle, *(np.array([float(c)]) for c in (*p_start, *p_end)),
        t_start, scheme, n_sub)
    return float(dt[0]) if ok[0] else INFEASIBLE
