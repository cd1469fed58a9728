"""Shared fixtures: small flow grids with known analytic structure."""

import numpy as np
import pytest

from gliderplan.flowfield import FlowGrid, synth_field


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
