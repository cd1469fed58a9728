"""Batched sampling and leg timing against the scalar reference loops.

sample_batch and the leg kernel keep the scalar loops' arithmetic order
(stencil sums over x, then y, then z, then t; time accumulated per
segment), so valid samples and feasible leg times are expected to match
tests/oracles.py exactly; the leg check still only asks for 1e-10
relative, which also covers the sqrt conditioning as c_perp -> speed.
"""

import itertools
import math

import numpy as np
import pytest

from gliderplan.errors import LandContactError, OutOfDomainError
from gliderplan.flowfield import (SAMPLE_LAND, SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN,
                                  XY_METHODS, ZT_METHODS, FlowGrid,
                                  InterpScheme, sample, sample_batch)
from gliderplan.kinematics import (DiveProfile, ProfileFamilySpec, VehicleSpec,
                                   glider_travel_time, make_dive_profiles,
                                   profile_times, travel_time)

from conftest import random_grid
from oracles import (glider_travel_time_reference, sample_reference,
                     travel_time_reference)

SCHEMES = [InterpScheme(xy, z, t)
           for xy, z, t in itertools.product(XY_METHODS, ZT_METHODS, ZT_METHODS)]
V03 = VehicleSpec(0.3)


def reference_or_reason(grid, x, y, z, t, scheme):
    try:
        return SAMPLE_OK, sample_reference(grid, x, y, z, t, scheme)
    except OutOfDomainError:
        return SAMPLE_OUT_OF_DOMAIN, None
    except LandContactError:
        return SAMPLE_LAND, None


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 3, 2, 2), (3, 3, 3, 3),
                                  (7, 6, 4, 8), (9, 8, 7, 10)])
def test_sample_batch_matches_reference_for_every_scheme(dims):
    rng = np.random.RandomState(sum(dims))
    grid = random_grid(rng, *dims)
    xs, ys, zs, ts = grid.x_coords, grid.y_coords, grid.z_levels, grid.t_steps
    n = 60
    # a margin outside every axis: out-of-domain heads, clamped depths/times
    x = rng.uniform(xs[0] - 300.0, xs[-1] + 300.0, n)
    y = rng.uniform(ys[0] - 300.0, ys[-1] + 300.0, n)
    z = rng.uniform(zs[0] - 10.0, zs[-1] + 10.0, n)
    t = rng.uniform(ts[0] - 900.0, ts[-1] + 900.0, n)
    x[:10] = rng.choice(xs, 10)  # exactly on knots
    z[:10] = rng.choice(zs, 10)
    t[10:20] = rng.choice(ts, 10)
    for scheme in SCHEMES:
        u, v, reason = sample_batch(grid, x, y, z, t, scheme)
        for k in range(n):
            why, ref = reference_or_reason(grid, x[k], y[k], z[k], t[k], scheme)
            assert reason[k] == why, (scheme, k)
            if why == SAMPLE_OK:
                assert (u[k], v[k]) == ref, (scheme, k)


def test_sample_raises_exactly_where_the_reference_raises():
    rng = np.random.RandomState(5)
    grid = random_grid(rng, 8, 7, 3, 4)
    scheme = InterpScheme("bicubic", "akima", "cubic")
    seen = set()
    for _ in range(300):
        x = rng.uniform(grid.x_coords[0] - 500.0, grid.x_coords[-1] + 500.0)
        y = rng.uniform(grid.y_coords[0] - 500.0, grid.y_coords[-1] + 500.0)
        z, t = rng.uniform(0.0, 80.0), rng.uniform(0.0, 9_000.0)
        why, ref = reference_or_reason(grid, x, y, z, t, scheme)
        seen.add(why)
        if why == SAMPLE_OUT_OF_DOMAIN:
            with pytest.raises(OutOfDomainError):
                sample(grid, x, y, z, t, scheme)
        elif why == SAMPLE_LAND:
            with pytest.raises(LandContactError):
                sample(grid, x, y, z, t, scheme)
        else:
            assert tuple(sample(grid, x, y, z, t, scheme)) == ref
    assert seen == {SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN, SAMPLE_LAND}


def assert_leg_agrees(got, ref):
    # feasibility must agree; a feasible time to 1e-10 relative
    assert math.isinf(got) == math.isinf(ref), (got, ref)
    if not math.isinf(ref):
        assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: "-".join(
    (s.xy_method, s.z_method, s.t_method)))
def test_leg_kernel_matches_reference_for_every_scheme(scheme):
    rng = np.random.RandomState(17)
    # currents up to 0.28 m/s against a 0.3 m/s glider: some legs are
    # rejected for cross current or for being swept back, others for
    # land or for leaving the domain
    grid = random_grid(rng, 12, 10, 4, 5, scale=0.2)
    family = make_dive_profiles(ProfileFamilySpec(0.0, 20.0, 100.0, 30.0, 2, 2))
    x0, y0, x1, y1 = (float(c) for c in grid.horizontal_bounds())
    outcomes = set()
    for _ in range(4):
        start = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        # some heads fall outside the domain
        heads = [(start[0] + rng.uniform(-4_000.0, 4_000.0),
                  start[1] + rng.uniform(-4_000.0, 4_000.0)) for _ in range(3)]
        depart = rng.uniform(0.0, 6_000.0)
        times = profile_times(start, heads, depart, family, grid, V03,
                              h=0.5, scheme=scheme, n_sub=2)
        assert times.shape == (len(heads), len(family))
        for i, head in enumerate(heads):
            for j, prof in enumerate(family):
                ref = glider_travel_time_reference(start, head, prof, depart,
                                                   grid, V03, 0.5, scheme, 2)
                assert_leg_agrees(times[i, j], ref)
                outcomes.add(math.isinf(ref))
    assert outcomes == {True, False}


def test_legs_near_the_speed_boundary():
    # a cross current within a hair of the glider's speed, either side
    speed = 0.3
    x = np.linspace(0.0, 50_000.0, 5)
    z = np.array([0.0, 100.0])
    t = np.array([0.0, 86_400.0])
    family = [DiveProfile(0.0, 60.0)]
    for rel in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6):
        v0 = speed * (1.0 + rel)
        grid = FlowGrid(x, x, z, t, np.full((2, 2, 5, 5), 0.01),
                        np.full((2, 2, 5, 5), v0))
        for heading in (0.0, 1e-9, 1e-3, math.pi - 1e-3):
            head = (10_000.0 + 30_000.0 * math.cos(heading),
                    25_000.0 + 30_000.0 * math.sin(heading))
            got = profile_times((10_000.0, 25_000.0), [head], 0.0, family,
                                grid, VehicleSpec(speed), h=1.0, n_sub=3)
            ref = glider_travel_time_reference(
                (10_000.0, 25_000.0), head, family[0], 0.0, grid,
                VehicleSpec(speed), 1.0, InterpScheme(), 3)
            assert_leg_agrees(float(got[0, 0]), ref)


@pytest.mark.parametrize("n_t, t_method", [(1, "linear"), (2, "nearest")])
def test_a_cross_current_past_the_glider_is_infeasible_on_a_nearest_t_axis(
        n_t, t_method):
    # a 0.5 m/s northward current against a 0.3 m/s glider flying east
    # leaves the lane's time NaN; later sub-steps sample at that time, and
    # the nearest t stencil must keep it on the grid when there is land
    x = np.linspace(0.0, 40_000.0, 5)
    z = np.array([0.0, 100.0])
    t = np.arange(n_t) * 86_400.0
    u = np.zeros((n_t, 2, 5, 5))
    v = np.full((n_t, 2, 5, 5), 0.5)
    u[:, :, 4, 4] = v[:, :, 4, 4] = np.nan  # one land column
    grid = FlowGrid(x, x, z, t, u, v)
    assert grid.land_mask.sum() == 1
    scheme = InterpScheme("bilinear", "linear", t_method)
    got = profile_times((5_000.0, 5_000.0), [(30_000.0, 5_000.0)] * 2, 0.0,
                        [DiveProfile(0.0, 60.0)], grid, V03, h=0.5,
                        scheme=scheme, n_sub=3)
    assert got.shape == (2, 1) and np.isinf(got).all()
    ref = glider_travel_time_reference((5_000.0, 5_000.0), (30_000.0, 5_000.0),
                                       DiveProfile(0.0, 60.0), 0.0, grid, V03,
                                       0.5, scheme, 3)
    assert math.isinf(ref)


def test_slant_leg_matches_reference():
    rng = np.random.RandomState(23)
    grid = random_grid(rng, 6, 6, 3, 4, scale=0.2)
    x0, y0, x1, y1 = (float(c) for c in grid.horizontal_bounds())
    for scheme in (InterpScheme(), InterpScheme("bicubic", "akima", "akima")):
        for _ in range(40):
            p0 = (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(0, 50))
            p1 = (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(0, 50))
            t0 = rng.uniform(0.0, 5_000.0)
            assert_leg_agrees(
                travel_time(p0, p1, t0, grid, V03, scheme, 3),
                travel_time_reference(p0, p1, t0, grid, V03, scheme, 3))
    assert travel_time((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0, grid, V03) == 0.0


def test_a_leg_times_the_same_alone_and_in_a_wide_batch():
    # each head flies from its own tail at its own departure, as in a
    # prefetch of several fan-outs; one departure is INFEASIBLE
    rng = np.random.RandomState(31)
    grid = random_grid(rng, 9, 9, 4, 6, scale=0.1, land=False)
    scheme = InterpScheme("bicubic", "akima", "akima")
    family = make_dive_profiles(ProfileFamilySpec(0.0, 20.0, 100.0, 30.0, 3, 5))
    assert len(family) == 12
    x0, y0, x1, y1 = (float(c) for c in grid.horizontal_bounds())
    tails = [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(16)]
    heads = [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(16)]
    departs = rng.uniform(0.0, 5_000.0, 16)
    departs[5] = math.inf
    wide = profile_times(tails, heads, departs, family, grid, V03, h=0.25,
                         scheme=scheme, n_sub=2)
    assert wide.size == 192 and np.isfinite(wide).any()
    assert np.isinf(wide[5]).all()
    for i, head in enumerate(heads):
        for j, prof in enumerate(family):
            alone = glider_travel_time(tails[i], head, prof, departs[i], grid,
                                       V03, 0.25, scheme, 2)
            assert alone == wide[i, j] or (math.isinf(alone)
                                           and math.isinf(wide[i, j]))
