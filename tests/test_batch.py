"""Batched sampling and leg timing against the scalar reference loops.

sample_batch and the leg kernel keep the scalar loops' arithmetic order
(stencil sums over x, then y, then z, then t; time accumulated per
segment), so valid samples and feasible leg times are expected to match
tests/oracles.py exactly; the leg check still only asks for 1e-10
relative, which also covers the sqrt conditioning as c_perp -> speed.
"""

import collections
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gliderplan.flowfield as flowfield_mod
import gliderplan.kinematics as kinematics_mod
import gliderplan.mission as mission_mod
import gliderplan.search as search_mod
from gliderplan.cli import EXIT_OK, main as cli_main
from gliderplan.mission import parse_mission, run_mission

from gliderplan.errors import LandContactError, OutOfDomainError
from gliderplan.flowfield import (SAMPLE_LAND, SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN,
                                  XY_METHODS, ZT_METHODS, FlowGrid,
                                  InterpScheme, sample, sample_batch,
                                  save_flow_grid, synth_field)
from gliderplan.kinematics import (DiveProfile, ProfileFamilySpec, VehicleSpec,
                                   glider_travel_time, make_dive_profiles,
                                   profile_times)

from conftest import random_grid, travel_time, write_gyre_mission
from oracles import (glider_travel_time_reference, profile_times_reference,
                     sample_batch_reference, sample_reference,
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


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and bool(np.all(a.view(np.int64)
                                              == b.view(np.int64)))


def assert_kernel_equals_reference(grid, x, y, z, t, scheme):
    """The reason everywhere and u, v bit for bit where it is SAMPLE_OK."""
    u, v, why = sample_batch(grid, x, y, z, t, scheme)
    ru, rv, rwhy = sample_batch_reference(grid, x, y, z, t, scheme)
    assert why.dtype == np.int8 and np.array_equal(why, rwhy)
    ok = rwhy == SAMPLE_OK
    assert same_bits(u[ok], ru[ok]) and same_bits(v[ok], rv[ok])


@st.composite
def column_cases(draw):
    """A random grid (land columns, stray fill nodes, 1-8 knots per axis,
    axes from 0) and C columns of K points: depths across several levels,
    times across time cells, and NaN, inf, -0.0 or off-grid entries."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    nx, ny, nz, nt = (draw(st.integers(1, 8)) for _ in range(4))
    axes = [np.concatenate(([0.0], np.cumsum(rng.uniform(lo, hi, n - 1))))
            for n, lo, hi in ((nx, 500.0, 2_000.0), (ny, 500.0, 2_000.0),
                              (nz, 5.0, 40.0), (nt, 600.0, 3_600.0))]
    shape = (nt, nz, ny, nx)
    u, v = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    fill = draw(st.sampled_from([-9999.0, math.nan]))
    land = rng.uniform(size=(ny, nx)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    stray = rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.02]))
    u[:, :, land] = fill
    v[stray] = fill
    grid = FlowGrid(*axes, u, v, fill_sentinel=fill)
    scheme = draw(st.sampled_from(SCHEMES))
    n_col, k = draw(st.integers(1, 6)), draw(st.integers(1, 12))

    def spread(ax, n, margin):
        return rng.uniform(ax[0] - margin, ax[-1] + margin, n)

    xs, ys, zs, ts = axes
    x = spread(xs, n_col, 300.0).reshape(-1, 1)
    y = spread(ys, n_col, 300.0).reshape(-1, 1)
    on_knot = rng.uniform(size=n_col) < 0.3
    x[on_knot, 0] = rng.choice(xs, on_knot.sum())
    z = spread(zs, (n_col, k), 10.0)
    cell = ts[-1] / max(1, nt - 1) if nt > 1 else 1_000.0
    t = spread(ts, (n_col, 1), 900.0) + rng.uniform(-1.5, 1.5, (n_col, k)) * cell
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    for arr in (x, y, z, t):
        hit = rng.uniform(size=arr.shape) < draw(st.sampled_from([0.0, 0.15]))
        arr[hit] = rng.choice(specials, hit.sum())
    return grid, x, y, z, t, scheme


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(column_cases())
def test_column_kernel_equals_the_per_point_reference(case):
    grid, x, y, z, t, scheme = case
    assert_kernel_equals_reference(grid, x, y, z, t, scheme)
    # the same points as columns of one point
    flat = [np.broadcast_to(a, z.shape).reshape(-1) for a in (x, y, z, t)]
    assert_kernel_equals_reference(grid, *flat, scheme)


def test_column_kernel_shapes():
    rng = np.random.RandomState(3)
    grid = random_grid(rng, 5, 5, 3, 4)
    u, v, why = sample_batch(grid, [[2_000.0], [3_000.0]], [[2_500.0], [1.0]],
                             [5.0, 20.0, 40.0], [[900.0] * 3, [1e4] * 3])
    assert u.shape == v.shape == why.shape == (2, 3)
    assert sample_batch(grid, 2_000.0, 2_500.0, 5.0, 900.0)[0].shape == (1,)
    assert sample_batch(grid, [], [], [], [])[0].shape == (0,)
    with pytest.raises(ValueError):  # x must be one value per column
        sample_batch(grid, np.ones((2, 3)), np.ones((2, 1)),
                     np.ones((2, 3)), np.ones((2, 3)))


@st.composite
def leg_cases(draw):
    """A random grid (land columns, stray fill, 1-6 knots per space axis
    and 1-12 in time, time cells of 1-11 minutes, so that a leg spans
    many, or of 1-11 hours, so that its window fits) with
    currents up to twice the glider's speed, at times over a westward
    drift that sets clocks back past their window, H tails and heads
    partly outside the domain, P dive bands partly outside the depth
    axis, and departures partly INFEASIBLE, NaN or off the time axis."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    nx, ny, nz = (draw(st.integers(1, 6)) for _ in range(3))
    nt = draw(st.integers(1, 12))
    cell = draw(st.sampled_from([60.0, 3_600.0]))
    axes = [np.concatenate(([0.0], np.cumsum(rng.uniform(lo, hi, n - 1))))
            for n, lo, hi in ((nx, 500.0, 2_000.0), (ny, 500.0, 2_000.0),
                              (nz, 5.0, 40.0), (nt, cell, 11 * cell))]
    shape = (nt, nz, ny, nx)
    scale = draw(st.sampled_from([0.05, 0.3, 0.6]))
    u, v = (rng.uniform(-scale, scale, shape) for _ in range(2))
    u += draw(st.sampled_from([0.0, -0.25]))
    land = rng.uniform(size=(ny, nx)) < draw(st.sampled_from([0.0, 0.2]))
    u[:, :, land] = v[:, :, land] = -9999.0
    v[rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.02]))] = -9999.0
    grid = FlowGrid(*axes, u, v)
    xs, ys, zs, ts = axes
    n_h, n_p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    tails = np.column_stack([rng.uniform(a[0] - 300.0, a[-1] + 300.0, n_h)
                             for a in (xs, ys)])
    heads = np.column_stack([rng.uniform(a[0] - 300.0, a[-1] + 300.0, n_h)
                             for a in (xs, ys)])
    tops = rng.uniform(zs[0] - 10.0, zs[-1] + 5.0, n_p)
    profiles = [DiveProfile(c, c + d) for c, d in
                zip(tops, rng.uniform(1.0, 60.0, n_p))]
    departs = rng.uniform(ts[0] - 900.0, ts[-1] + 900.0, n_h)
    dead = rng.uniform(size=n_h) < 0.2
    departs[dead] = rng.choice([math.inf, math.nan], dead.sum())
    h = draw(st.sampled_from([1.0, 0.5, 0.25, 0.3]))
    return (tails, heads, departs, profiles, grid, V03, h,
            draw(st.sampled_from(SCHEMES)), draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leg_cases())
def test_leg_kernel_equals_one_sample_batch_call_per_sub_step(case):
    assert same_bits(profile_times(*case), profile_times_reference(*case))


def count_gathers(monkeypatch):
    """Record the leg kernel's space stages (their window widths and
    column counts) and any sample_batch call made through flowfield."""
    seen = {"space": [], "columns": [], "sample_batch": []}
    space, plain = kinematics_mod.space_stage, flowfield_mod.sample_batch

    def spied_space(grid, x, y, z, lo, n_wt, scheme):
        seen["space"].append(n_wt)
        seen["columns"].append(x.size)
        return space(grid, x, y, z, lo, n_wt, scheme)

    def spied_plain(grid, x, y, z, t, scheme):
        seen["sample_batch"].append(np.size(t))
        return plain(grid, x, y, z, t, scheme)

    monkeypatch.setattr(kinematics_mod, "space_stage", spied_space)
    monkeypatch.setattr(flowfield_mod, "sample_batch", spied_plain)
    return seen


def adverse_grid():
    """8-hour time cells under a current that sets a glider flying east
    back to 0.1 m/s near the surface and across at 0.45 m/s, past its
    speed, below 60 m."""
    x = np.linspace(0.0, 40_000.0, 9)
    z = np.array([0.0, 60.0, 100.0])
    t = np.arange(0.0, 400_000.0, 28_800.0)
    u = np.broadcast_to(np.array([-0.2, -0.2, 0.0])[:, None, None],
                        (t.size, 3, 9, 9))
    v = np.broadcast_to(np.array([0.0, 0.45, 0.45])[:, None, None],
                        (t.size, 3, 9, 9))
    return FlowGrid(x, x, z, t, u, v)


def test_clocks_that_leave_the_window_gather_again_and_time_the_same(
        monkeypatch):
    # the first window holds all 8 sub-steps of the 6 heads up to their
    # still-water arrivals; the current sets clocks back past it, so a
    # window opens again from their clocks, and nothing calls sample_batch
    grid = adverse_grid()
    seen = count_gathers(monkeypatch)
    args = ([(2_000.0, 5_000.0 * k) for k in range(1, 7)],
            [(30_000.0, 5_000.0 * k) for k in range(1, 7)],
            np.linspace(0.0, 3_000.0, 6), [DiveProfile(0.0, 10.0)], grid,
            V03, 0.25, InterpScheme("bicubic", "akima", "akima"), 2)
    times = profile_times(*args)
    assert seen["columns"][0] == 8 * 6 and len(seen["space"]) > 1
    assert not seen["sample_batch"] and np.isfinite(times).all()
    assert not hasattr(kinematics_mod, "sample_batch")
    assert same_bits(times, profile_times_reference(*args))


def test_dead_lanes_widen_no_window_and_gather_nothing(monkeypatch):
    # the deep band's cross current leaves its clock NaN after the first
    # sub-step; the INFEASIBLE and NaN departures fly nothing; the last
    # leg starts outside the domain, and its clock runs on at 0.1 m/s:
    # the windows open where and as wide as with the live lanes alone
    grid = adverse_grid()
    seen = count_gathers(monkeypatch)
    scheme = InterpScheme("bilinear", "linear", "akima")
    tails = [(2_000.0, 5_000.0 * k) for k in range(1, 4)]
    heads = [(30_000.0, 5_000.0 * k) for k in range(1, 4)]
    shallow, deep = DiveProfile(0.0, 20.0), DiveProfile(70.0, 100.0)
    live = profile_times(tails, heads, 0.0, [shallow], grid, V03, 0.25,
                         scheme, 2)
    alone = {key: list(value) for key, value in seen.items()}
    for value in seen.values():
        value.clear()
    mixed = profile_times(
        tails + tails[:2] + [(41_000.0, 5_000.0)],
        heads + heads[:2] + [(69_000.0, 5_000.0)],
        [0.0, 0.0, 0.0, math.inf, math.nan, 0.0], [shallow, deep], grid,
        V03, 0.25, scheme, 2)
    assert seen["space"] == alone["space"] and len(alone["space"]) > 1
    assert seen["columns"] == [2 * n for n in alone["columns"]]
    assert same_bits(mixed[:3, 0], live[:, 0])
    assert np.isinf(mixed[:, 1]).all() and np.isinf(mixed[3:]).all()


def plan_outputs(mission, out, argv=()):
    assert cli_main(["plan", str(mission), "--out", str(out), *argv]) == EXIT_OK
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    return ((out / "waypoints.json").read_bytes(),
            (out / "plan.svg").read_bytes(),
            [ln for ln in summary if not ln.startswith("comp_time_s")])


def write_akima_mission(tmp_path):
    """A bicubic/Akima/Akima mission over a four-level gyre with an
    island, so every Akima stencil is wide and some touch land."""
    x = np.linspace(0.0, 40_000.0, 11)
    grid = synth_field("gyre", x, x, (0.0, 40.0, 80.0, 120.0),
                       np.linspace(0.0, 172_800.0, 9),
                       params={"amplitude": 0.03, "period": 86_400.0})
    u, v = grid.u.copy(), grid.v.copy()
    u[:, :, 6:8, 3:5] = v[:, :, 6:8, 3:5] = grid.fill_sentinel
    save_flow_grid(FlowGrid(x, x, grid.z_levels, grid.t_steps, u, v),
                   tmp_path / "flow.json")
    doc = {"flow": "flow.json", "start": {"x": 3_000.0, "y": 3_000.0},
           "goal": {"x": 37_000.0, "y": 36_000.0}, "start_time": 3_600.0,
           "grid_spacing": 8_000.0, "neighbor_set": 16, "h": 0.25,
           "n_sub": 2,
           "scheme": {"xy": "bicubic", "z": "akima", "t": "akima"},
           "profile_family": {"z_min": 0.0, "z_climb_to_max": 20.0,
                              "z_max": 120.0, "z_min_range": 20.0,
                              "n_climb_to_levels": 2, "n_dive_to_levels": 3}}
    path = tmp_path / "akima.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("which, argv", [("test8", ()),
                                         ("test8", ("--no-smooth",)),
                                         ("akima", ())])
def test_missions_plan_the_same_with_the_per_point_kernel(tmp_path, capsys,
                                                          monkeypatch, which,
                                                          argv):
    mission = (write_gyre_mission(tmp_path) if which == "test8"
               else write_akima_mission(tmp_path))
    columns = plan_outputs(mission, tmp_path / "columns", argv)
    calls = []

    def reference(grid, x, y, z, t, scheme):
        calls.append(np.ndim(t))
        return sample_batch_reference(grid, x, y, z, t, scheme)

    for mod in (flowfield_mod, search_mod, mission_mod):
        monkeypatch.setattr(mod, "sample_batch", reference)
    # the leg kernel as one sample_batch call per sub-step
    monkeypatch.setattr(search_mod, "profile_times", profile_times_reference)
    per_point = plan_outputs(mission, tmp_path / "per_point", argv)
    capsys.readouterr()
    assert 2 in calls  # the leg kernel's columns went through the reference
    assert columns == per_point


def count_kernel_work(monkeypatch, mission):
    """Plan mission in-process; return its leg-kernel calls, space
    stages, still-water arrival knot lookups and time-axis stencils."""
    counts = collections.Counter()

    def spy(mod, name, key):
        fn = getattr(mod, name)

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        monkeypatch.setattr(mod, name, counted)

    spy(search_mod, "profile_times", "calls")
    spy(kinematics_mod, "space_stage", "space")
    spy(kinematics_mod, "_axis_knots", "window ends")
    spy(kinematics_mod, "_axis_stencil", "time stencils")
    assert run_mission(parse_mission(mission)).status == "ok"
    return counts


def test_one_space_stage_per_leg_kernel_call_on_the_akima_mission(
        tmp_path, monkeypatch):
    # one sample_batch call per sub-step made up to 8 per kernel call here
    # (h 0.25, n_sub 2), 102 in all; now each call opens one window for
    # all its sub-steps and one more opens where a current set clocks
    # back past theirs; each call looks up the knots of its heads'
    # still-water arrivals once and takes one time stencil per sub-step
    # with a live lane (101)
    counts = count_kernel_work(monkeypatch, write_akima_mission(tmp_path))
    assert not hasattr(kinematics_mod, "sample_batch")
    assert counts == {"calls": 13, "space": 14, "window ends": 13,
                      "time stencils": 101}


def test_a_one_sub_step_leg_gathers_once_with_no_window_pass(
        tmp_path, monkeypatch):
    # h 1 and n_sub 1: each kernel call opens one window, the knots its
    # one sub-step's time stencils span, as one sample_batch call would,
    # and looks up no still-water arrival
    mission = write_gyre_mission(tmp_path)
    doc = json.loads(mission.read_text(encoding="utf-8"))
    doc.update(h=1.0, n_sub=1)
    mission.write_text(json.dumps(doc), encoding="utf-8")
    calls, windows = [], []
    kernel, stage = search_mod.profile_times, flowfield_mod.space_stage

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    def spied(*args):  # lo and n_wt
        windows.append((args[4].tolist(), args[5]))
        return stage(*args)
    for mod in (flowfield_mod, kinematics_mod):
        monkeypatch.setattr(mod, "space_stage", spied)
    monkeypatch.setattr(search_mod, "profile_times", recorded)
    counts = count_kernel_work(monkeypatch, mission)
    assert counts["calls"] == len(calls) > 0 and counts == {
        "calls": len(calls), "space": len(calls),
        "time stencils": len(calls)}
    assert len(windows) == len(calls)
    kernel_windows, windows[:] = list(windows), []
    for tails, heads, departs, profiles, grid, _, _, scheme, _ in calls:
        n_h = len(heads)
        x, y = np.broadcast_to(np.reshape(tails, (-1, 2)), (n_h, 2)).T
        zc = np.array([p.z_climb_to for p in profiles])
        z = zc + 0.5 * (np.array([p.z_dive_to for p in profiles]) - zc)
        sample_batch(grid, x[:, None], y[:, None], z,
                     np.broadcast_to(departs, n_h)[:, None], scheme)
    assert windows == kernel_windows


def gyre_akima_grid():
    """gyre-akima's field: a 17 x 17 x 4 x 13 double gyre over 32 km with
    a 4 km island of fill."""
    x = np.linspace(0.0, 32_000.0, 17)
    grid = synth_field("gyre", x, x, (0.0, 40.0, 80.0, 120.0),
                       np.linspace(0.0, 345_600.0, 13),
                       params={"amplitude": 0.03, "period": 86_400.0})
    u, v = grid.u.copy(), grid.v.copy()
    island = (x[None, :] - 18_000.0) ** 2 + (x[:, None] - 10_000.0) ** 2
    u[:, :, island <= 4_000.0 ** 2] = v[:, :, island <= 4_000.0 ** 2] = -9999.0
    return FlowGrid(x, x, grid.z_levels, grid.t_steps, u, v)


def traced_peak(fn, *args):
    fn(*args)  # warm: first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks (bytes) of the same two calls, a 4,095-lane
# profile_times and a plain 4,096-point sample_batch, when the kernel was
# the per-point one (sample_batch_reference) and profile_times passed one
# x, y per lane: 5.2 KB per bicubic/Akima/Akima lane, 0.73 KB bilinear
PER_POINT_PEAKS = {"bicubic": (21_227_813, 20_288_608),
                   "bilinear": (2_987_649, 2_044_936)}


@pytest.mark.parametrize("scheme", [InterpScheme("bicubic", "akima", "akima"),
                                    InterpScheme()], ids=lambda s: s.xy_method)
def test_kernel_temporaries_stay_within_the_per_point_kernels(scheme):
    grid = gyre_akima_grid()
    family = make_dive_profiles(ProfileFamilySpec(0.0, 20.0, 120.0, 20.0, 2, 3))
    rng = np.random.RandomState(0)
    n_heads = 4_095 // len(family)
    tails = rng.uniform(4_000.0, 28_000.0, (n_heads, 2))
    heads = tails + rng.uniform(-8_000.0, 8_000.0, (n_heads, 2))
    departs = rng.uniform(3_600.0, 100_000.0, n_heads)
    x, y = rng.uniform(0.0, 32_000.0, (2, 4_096))
    z, t = rng.uniform(0.0, 120.0, 4_096), rng.uniform(0.0, 345_600.0, 4_096)
    lanes = traced_peak(profile_times, tails, heads, departs, family, grid,
                        V03, 0.25, scheme, 2)
    plain = traced_peak(sample_batch, grid, x, y, z, t, scheme)
    assert lanes <= PER_POINT_PEAKS[scheme.xy_method][0], lanes
    assert plain <= PER_POINT_PEAKS[scheme.xy_method][1], plain


def gyre_grid_with_time_cells(cell):
    x = np.linspace(0.0, 32_000.0, 17)
    return synth_field("gyre", x, x, (0.0, 40.0, 80.0, 120.0),
                       np.arange(0.0, 172_800.0 + cell, cell),
                       params={"amplitude": 0.03, "period": 86_400.0})


@pytest.mark.parametrize("cell", [600.0, 28_800.0], ids=["10min", "8h"])
def test_a_leg_kernel_call_gathers_at_most_twice_the_per_sub_step_windows(
        cell, monkeypatch):
    # 8 heads x 5 profiles of 8 km legs, about 7.4 hours each: on 10-minute
    # time cells a leg's window would span about 50 knots (within
    # MAX_HOISTED), so each window holds one sub-step's stencils; on
    # 8-hour cells one window holds every sub-step
    grid = gyre_grid_with_time_cells(cell)
    family = make_dive_profiles(ProfileFamilySpec(0.0, 20.0, 120.0, 20.0, 2, 3))
    rng = np.random.RandomState(1)
    tails = rng.uniform(4_000.0, 20_000.0, (8, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, 8)
    heads = tails + 8_000.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    args = (tails, heads, rng.uniform(3_600.0, 90_000.0, 8), family, grid,
            V03, 0.25, InterpScheme("bicubic", "akima", "akima"), 2)
    nodes, columns = [], []
    stage = flowfield_mod.space_stage

    def spied(*a):  # series entries (lane, time knot) computed
        space = stage(*a)
        nodes.append(space.series[0].size)
        return space
    monkeypatch.setattr(flowfield_mod, "space_stage", spied)
    monkeypatch.setattr(kinematics_mod, "space_stage",
                        lambda *a: columns.append(a[1].size) or spied(*a))
    times = profile_times(*args)
    work = sum(nodes)
    nodes.clear()
    assert same_bits(times, profile_times_reference(*args))
    assert work <= 2 * sum(nodes), (work, sum(nodes))
    monkeypatch.undo()
    # a window of more than one sub-step keeps at most MAX_HOISTED units
    # of series, lanes and window nodes, under 20 B each (the MAX_HOISTED
    # comment)
    hoisted = max(columns) > len(tails)
    peaks = [traced_peak(f, *args)
             for f in (profile_times, profile_times_reference)]
    assert peaks[0] <= peaks[1] + (20 * kinematics_mod.MAX_HOISTED
                                   if hoisted else peaks[1] // 10), peaks
