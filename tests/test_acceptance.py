"""Acceptance gate: eight end-to-end criteria, one test each.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Each timed criterion asserts its own wall-clock budget.
"""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest

from gliderplan.cli import EXIT_OK, main as cli_main
from gliderplan.flowfield import save_flow_grid
from gliderplan.kinematics import (VehicleSpec, make_dive_profiles,
                                   over_ground_speed)
from gliderplan.mission import format_duration, parse_mission, run_mission
from gliderplan.search import Rect, build_graph, tve_dijkstra
from gliderplan.smoothing import smooth_path

from conftest import (count_kernel_calls, interp_1d, interp_xy,
                      make_uniform_grid, travel_time, write_gyre_mission)
from oracles import akima_reference, brute_force_arrival


def test_1_zero_current_straight_line_times_format_exactly():
    t_wall = time.perf_counter()
    speed = 0.3
    assert format_duration(210_000.0 / speed) == "08:02:26:40"
    assert format_duration(210_550.0 / speed) == "08:02:57:13"
    assert time.perf_counter() - t_wall < 1.0


def test_2_search_arrival_equals_exhaustive_enumeration_on_fifo_lattices():
    t_wall = time.perf_counter()
    period = 7200.0
    for trial in range(100):
        rng = random.Random(9000 + trial)
        nx = rng.randint(2, 6)
        ny = rng.randint(2, max(2, 12 // nx))
        graph = build_graph(Rect(0.0, 0.0, float(nx - 1), float(ny - 1)),
                            1.0, neighbor_set=rng.choice((8, 16)))
        n = graph.n_vertices
        assert n <= 12

        base = {}
        phase = {}
        for a in range(n):
            for b in graph.neighbors(a):
                base[(a, b)] = rng.uniform(50.0, 500.0)
                phase[(a, b)] = rng.uniform(0.0, 2.0 * math.pi)

        # |d(cost)/dt| <= 500 * 0.5 * 2pi/7200 < 0.22, so FIFO holds
        def raw(a, b, t):
            return base[(a, b)] * (1.0 + 0.5 * math.sin(
                2.0 * math.pi * t / period + phase[(a, b)]))

        index_of = {xy: i for i, xy in enumerate(graph.vertex_xy)}

        def cost(a_xy, b_xy, t):
            return None, raw(index_of[a_xy], index_of[b_xy], t)

        out_edges = [graph.neighbors(a) for a in range(n)]
        start, goal = rng.sample(range(n), 2)
        t0 = rng.uniform(0.0, period)

        expected = brute_force_arrival(n, out_edges, raw, start, goal, t0)
        path = tve_dijkstra(graph, start, goal, t0, cost)
        assert expected is not None and path is not None
        assert path.arrival_times[-1] == expected[0]
        assert path.fifo_violations == 0
    assert time.perf_counter() - t_wall < 30.0


def euclid_cost(a, b, t):
    return None, math.hypot(b[0] - a[0], b[1] - a[1]) / 0.3


def wiggle_cost_factory(seed, period=7200.0):
    """FIFO time-varying synthetic leg cost keyed on endpoint coordinates."""
    rng = random.Random(seed)
    shift = rng.uniform(0.0, 2.0 * math.pi)

    def cost(a, b, t):
        if math.isinf(t):
            return None, math.inf
        dist = math.hypot(b[0] - a[0], b[1] - a[1])
        phase = shift + 0.013 * (a[0] + 2.0 * a[1] + 3.0 * b[0] + 5.0 * b[1])
        return None, (dist / 0.3) * (
            1.0 + 0.3 * math.sin(2.0 * math.pi * t / period + phase))

    return cost


def random_stair(rng, n_waypoints):
    """Random axis-aligned staircase with unit steps of 1 km."""
    x, y = 0.0, 0.0
    wps = [(x, y)]
    while len(wps) < n_waypoints:
        dx, dy = rng.choice([(1000.0, 0.0), (0.0, 1000.0)])
        x, y = x + dx, y + dy
        wps.append((x, y))
    return wps


def test_3_smoothing_contract_on_random_missions_and_stair_paths():
    t_wall = time.perf_counter()
    for trial in range(50):
        rng = random.Random(4000 + trial)
        wps = random_stair(rng, rng.randint(4, 14))
        cost = wiggle_cost_factory(seed=trial)
        t0 = rng.uniform(0.0, 7200.0)

        before = t0
        for a, b in zip(wps, wps[1:]):
            before += cost(a, b, before)[1]

        wp_s, tt_s, _ = smooth_path(wps, t0, cost)
        assert wp_s[0] == wps[0] and wp_s[-1] == wps[-1]
        assert len(wp_s) <= len(wps)
        assert tt_s[-1] <= before + 1e-6

        wp_2, tt_2, trace_2 = smooth_path(wp_s, t0, cost)
        assert wp_2 == wp_s
        assert tt_2[-1] == pytest.approx(tt_s[-1], abs=1e-6)
        assert trace_2.merges_accepted == 0

    # constructed staircases shed at least half their waypoints
    for n_waypoints in (5, 7, 9, 11, 15):
        wps = random_stair(random.Random(n_waypoints), n_waypoints)
        wp_s, _, _ = smooth_path(wps, 0.0, euclid_cost)
        assert len(wp_s) <= math.ceil(len(wps) / 2.0)
    assert time.perf_counter() - t_wall < 60.0


def test_4_interpolation_exactness_suite():
    t_wall = time.perf_counter()
    rng = random.Random(42)

    # knot reproduction across every one-dimensional method
    knots = list(np.cumsum([rng.uniform(0.1, 3.0) for _ in range(12)]))
    ys = [rng.uniform(-5.0, 5.0) for _ in range(12)]
    for method in ("nearest", "linear", "cubic", "akima"):
        for xk, yk in zip(knots, ys):
            assert abs(interp_1d(knots, ys, xk, method) - yk) <= 1e-12

    # bilinear reproduces a + bx + cy + dxy fields
    xs = [0.0, 1.5, 4.0, 5.0, 9.0]
    yg = [0.0, 2.0, 3.5, 7.0]
    a, b, c, d = 2.0, -0.7, 1.3, 0.05
    layer = [[a + b * x + c * y + d * x * y for x in xs] for y in yg]
    for _ in range(200):
        x = rng.uniform(0.0, 9.0)
        y = rng.uniform(0.0, 7.0)
        want = a + b * x + c * y + d * x * y
        got = interp_xy(layer, xs, yg, x, y, "bilinear")
        assert got == pytest.approx(want, rel=1e-9)

    # cubic and akima reproduce linear data
    lin = [3.0 * x - 7.0 for x in knots]
    for method in ("cubic", "akima"):
        for _ in range(100):
            q = rng.uniform(knots[0], knots[-1])
            assert abs(interp_1d(knots, lin, q, method)
                       - (3.0 * q - 7.0)) <= 1e-9

    # akima evaluation is local: a far knot cannot change the value
    knots20 = list(np.cumsum([rng.uniform(0.2, 2.0) for _ in range(20)]))
    vals20 = [rng.uniform(-4.0, 4.0) for _ in range(20)]
    q = 0.5 * (knots20[5] + knots20[6])
    ref = interp_1d(knots20, vals20, q, "akima")
    bumped = list(vals20)
    bumped[15] += 100.0
    assert interp_1d(knots20, bumped, q, "akima") == ref

    # agreement with the independent reference on the step dataset
    step_x = [float(v) for v in range(1, 12)]
    step_y = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 15.0, 50.0, 60.0,
              85.0]
    for q in np.linspace(1.0, 11.0, 401):
        got = interp_1d(step_x, step_y, float(q), "akima")
        want = akima_reference(step_x, step_y, float(q))
        assert abs(got - want) <= 1e-9
    assert time.perf_counter() - t_wall < 10.0


def test_5_feasibility_physics_at_the_speed_boundary():
    speed = 0.3
    vehicle = VehicleSpec(speed)
    leg = ((10_000.0, 50_000.0, 30.0), (90_000.0, 50_000.0, 30.0))

    opposing_fast = make_uniform_grid(u0=-1.01 * speed)
    t = travel_time(*leg, 0.0, opposing_fast, vehicle, n_sub=1)
    assert math.isinf(t)
    assert not over_ground_speed(vehicle, -1.01 * speed, 0.0, 1.0, 0.0)[1]

    opposing_slow = make_uniform_grid(u0=-0.99 * speed)
    t = travel_time(*leg, 0.0, opposing_slow, vehicle, n_sub=1)
    assert math.isfinite(t) and t > 0.0
    v, ok = over_ground_speed(vehicle, -0.99 * speed, 0.0, 1.0, 0.0)
    assert ok and v > 0.0

    cross_equal = make_uniform_grid(u0=0.0, v0=speed)
    t = travel_time(*leg, 0.0, cross_equal, vehicle, n_sub=1)
    assert math.isinf(t)
    assert not over_ground_speed(vehicle, 0.0, speed, 1.0, 0.0)[1]


def test_6_travel_time_strictly_decreases_with_vehicle_speed(tmp_path):
    t_wall = time.perf_counter()
    # peak gyre current 2*pi*0.035 = 0.22 m/s stays below the slowest speed
    spec = parse_mission(write_gyre_mission(tmp_path))
    elapsed = []
    for speed in (0.25, 0.30, 0.35):
        case = dataclasses.replace(spec, vehicle=VehicleSpec(speed))
        result = run_mission(case)
        assert result.status == "ok"
        final = result.final_path
        elapsed.append(final.arrival_times[-1] - case.start_time)
    assert elapsed[0] > elapsed[1] > elapsed[2]
    assert time.perf_counter() - t_wall < 120.0


def test_7_hundred_thousand_edge_mission_plans_under_a_minute(tmp_path,
                                                             monkeypatch):
    t_wall = time.perf_counter()
    extent = 420_000.0
    grid = make_uniform_grid(u0=0.05, v0=0.02, extent=extent, depth=100.0,
                             n=30, nz=2, nt=3)
    save_flow_grid(grid, tmp_path / "flow.json")
    doc = {
        "flow": "flow.json",
        "start": {"x": 5_000.0, "y": 5_000.0},
        "goal": {"x": 415_000.0, "y": 415_000.0},
        "grid_spacing": 5_000.0,
        "neighbor_set": 16,
        "h": 1.0,
        "n_sub": 1,
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 20.0,
                           "z_max": 100.0, "z_min_range": 30.0,
                           "n_climb_to_levels": 3, "n_dive_to_levels": 5},
    }
    mission = tmp_path / "mission.json"
    mission.write_text(json.dumps(doc), encoding="utf-8")

    spec = parse_mission(mission)
    assert len(make_dive_profiles(spec.profile_family)) == 12
    calls = count_kernel_calls(monkeypatch)
    result = run_mission(spec, grid=grid)
    assert result.n_edges >= 100_000
    assert result.status == "ok"
    assert result.planned.fifo_violations == 0
    # the goal checks of one run of merges advance in lockstep: timed
    # one leg per call, smoothing 83 waypoints to 2 took 3,321 calls
    assert len(result.smoothed.waypoints) == 2
    assert calls["smoothing"] <= 200
    assert time.perf_counter() - t_wall < 60.0


def test_8_plan_is_byte_identical_with_parallel_evaluation(tmp_path, capsys):
    # every settled vertex times its out-edges x profiles as parallel
    # lanes of one batch; two runs must still agree to the byte
    mission = write_gyre_mission(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["plan", str(mission), "--out", str(out_a)])
    code_b = cli_main(["plan", str(mission), "--out", str(out_b)])
    capsys.readouterr()
    assert code_a == EXIT_OK and code_b == EXIT_OK
    wp_a = (out_a / "waypoints.json").read_bytes()
    wp_b = (out_b / "waypoints.json").read_bytes()
    assert wp_a == wp_b
    assert (out_a / "plan.svg").read_bytes() == (out_b / "plan.svg").read_bytes()
