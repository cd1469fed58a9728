"""Path smoothing: merge bookkeeping, rejection rules, invariants."""

import math
import random

import pytest

from gliderplan.kinematics import DiveProfile, VehicleSpec
from gliderplan.smoothing import recompute_arrivals, smooth_path

from conftest import lattice_cost

V03 = VehicleSpec(0.3)


def table_cost(table):
    """Cost keyed by integer x coordinates; inf off-table, inf-safe."""
    def cost(a_xy, b_xy, depart):
        if math.isinf(depart):
            return None, math.inf
        entry = table.get((int(a_xy[0]), int(b_xy[0])), math.inf)
        return None, entry(depart) if callable(entry) else entry
    return cost


def wiggle_cost(speed=0.3, period=14_400.0, swing=0.3):
    """Smooth FIFO synthetic cost defined for every waypoint pair."""
    def cost(a_xy, b_xy, depart):
        if math.isinf(depart):
            return None, math.inf
        d = math.dist(a_xy, b_xy)
        if d == 0.0:
            return None, 0.0
        phase = math.fmod(a_xy[0] * 0.013 + b_xy[1] * 0.031, 2.0 * math.pi)
        factor = 1.0 + swing * math.sin(2.0 * math.pi * depart / period
                                        + phase)
        return None, (d / speed) * factor
    return cost


def xline(*xs):
    return [(float(x), 0.0) for x in xs]


class TestBasicMerging:
    def test_collinear_points_collapse(self, still_grid):
        wp = [(5_000.0, 5_000.0), (20_000.0, 20_000.0), (35_000.0, 35_000.0)]
        cost = lattice_cost(still_grid, V03, (DiveProfile(0.0, 60.0),))
        wp_s, tt_s, trace = smooth_path(wp, 0.0, cost)
        assert wp_s == [wp[0], wp[2]]
        assert trace.merges_accepted == 1
        _, direct = cost(wp[0], wp[2], 0.0)
        assert tt_s[-1] == pytest.approx(direct, rel=1e-9)

    def test_stair_path_collapses_in_still_water(self, still_grid):
        step = 5_000.0
        wp = [(0.0, 0.0)]
        for i in range(4):
            wp.append(((i + 1) * step, i * step))
            wp.append(((i + 1) * step, (i + 1) * step))
        assert len(wp) == 9
        cost = lattice_cost(still_grid, V03, (DiveProfile(0.0, 60.0),))
        wp_s, tt_s, trace = smooth_path(wp, 0.0, cost)
        assert wp_s == [(0.0, 0.0), (20_000.0, 20_000.0)]
        assert trace.merges_accepted == 7
        _, direct = cost(wp[0], wp[-1], 0.0)
        assert tt_s == [0.0, pytest.approx(direct, rel=1e-9)]

    def test_two_waypoints_pass_through(self, still_grid):
        cost = lattice_cost(still_grid, V03, (DiveProfile(0.0, 60.0),))
        wp = [(0.0, 0.0), (9_000.0, 0.0)]
        wp_s, tt_s, trace = smooth_path(wp, 100.0, cost)
        assert wp_s == wp
        assert tt_s[0] == 100.0
        assert trace.iterations == 1
        assert trace.merges_accepted == 0

    def test_too_few_waypoints_rejected(self, still_grid):
        cost = lattice_cost(still_grid, V03, (DiveProfile(0.0, 60.0),))
        with pytest.raises(ValueError):
            smooth_path([(0.0, 0.0)], 0.0, cost)


class TestRejectionRules:
    def test_infeasible_direct_leg_keeps_via_point(self):
        # A-B-C where the direct A-C leg does not exist
        table = {(0, 1): 50.0, (1, 2): 50.0}
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2), 0.0,
                                        table_cost(table))
        assert wp_s == xline(0, 1, 2)
        assert trace.merges_rejected_infeasible == 1
        assert trace.merges_accepted == 0
        assert tt_s == [0.0, 50.0, 100.0]

    def test_slower_direct_leg_is_rejected_locally(self):
        table = {(0, 1): 50.0, (1, 2): 50.0, (0, 2): 120.0}
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2), 0.0,
                                        table_cost(table))
        assert wp_s == xline(0, 1, 2)
        assert trace.merges_rejected_slower_local == 1
        assert tt_s[-1] == pytest.approx(100.0)

    def test_shortcut_that_hurts_goal_is_rejected(self):
        # direct A-C arrives earlier at C, but departing C before the
        # favorable window makes the tail leg so slow the goal suffers
        def c_to_d(depart):
            return 10.0 if depart >= 100.0 - 1e-6 else 200.0

        table = {(0, 1): 50.0, (1, 2): 50.0, (0, 2): 95.0, (2, 3): c_to_d}
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2, 3), 0.0,
                                        table_cost(table))
        assert trace.merges_rejected_slower_goal == 1
        assert trace.merges_accepted == 0
        assert wp_s == xline(0, 1, 2, 3)
        assert tt_s[-1] == pytest.approx(110.0)
        assert trace.goal_arrival_literal == pytest.approx(110.0)
        assert trace.goal_arrival_rechained == pytest.approx(110.0)

    def test_shortcut_that_helps_goal_is_kept(self):
        table = {(0, 1): 50.0, (1, 2): 50.0, (0, 2): 80.0, (2, 3): 30.0}
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2, 3), 0.0,
                                        table_cost(table))
        assert wp_s == xline(0, 2, 3)
        assert trace.merges_accepted == 1
        assert tt_s == [0.0, pytest.approx(80.0), pytest.approx(110.0)]

    def test_fully_infeasible_path_propagates_infinity(self):
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2), 0.0, table_cost({}))
        assert wp_s == xline(0, 1, 2)
        assert math.isinf(tt_s[-1])
        assert math.isinf(trace.goal_arrival_rechained)

    def test_merge_can_recover_a_feasible_route(self):
        # both original legs are gone but the direct leg exists
        table = {(0, 2): 75.0}
        wp_s, tt_s, trace = smooth_path(xline(0, 1, 2), 0.0,
                                        table_cost(table))
        assert wp_s == xline(0, 2)
        assert tt_s[-1] == pytest.approx(75.0)
        assert trace.merges_accepted == 1


class TestInvariants:
    def random_scenarios(self):
        rng = random.Random(2024)
        for _ in range(20):
            n = rng.randint(3, 10)
            wp = [(rng.uniform(0, 50_000.0), rng.uniform(0, 50_000.0))
                  for _ in range(n)]
            t0 = rng.uniform(0.0, 10_000.0)
            yield wp, t0, wiggle_cost()

    def test_goal_never_worsens_and_endpoints_survive(self):
        for wp, t0, cost in self.random_scenarios():
            before = recompute_arrivals(wp, t0, cost)
            wp_s, tt_s, trace = smooth_path(wp, t0, cost)
            assert wp_s[0] == wp[0]
            assert wp_s[-1] == wp[-1]
            assert len(wp_s) <= len(wp)
            assert tt_s[-1] <= before[-1] + 1e-6
            rechained = recompute_arrivals(wp_s, t0, cost)
            assert tt_s[-1] == pytest.approx(rechained[-1], abs=1e-6)
            assert trace.goal_arrival_rechained == pytest.approx(
                trace.goal_arrival_literal, abs=1e-6)

    def test_smoothing_is_idempotent(self):
        for wp, t0, cost in self.random_scenarios():
            wp_s, tt_s, _ = smooth_path(wp, t0, cost)
            wp_again, tt_again, trace2 = smooth_path(wp_s, t0, cost)
            assert wp_again == wp_s
            assert trace2.merges_accepted == 0
            assert tt_again[-1] == pytest.approx(tt_s[-1], abs=1e-9)

    def test_arrivals_strictly_increase_along_smoothed_path(self):
        for wp, t0, cost in self.random_scenarios():
            wp_s, tt_s, _ = smooth_path(wp, t0, cost)
            if any(math.isinf(t) for t in tt_s):
                continue
            for earlier, later in zip(tt_s, tt_s[1:]):
                assert later > earlier

    def test_trace_iterations_counts_passes(self):
        # a chain that needs two passes to stop shrinking still reports
        # every pass
        table = {(0, 1): 50.0, (1, 2): 50.0, (0, 2): 80.0, (2, 3): 30.0}
        _, _, trace = smooth_path(xline(0, 1, 2, 3), 0.0, table_cost(table))
        assert trace.iterations >= 2


class TestRealFieldSmoothing:
    def test_detour_survives_around_land(self):
        # a one-node island sits at (30 km, 10 km); the direct crossing
        # cuts a corner of its cell, the dog-leg clears it by a full
        # cell everywhere
        import numpy as np
        from gliderplan.flowfield import FlowGrid
        x = np.linspace(0.0, 50_000.0, 6)
        y = np.linspace(0.0, 50_000.0, 6)
        u = np.zeros((2, 2, 6, 6))
        v = np.zeros((2, 2, 6, 6))
        u[:, :, 1, 3] = -9999.0
        v[:, :, 1, 3] = -9999.0
        grid = FlowGrid(x, y, np.array([0.0, 200.0]),
                        np.array([0.0, 1e6]), u, v)
        wp = [(15_000.0, 10_000.0), (27_000.0, 40_000.0),
              (45_000.0, 22_000.0)]
        cost = lattice_cost(grid, V03, (DiveProfile(0.0, 60.0),),
                            h=0.5, n_sub=4)
        assert math.isinf(cost(wp[0], wp[2], 0.0)[1])
        assert math.isfinite(cost(wp[0], wp[1], 0.0)[1])
        assert math.isfinite(cost(wp[1], wp[2], 0.0)[1])
        wp_s, tt_s, trace = smooth_path(wp, 0.0, cost)
        assert wp_s == wp
        assert trace.merges_rejected_infeasible == 1
        assert math.isfinite(tt_s[-1])

    def test_gyre_smoothing_respects_goal_contract(self, gyre_grid):
        wp = [(6_000.0, 6_000.0), (14_000.0, 6_000.0), (22_000.0, 14_000.0),
              (30_000.0, 14_000.0), (38_000.0, 22_000.0),
              (46_000.0, 30_000.0), (54_000.0, 38_000.0)]
        cost = lattice_cost(gyre_grid, V03, (DiveProfile(0.0, 60.0),),
                            h=0.5, n_sub=2)
        before = recompute_arrivals(wp, 0.0, cost)
        assert math.isfinite(before[-1])
        wp_s, tt_s, trace = smooth_path(wp, 0.0, cost)
        assert tt_s[-1] <= before[-1] + 1e-6
        assert len(wp_s) <= len(wp)
        assert wp_s[0] == wp[0] and wp_s[-1] == wp[-1]
        again, tt_again, _ = smooth_path(wp_s, 0.0, cost)
        assert again == wp_s
        assert tt_again[-1] == pytest.approx(tt_s[-1], abs=1e-9)
