"""Waypoint-path smoothing against time-varying travel costs.

The lattice search returns routes whose headings are quantized to the
neighborhood set, so they typically zig-zag around the straight course.
Smoothing walks the waypoint list once per pass, trying to replace each
chain of legs since the last kept waypoint with one direct leg.  A
candidate merge is rejected when the direct leg is infeasible, when the
kept chain is strictly faster, or when re-timing the remaining legs
shows the goal arrival would suffer (a direct leg that arrives earlier
at an intermediate point can still lose by meeting a worse tide later).
Passes repeat until a pass removes nothing.  All comparisons use a
1e-9 s tolerance so float noise cannot flip a decision; ties favor the
merge, which keeps the pass idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .search import EdgeCostFn

TIME_EPS = 1e-9


@dataclass
class SmoothingTrace:
    """Counters describing what a smoothing run did.

    goal_arrival_literal is the arrival carried through the pass
    bookkeeping; goal_arrival_rechained re-times the final waypoint
    list from scratch.  The two agree (within tolerance) by
    construction and are both recorded for inspection.
    """

    iterations: int = 0
    merges_accepted: int = 0
    merges_rejected_infeasible: int = 0
    merges_rejected_slower_local: int = 0
    merges_rejected_slower_goal: int = 0
    goal_arrival_literal: float = math.nan
    goal_arrival_rechained: float = math.nan
    profiles: list = field(default_factory=list)


def _rechain(waypoints, t_start: float, edge_cost: EdgeCostFn
             ) -> tuple[list[float], list]:
    arrivals, profiles = [t_start], []
    for i in range(1, len(waypoints)):
        prof, dt = edge_cost(waypoints[i - 1], waypoints[i], arrivals[-1])
        arrivals.append(arrivals[-1] + dt)
        profiles.append(prof)
    return arrivals, profiles


def recompute_arrivals(waypoints, t_start: float,
                       edge_cost: EdgeCostFn) -> list[float]:
    """Chain arrival times along a waypoint list; infinity propagates."""
    return _rechain(waypoints, t_start, edge_cost)[0]


def _leg_time(edge_cost: EdgeCostFn, a, b, depart: float) -> float:
    _, dt = edge_cost(a, b, depart)
    return dt


def _smoothing_pass(wp: list, tt: list, edge_cost: EdgeCostFn,
                    trace: SmoothingTrace) -> tuple[list, list]:
    """One forward pass; wp has at least 3 waypoints."""
    n = len(wp)
    tt = list(tt)
    i_start = 0
    wp_s = [wp[0]]
    tt_s = [tt[0]]
    t1 = tt[1] - tt[0]
    merge = False
    for i_path in range(2, n):
        merge = True
        t2 = _leg_time(edge_cost, wp[i_path - 1], wp[i_path], tt[i_path - 1])
        t_sum = _leg_time(edge_cost, wp[i_start], wp[i_path], tt[i_start])
        if math.isinf(t_sum):
            merge = False
            trace.merges_rejected_infeasible += 1
        elif t1 + t2 < t_sum - TIME_EPS:
            merge = False
            trace.merges_rejected_slower_local += 1
        else:
            # re-time the untouched tail to see how the goal fares
            t_end = tt[i_start] + t_sum
            for i_end in range(i_path + 1, n):
                t_end += _leg_time(edge_cost, wp[i_end - 1], wp[i_end], t_end)
            if t_end > tt[n - 1] + TIME_EPS:
                merge = False
                trace.merges_rejected_slower_goal += 1
            else:
                tt[n - 1] = t_end
        if merge:
            trace.merges_accepted += 1
            t1 = t_sum
            tt[i_path] = tt[i_start] + t_sum
        else:
            tt[i_path - 1] = tt[i_start] + t1
            tt[i_path] = tt[i_path - 1] + t2
            i_start = i_path - 1
            t1 = t2
            wp_s.append(wp[i_start])
            tt_s.append(tt[i_start])
    if not merge:
        # the last candidate kept its via point, so the goal arrival
        # predates the departure shift at wp[n-2]; refresh it
        tt[n - 1] = tt[n - 2] + _leg_time(edge_cost, wp[n - 2], wp[n - 1],
                                          tt[n - 2])
    wp_s.append(wp[n - 1])
    tt_s.append(tt[n - 1])
    return wp_s, tt_s


def smooth_path(waypoints, t_start: float, edge_cost: EdgeCostFn
                ) -> tuple[list, list[float], SmoothingTrace]:
    """Merge redundant waypoints without hurting the goal arrival.

    Returns (smoothed waypoints, their arrival times, trace); the trace
    also holds each final leg's profile.  The endpoints always survive,
    the waypoint count never grows, the goal arrival never worsens
    beyond tolerance, and re-smoothing the output changes nothing.  A
    path of two waypoints is returned unchanged (the trace still
    reports one iteration).  Entirely infeasible legs propagate
    infinite arrivals; merges are still attempted and may recover a
    feasible route when a direct leg exists.
    """
    wp = [tuple(w) for w in waypoints]
    if len(wp) < 2:
        raise ValueError("smoothing needs at least two waypoints")
    tt = recompute_arrivals(wp, t_start, edge_cost)
    trace = SmoothingTrace()
    passes = 0
    while len(wp) > 2:
        passes += 1
        wp_new, tt_new = _smoothing_pass(wp, tt, edge_cost, trace)
        shrunk = len(wp_new) < len(wp)
        wp, tt = wp_new, tt_new
        if not shrunk:
            break
    trace.iterations = max(1, passes)
    trace.goal_arrival_literal = tt[-1]
    rechained, trace.profiles = _rechain(wp, t_start, edge_cost)
    trace.goal_arrival_rechained = rechained[-1]
    return wp, tt, trace
