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

A cost with lookup and time_legs (make_edge_cost's) gets, with each leg
its table misses, the legs the pass reads next: every later candidate's
direct leg or the next leg of its goal check, so the checks advance in
lockstep, and the two-hop and lattice legs a broken run reads.  Every
leg is still timed at the departure it is read at, and each kernel call
holds a leg a one-leg cost would time alone: outputs stay the same and
kernel calls never grow.
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


def _smoothing_pass(wp: list, tt: list, edge_cost: EdgeCostFn,
                    trace: SmoothingTrace) -> tuple[list, list]:
    """One forward pass; wp has at least 3 waypoints."""
    known = getattr(edge_cost, "lookup", lambda a, b, t: None)
    time_legs = getattr(edge_cost, "time_legs", None)
    n = len(wp)
    tt = list(tt)
    i_start = 0
    wp_s = [wp[0]]
    tt_s = [tt[0]]
    t1 = tt[1] - tt[0]
    merge = False
    tails: dict = {}  # candidate j -> [k, t]: its goal check is at wp[k], t

    def walk(tail: list, read) -> list:
        # advance a goal check [k, t] while read knows its next leg
        while tail[0] < n - 1:
            got = read(wp[tail[0]], wp[tail[0] + 1], tail[1])
            if got is None:
                break
            tail[:] = tail[0] + 1, tail[1] + got[1]
        return tail

    def speculate() -> list:
        # the legs read next whether the run of merges goes on or breaks
        t0 = tt[i_start]
        out = []
        for j in range(i_path, n):
            direct = known(wp[i_start], wp[j], t0)
            if direct is None:
                out.append((wp[i_start], wp[j], t0))
            elif not math.isinf(direct[1]):
                k, t = walk(tails.setdefault(j, [j, t0 + direct[1]]), known)
                if k < n - 1:
                    out.append((wp[k], wp[k + 1], t))
        return out + [(wp[i], wp[i + hop], tt[i]) for hop in (2, 1)
                      for i in range(i_path - 1, n - hop)]

    def read(a, b, t: float):
        if time_legs is not None and known(a, b, t) is None:
            time_legs([(a, b, t), *speculate()])
        return edge_cost(a, b, t)

    for i_path in range(2, n):
        merge = True
        t2 = read(wp[i_path - 1], wp[i_path], tt[i_path - 1])[1]
        t_sum = read(wp[i_start], wp[i_path], tt[i_start])[1]
        if math.isinf(t_sum):
            merge = False
            trace.merges_rejected_infeasible += 1
        elif t1 + t2 < t_sum - TIME_EPS:
            merge = False
            trace.merges_rejected_slower_local += 1
        else:
            # re-time the untouched tail to see how the goal fares
            t_end = walk(tails.setdefault(i_path, [i_path, tt[i_start]
                                                   + t_sum]), read)[1]
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
            tails.clear()
            t1 = t2
            wp_s.append(wp[i_start])
            tt_s.append(tt[i_start])
    if not merge:
        # the last candidate kept its via point, so the goal arrival
        # predates the departure shift at wp[n-2]; refresh it
        tt[n - 1] = tt[n - 2] + read(wp[n - 2], wp[n - 1], tt[n - 2])[1]
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
