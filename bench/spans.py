"""Layer-boundary spans for the traced benchmark run.

The tracer wraps the planner's public functions where one layer calls
the next, by replacing the name in the *calling* module's namespace
(for example ``gliderplan.kinematics.sample``, which is what
``travel_time`` looks up on every call).  Nothing in the planner's
source changes.  Each span records its name, start, end and parent;
spans are kept per thread, so the legs timed on the profile pool's
worker threads nest under the right parents.  ``layer_metrics`` turns
the spans of one ``gliderplan plan`` call into the per-layer metrics.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

RAISED = 1  # the call raised (sample: land or out of domain)
INFEASIBLE = 2  # the call returned an infinite time (leg: no passage)

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "flowfield.load_calls": ("count", "lower"),
    "flowfield.load_s": ("s", "lower"),
    "flowfield.sample_calls": ("count", "lower"),
    "flowfield.sample_us": ("us", "lower"),
    "flowfield.sample_rejects": ("count", "lower"),
    "kinematics.legs": ("count", "lower"),
    "kinematics.legs_infeasible": ("count", "lower"),
    "kinematics.leg_us": ("us", "lower"),
    "kinematics.leg_self_us": ("us", "lower"),
    "kinematics.profile_cost_calls": ("count", "lower"),
    "kinematics.profile_cost_us": ("us", "lower"),
    "search.build_graph_s": ("s", "lower"),
    "search.connect_terminals_s": ("s", "lower"),
    "search.dijkstra_s": ("s", "lower"),
    "search.dijkstra_self_s": ("s", "lower"),
    "search.edges_relaxed": ("count", "lower"),
    "search.vertices_settled": ("count", "lower"),
    "search.relaxed_into_settled": ("count", "lower"),
    "search.relax_useful_ratio": ("ratio", "higher"),
    "smoothing.smooth_s": ("s", "lower"),
    "smoothing.edge_cost_calls": ("count", "lower"),
    "smoothing.merge_attempts": ("count", "lower"),
    "smoothing.merge_accept_ratio": ("ratio", "higher"),
    "mission.parse_s": ("s", "lower"),
    "mission.run_self_s": ("s", "lower"),
    "mission.baseline_s": ("s", "lower"),
    "mission.path_report_s": ("s", "lower"),
    "mission.reprofile_calls": ("count", "lower"),
    "mission.export_s": ("s", "lower"),
    "mission.svg_s": ("s", "lower"),
    "mission.svg_sample_calls": ("count", "lower"),
    "traced.plan_s": ("s", "lower"),
}


class _Buffer:
    """Spans of one thread; parent is an index into the same buffer."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.flags: list[int] = []
        self.stack: list[int] = []


class Tracer:
    """Records spans per thread and counts edge relaxations.

    The edge-cost closure is only ever called on the planner's main
    thread (by the search, the smoother and the mission), so the
    relaxation bookkeeping needs no lock.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_Buffer] = []
        self.relax = {"edges": 0, "into_settled": 0, "useful": 0,
                      "tails": 0}
        self._settled: set = set()
        self._labels: dict = {}
        self._tail = None
        self.goal_settled = 0
        self.merges = (0, 0)  # (attempted, accepted)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(span_buffer, index, args,
        result) runs after the span closes."""
        clock = time.perf_counter
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.name)
            stack = buf.stack
            buf.name.append(name)
            buf.parent.append(stack[-1] if stack else -1)
            buf.flags.append(0)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                buf.end[idx] = clock()
                buf.flags[idx] |= RAISED
                stack.pop()
                raise
            buf.end[idx] = clock()
            stack.pop()
            if after is not None:
                after(buf, idx, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks run after a wrapped call returns -------------------------

    @staticmethod
    def _mark_infinite(buf, idx, args, out):
        if math.isinf(out):
            buf.flags[idx] |= INFEASIBLE

    def _edge_cost_done(self, buf, idx, args, out):
        parent = buf.parent[idx]
        if parent < 0 or buf.name[parent] != "search.tve_dijkstra":
            return
        a, b, depart = args
        r = self.relax
        if a != self._tail:
            # the search expands every out-edge of one vertex in a row,
            # so a new tail is a newly settled vertex
            self._tail = a
            self._settled.add(a)
            r["tails"] += 1
        r["edges"] += 1
        if b in self._settled:
            r["into_settled"] += 1
            return
        cand = depart + out[1]
        if cand < self._labels.get(b, math.inf):
            self._labels[b] = cand
            r["useful"] += 1

    def _dijkstra_done(self, buf, idx, args, out):
        self.goal_settled = 0 if out is None else 1

    def _smooth_done(self, buf, idx, args, out):
        tr = out[2]
        attempted = (tr.merges_accepted + tr.merges_rejected_infeasible
                     + tr.merges_rejected_slower_local
                     + tr.merges_rejected_slower_goal)
        self.merges = (attempted, tr.merges_accepted)

    # -- installation ----------------------------------------------------

    def install(self, gp) -> None:
        """Wrap the layer boundaries of an imported gliderplan package."""
        cli, mission, search = gp.cli, gp.mission, gp.search
        kin = gp.kinematics
        w = self.wrap
        cli.parse_mission = w("mission.parse_mission", cli.parse_mission)
        mission.load_flow_grid = w("flowfield.load_flow_grid",
                                   mission.load_flow_grid)
        cli.load_flow_grid = w("flowfield.load_flow_grid", cli.load_flow_grid)
        cli.run_mission = w("mission.run_mission", cli.run_mission)
        cli.export_waypoints = w("mission.export_waypoints",
                                 cli.export_waypoints)
        cli.render_svg = w("mission.render_svg", cli.render_svg)
        mission.build_graph = w("search.build_graph", mission.build_graph)
        mission.connect_terminals = w("search.connect_terminals",
                                      mission.connect_terminals)
        mission.tve_dijkstra = w("search.tve_dijkstra", mission.tve_dijkstra,
                                 self._dijkstra_done)
        mission.smooth_path = w("smoothing.smooth_path", mission.smooth_path,
                                self._smooth_done)
        mission.path_report = w("search.path_report", mission.path_report)
        mission.optimal_profile_cost = w("kinematics.optimal_profile_cost",
                                         mission.optimal_profile_cost)
        search.optimal_profile_cost = w("kinematics.optimal_profile_cost",
                                        search.optimal_profile_cost)
        kin.glider_travel_time = w("kinematics.glider_travel_time",
                                   kin.glider_travel_time,
                                   self._mark_infinite)
        for mod in (kin, search, mission):
            mod.sample = w("flowfield.sample", mod.sample)
        make = mission.make_edge_cost

        def make_edge_cost(*args, **kwargs):
            return w("search.edge_cost", make(*args, **kwargs),
                     self._edge_cost_done)

        mission.make_edge_cost = make_edge_cost

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """All spans as numpy columns: name, duration, self time, parent
        name, flags."""
        names, durs, selfs, parents, flags = [], [], [], [], []
        for buf in self.buffers:
            n = len(buf.name)
            if n == 0:
                continue
            dur = np.asarray(buf.end) - np.asarray(buf.start)
            par = np.asarray(buf.parent)
            has = par >= 0
            child = np.bincount(par[has], weights=dur[has], minlength=n)
            names += buf.name
            durs.append(dur)
            selfs.append(dur - child)
            parents += [buf.name[p] if p >= 0 else "" for p in buf.parent]
            flags += buf.flags
        return (np.asarray(names), np.concatenate(durs),
                np.concatenate(selfs), np.asarray(parents),
                np.asarray(flags))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced `gliderplan plan` call (all but
    traced.plan_s, which the child measures with its own clocks)."""
    name, dur, self_t, parent, flags = tracer.spans()

    def sel(n, under=None):
        m = name == n
        if under is not None:
            m &= parent == under
        return m

    def total(n, under=None):
        return float(dur[sel(n, under)].sum())

    def count(n, under=None):
        return int(sel(n, under).sum())

    def mean_us(values, mask):
        k = int(mask.sum())
        return float(values[mask].sum()) / k * 1e6 if k else 0.0

    samp = sel("flowfield.sample")
    legs = sel("kinematics.glider_travel_time")
    opc = sel("kinematics.optimal_profile_cost")
    r = tracer.relax
    attempted, accepted = tracer.merges
    return {
        "flowfield.load_calls": count("flowfield.load_flow_grid"),
        "flowfield.load_s": total("flowfield.load_flow_grid"),
        "flowfield.sample_calls": int(samp.sum()),
        "flowfield.sample_us": mean_us(self_t, samp),
        "flowfield.sample_rejects": int((samp & ((flags & RAISED) > 0)).sum()),
        "kinematics.legs": int(legs.sum()),
        "kinematics.legs_infeasible":
            int((legs & ((flags & INFEASIBLE) > 0)).sum()),
        "kinematics.leg_us": mean_us(dur, legs),
        "kinematics.leg_self_us": mean_us(self_t, legs),
        "kinematics.profile_cost_calls": int(opc.sum()),
        "kinematics.profile_cost_us": mean_us(dur, opc),
        "search.build_graph_s": total("search.build_graph"),
        "search.connect_terminals_s": total("search.connect_terminals"),
        "search.dijkstra_s": total("search.tve_dijkstra"),
        "search.dijkstra_self_s":
            float(self_t[sel("search.tve_dijkstra")].sum()),
        "search.edges_relaxed": r["edges"],
        "search.vertices_settled": r["tails"] + tracer.goal_settled,
        "search.relaxed_into_settled": r["into_settled"],
        "search.relax_useful_ratio":
            r["useful"] / r["edges"] if r["edges"] else 0.0,
        "smoothing.smooth_s": total("smoothing.smooth_path"),
        "smoothing.edge_cost_calls":
            count("search.edge_cost", "smoothing.smooth_path"),
        "smoothing.merge_attempts": attempted,
        "smoothing.merge_accept_ratio":
            accepted / attempted if attempted else 0.0,
        "mission.parse_s": total("mission.parse_mission"),
        "mission.run_self_s":
            float(self_t[sel("mission.run_mission")].sum()),
        "mission.baseline_s": total("kinematics.optimal_profile_cost",
                                    "mission.run_mission"),
        "mission.path_report_s": total("search.path_report"),
        "mission.reprofile_calls":
            count("search.edge_cost", "mission.run_mission"),
        "mission.export_s": total("mission.export_waypoints"),
        "mission.svg_s": total("mission.render_svg"),
        "mission.svg_sample_calls":
            count("flowfield.sample", "mission.render_svg"),
    }
