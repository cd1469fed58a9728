"""Lattice graph construction and time-varying shortest-time search.

The planner works on a regular lattice of candidate waypoints clipped
to a rectangular region.  Edges connect each vertex to its 8- or
16-neighborhood (the 16 set adds knight moves, doubling the heading
resolution).  Edge traversal times depend on the departure time, so the
search is a label-setting Dijkstra over arrival times: it is optimal
whenever the edge times satisfy the FIFO property (departing later
never means arriving earlier), and violations observed during the
search are counted rather than repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, LandContactError, OutOfDomainError
from .flowfield import DEFAULT_SCHEME, FlowGrid, InterpScheme, sample
from .kinematics import (DiveProfile, VehicleSpec, check_cost_mode,
                         choose_profile, profile_times)
from .kinematics import optimal_profile_cost  # noqa: F401  for bench/spans.py

# (from_xy, to_xy, departure_s) -> (profile or None, seconds or INFEASIBLE).
# Implementations must return INFEASIBLE for an INFEASIBLE departure.
EdgeCostFn = Callable[[tuple, tuple, float], tuple[Optional[DiveProfile], float]]

NEIGHBOR_OFFSETS_8 = (
    (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (-1, 1), (-1, -1), (1, -1),
)
NEIGHBOR_OFFSETS_16 = NEIGHBOR_OFFSETS_8 + (
    (1, 2), (-1, 2), (1, -2), (-1, -2),
    (2, 1), (-2, 1), (2, -1), (-2, -1),
)

# Lattice size budget in directed edges, checked before anything is
# allocated: tracemalloc on a 112,560-edge lattice measured 76 B per edge
# in build_graph and 58 B more in a full search's leg table (~270 MB).
MAX_LATTICE_EDGES = 2_000_000

# Lanes (legs x profiles) per prefetching kernel call, sized so one
# call holds under 8 MB of kernel temporaries at the measured 0.75 KB
# (bilinear) to 1.8 KB (bicubic/Akima) per lane.
MAX_BATCH_LANES = 4_096


class Rect(NamedTuple):
    """Axis-aligned rectangle in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


def _point_in_polygon(x: float, y: float, poly) -> bool:
    # even-odd rule; boundary points may land on either side, so
    # keep-out polygons should carry their own margin
    inside = False
    j = len(poly) - 1
    for i in range(len(poly)):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            if x < xi + (y - yi) * (xj - xi) / (yj - yi):
                inside = not inside
        j = i
    return inside


@dataclass(frozen=True)
class BlockedRegions:
    """Blocking predicate: flow-grid land plus restricted polygons.

    A point is blocked when the nearest flow node is land, when it
    falls outside the flow domain (nothing can be sampled there), or
    when it lies inside any restricted polygon.
    """

    grid: FlowGrid | None = None
    polygons: tuple = ()

    def blocks(self, x: float, y: float) -> bool:
        if self.grid is not None:
            x0, y0, x1, y1 = self.grid.horizontal_bounds()
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                return True
            if self.grid.land_at(x, y):
                return True
        for poly in self.polygons:
            if _point_in_polygon(x, y, poly):
                return True
        return False


@dataclass
class SearchGraph:
    """Directed lattice graph with precomputed edge lengths."""

    vertex_xy: list
    adjacency: list
    spacing: float
    neighbor_set: int
    region: Rect
    blocked: BlockedRegions
    lattice_size: int = 0  # vertices that belong to the lattice proper

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_xy)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency)


def segment_clear(blocked: BlockedRegions, ax: float, ay: float,
                  bx: float, by: float, step: float) -> bool:
    """Screen a segment by sampling interior points every `step` meters."""
    length = math.hypot(bx - ax, by - ay)
    m = max(1, math.ceil(length / step))
    for k in range(1, m):
        f = k / m
        if blocked.blocks(ax + f * (bx - ax), ay + f * (by - ay)):
            return False
    return True


def build_graph(region: Rect, spacing: float, neighbor_set: int = 16,
                blocked: BlockedRegions | None = None) -> SearchGraph:
    """Lay a lattice over the region and wire up neighborhood edges.

    Vertices sit every `spacing` meters from the region's lower-left
    corner; blocked vertices are dropped, and each edge is screened by
    sampling its segment at spacing/4 so no retained edge crosses
    blocked geometry at that resolution.  Edges are directed and
    symmetric; counts include both directions.
    """
    region = Rect(*region)
    if not (region.x_max > region.x_min and region.y_max > region.y_min):
        raise ConfigError(f"region is degenerate: {region}")
    if spacing <= 0:
        raise ConfigError(f"grid_spacing must be positive, got {spacing!r}")
    if neighbor_set not in (8, 16):
        raise ConfigError(f"neighbor_set must be 8 or 16, got {neighbor_set!r}")
    blocked = blocked or BlockedRegions()
    offsets = NEIGHBOR_OFFSETS_8 if neighbor_set == 8 else NEIGHBOR_OFFSETS_16
    # +1e-9 relative slack so a region sized as an exact multiple of the
    # spacing keeps its far edge of vertices; the cap keeps int() finite
    fx = (region.x_max - region.x_min) / spacing * (1 + 1e-9)
    fy = (region.y_max - region.y_min) / spacing * (1 + 1e-9)
    nx = int(min(fx, MAX_LATTICE_EDGES)) + 1
    ny = int(min(fy, MAX_LATTICE_EDGES)) + 1
    if nx * ny * len(offsets) > MAX_LATTICE_EDGES:
        raise ConfigError(f"grid_spacing: {spacing:g} m makes more lattice "
                          f"edges than the {MAX_LATTICE_EDGES:,} allowed")

    index = [[-1] * nx for _ in range(ny)]
    vertex_xy: list[tuple[float, float]] = []
    for j in range(ny):
        y = region.y_min + j * spacing
        for i in range(nx):
            x = region.x_min + i * spacing
            if not blocked.blocks(x, y):
                index[j][i] = len(vertex_xy)
                vertex_xy.append((x, y))

    step = spacing / 4.0
    adjacency: list[list[tuple[int, float]]] = [[] for _ in vertex_xy]
    # screen each undirected pair once, then add both arcs
    half = [(di, dj) for di, dj in offsets if dj > 0 or (dj == 0 and di > 0)]
    lengths = {off: math.hypot(off[0] * spacing, off[1] * spacing)
               for off in half}
    for j in range(ny):
        for i in range(nx):
            a = index[j][i]
            if a < 0:
                continue
            ax, ay = vertex_xy[a]
            for di, dj in half:
                i2 = i + di
                j2 = j + dj
                if not (0 <= i2 < nx and 0 <= j2 < ny):
                    continue
                b = index[j2][i2]
                if b < 0:
                    continue
                bx, by = vertex_xy[b]
                if not segment_clear(blocked, ax, ay, bx, by, step):
                    continue
                length = lengths[(di, dj)]
                adjacency[a].append((b, length))
                adjacency[b].append((a, length))
    return SearchGraph(vertex_xy, adjacency, spacing, neighbor_set, region,
                       blocked, lattice_size=len(vertex_xy))


def connect_terminals(graph: SearchGraph, start_xy, goal_xy,
                      k: int | None = None) -> tuple[int, int]:
    """Insert start and goal into the graph; returns their indices.

    Each terminal connects bidirectionally to its k nearest unblocked
    lattice vertices (default k = the graph's neighborhood size), with
    every connecting segment screened against blocked geometry at the
    same spacing/4 resolution.  A terminal that coincides with a
    lattice vertex reuses it.  Raises ConfigError for a blocked
    terminal or one with no surviving connection.
    """
    if k is None:
        k = graph.neighbor_set
    step = graph.spacing / 4.0
    out = []
    for name, (x, y) in (("start", tuple(start_xy)), ("goal", tuple(goal_xy))):
        x = float(x)
        y = float(y)
        if graph.blocked.blocks(x, y):
            raise ConfigError(f"{name} ({x:g}, {y:g}) lies in a blocked area")
        snap = None
        for idx in range(graph.lattice_size):
            vx, vy = graph.vertex_xy[idx]
            if abs(vx - x) < 1e-9 and abs(vy - y) < 1e-9:
                snap = idx
                break
        if snap is not None:
            out.append(snap)
            continue
        ranked = sorted(
            range(graph.lattice_size),
            key=lambda i: ((graph.vertex_xy[i][0] - x) ** 2
                           + (graph.vertex_xy[i][1] - y) ** 2, i))
        idx = len(graph.vertex_xy)
        graph.vertex_xy.append((x, y))
        graph.adjacency.append([])
        connected = 0
        for v in ranked[:k]:
            vx, vy = graph.vertex_xy[v]
            if not segment_clear(graph.blocked, x, y, vx, vy, step):
                continue
            length = math.hypot(vx - x, vy - y)
            graph.adjacency[idx].append((v, length))
            graph.adjacency[v].append((idx, length))
            connected += 1
        if connected == 0:
            raise ConfigError(
                f"{name} ({x:g}, {y:g}) cannot be connected to the lattice")
        out.append(idx)
    return out[0], out[1]


@dataclass
class PlannedPath:
    """A planned route with per-leg timing and dive profiles."""

    waypoints: list
    arrival_times: list
    profiles: list  # one per leg; None when the cost carries no profile
    total_time: float
    total_length: float
    fifo_violations: int = 0


def make_edge_cost(grid: FlowGrid, vehicle: VehicleSpec, profiles,
                   h: float = 0.25, scheme: InterpScheme = DEFAULT_SCHEME,
                   n_sub: int = 4, mode: str = "fastest",
                   slack_factor: float = 1.1,
                   graph: SearchGraph | None = None) -> EdgeCostFn:
    """Edge cost backed by optimal-profile glider travel times.

    Every leg it times stays in a table keyed by (tail, departure) that
    holds each head's profile index and time; a miss times the one leg.
    With a graph the cost also has prefetch(a, depart, frontier) for
    tve_dijkstra: unless the table holds a's fan-out (out-edges x
    profiles) at depart, it times it in one kernel call with the
    fan-outs of the frontier's (vertex, departure) pairs leaving before
    depart + spacing / (speed + max node |c|), up to MAX_BATCH_LANES
    lanes per call (a's own fan-out always goes).  That window is a
    heuristic for the least lattice-edge time: terminal edges shorter
    than the spacing and interpolants that overshoot the node speeds
    can break it, which only wastes a fan-out.  Batching never changes
    a time.
    """
    profiles = list(profiles)
    check_cost_mode(mode, profiles)
    table: dict = {}  # (tail, departure) -> (heads, profile indices, s)

    def time_legs(keys: list, fans: list) -> None:
        counts = [len(fan) for fan in fans]
        pick, secs = choose_profile(profiles, profile_times(
            np.repeat([tail for tail, _ in keys], counts, axis=0),
            [xy for fan in fans for xy in fan],
            np.repeat([depart for _, depart in keys], counts), profiles,
            grid, vehicle, h, scheme, n_sub), mode, slack_factor)
        ends = np.cumsum(counts)
        for key, fan, lo, hi in zip(keys, fans, ends - counts, ends):
            heads, p, t = table.get(key, ([], pick[:0], secs[:0]))
            table[key] = (heads + fan, np.concatenate((p, pick[lo:hi])),
                          np.concatenate((t, secs[lo:hi])))

    def cost(a_xy, b_xy, depart: float):
        row = table.get((a_xy, depart))
        if row is None or b_xy not in row[0]:
            time_legs([(a_xy, depart)], [[b_xy]])
            row = table[(a_xy, depart)]
        k = row[0].index(b_xy)
        pick = int(row[1][k])
        return (profiles[pick] if pick >= 0 else None), float(row[2][k])

    if graph is None:
        return cost
    horizon = graph.spacing / (vehicle.speed_through_water + grid.max_speed())

    def fan_out(a: int) -> list:
        return [graph.vertex_xy[b] for b, _ in graph.adjacency[a]]

    def prefetch(a: int, depart: float, frontier) -> None:
        if (graph.vertex_xy[a], depart) in table:
            return
        batch, lanes = [], 0
        for v, t in [(a, depart), *frontier]:
            key = (graph.vertex_xy[v], t)
            if key in table or batch and t >= depart + horizon:
                continue
            fan = fan_out(v)
            lanes += len(fan) * len(profiles)
            if batch and lanes > MAX_BATCH_LANES:
                break
            batch.append((key, fan))
        time_legs(*zip(*batch))

    cost.prefetch = prefetch
    return cost


def tve_dijkstra(graph: SearchGraph, start: int, goal: int, t_start: float,
                 edge_cost: EdgeCostFn) -> PlannedPath | None:
    """Earliest-arrival search from start to goal departing at t_start.

    Label-setting Dijkstra where each edge is timed at the departure
    time of its tail vertex.  Vertices settle one at a time in arrival
    order with ties broken toward the lower vertex index.  The result
    is the time-optimal route whenever edge times are FIFO; relaxations
    that would improve an already-settled vertex are counted as FIFO
    violations and reported on the returned path.  Returns None when
    the goal is unreachable.

    A cost with a prefetch method (make_edge_cost with a graph) is
    offered the live heap entries but the goal before each settle; a
    fan-out timed at a departure that is no final label is never read.
    """
    n = graph.n_vertices
    if not (0 <= start < n and 0 <= goal < n):
        raise ConfigError("start/goal index outside graph")
    labels = [math.inf] * n
    parents = [-1] * n
    via_profile: list = [None] * n
    settled = bytearray(n)
    fifo_violations = 0
    labels[start] = t_start
    heap: list[tuple[float, int]] = [(t_start, start)]
    prefetch = getattr(edge_cost, "prefetch", lambda *offer: None)
    while heap:
        arrival, a = heappop(heap)
        if settled[a]:
            continue
        settled[a] = 1
        if a == goal:
            break
        prefetch(a, arrival, ((v, t) for t, v in heap
                              if t == labels[v] and v != goal))
        a_xy = graph.vertex_xy[a]
        for b, _length in graph.adjacency[a]:
            prof, dt = edge_cost(a_xy, graph.vertex_xy[b], arrival)
            if math.isinf(dt):
                continue
            cand = arrival + dt
            if settled[b]:
                if cand < labels[b] - 1e-9:
                    fifo_violations += 1
                continue
            if cand < labels[b]:
                labels[b] = cand
                parents[b] = a
                via_profile[b] = prof
                heappush(heap, (cand, b))
    if math.isinf(labels[goal]):
        return None
    chain = [goal]
    while chain[-1] != start:
        chain.append(parents[chain[-1]])
    chain.reverse()
    waypoints = [graph.vertex_xy[v] for v in chain]
    arrivals = [labels[v] for v in chain]
    profs = [via_profile[v] for v in chain[1:]]
    total_length = sum(
        math.hypot(waypoints[i + 1][0] - waypoints[i][0],
                   waypoints[i + 1][1] - waypoints[i][1])
        for i in range(len(waypoints) - 1))
    return PlannedPath(waypoints, arrivals, profs,
                       total_time=labels[goal] - t_start,
                       total_length=total_length,
                       fifo_violations=fifo_violations)


@dataclass(frozen=True)
class LegReport:
    """Current conditions at one leg's departure point."""

    index: int
    x: float
    y: float
    depth: float
    depart: float
    u: float
    v: float
    magnitude: float
    psi_deg: float
    zero_current: bool
    follows_current: bool
    sampled: bool


def path_report(path: PlannedPath, grid: FlowGrid, vehicle: VehicleSpec,
                scheme: InterpScheme = DEFAULT_SCHEME,
                depth: float | None = None) -> list[LegReport]:
    """Per-leg current magnitude and relative set angle.

    Each leg is sampled at its departure waypoint and departure time.
    The sampling depth is `depth` when given, otherwise the midpoint of
    the leg's dive band (or the shallowest grid level when the leg
    carries no profile).  psi is the signed angle from the leg heading
    to the current set, in degrees; a zero current reports psi = 0 with
    the zero_current flag raised.  Legs where the current outruns the
    vehicle while pointing within 90 degrees of the heading are flagged
    follows_current.  Unsampleable legs (land or out of domain) carry
    NaN fields and sampled=False.
    """
    out = []
    wp = path.waypoints
    for i in range(len(wp) - 1):
        (x0, y0), (x1, y1) = wp[i], wp[i + 1]
        prof = path.profiles[i] if i < len(path.profiles) else None
        if depth is not None:
            z = depth
        elif prof is not None:
            z = 0.5 * (prof.z_climb_to + prof.z_dive_to)
        else:
            z = float(grid.z_levels[0])
        depart = path.arrival_times[i]
        try:
            cur = sample(grid, x0, y0, z, depart, scheme)
        except (OutOfDomainError, LandContactError):
            out.append(LegReport(i, x0, y0, z, depart, math.nan, math.nan,
                                 math.nan, math.nan, False, False, False))
            continue
        mag = cur.magnitude
        hx = x1 - x0
        hy = y1 - y0
        if mag == 0.0:
            psi = 0.0
            zero = True
        else:
            zero = False
            psi = math.degrees(math.atan2(hx * cur.v - hy * cur.u,
                                          hx * cur.u + hy * cur.v))
        follows = (mag > vehicle.speed_through_water) and abs(psi) < 90.0
        out.append(LegReport(i, x0, y0, z, depart, cur.u, cur.v, mag, psi,
                             zero, follows, True))
    return out
