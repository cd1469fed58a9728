"""Lattice graph construction and time-varying shortest-time search.

The planner works on a regular lattice of candidate waypoints clipped
to a rectangular region.  Edges connect each vertex to its 8- or
16-neighborhood (the 16 set adds knight moves, doubling the heading
resolution).  Edge traversal times depend on the departure time, so the
search is a label-setting Dijkstra over arrival times: it is optimal
whenever the edge times satisfy the FIFO property (departing later
never means arriving earlier), which it does not test: fifo_violations
sees only negative leg times, never a non-FIFO field.
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
# allocated: tracemalloc on a 112,560-edge lattice measured 66 B per edge
# at build_graph's peak, 15 B kept as CSR, and 55 B more in a full
# search's leg table (~140 MB at the budget).
MAX_LATTICE_EDGES = 2_000_000

# Sample points per screen call when segments are screened: about
# 5.7 MB of temporaries at the measured 87 B per point.
MAX_SCREEN_POINTS = 65_536

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


@dataclass(frozen=True)
class BlockedRegions:
    """Blocking predicate: flow-grid land plus restricted polygons.

    A point is blocked outside the flow domain (nothing can be sampled
    there), where the nearest flow node is land, and inside a polygon
    by the even-odd rule; a point on a polygon's boundary may land on
    either side, so keep-out polygons should carry their own margin.
    """

    grid: FlowGrid | None = None
    polygons: tuple = ()

    @np.errstate(over="ignore", invalid="ignore")  # as Python floats do
    def mask(self, x, y) -> np.ndarray:
        """Blocked flags of N points, screened in one array pass."""
        x, y = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (x, y))
        out = (np.zeros(x.shape, dtype=bool) if self.grid is None
               else self.grid.blocked_at(x, y))
        for poly in self.polygons:
            odd = np.zeros(x.shape, dtype=bool)
            for (xi, yi), (xj, yj) in zip(poly, (poly[-1], *poly[:-1])):
                if yi != yj:  # a horizontal edge crosses no ray
                    odd ^= (((yi > y) != (yj > y))
                            & (x < xi + (y - yi) * (xj - xi) / (yj - yi)))
            out |= odd
        return out


@dataclass
class SearchGraph:
    """Directed lattice graph in CSR form: the heads of vertex a's
    out-arcs are heads[indptr[a]:indptr[a + 1]], in insertion order."""

    vertex_xy: list
    indptr: np.ndarray
    heads: np.ndarray
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
        return self.heads.size

    def neighbors(self, a: int) -> list:
        return self.heads[self.indptr[a]:self.indptr[a + 1]].tolist()


def _sample_count(dx: float, dy: float, step: float) -> int:
    # math.hypot: np.hypot's last bit differs often enough to move a ceil
    return max(1, math.ceil(math.hypot(dx, dy) / step))


def _segments_clear(blocked: BlockedRegions, ax, ay, bx, by, m) -> np.ndarray:
    """Clear flags of N segments a -> b (arrays), segment i screened at
    a + k / m[i] * (b - a), k = 1 .. m[i] - 1, MAX_SCREEN_POINTS at a time."""
    dx, dy = bx - ax, by - ay
    clear = np.ones(m.size, dtype=bool)
    rows = max(1, MAX_SCREEN_POINTS // max(1, int(m.max(initial=1)) - 1))
    for lo in range(0, m.size, rows):
        inner = m[lo:lo + rows] - 1
        seg = np.repeat(np.arange(lo, lo + inner.size), inner)
        k = np.arange(1, seg.size + 1) - np.repeat(np.cumsum(inner) - inner,
                                                   inner)
        f = k / m[seg]
        hit = blocked.mask(ax[seg] + f * dx[seg], ay[seg] + f * dy[seg])
        clear[seg[hit]] = False
    return clear


def segment_clear(blocked: BlockedRegions, ax: float, ay: float,
                  bx: float, by: float, step: float) -> bool:
    """Screen a segment by sampling interior points every `step` meters."""
    a_b = (np.array([c], dtype=np.float64) for c in (ax, ay, bx, by))
    m = _sample_count(bx - ax, by - ay, step)
    return bool(_segments_clear(blocked, *a_b, np.array([m]))[0])


def build_graph(region: Rect, spacing: float, neighbor_set: int = 16,
                blocked: BlockedRegions | None = None) -> SearchGraph:
    """Lay a lattice over the region and wire up neighborhood edges.

    Vertices sit every `spacing` meters from the region's lower-left
    corner; blocked vertices are dropped, and each edge is screened by
    sampling its segment at spacing/4 so no retained edge crosses
    blocked geometry at that resolution.  Edges are directed and
    symmetric; counts include both directions.  A vertex lists its arcs
    in scan order: tail row, tail column, then neighbor offset.
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

    xs = region.x_min + np.arange(nx) * spacing
    ys = region.y_min + np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys)
    keep = ~blocked.mask(gx, gy).reshape(ny, nx)
    index = np.cumsum(keep).reshape(ny, nx) - 1  # read at kept nodes only
    vx, vy = gx[keep], gy[keep]
    n = vx.size

    # screen each undirected pair (j, i) -> (j + dj, i + di) once per
    # offset class, keyed by its scan position; then add both arcs
    step = spacing / 4.0
    half = [(di, dj) for di, dj in offsets if dj > 0 or (dj == 0 and di > 0)]
    pairs = []
    for h, (di, dj) in enumerate(half):
        tc = slice(max(0, -di), nx - max(0, di))
        hc = slice(max(0, di), nx + min(0, di))
        both = keep[:ny - dj, tc] & keep[dj:, hc]
        a, b = index[:ny - dj, tc][both], index[dj:, hc][both]
        # sample counts of the few distinct coordinate differences
        dx, dy = xs[hc] - xs[tc], ys[dj:] - ys[:ny - dj]
        udx, udy = sorted(set(dx.tolist())), sorted(set(dy.tolist()))
        counts = np.array([[_sample_count(ex, ey, step) for ex in udx]
                           for ey in udy], dtype=np.int64, ndmin=2)
        m = counts[np.searchsorted(udy, dy)[:, None], np.searchsorted(udx, dx)]
        clear = _segments_clear(blocked, vx[a], vy[a], vx[b], vy[b], m[both])
        pairs.append((a[clear], b[clear], a[clear] * len(half) + h))
    a, b, pos = (np.concatenate(part) for part in zip(*pairs))
    src = np.concatenate((a, b))
    # one stable sort by (source, scan position) orders every row
    arcs = np.argsort(src * (len(half) * n) + np.concatenate((pos, pos)),
                      kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return SearchGraph(list(zip(vx.tolist(), vy.tolist())), indptr,
                       np.concatenate((b, a))[arcs], spacing, neighbor_set,
                       region, blocked, lattice_size=n)


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
    vx, vy = np.array(graph.vertex_xy[:graph.lattice_size]).reshape(-1, 2).T
    out = []
    for name, (x, y) in (("start", tuple(start_xy)), ("goal", tuple(goal_xy))):
        x = float(x)
        y = float(y)
        if graph.blocked.mask(x, y)[0]:
            raise ConfigError(f"{name} ({x:g}, {y:g}) lies in a blocked area")
        snap = np.flatnonzero((abs(vx - x) < 1e-9) & (abs(vy - y) < 1e-9))
        if snap.size:
            out.append(int(snap[0]))
            continue
        # nearest first, ties to the lower index; float_power squares
        # by pow() as Python's ** does (np.square can differ by an ulp)
        ranked = np.argsort(np.float_power(vx - x, 2)
                            + np.float_power(vy - y, 2), kind="stable")[:k]
        m = [_sample_count(ex - x, ey - y, step)
             for ex, ey in zip(vx[ranked].tolist(), vy[ranked].tolist())]
        linked = ranked[_segments_clear(
            graph.blocked, np.full(ranked.size, x), np.full(ranked.size, y),
            vx[ranked], vy[ranked], np.array(m, dtype=np.int64))]
        if linked.size == 0:
            raise ConfigError(
                f"{name} ({x:g}, {y:g}) cannot be connected to the lattice")
        # the terminal's arc ends each linked row; its own row comes last
        idx = len(graph.vertex_xy)
        graph.vertex_xy.append((x, y))
        degree = np.diff(graph.indptr)
        degree[linked] += 1
        graph.heads = np.concatenate((
            np.insert(graph.heads, graph.indptr[linked + 1], idx), linked))
        graph.indptr = np.concatenate(([0], np.cumsum(degree),
                                       [graph.heads.size]))
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

    def prefetch(a: int, depart: float, frontier) -> None:
        if (graph.vertex_xy[a], depart) in table:
            return
        batch, lanes = [], 0
        for v, t in [(a, depart), *frontier]:
            key = (graph.vertex_xy[v], t)
            if key in table or batch and t >= depart + horizon:
                continue
            fan = [graph.vertex_xy[b] for b in graph.neighbors(v)]
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
    is the time-optimal route whenever edge times are FIFO, which goes
    unchecked: fifo_violations counts relaxations that would improve a
    settled vertex b, and as labels[b] <= arrival only a negative leg
    time makes one.  Returns None when the goal is unreachable.

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
        for b in graph.neighbors(a):
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
