"""Lattice graph construction and time-varying shortest-time search.

The planner works on a regular lattice of candidate waypoints clipped
to a rectangular region.  Edges connect each vertex to its 8- or
16-neighborhood (the 16 set adds knight moves, doubling the heading
resolution).  Edge traversal times depend on the departure time, so the
search is a label-setting A* over arrival times (Hart, Nilsson & Raphael
1968), ordered by label + |v - goal| / speed_bound, where speed_bound is
the glider's speed through water plus a proven bound on the
interpolated current (flowfield.current_bound).  It is optimal whenever
the edge times satisfy the FIFO property (departing later never means
arriving earlier), which it does not test; fifo_violations reports the
breaches the edge cost's leg table happens to witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .flowfield import (DEFAULT_SCHEME, SAMPLE_OK, FlowGrid, InterpScheme,
                        current_bound, sample,  # sample: for bench/spans.py
                        sample_batch)
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
# allocated: tracemalloc on a 112,560-edge lattice measured 67 B per edge
# at build_graph's peak (87 B with land to screen), 15 B kept as CSR, and
# 55 B more in a full search's leg table (~175 MB at the budget).
MAX_LATTICE_EDGES = 2_000_000

# Cuts (segment ends and the land walls in their boxes) per land screen
# call: about 4 MB of temporaries at the measured 62 B per cut.
MAX_SCREEN_POINTS = 65_536

# Lanes (legs x profiles) per prefetching kernel call: tracemalloc on a
# 17 x 17 x 4 x 13 grid measured 2.5 KB (bicubic/Akima/Akima) and 0.44
# KB (bilinear) of kernel temporaries per lane, up to 10 MB per call.
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
    Land is thus a union of cells, each around a land node with walls
    midway between knots, where FlowGrid.blocked_at switches knots (a
    point on a wall is in the lower cell).
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

    @cached_property
    def land_cells(self):
        """(x walls, y walls, land, columns, rows), or None without land:
        the walls between cells lie midway between knots, as
        flowfield._nearest places points, and columns[i] (rows[j]) counts
        the columns below i (rows below j) with land."""
        land = None if self.grid is None else self.grid.land_mask
        if land is None or not land.any():
            return None
        return (*(0.5 * (c[1:] + c[:-1]) for c in (
            self.grid.x_coords, self.grid.y_coords)), land,
            *(np.cumsum(np.append(0, land.any(axis=k))) for k in (0, 1)))


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


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _meets_polygon(poly, ax, ay, dx, dy) -> np.ndarray:
    """Whether each segment a -> a + d meets the polygon's boundary
    strictly between its ends (0 < s < 1 along it, 0 <= r <= 1 along an
    edge; parallel lines never meet) or has its midpoint inside, as a
    chord between two points of the boundary does."""
    out = BlockedRegions(polygons=(poly,)).mask(ax + 0.5 * dx, ay + 0.5 * dy)
    for (x0, y0), (x1, y1) in zip(poly, (*poly[1:], poly[0])):
        px, py, ex, ey = x0 - ax, y0 - ay, x1 - x0, y1 - y0
        den = dx * ey - dy * ex  # 0: s and r are infinite or NaN
        s, r = (px * ey - py * ex) / den, (px * dy - py * dx) / den
        out |= (s > 0) & (s < 1) & (r >= 0) & (r <= 1)
    return out


def _enters_land(land, walls, ends) -> np.ndarray:
    """Whether each segment passes through a land cell's interior.

    ends holds, per axis, the segments' ends a, b and the number of
    walls below min(a, b) (i0) and up to max(a, b) (i1).  A segment
    meets wall w at t = (w - a) / (b - a), as Liang and Barsky clip it;
    cut at these t, its pieces lie in the cells Amanatides and Woo walk,
    and each piece longer than 1e-12 (in t) is in the cell that holds
    its midpoint.  A segment along a wall (b = a) lies in the lower cell,
    as its points do.
    """
    n = ends[0][0].size
    seg, t = [np.arange(n).repeat(2)], [np.tile([0.0, 1.0], n)]
    for w, (a, b, i0, i1) in zip(walls, ends):
        count = np.where(a != b, i1 - i0, 0)  # the walls in [a, b]
        s = np.repeat(np.arange(n), count)
        k = np.arange(s.size) + np.repeat(i0 - np.cumsum(count) + count, count)
        seg.append(s)
        t.append((w[k] - a[s]) / (b - a)[s])
    seg, t = np.concatenate(seg), np.concatenate(t)
    rank = np.empty(t.size, dtype=int)
    rank[np.argsort(t)] = np.arange(t.size)  # then one sort by segment
    order = np.argsort(seg * t.size + rank)
    seg, t = seg[order], t[order]
    # a piece under 1e-12 of the segment is rounding at a grid corner
    piece = (seg[1:] == seg[:-1]) & (t[1:] - t[:-1] > 1e-12)
    seg, t = seg[1:][piece], 0.5 * (t[1:] + t[:-1])[piece]
    i, j = (np.searchsorted(w, a[seg] + t * (b - a)[seg])
            for w, (a, b, _, _) in zip(walls, ends))
    return np.bincount(seg, land[j, i], n) > 0


def _segments_clear(blocked: BlockedRegions, ax, ay, bx, by) -> np.ndarray:
    """Clear flags of N segments a -> b (arrays) with clear ends.

    Such a segment stays in the flow domain, a rectangle, and is blocked
    when it passes through a land cell or meets a keep-out polygon whose
    bounding box its own meets.  Land is clipped only for segments whose
    columns and rows of cells both hold some, at most MAX_SCREEN_POINTS
    cuts (the ends and the walls in its box) at a time, or one segment
    that has more.
    """
    (x0, x1), (y0, y1) = ((np.minimum(a, b), np.maximum(a, b))
                          for a, b in ((ax, bx), (ay, by)))
    clear = np.ones(ax.size, dtype=bool)
    for poly in blocked.polygons:
        xs, ys = zip(*poly)
        p = np.flatnonzero((x1 >= min(xs)) & (x0 <= max(xs))
                           & (y1 >= min(ys)) & (y0 <= max(ys)))
        if p.size:
            clear[p[_meets_polygon(poly, ax[p], ay[p], bx[p] - ax[p],
                                   by[p] - ay[p])]] = False
    if blocked.land_cells is None:
        return clear
    xw, yw, land, cols, rows = blocked.land_cells
    i0, i1 = np.searchsorted(xw, x0, "left"), np.searchsorted(xw, x1, "right")
    j0, j1 = np.searchsorted(yw, y0, "left"), np.searchsorted(yw, y1, "right")
    near = np.flatnonzero(clear & (cols[i1 + 1] > cols[i0])
                          & (rows[j1 + 1] > rows[j0]))
    total = np.cumsum(np.append(0, (i1 - i0 + j1 - j0 + 2)[near]))
    lo = 0
    while lo < near.size:
        hi = max(lo + 1, np.searchsorted(total, total[lo] + MAX_SCREEN_POINTS,
                                         "right") - 1)
        p, lo = near[lo:hi], hi
        ends = ((ax[p], bx[p], i0[p], i1[p]), (ay[p], by[p], j0[p], j1[p]))
        clear[p[_enters_land(land, (xw, yw), ends)]] = False
    return clear


def segments_clear(blocked: BlockedRegions, segments: list) -> list[bool]:
    """Screen (a_xy, b_xy) segments with clear ends in one pass."""
    ax, ay, bx, by = np.array(segments, dtype=np.float64).reshape(-1, 4).T
    return _segments_clear(blocked, ax, ay, bx, by).tolist()


def build_graph(region: Rect, spacing: float, neighbor_set: int = 16,
                blocked: BlockedRegions | None = None) -> SearchGraph:
    """Lay a lattice over the region and wire up neighborhood edges.

    Vertices sit every `spacing` meters from the region's lower-left
    corner; blocked vertices are dropped, and so is every edge that
    enters land or meets a keep-out polygon (segments_clear).  Edges
    are directed and symmetric; counts include both directions.  A
    vertex lists its arcs in scan order: tail row, tail column, then
    neighbor offset.
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

    # each undirected pair (j, i) -> (j + dj, i + di), keyed by its scan
    # position, is screened once; then both arcs of a clear pair are added
    half = [(di, dj) for di, dj in offsets if dj > 0 or (dj == 0 and di > 0)]
    pairs = []
    for h, (di, dj) in enumerate(half):
        tc = slice(max(0, -di), nx - max(0, di))
        hc = slice(max(0, di), nx + min(0, di))
        both = keep[:ny - dj, tc] & keep[dj:, hc]
        a, b = index[:ny - dj, tc][both], index[dj:, hc][both]
        pairs.append((a, b, a * len(half) + h))
    a, b, pos = (np.concatenate(part) for part in zip(*pairs))
    clear = _segments_clear(blocked, vx[a], vy[a], vx[b], vy[b])
    a, b, pos = a[clear], b[clear], pos[clear]
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

    Each terminal connects bidirectionally to those of its k nearest
    unblocked lattice vertices (default k = the graph's neighborhood
    size) that it reaches by a clear segment, screened as lattice edges
    are.  A terminal that coincides with a lattice vertex reuses it.
    Raises ConfigError for a blocked terminal or one with no surviving
    connection.
    """
    if k is None:
        k = graph.neighbor_set
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
        linked = ranked[_segments_clear(
            graph.blocked, np.full(ranked.size, x), np.full(ranked.size, y),
            vx[ranked], vy[ranked])]
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
    """A planned route: per-leg timing, dive profiles and their totals."""

    waypoints: list
    arrival_times: list
    profiles: list  # one per leg; None when the cost carries no profile
    # what the search saw: the edge cost's FIFO witness and the vertices
    # it settled, the goal included; equal routes compare equal whatever
    # these say
    fifo_violations: int = field(default=0, compare=False)
    vertices_settled: int = field(default=0, compare=False)

    @property
    def total_time(self) -> float:
        return self.arrival_times[-1] - self.arrival_times[0]

    @property
    def total_length(self) -> float:
        wp = self.waypoints
        return sum(math.hypot(b[0] - a[0], b[1] - a[1])
                   for a, b in zip(wp, wp[1:]))


def make_edge_cost(grid: FlowGrid, vehicle: VehicleSpec, profiles,
                   h: float = 0.25, scheme: InterpScheme = DEFAULT_SCHEME,
                   n_sub: int = 4, mode: str = "fastest",
                   slack_factor: float = 1.1,
                   graph: SearchGraph | None = None) -> EdgeCostFn:
    """Edge cost backed by optimal-profile glider travel times.

    speed_bound = speed_through_water + current_bound(grid, scheme)
    bounds every leg's over-ground speed: a saw-tooth's horizontal speed
    through water is below speed_through_water, and no sample's current
    exceeds the bound, so a leg a -> b takes at least |b - a| /
    speed_bound (tve_dijkstra's heuristic).

    Every leg it times stays in a table keyed by (tail, departure) that
    maps each head to its profile index and time; a miss times the one
    leg.  lookup(a, b, depart) reads the table, None for a leg it lacks.
    The batch entry time_legs(legs) takes (a, b, depart) triples: if the
    table misses legs[0], it times it with the later legs the table
    misses in one kernel call of at most MAX_BATCH_LANES lanes, dropping
    the rest, so offering the legs read next never adds a kernel call.
    fifo_witness() counts the (tail, head) pairs the table holds at two
    departures where the later departure arrives earlier: a lower bound
    on the field's FIFO breaches, not a proof that it has none.

    With a graph the cost also has prefetch(a, depart, frontier, live)
    for tve_dijkstra: frontier yields (v, t, lead), a heap entry of v at
    label t whose key f sorts lead seconds after a's, and live(v, t)
    lists the heads the search will read when v settles at t.  Unless
    the table holds a's row at depart or a has no live head, it times
    a's fan-out (live heads x profiles) in one kernel call with the
    fan-outs of the frontier entries leading by less than spacing /
    (speed + max node |c|), up to MAX_BATCH_LANES lanes per call (a's
    own fan-out always goes).  That window is a heuristic for the
    entries that settle at their present label: terminal edges shorter
    than the spacing, interpolants that overshoot the node speeds and
    legs that head for the goal near speed_bound can break it, which
    only wastes a fan-out.  Batching never changes a time.
    """
    profiles = list(profiles)
    check_cost_mode(mode, profiles)
    table: dict = {}  # (tail, departure) -> {head: (profile index, s)}

    def time_fans(keys: list, fans: list) -> None:
        counts = [len(fan) for fan in fans]
        pick, secs = choose_profile(profiles, profile_times(
            np.repeat([tail for tail, _ in keys], counts, axis=0),
            [xy for fan in fans for xy in fan],
            np.repeat([depart for _, depart in keys], counts), profiles,
            grid, vehicle, h, scheme, n_sub), mode, slack_factor)
        legs = zip(pick.tolist(), secs.tolist())
        for key, fan in zip(keys, fans):
            table.setdefault(key, {}).update(zip(fan, legs))

    def lookup(a_xy, b_xy, depart: float):
        got = table.get((a_xy, depart), {}).get(b_xy)
        if got is None:
            return None
        return (profiles[got[0]] if got[0] >= 0 else None), got[1]

    def time_legs(legs: list) -> None:
        if lookup(*legs[0]) is None:
            fans: dict = {}  # (tail, departure) -> the heads to time
            for a_xy, b_xy, depart in [
                    leg for leg in dict.fromkeys(legs) if lookup(*leg) is None
            ][:max(1, MAX_BATCH_LANES // len(profiles))]:
                fans.setdefault((a_xy, depart), []).append(b_xy)
            time_fans(list(fans), list(fans.values()))

    def cost(a_xy, b_xy, depart: float):
        got = lookup(a_xy, b_xy, depart)
        if got is None:
            time_fans([(a_xy, depart)], [[b_xy]])
            got = lookup(a_xy, b_xy, depart)
        return got

    def fifo_witness() -> int:
        departs: dict = {}  # tail -> the departures its rows hold
        for tail, depart in table:
            departs.setdefault(tail, []).append(depart)
        pairs = set()
        for tail, ts in departs.items():
            if len(ts) < 2:
                continue
            latest: dict = {}  # head -> latest arrival so far
            for depart in sorted(ts):
                for head, (_, secs) in table[tail, depart].items():
                    prior = latest.get(head, -math.inf)
                    if depart + secs < prior:
                        pairs.add((tail, head))
                    latest[head] = max(depart + secs, prior)
        return len(pairs)

    cost.lookup, cost.time_legs, cost.fifo_witness = (lookup, time_legs,
                                                      fifo_witness)
    cost.speed_bound = (vehicle.speed_through_water
                        + current_bound(grid, scheme))
    if graph is None:
        return cost
    horizon = graph.spacing / (vehicle.speed_through_water + grid.max_speed())

    def prefetch(a: int, depart: float, frontier, live) -> None:
        key = (graph.vertex_xy[a], depart)
        if key in table:
            return
        heads = live(a, depart)
        if not heads:
            return
        batch = [(key, [graph.vertex_xy[b] for b in heads])]
        lanes = len(heads) * len(profiles)
        for v, t, lead in frontier:
            key = (graph.vertex_xy[v], t)
            if lead >= horizon or key in table:
                continue
            heads = live(v, t)
            lanes += len(heads) * len(profiles)
            if lanes > MAX_BATCH_LANES:
                break
            if heads:
                batch.append((key, [graph.vertex_xy[b] for b in heads]))
        time_fans(*zip(*batch))

    cost.prefetch = prefetch
    return cost


def tve_dijkstra(graph: SearchGraph, start: int, goal: int, t_start: float,
                 edge_cost: EdgeCostFn) -> PlannedPath | None:
    """Earliest-arrival search from start to goal departing at t_start.

    Time-dependent A*: each edge is timed at the departure time of its
    tail vertex, and vertices settle one at a time in order of the key
    (f, label, index), f = label + |v - goal| / edge_cost.speed_bound.
    A cost whose legs a -> b all take at least |b - a| / speed_bound at
    every departure (make_edge_cost's) makes that heuristic consistent,
    so every vertex settles at the label Dijkstra's order gives it, FIFO
    or not: f never falls along the chain of parents that order gives
    v, so while v's label is too high, the chain's first unsettled
    vertex sorts below v and pops first.  A cost without speed_bound
    has f = label, Dijkstra's order.  Either way the labels are earliest
    arrivals when edge times are FIFO, which goes unchecked:
    fifo_violations is the cost's fifo_witness() after the search, 0 for
    a cost without one.  An edge into a settled vertex is never timed.
    Returns None when the goal is unreachable.

    A cost with a prefetch method (make_edge_cost with a graph) is
    offered the live heap entries but the goal before each settle,
    with live(v, t): the heads of v that are not settled and whose key
    sorts after v's at label t.  The others pop before v, as keys only
    fall, so the search never reads their legs from v; a leg timed at
    a departure that is no final label, or toward a head that settles
    before its tail, is never read.
    """
    n = graph.n_vertices
    if not (0 <= start < n and 0 <= goal < n):
        raise ConfigError("start/goal index outside graph")
    bound = getattr(edge_cost, "speed_bound", math.inf)
    xy = np.array(graph.vertex_xy).reshape(-1, 2) - graph.vertex_xy[goal]
    rest = (np.hypot(xy[:, 0], xy[:, 1]) / bound).tolist()  # h(v), seconds
    labels = [math.inf] * n
    parents = [-1] * n
    via_profile: list = [None] * n
    settled = bytearray(n)
    n_settled = 0
    labels[start] = t_start
    heap = [(t_start + rest[start], t_start, start)]
    prefetch = getattr(edge_cost, "prefetch", lambda *offer: None)

    def live(v: int, t: float) -> list:
        key = (t + rest[v], t, v)
        return [b for b in graph.neighbors(v) if not settled[b]
                and (labels[b] + rest[b], labels[b], b) > key]

    while heap:
        f, arrival, a = heappop(heap)
        if settled[a]:
            continue
        settled[a] = 1
        n_settled += 1
        if a == goal:
            break
        prefetch(a, arrival, ((v, t, g - f) for g, t, v in heap
                              if t == labels[v] and v != goal), live)
        a_xy = graph.vertex_xy[a]
        for b in live(a, arrival):  # every head not settled: a is least
            prof, dt = edge_cost(a_xy, graph.vertex_xy[b], arrival)
            cand = arrival + dt
            if cand < labels[b]:
                labels[b] = cand
                parents[b] = a
                via_profile[b] = prof
                heappush(heap, (cand + rest[b], cand, b))
    if math.isinf(labels[goal]):
        return None
    chain = [goal]
    while chain[-1] != start:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return PlannedPath([graph.vertex_xy[v] for v in chain],
                       [labels[v] for v in chain],
                       [via_profile[v] for v in chain[1:]],
                       getattr(edge_cost, "fifo_witness", lambda: 0)(),
                       n_settled)


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
    wp = path.waypoints
    depths = []
    for i in range(len(wp) - 1):
        prof = path.profiles[i] if i < len(path.profiles) else None
        if depth is not None:
            depths.append(depth)
        elif prof is not None:
            depths.append(0.5 * (prof.z_climb_to + prof.z_dive_to))
        else:
            depths.append(float(grid.z_levels[0]))
    us, vs, reasons = sample_batch(grid, [x for x, _ in wp[:-1]],
                                   [y for _, y in wp[:-1]], depths,
                                   path.arrival_times[:len(depths)], scheme)
    out = []
    for i, z in enumerate(depths):
        (x0, y0), (x1, y1) = wp[i], wp[i + 1]
        depart = path.arrival_times[i]
        if reasons[i] != SAMPLE_OK:
            out.append(LegReport(i, x0, y0, z, depart, math.nan, math.nan,
                                 math.nan, math.nan, False, False, False))
            continue
        u, v = float(us[i]), float(vs[i])
        mag = math.hypot(u, v)
        hx, hy = x1 - x0, y1 - y0
        zero = mag == 0.0
        psi = 0.0 if zero else math.degrees(
            math.atan2(hx * v - hy * u, hx * u + hy * v))
        follows = (mag > vehicle.speed_through_water) and abs(psi) < 90.0
        out.append(LegReport(i, x0, y0, z, depart, u, v, mag, psi, zero,
                             follows, True))
    return out
