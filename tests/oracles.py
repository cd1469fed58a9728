"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity the library also computes, but with a
different algorithmic structure (vectorized instead of windowed,
exhaustive instead of label-setting, one scalar point at a time instead
of batched) so shared bugs are unlikely.
"""

import math
from bisect import bisect_right

import numpy as np


def akima_reference(xs, ys, q):
    """Akima spline at q, vectorized over the whole knot array.

    Builds the full extended slope table (two quadratic ghost segments
    per end), derives every node slope at once, then evaluates the cubic
    on the containing segment from its polynomial coefficients rather
    than a Hermite basis.  Matches the convention that a vanishing
    weight denominator falls back to the mean of the two adjacent
    segment slopes.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.size
    if n < 3:
        raise ValueError("need at least 3 knots")
    q = min(max(q, xs[0]), xs[-1])

    dx = np.diff(xs)
    m = np.diff(ys) / dx                      # n - 1 interior slopes
    ext = np.empty(n + 3)
    ext[2:n + 1] = m
    ext[1] = 2.0 * ext[2] - ext[3]            # ghosts, left
    ext[0] = 2.0 * ext[1] - ext[2]
    ext[n + 1] = 2.0 * ext[n] - ext[n - 1]    # ghosts, right
    ext[n + 2] = 2.0 * ext[n + 1] - ext[n]

    w1 = np.abs(ext[3:] - ext[2:-1])          # |m[i+1] - m[i]|
    w2 = np.abs(ext[1:-2] - ext[:-3])         # |m[i-1] - m[i-2]|
    den = w1 + w2
    safe = np.where(den == 0.0, 1.0, den)
    slopes = np.where(
        den == 0.0,
        0.5 * (ext[1:-2] + ext[2:-1]),
        (w1 * ext[1:-2] + w2 * ext[2:-1]) / safe)

    i = int(np.searchsorted(xs, q, side="right") - 1)
    i = min(max(i, 0), n - 2)
    h = xs[i + 1] - xs[i]
    t0, t1 = slopes[i], slopes[i + 1]
    seg = m[i]
    c2 = (3.0 * seg - 2.0 * t0 - t1) / h
    c3 = (t0 + t1 - 2.0 * seg) / (h * h)
    d = q - xs[i]
    return float(ys[i] + t0 * d + c2 * d * d + c3 * d * d * d)


def effective_speed_reference(speed, cu, cv, hx, hy):
    """Ground speed along (hx, hy) via the quadratic |t*d - c| = speed.

    Solves for the ground speed t directly instead of splitting the
    current into components: t^2 - 2 t (c . d) + |c|^2 - s^2 = 0, taking
    the larger root.  Returns None when no positive root exists.
    """
    norm = math.hypot(hx, hy)
    dx, dy = hx / norm, hy / norm
    b = cu * dx + cv * dy
    c = cu * cu + cv * cv - speed * speed
    disc = b * b - c
    if disc < 0:
        return None
    t = b + math.sqrt(disc)
    if t <= 0:
        return None
    return t


def brute_force_arrival(n_vertices, out_edges, cost_fn, start, goal, t0):
    """Earliest goal arrival by exhaustive search over simple paths.

    out_edges maps vertex -> iterable of neighbor vertices.  cost_fn
    (a, b, depart) returns seconds (math.inf allowed).  Prunes branches
    whose arrival already meets or exceeds the best goal arrival, which
    is exact for non-negative edge times.  Returns (arrival, path) or
    None when the goal is unreachable.
    """
    best = [math.inf, None]
    on_path = [False] * n_vertices
    stack = [start]

    def walk(vertex, clock):
        if clock >= best[0]:
            return
        if vertex == goal:
            best[0] = clock
            best[1] = list(stack)
            return
        on_path[vertex] = True
        for nbr in out_edges[vertex]:
            if on_path[nbr]:
                continue
            dt = cost_fn(vertex, nbr, clock)
            if math.isinf(dt):
                continue
            stack.append(nbr)
            walk(nbr, clock + dt)
            stack.pop()
        on_path[vertex] = False

    walk(start, t0)
    if best[1] is None:
        return None
    return best[0], best[1]


def static_shortest_time(n_vertices, edges, start, goal):
    """Shortest time on a time-independent graph via scipy csgraph.

    edges is a list of (a, b, seconds) directed triples.  Returns inf
    when unreachable.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    if not edges:
        return math.inf if start != goal else 0.0
    rows = [a for a, _, _ in edges]
    cols = [b for _, b, _ in edges]
    vals = [w for _, _, w in edges]
    mat = coo_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))
    dist = sp_dijkstra(mat.tocsr(), directed=True, indices=start)
    return float(dist[goal])


def bilinear_reference(layer, xs, ys, x, y):
    """Four-corner bilinear formula written out longhand."""
    xs = list(xs)
    ys = list(ys)
    i = max(0, min(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2))
    j = max(0, min(np.searchsorted(ys, y, side="right") - 1, len(ys) - 2))
    fx = (x - xs[i]) / (xs[i + 1] - xs[i])
    fy = (y - ys[j]) / (ys[j + 1] - ys[j])
    lay = np.asarray(layer, dtype=np.float64)
    return float(
        lay[j, i] * (1 - fx) * (1 - fy)
        + lay[j, i + 1] * fx * (1 - fy)
        + lay[j + 1, i] * (1 - fx) * fy
        + lay[j + 1, i + 1] * fx * fy)


# ---------------------------------------------------------------------------
# Scalar reference sampler and leg timers: the one-point loops the planner
# used before sampling and leg timing were batched.  The batched kernels
# must reproduce them (see test_batch.py).

def _nearest_index(coords, q):
    n = len(coords)
    if n == 1:
        return 0
    i = bisect_right(coords, q) - 1
    if i < 0:
        return 0
    if i >= n - 1:
        return n - 1
    return i if (q - coords[i]) <= (coords[i + 1] - q) else i + 1


def _cell_index(coords, q):
    i = bisect_right(coords, q) - 1
    if i < 0:
        return 0
    n2 = len(coords) - 2
    return n2 if i > n2 else i


def _effective_method(method, n_knots):
    if n_knots == 1:
        return "nearest"
    if n_knots == 2 and method in ("cubic", "akima", "bicubic"):
        return "linear" if method != "bicubic" else "bilinear"
    return method


def _hermite(x0, x1, y0, y1, m0, m1, q):
    h = x1 - x0
    s = (q - x0) / h
    s2 = s * s
    s3 = s2 * s
    return (y0 * (2.0 * s3 - 3.0 * s2 + 1.0) + y1 * (3.0 * s2 - 2.0 * s3)
            + m0 * h * (s3 - 2.0 * s2 + s) + m1 * h * (s3 - s2))


def _cubic_axis_weights(coords, q):
    """Catmull-Rom node weights over a window of two to four knots."""
    n = len(coords)
    i = _cell_index(coords, q)
    x0, x1 = coords[i], coords[i + 1]
    h = x1 - x0
    s = (q - x0) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h01 = 3.0 * s2 - 2.0 * s3
    h10 = (s3 - 2.0 * s2 + s) * h
    h11 = (s3 - s2) * h
    lo = i - 1 if i > 0 else i
    hi = i + 2 if i + 2 <= n - 1 else i + 1
    w = [0.0] * (hi - lo + 1)
    w[i - lo] += h00
    w[i + 1 - lo] += h01
    if i > 0:
        a = 1.0 / (coords[i + 1] - coords[i - 1])
        w[i - 1 - lo] -= h10 * a
        w[i + 1 - lo] += h10 * a
    else:
        a = 1.0 / h
        w[i - lo] -= h10 * a
        w[i + 1 - lo] += h10 * a
    if i + 2 <= n - 1:
        a = 1.0 / (coords[i + 2] - coords[i])
        w[i - lo] -= h11 * a
        w[i + 2 - lo] += h11 * a
    else:
        a = 1.0 / h
        w[i - lo] -= h11 * a
        w[i + 1 - lo] += h11 * a
    return lo, w


def _axis_weights(coords, q, method):
    method = _effective_method(method, len(coords))
    if method == "nearest":
        return _nearest_index(coords, q), [1.0]
    if method in ("linear", "bilinear"):
        i = _cell_index(coords, q)
        f = (q - coords[i]) / (coords[i + 1] - coords[i])
        return i, [1.0 - f, f]
    return _cubic_axis_weights(coords, q)


def _akima_node_slope(m_prev2, m_prev, m_cur, m_next):
    w1 = abs(m_next - m_cur)
    w2 = abs(m_prev - m_prev2)
    den = w1 + w2
    if den == 0.0:
        return 0.5 * (m_prev + m_cur)
    return (w1 * m_prev + w2 * m_cur) / den


def _akima_eval(xs, ys, q):
    """Akima spline at q with recursive ghost slopes (n >= 3 knots)."""
    n = len(xs)
    j = _cell_index(xs, q)

    def seg(k):
        if 0 <= k <= n - 2:
            return (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
        if k < 0:
            return 2.0 * seg(k + 1) - seg(k + 2)
        return 2.0 * seg(k - 1) - seg(k - 2)

    m_m2, m_m1, m_0, m_1, m_2 = (seg(j - 2), seg(j - 1), seg(j),
                                 seg(j + 1), seg(j + 2))
    t0 = _akima_node_slope(m_m2, m_m1, m_0, m_1)
    t1 = _akima_node_slope(m_m1, m_0, m_1, m_2)
    return _hermite(xs[j], xs[j + 1], ys[j], ys[j + 1], t0, t1, q)


def _zt_stencil(coords, q, method):
    n = len(coords)
    if q <= coords[0]:
        q = coords[0]
    elif q >= coords[-1]:
        q = coords[-1]
    method = _effective_method(method, n)
    if method == "akima":
        j = _cell_index(coords, q)
        lo = j - 2 if j - 2 > 0 else 0
        hi = j + 3 if j + 3 < n - 1 else n - 1
        return q, "a", (lo, hi)
    return q, "w", _axis_weights(coords, q, method)


def sample_reference(grid, x, y, z, t, scheme):
    """One-point stencil loops: raises OutOfDomainError/LandContactError."""
    from gliderplan.errors import LandContactError, OutOfDomainError

    xl, yl = grid.x_coords.tolist(), grid.y_coords.tolist()
    zl, tl = grid.z_levels.tolist(), grid.t_steps.tolist()
    if not (xl[0] <= x <= xl[-1] and yl[0] <= y <= yl[-1]):
        raise OutOfDomainError(f"position ({x:g}, {y:g}) outside flow domain")
    ix0, wx = _axis_weights(xl, x, scheme.xy_method)
    iy0, wy = _axis_weights(yl, y, scheme.xy_method)
    z, zmode, zpay = _zt_stencil(zl, z, scheme.z_method)
    t, tmode, tpay = _zt_stencil(tl, t, scheme.t_method)
    nx, ny, nz = len(xl), len(yl), len(zl)
    fill = grid.fill_sentinel
    plane = ny * nx
    if tmode == "w":
        t_idx = range(tpay[0], tpay[0] + len(tpay[1]))
    else:
        t_idx = range(tpay[0], tpay[1] + 1)
    if zmode == "w":
        z_idx = range(zpay[0], zpay[0] + len(zpay[1]))
    else:
        z_idx = range(zpay[0], zpay[1] + 1)
    out = []
    for flat in (grid.u.ravel().tolist(), grid.v.ravel().tolist()):
        t_vals = []
        for it in t_idx:
            z_vals = []
            for iz in z_idx:
                base = (it * nz + iz) * plane + iy0 * nx + ix0
                acc = 0.0
                for jy in range(len(wy)):
                    row = base + jy * nx
                    r = 0.0
                    for jx in range(len(wx)):
                        val = flat[row + jx]
                        if val == fill or val != val:
                            raise LandContactError(
                                f"fill value in stencil near ({x:g}, {y:g})")
                        r += wx[jx] * val
                    acc += wy[jy] * r
                z_vals.append(acc)
            if zmode == "w":
                zv = 0.0
                for k, w in enumerate(zpay[1]):
                    zv += w * z_vals[k]
            else:
                zv = _akima_eval(zl[zpay[0]:zpay[1] + 1], z_vals, z)
            t_vals.append(zv)
        if tmode == "w":
            tv = 0.0
            for k, w in enumerate(tpay[1]):
                tv += w * t_vals[k]
        else:
            tv = _akima_eval(tl[tpay[0]:tpay[1] + 1], t_vals, t)
        out.append(tv)
    return out[0], out[1]


def travel_time_reference(p_start, p_end, t_start, grid, vehicle, scheme,
                          n_sub):
    """Slant-leg time with one scalar sample per sub-segment, or inf."""
    from gliderplan.errors import LandContactError, OutOfDomainError
    from gliderplan.kinematics import effective_speed

    if math.isinf(t_start):
        return math.inf
    x0, y0, z0 = p_start
    dx = p_end[0] - x0
    dy = p_end[1] - y0
    dz = p_end[2] - z0
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if length == 0.0:
        return 0.0
    inv = 1.0 / length
    direction = (dx * inv, dy * inv, dz * inv)
    step = length / n_sub
    t = t_start
    for i in range(n_sub):
        f = i / n_sub
        fm = (i + 0.5) / n_sub
        try:
            cur = sample_reference(grid, x0 + f * dx, y0 + f * dy,
                                   z0 + fm * dz, t, scheme)
        except (OutOfDomainError, LandContactError):
            return math.inf
        v = effective_speed(vehicle, cur, direction)
        if v is None:
            return math.inf
        t += step / v
    return t - t_start


def glider_travel_time_reference(p_start_2d, p_end_2d, profile, t_start,
                                 grid, vehicle, h, scheme, n_sub):
    """Sawtooth run as ceil(1/h) chained scalar slant legs, or inf."""
    if math.isinf(t_start):
        return math.inf
    n_seg = math.ceil(1.0 / h - 1e-9)
    x0, y0 = p_start_2d
    dx = p_end_2d[0] - x0
    dy = p_end_2d[1] - y0
    t = t_start
    for i in range(n_seg):
        f0 = i / n_seg
        f1 = (i + 1) / n_seg
        dt = travel_time_reference(
            (x0 + f0 * dx, y0 + f0 * dy, profile.z_climb_to),
            (x0 + f1 * dx, y0 + f1 * dy, profile.z_dive_to),
            t, grid, vehicle, scheme, n_sub)
        if math.isinf(dt):
            return math.inf
        t += dt
    return t - t_start


def choose_profile_reference(profiles, times, mode, slack_factor):
    """One row's pick as (index or None, time) by Python min over keys."""
    best = min(range(len(profiles)),
               key=lambda i: (times[i], -profiles[i].amplitude, i))
    if math.isinf(times[best]):
        return None, math.inf
    if mode == "fastest":
        return best, times[best]
    limit = slack_factor * times[best]
    within = [i for i in range(len(profiles)) if times[i] <= limit]
    if not within:
        return best, times[best]
    pick = min(within, key=lambda i: (-profiles[i].amplitude, times[i], i))
    return pick, times[pick]


# ---------------------------------------------------------------------------
# Scalar reference lattice screen and build: the one-point loops the
# planner used before the screen was one array pass and the lattice was
# stored as CSR.  build_graph and connect_terminals must reproduce them.

def land_at_reference(grid, x, y):
    """Nearest-node land test by bisection; raises OutOfDomainError."""
    from gliderplan.errors import OutOfDomainError

    xl, yl = grid.x_coords.tolist(), grid.y_coords.tolist()
    if not (xl[0] <= x <= xl[-1] and yl[0] <= y <= yl[-1]):
        raise OutOfDomainError(f"position ({x:g}, {y:g}) outside flow domain")
    return bool(grid.land_mask[_nearest_index(yl, y), _nearest_index(xl, x)])


def point_in_polygon_reference(x, y, poly):
    """Even-odd rule, one polygon edge at a time."""
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


def blocks_reference(blocked, x, y):
    """BlockedRegions' predicate for one point."""
    if blocked.grid is not None:
        xl, yl = blocked.grid.x_coords.tolist(), blocked.grid.y_coords.tolist()
        if not (xl[0] <= x <= xl[-1] and yl[0] <= y <= yl[-1]):
            return True
        if land_at_reference(blocked.grid, x, y):
            return True
    return any(point_in_polygon_reference(x, y, poly)
               for poly in blocked.polygons)


def segment_clear_reference(blocked, ax, ay, bx, by, step):
    """Screen a segment at its interior points every `step` meters."""
    length = math.hypot(bx - ax, by - ay)
    m = max(1, math.ceil(length / step))
    for k in range(1, m):
        f = k / m
        if blocks_reference(blocked, ax + f * (bx - ax), ay + f * (by - ay)):
            return False
    return True


def build_graph_reference(region, spacing, offsets, blocked):
    """Scalar lattice build: (vertex_xy, per-vertex head lists).

    Scans vertices row by row and, for each, the undirected pairs it
    tails in offset order, adding both arcs of every clear pair.
    """
    x_min, y_min, x_max, y_max = region
    nx = int((x_max - x_min) / spacing * (1 + 1e-9)) + 1
    ny = int((y_max - y_min) / spacing * (1 + 1e-9)) + 1
    index = [[-1] * nx for _ in range(ny)]
    vertex_xy = []
    for j in range(ny):
        y = y_min + j * spacing
        for i in range(nx):
            x = x_min + i * spacing
            if not blocks_reference(blocked, x, y):
                index[j][i] = len(vertex_xy)
                vertex_xy.append((x, y))
    step = spacing / 4.0
    heads = [[] for _ in vertex_xy]
    half = [(di, dj) for di, dj in offsets if dj > 0 or (dj == 0 and di > 0)]
    for j in range(ny):
        for i in range(nx):
            a = index[j][i]
            if a < 0:
                continue
            for di, dj in half:
                if not (0 <= i + di < nx and 0 <= j + dj < ny):
                    continue
                b = index[j + dj][i + di]
                if b < 0 or not segment_clear_reference(
                        blocked, *vertex_xy[a], *vertex_xy[b], step):
                    continue
                heads[a].append(b)
                heads[b].append(a)
    return vertex_xy, heads


def connect_terminals_reference(vertex_xy, heads, spacing, blocked,
                                terminals, k):
    """Insert terminals into a reference lattice (mutated in place):
    the k nearest vertices by (d^2, index) with clear segments, or a
    lattice vertex within 1e-9 m.  Returns the indices or the
    ConfigError message."""
    lattice_size = len(vertex_xy)
    step = spacing / 4.0
    out = []
    for name, (x, y) in zip(("start", "goal"), terminals):
        if blocks_reference(blocked, x, y):
            return f"{name} ({x:g}, {y:g}) lies in a blocked area"
        snap = [i for i in range(lattice_size)
                if abs(vertex_xy[i][0] - x) < 1e-9
                and abs(vertex_xy[i][1] - y) < 1e-9]
        if snap:
            out.append(snap[0])
            continue
        ranked = sorted(range(lattice_size), key=lambda i: (
            (vertex_xy[i][0] - x) ** 2 + (vertex_xy[i][1] - y) ** 2, i))
        linked = [v for v in ranked[:k] if segment_clear_reference(
            blocked, x, y, *vertex_xy[v], step)]
        if not linked:
            return f"{name} ({x:g}, {y:g}) cannot be connected to the lattice"
        idx = len(vertex_xy)
        vertex_xy.append((x, y))
        heads.append(linked)
        for v in linked:
            heads[v].append(idx)
        out.append(idx)
    return tuple(out)
