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


def effective_speed(vehicle, current, direction):
    """Over-ground speed along a unit 3-D direction, or None when infeasible.

    The current (horizontal, zero vertical component) is split into the
    component along the direction of travel and the cross component the
    vehicle must crab against.  What remains of the through-water speed
    after cancelling the cross component drives progress:

        v = c_par + sqrt(speed^2 - c_perp^2)

    Infeasible when the cross current exceeds the speed through water,
    or when the along-track sum is not positive (swept backwards).
    """
    cu = current[0]
    cv = current[1]
    dx = direction[0]
    dy = direction[1]
    c_par = cu * dx + cv * dy
    c_perp2 = cu * cu + cv * cv - c_par * c_par
    s2 = vehicle.speed_through_water ** 2 - c_perp2
    if s2 < 0.0:
        return None
    v = c_par + math.sqrt(s2)
    if v <= 0.0:
        return None
    return v


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
    # the wall between two knots is their midpoint; on it, the lower knot
    return i if q <= 0.5 * (coords[i] + coords[i + 1]) else i + 1


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


def axis_stencil_reference(coords, q, method):
    """flowfield._axis_stencil computing every part per query: the cell
    by searchsorted over all knots, then the clamped knots, widths and
    ghost flags (Akima) or tangent reciprocals and end flags (Catmull-Rom)
    from the knots it reads."""
    from gliderplan.flowfield import _nearest, effective_method

    n = coords.size
    method = effective_method(method, n)
    if method == "nearest":
        return [_nearest(coords, q)], [np.ones(q.shape)], None
    i = np.searchsorted(coords, q, side="right").astype(np.int32) - 1
    i = np.minimum(np.maximum(i, 0), n - 2)
    x0 = coords[i]
    x1 = coords[i + 1]
    h = x1 - x0
    s = (q - x0) / h
    if method in ("linear", "bilinear"):
        return [i, i + 1], [1.0 - s, s], None
    s2 = s * s
    s3 = s2 * s
    if method == "akima":
        knots = [np.maximum(i - 2, 0), np.maximum(i - 1, 0), i, i + 1,
                 np.minimum(i + 2, n - 1), np.minimum(i + 3, n - 1)]
        basis = (2.0 * s3 - 3.0 * s2 + 1.0, 3.0 * s2 - 2.0 * s3,
                 s3 - 2.0 * s2 + s, s3 - s2)
        dx = [coords[knots[k + 1]] - coords[knots[k]] for k in range(5)]
        ghost = (i < 2, i < 1, i + 1 > n - 2, i + 2 > n - 2)
        return knots, None, (h, basis, dx, ghost)
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h01 = 3.0 * s2 - 2.0 * s3
    h10 = (s3 - 2.0 * s2 + s) * h
    h11 = (s3 - s2) * h
    im1 = np.maximum(i - 1, 0)
    ip2 = np.minimum(i + 2, n - 1)
    left = i > 0
    right = i + 2 <= n - 1
    t1 = h10 * (1.0 / (x1 - coords[im1]))
    t2 = h11 * (1.0 / (coords[ip2] - x0))
    w01 = h01 + t1
    return ([im1, i, i + 1, ip2],
            [np.where(left, -t1, 0.0),
             np.where(left, h00, h00 - t1) - t2,
             np.where(right, w01, w01 + t2),
             np.where(right, t2, 0.0)],
            None)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def sample_batch_reference(grid, x, y, z, t, scheme):
    """sample_batch with no column sharing: every point gathers its own
    (Wz, Wy, Wx) stencil nodes, one time slot at a time, and runs all
    four stages itself.  Takes and returns the kernel's point shapes."""
    from gliderplan.flowfield import (SAMPLE_LAND, SAMPLE_OK,
                                      SAMPLE_OUT_OF_DOMAIN, _axis_stencil,
                                      _stage, grid_tables)

    out_shape = np.broadcast_shapes(*(np.shape(a) for a in (x, y, z, t)))
    x, y, z, t = (np.broadcast_to(np.asarray(a, dtype=np.float64),
                                  out_shape).reshape(-1) for a in (x, y, z, t))
    if len(out_shape) < 2:
        out_shape = (-1,)
    xs, ys, zs, ts = grid.x_coords, grid.y_coords, grid.z_levels, grid.t_steps
    inside = (x >= xs[0]) & (x <= xs[-1]) & (y >= ys[0]) & (y <= ys[-1])
    z = np.minimum(np.maximum(z, zs[0]), zs[-1])
    t = np.minimum(np.maximum(t, ts[0]), ts[-1])
    st_x, st_y, st_z, st_t = (_axis_stencil(table, q) for table, q in zip(
        grid_tables(grid, scheme), (x, y, z, t)))
    # flat (z, y, x) stencil node index within a time step, (Wz, Wy, Wx, N)
    _, nz, ny, nx = grid.shape
    zyx = np.stack(st_z[0])[:, None, :] * ny + np.stack(st_y[0])
    zyx = zyx[:, :, None, :] * nx + np.stack(st_x[0])
    idx = np.empty_like(zyx)
    vals = np.empty((2,) + zyx.shape)
    land = np.zeros(x.shape, dtype=bool)
    layers = []
    for it in st_t[0]:
        np.add(zyx, it * (nz * ny * nx), out=idx)
        np.take(grid._flat_u, idx, out=vals[0], mode="clip")
        np.take(grid._flat_v, idx, out=vals[1], mode="clip")
        if grid._flat_fill is not None:
            land |= grid._flat_fill[idx].any(axis=(0, 1, 2))
        layers.append(_stage(_stage(vals, st_x), st_y))
    out = _stage(_stage(np.stack(layers, axis=1), st_z), st_t)
    reason = np.where(inside, SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN).astype(np.int8)
    reason[inside & land] = SAMPLE_LAND
    return (out[0].reshape(out_shape), out[1].reshape(out_shape),
            reason.reshape(out_shape))


def travel_time_reference(p_start, p_end, t_start, grid, vehicle, scheme,
                          n_sub):
    """Slant-leg time with one scalar sample per sub-segment, or inf."""
    from gliderplan.errors import LandContactError, OutOfDomainError

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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def slant_times_reference(grid, vehicle, xs, ys, zs, xe, ye, ze, t_start,
                          scheme, n_sub):
    """Travel times of straight 3-D legs, z positive down: arrays (L,),
    or sample_batch's columns (x, y (C, 1); z, t_start (C, K)).

    Each leg is split into n_sub equal sub-segments.  A sub-segment
    samples the current once -- at its starting horizontal position, its
    mid depth, and the clock time accumulated so far -- and holds the
    resulting over_ground_speed constant across the sub-segment; the
    legs advance together, one flowfield.sample_batch call per sub-step
    (looked up at each call, so a test can swap the sampler).  Returns
    (seconds, ok); where ok is False a sub-segment left the domain,
    touched land or was infeasible, and the seconds mean nothing.
    """
    from gliderplan import flowfield
    from gliderplan.kinematics import over_ground_speed

    dx = xe - xs
    dy = ye - ys
    dz = ze - zs
    length = np.sqrt(dx * dx + dy * dy + dz * dz)
    inv = 1.0 / length
    ux = dx * inv
    uy = dy * inv
    step = length / n_sub
    ok = length > 0.0
    t = t_start
    for i in range(n_sub):
        f = i / n_sub
        fm = (i + 0.5) / n_sub
        cu, cv, reason = flowfield.sample_batch(
            grid, xs + f * dx, ys + f * dy, zs + fm * dz, t, scheme)
        v, feasible = over_ground_speed(vehicle, cu, cv, ux, uy)
        ok &= (reason == flowfield.SAMPLE_OK) & feasible
        t = t + step / v
    # a zero-length leg takes no time and samples nothing
    zero = length == 0.0
    return np.where(zero, 0.0, t - t_start), ok | zero


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def profile_times_reference(tails_2d, heads_2d, t_start, profiles, grid,
                            vehicle, h, scheme, n_sub):
    """kinematics.profile_times as one sample_batch call per sub-step:
    each segment's H x P slants advance together through
    slant_times_reference, each head a column of its P lanes, every lane
    sampled whether or not it is still alive."""
    from gliderplan.kinematics import INFEASIBLE

    profiles = list(profiles)
    heads = np.asarray(heads_2d, dtype=np.float64).reshape(-1, 2)
    tails = np.broadcast_to(np.reshape(tails_2d, (-1, 2)), heads.shape)
    departs = np.broadcast_to(np.reshape(t_start, -1), heads.shape[:1])
    shape = (heads.shape[0], len(profiles))
    # lane (k, j) flies head k with profile j: x, y (H, 1), z (P,), t (H, P)
    (x0, y0), (dx, dy) = tails.T[:, :, None], (heads - tails).T[:, :, None]
    zc, zd = np.reshape([(p.z_climb_to, p.z_dive_to) for p in profiles],
                        (-1, 2)).T
    n_seg = math.ceil(1.0 / h - 1e-9)
    t = t0 = np.repeat(departs, shape[1]).reshape(shape)
    alive = np.isfinite(t0)
    for i in range(n_seg):
        if not alive.any():
            break
        f0 = i / n_seg
        f1 = (i + 1) / n_seg
        dt, ok = slant_times_reference(
            grid, vehicle, x0 + f0 * dx, y0 + f0 * dy, zc, x0 + f1 * dx,
            y0 + f1 * dy, zd, t, scheme, n_sub)
        alive &= ok
        t = t + dt
    return np.where(alive, t - t0, INFEASIBLE)


def choose_profile_lexsort_reference(profiles, times, mode="fastest",
                                     slack_factor=1.1):
    """kinematics.choose_profile as one lexsort (fastest) or two
    (max_amplitude) over broadcast order and amplitude arrays: NaN sorts
    last."""
    from gliderplan.kinematics import INFEASIBLE

    times = np.asarray(times, dtype=np.float64).reshape(-1, len(profiles))
    order = np.broadcast_to(np.arange(len(profiles)), times.shape)
    neg_amp = np.broadcast_to([-p.amplitude for p in profiles], times.shape)
    rows = np.arange(times.shape[0])
    pick = np.lexsort((order, neg_amp, times))[:, 0]
    fastest = times[rows, pick]
    if mode == "max_amplitude":
        within = times <= (slack_factor * fastest)[:, None]
        alt = np.lexsort((order, times, neg_amp, ~within))[:, 0]
        pick = np.where(within[rows, alt], alt, pick)
    feasible = np.isfinite(fastest)
    return (np.where(feasible, pick, -1),
            np.where(feasible, times[rows, pick], INFEASIBLE))


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


def segment_clear_reference(blocked, ax, ay, bx, by):
    """Exact screen of a segment a -> b with clear, distinct ends.

    Land: Liang-Barsky clips the segment against each land cell (walls
    midway between knots, the outer cells unbounded; t = (wall - a) / d
    along each axis), and a clip longer than 1e-12 blocks it, as in the
    benchmark's checker (a shorter one is rounding at a grid corner).
    Along a wall (d = 0) it lies in the lower cell, as the wall's points
    do.
    Polygons: a segment whose bounding box meets the polygon's is cut
    where it meets an edge strictly between its ends (0 < s < 1,
    0 <= r <= 1; parallel lines never meet), and a cut blocks it, as
    touching the boundary does; uncut, it is one piece, blocked if its
    midpoint is inside (even-odd), as a chord between two points of the
    boundary is.
    """
    dx, dy = bx - ax, by - ay
    land = [] if blocked.grid is None else blocked.grid.land_mask.tolist()
    walls = [] if blocked.grid is None else [
        [-math.inf] + [0.5 * (c[i] + c[i + 1]) for i in range(len(c) - 1)]
        + [math.inf]
        for c in (blocked.grid.x_coords.tolist(),
                  blocked.grid.y_coords.tolist())]
    for j, row in enumerate(land):
        for i in range(len(row)):
            if not row[i]:
                continue
            lo, hi = 0.0, 1.0
            for p0, d, r0, r1 in ((ax, dx, walls[0][i], walls[0][i + 1]),
                                  (ay, dy, walls[1][j], walls[1][j + 1])):
                if d == 0.0:
                    if not r0 < p0 <= r1:
                        hi = -1.0
                    continue
                t0, t1 = (r0 - p0) / d, (r1 - p0) / d
                lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
            if hi - lo > 1e-12:  # less is rounding at a grid corner
                return False
    for poly in blocked.polygons:
        xs, ys = zip(*poly)
        if (max(ax, bx) < min(xs) or min(ax, bx) > max(xs)
                or max(ay, by) < min(ys) or min(ay, by) > max(ys)):
            continue  # their bounding boxes are apart
        for (x0, y0), (x1, y1) in zip(poly, (*poly[1:], poly[0])):
            ex, ey = x1 - x0, y1 - y0
            den = dx * ey - dy * ex
            if den != 0.0:
                s = ((x0 - ax) * ey - (y0 - ay) * ex) / den
                r = ((x0 - ax) * dy - (y0 - ay) * dx) / den
                if 0.0 < s < 1.0 and 0.0 <= r <= 1.0:
                    return False
        if point_in_polygon_reference(ax + 0.5 * dx, ay + 0.5 * dy, poly):
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
                        blocked, *vertex_xy[a], *vertex_xy[b]):
                    continue
                heads[a].append(b)
                heads[b].append(a)
    return vertex_xy, heads


def connect_terminals_reference(vertex_xy, heads, blocked, terminals, k):
    """Insert terminals into a reference lattice (mutated in place):
    the k nearest vertices by (d^2, index) with clear segments, or a
    lattice vertex within 1e-9 m.  Returns the indices or the
    ConfigError message."""
    lattice_size = len(vertex_xy)
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
            blocked, x, y, *vertex_xy[v])]
        if not linked:
            return f"{name} ({x:g}, {y:g}) cannot be connected to the lattice"
        idx = len(vertex_xy)
        vertex_xy.append((x, y))
        heads.append(linked)
        for v in linked:
            heads[v].append(idx)
        out.append(idx)
    return tuple(out)


def max_speed_reference(grid):
    """Largest |c| over the data nodes: hypot at every node."""
    data = True if grid._flat_fill is None else ~grid._flat_fill
    return float(np.max(np.hypot(grid._flat_u, grid._flat_v), where=data,
                        initial=0.0))


def path_report_reference(path, grid, vehicle, scheme, depth=None):
    """path_report with one scalar sample per leg."""
    from gliderplan.errors import LandContactError, OutOfDomainError
    from gliderplan.search import LegReport

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
            u, v = sample_reference(grid, x0, y0, z, depart, scheme)
        except (OutOfDomainError, LandContactError):
            out.append(LegReport(i, x0, y0, z, depart, math.nan, math.nan,
                                 math.nan, math.nan, False, False, False))
            continue
        mag = math.hypot(u, v)
        hx, hy = x1 - x0, y1 - y0
        psi = (0.0 if mag == 0.0 else
               math.degrees(math.atan2(hx * v - hy * u, hx * u + hy * v)))
        out.append(LegReport(i, x0, y0, z, depart, u, v, mag, psi,
                             mag == 0.0,
                             mag > vehicle.speed_through_water
                             and abs(psi) < 90.0, True))
    return out


def load_flow_grid_reference(path):
    """load_flow_grid as one decode of the whole file into Python lists.

    The whole text is parsed by json.loads (a binary archive, which is
    not one JSON document, by its first line), and each inline u/v list
    is checked and converted by one np.array call.
    """
    import json

    from gliderplan.errors import FlowFormatError
    from gliderplan.flowfield import FlowGrid, _parse_header, _require

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        line, _, _ = raw.partition(b"\n")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FlowFormatError(f"header: not parseable ({exc})") from exc
    if not isinstance(header, dict):
        raise FlowFormatError("header: must be an object")
    x, y, z, t, fill = _parse_header(header)
    encoding = _require(header, "encoding")
    shape = (t.size, z.size, y.size, x.size)
    count = int(np.prod(shape))
    if encoding == "inline":
        comps = []
        for name in ("u", "v"):
            vals = _require(header, name)
            # a list of JSON numbers infers an int or float array, where a
            # bool among them reads 0 or 1; null, strings, objects and
            # integers outside [-2**63, 2**64) infer other kinds
            try:
                arr = np.array(vals if isinstance(vals, list) else None)
                numbers = arr.ndim == 1 and arr.dtype.kind in "iuf" and not any(
                    type(vals[i]) is bool
                    for i in np.flatnonzero((arr == 0) | (arr == 1)).tolist())
            except ValueError:  # ragged
                numbers = False
            if not numbers:
                raise FlowFormatError(f"{name}: must be a flat array of numbers")
            if arr.size != count:
                raise FlowFormatError(
                    f"{name}: expected {count} values, got {arr.size}")
            comps.append(arr.astype(np.float64, copy=False).reshape(shape))
        return FlowGrid(x, y, z, t, comps[0], comps[1], fill_sentinel=fill)
    if encoding == "binary":
        offset = _require(header, "data_offset")
        if not isinstance(offset, int) or offset < 0:
            raise FlowFormatError("data_offset: must be a non-negative integer")
        need = offset + 2 * count * 4
        if len(raw) != need:
            raise FlowFormatError(
                f"data_offset: file holds {len(raw)} bytes, expected {need}")
        block = np.frombuffer(raw, dtype="<f4", count=2 * count, offset=offset)
        u = block[:count].astype(np.float64).reshape(shape)
        v = block[count:].astype(np.float64).reshape(shape)
        return FlowGrid(x, y, z, t, u, v, fill_sentinel=fill)
    raise FlowFormatError(f"encoding: unsupported value {encoding!r}")


def render_svg_reference(result, grid, path, depth=None, at_time=None,
                         width=900):
    """render_svg one land cell and one arrow at a time: Python
    arithmetic on each cell's numpy scalars, a region test per node,
    and four formatted numbers per cell.  Writes the same bytes."""
    from gliderplan.flowfield import SAMPLE_OK, sample_batch
    from gliderplan.mission import format_duration

    spec = result.spec
    reg = spec.region
    if depth is None:
        depth = float(grid.z_levels[0])
    if at_time is None:
        at_time = spec.start_time
    w = reg.x_max - reg.x_min
    hgt = reg.y_max - reg.y_min
    margin = 40.0
    scale = (width - 2 * margin) / w
    height = int(hgt * scale + 2 * margin)

    def sx(x: float) -> float:
        return margin + (x - reg.x_min) * scale

    def sy(y: float) -> float:
        return height - margin - (y - reg.y_min) * scale

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{fmt(sx(reg.x_min))}" y="{fmt(sy(reg.y_max))}" '
        f'width="{fmt(w * scale)}" height="{fmt(hgt * scale)}" '
        f'fill="#eaf4fb" stroke="#7a8a99" stroke-width="1"/>',
    ]

    # land cells, drawn as node-centered squares
    xs, ys = grid.x_coords, grid.y_coords
    for jy, jx in zip(*grid.land_mask.nonzero()):  # row-major order
        cx, cy = float(xs[jx]), float(ys[jy])
        if not reg.contains(cx, cy):
            continue
        dx0 = (xs[jx] - xs[jx - 1]) / 2 if jx > 0 else 0.0
        dx1 = (xs[jx + 1] - xs[jx]) / 2 if jx < xs.size - 1 else 0.0
        dy0 = (ys[jy] - ys[jy - 1]) / 2 if jy > 0 else 0.0
        dy1 = (ys[jy + 1] - ys[jy]) / 2 if jy < ys.size - 1 else 0.0
        parts.append(
            f'<rect x="{fmt(sx(cx - dx0))}" y="{fmt(sy(cy + dy1))}" '
            f'width="{fmt((dx0 + dx1) * scale)}" '
            f'height="{fmt((dy0 + dy1) * scale)}" fill="#b9a98c"/>')

    for poly in spec.restricted_areas:
        pts = " ".join(f"{fmt(sx(px))},{fmt(sy(py))}" for px, py in poly)
        parts.append(f'<polygon points="{pts}" fill="#d98c8c" '
                     f'fill-opacity="0.5" stroke="#a33" stroke-width="1"/>')

    # sub-sampled current arrows, sampled in one batch
    n_arrows = 22
    step_x = max(1, grid.x_coords.size // n_arrows)
    step_y = max(1, grid.y_coords.size // n_arrows)
    nodes = [(float(grid.x_coords[jx]), float(grid.y_coords[jy]))
             for jy in range(0, grid.y_coords.size, step_y)
             for jx in range(0, grid.x_coords.size, step_x)]
    nodes = [(cx, cy) for cx, cy in nodes if reg.contains(cx, cy)]
    arrows = []
    max_mag = 0.0
    if nodes:
        cxs, cys = zip(*nodes)
        us, vs, reason = sample_batch(grid, cxs, cys, depth, at_time,
                                      spec.scheme)
        for cx, cy, cu, cv, why in zip(cxs, cys, us.tolist(), vs.tolist(),
                                       reason.tolist()):
            mag = math.hypot(cu, cv)
            if why == SAMPLE_OK and mag > 0.0:
                arrows.append((cx, cy, cu, cv, mag))
                max_mag = max(max_mag, mag)
    if arrows and max_mag > 0.0:
        unit = min(step_x * (grid.x_coords[1] - grid.x_coords[0])
                   if grid.x_coords.size > 1 else w / n_arrows,
                   w / n_arrows) * 0.9
        for cx, cy, cu, cv, mag in arrows:
            f = (mag / max_mag) * unit / mag
            ex, ey = cx + cu * f, cy + cv * f
            arrows_len = math.hypot(sx(ex) - sx(cx), sy(ey) - sy(cy))
            if arrows_len < 1.0:
                continue
            parts.append(
                f'<line x1="{fmt(sx(cx))}" y1="{fmt(sy(cy))}" '
                f'x2="{fmt(sx(ex))}" y2="{fmt(sy(ey))}" stroke="#4a7dab" '
                f'stroke-width="1"/>')
            parts.append(
                f'<circle cx="{fmt(sx(ex))}" cy="{fmt(sy(ey))}" r="1.6" '
                f'fill="#4a7dab"/>')

    def polyline(wps, color: str, swidth: float, dash: str = "") -> str:
        pts = " ".join(f"{fmt(sx(px))},{fmt(sy(py))}" for px, py in wps)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{swidth}"{extra}/>')

    if result.planned is not None:
        parts.append(polyline(result.planned.waypoints, "#999999", 1.2, "4 3"))
    if result.smoothed is not None:
        parts.append(polyline(result.smoothed.waypoints, "#c8401a", 2.2))

    (x0, y0), (x1, y1) = spec.start_xy, spec.goal_xy
    parts.append(f'<circle cx="{fmt(sx(x0))}" cy="{fmt(sy(y0))}" r="5" '
                 f'fill="#1a7d36" stroke="#fff" stroke-width="1.5"/>')
    parts.append(f'<rect x="{fmt(sx(x1) - 4.5)}" y="{fmt(sy(y1) - 4.5)}" '
                 f'width="9" height="9" fill="#1d3f8f" stroke="#fff" '
                 f'stroke-width="1.5"/>')

    final = result.final_path
    label = ("travel time " + format_duration(final.total_time)
             if final is not None else "infeasible")
    parts.append(f'<text x="{fmt(margin)}" y="{fmt(margin - 12)}" '
                 f'font-family="sans-serif" font-size="13" '
                 f'fill="#222">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
