"""Gridded ocean-current fields: archive I/O, synthetic fields, 4-D sampling.

A flow field is stored on a rectilinear grid with ascending axes x, y
(meters), z (depth, meters positive down) and t (seconds).  The two
horizontal current components u (east) and v (north) are kept as 4-D
arrays indexed [t][z][y][x].  Sampling interpolates in four stages:
first in the horizontal plane per depth layer, then across depth, then
across time, independently for u and v.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FlowFormatError, LandContactError, OutOfDomainError

XY_METHODS = ("nearest", "bilinear", "bicubic")
ZT_METHODS = ("nearest", "linear", "cubic", "akima")

FILL_DEFAULT = -9999.0
FORMAT_VERSION = 1

SYNTH_KINDS = ("uniform", "gyre", "tidal_channel")

# inline u/v arrays are parsed and written in pieces of about this size
_CHUNK_BYTES = 1 << 20
# nodes per chunk of FlowGrid.max_speed: no temporary as large as the grid
MAX_SPEED_CHUNK = 1 << 16
_TOKEN = re.compile(rb'[][{}]|"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")


class CurrentVector(NamedTuple):
    """Horizontal current sample, meters per second."""

    u: float
    v: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True)
class InterpScheme:
    """Interpolation method per pipeline stage.

    xy_method applies to both horizontal axes; z_method and t_method are
    one-dimensional.  Axes with too few knots degrade automatically
    (cubic/akima -> linear below three knots, anything -> nearest on a
    single knot); see effective_scheme for the degraded report.
    """

    xy_method: str = "bilinear"
    z_method: str = "linear"
    t_method: str = "linear"

    def __post_init__(self) -> None:
        for name, methods in (("xy_method", XY_METHODS),
                              ("z_method", ZT_METHODS), ("t_method", ZT_METHODS)):
            if getattr(self, name) not in methods:
                raise ConfigError(f"{name}: must be one of {methods}, "
                                  f"got {getattr(self, name)!r}")


DEFAULT_SCHEME = InterpScheme()


def _as_axis(values, name: str) -> np.ndarray:
    ax = np.asarray(values, dtype=np.float64)
    if ax.ndim != 1 or ax.size == 0:
        raise FlowFormatError(f"{name}: must be a non-empty 1-D array")
    if not np.all(np.isfinite(ax)):
        raise FlowFormatError(f"{name}: contains non-finite values")
    if ax.size > 1 and not np.all(np.diff(ax) > 0):
        raise FlowFormatError(f"{name}: not strictly ascending")
    return ax


@dataclass(eq=False)
class FlowGrid:
    """In-memory gridded flow field.

    u and v have shape (len(t_steps), len(z_levels), len(y_coords),
    len(x_coords)).  Grid nodes equal to fill_sentinel (or NaN) mark
    invalid data; a horizontal cell whose column is filled at every
    depth and time step counts as land, and land_mask (ny, nx) marks
    those columns.  Instances are treated as immutable after
    construction.
    """

    x_coords: np.ndarray
    y_coords: np.ndarray
    z_levels: np.ndarray
    t_steps: np.ndarray
    u: np.ndarray
    v: np.ndarray
    fill_sentinel: float = FILL_DEFAULT

    def __post_init__(self) -> None:
        self.x_coords = _as_axis(self.x_coords, "axes.x")
        self.y_coords = _as_axis(self.y_coords, "axes.y")
        self.z_levels = _as_axis(self.z_levels, "axes.z")
        self.t_steps = _as_axis(self.t_steps, "axes.t")
        self.fill_sentinel = float(self.fill_sentinel)
        shape = (self.t_steps.size, self.z_levels.size,
                 self.y_coords.size, self.x_coords.size)
        filled = None
        for name in ("u", "v"):
            comp = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if comp.shape != shape:
                raise FlowFormatError(
                    f"{name}: shape {comp.shape} does not match axes {shape}")
            isfill = self._isfill(comp)
            if (~np.isfinite(comp) & ~isfill).any():
                raise FlowFormatError(f"{name}: contains non-finite values")
            filled = isfill if filled is None else filled | isfill
            setattr(self, name, comp)
        # flat views for sample_batch
        self._flat_u = self.u.reshape(-1)
        self._flat_v = self.v.reshape(-1)
        self._flat_fill = filled.reshape(-1) if filled.any() else None
        self.land_mask = filled.all(axis=(0, 1))
        self._max_speed = None  # max_speed() keeps its first answer

    def _isfill(self, a: np.ndarray) -> np.ndarray:
        if math.isnan(self.fill_sentinel):
            return np.isnan(a)
        return (a == self.fill_sentinel) | np.isnan(a)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.u.shape

    def max_speed(self) -> float:
        """Largest current speed |c| over the data nodes, m/s."""
        if self._max_speed is None:
            u, v, fill = self._flat_u, self._flat_v, self._flat_fill
            top = best = 0.0
            for i in range(0, u.size, MAX_SPEED_CHUNK):
                c = slice(i, i + MAX_SPEED_CHUNK)
                sq = u[c] * u[c] + v[c] * v[c]
                if fill is not None:
                    sq[fill[c]] = -1.0
                # u*u + v*v rounds within ~1e-16 relative, so hypot at
                # the nodes within 1e-12 of its max so far (a superset of
                # those near the final max) gives the same float as hypot
                # everywhere (less the least normal float, for squares
                # that underflow)
                top = max(top, np.max(sq, initial=0.0))
                near = sq >= top * (1.0 - 1e-12) - np.finfo(float).tiny
                best = max(best, np.max(np.hypot(u[c][near], v[c][near]),
                                        initial=0.0))
            self._max_speed = float(best)
        return self._max_speed

    def horizontal_bounds(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the gridded domain."""
        return (float(self.x_coords[0]), float(self.y_coords[0]),
                float(self.x_coords[-1]), float(self.y_coords[-1]))

    def blocked_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """True where (x, y) lies outside the horizontal bounds (nothing
        can be sampled there) or where the grid node nearest it is land,
        ties going to the lower knot; the grid's part of the lattice
        screen (search.BlockedRegions.mask)."""
        xs, ys = self.x_coords, self.y_coords
        inside = (x >= xs[0]) & (x <= xs[-1]) & (y >= ys[0]) & (y <= ys[-1])
        return ~inside | self.land_mask[_nearest(ys, y), _nearest(xs, x)]


def effective_method(method: str, n_knots: int) -> str:
    """Degrade an interpolation method to what n_knots can support."""
    if n_knots == 1:
        return "nearest"
    if n_knots == 2 and method in ("cubic", "akima", "bicubic"):
        return "linear" if method != "bicubic" else "bilinear"
    return method


def effective_scheme(scheme: InterpScheme, grid: FlowGrid) -> InterpScheme:
    """The scheme actually applied to this grid after axis degradation.

    The horizontal label reflects the weaker of the two axes; internally
    each axis degrades independently.
    """
    n_xy = min(grid.x_coords.size, grid.y_coords.size)
    return InterpScheme(
        xy_method=effective_method(scheme.xy_method, n_xy),
        z_method=effective_method(scheme.z_method, grid.z_levels.size),
        t_method=effective_method(scheme.t_method, grid.t_steps.size),
    )


def _stage_gain(coords: np.ndarray, method: str) -> float:
    """Largest factor by which one interpolation stage along coords can
    scale the largest |value| among its knots (see current_bound)."""
    method = effective_method(method, coords.size)
    if method in ("cubic", "bicubic"):
        return 1.5
    if method == "akima":
        seg = np.diff(coords)
        narrow = np.minimum(seg, np.minimum(np.r_[seg[0], seg[:-1]],
                                            np.r_[seg[1:], seg[-1]]))
        return 1.0 + 1.5 * float(np.max(seg / narrow))
    return 1.0


def current_bound(grid: FlowGrid, scheme: InterpScheme) -> float:
    """An upper bound C on the speed |c| of every point sample_batch
    returns with SAMPLE_OK under scheme, m/s.

    Such a point's stencils hold data nodes only, and each stage maps
    values bounded by B to values bounded by K * B, with K per axis:

    - nearest, linear, bilinear: K = 1.  The weights are a convex
      combination shared by u and v, and the norm is convex, so with
      every stage of this kind C is the node maximum, grid.max_speed().
    - cubic, bicubic (Catmull-Rom, _axis_stencil): K = 3/2.  With
      s in [0, 1], t1 = s(1-s)^2 h / (x1 - x0') and |t2| = s^2(1-s) h /
      (x2' - x0) (x0' the left tangent knot, x2' the right one), each
      at most s(1-s)^2 and s^2(1-s), as the tangent span is at least h.
      The weights are -t1, h00 + |t2|, h01 + t1 and -|t2|, or with a
      one-sided tangent h00 - t1 + |t2| = (1-s)^2(1+s) + |t2| >= 0 in
      place of the first two (mirrored at the right end), so
      sum |w| <= 1 + 2 t1 + 2 |t2| <= 1 + 2 s(1-s) <= 3/2.
    - akima: K = 1 + 3 rho / 2, rho the largest ratio of a cell's width
      h to the narrowest of it and its neighbour cells.  The value is
      y_j b00 + y_j+1 b01 + h (t_j b10 + t_j+1 b11), where b00, b01 >= 0
      sum to 1 and |b10| + |b11| = s(1-s) <= 1/4.  A node slope t is a
      convex combination of two of the slopes m_j-1, m_j, m_j+1, and a
      ghost among them is 2 m_j - m_k of real ones (never both ghosts
      on three or more knots), so |t| <= 3 max |m| <= 6 Y / narrowest,
      with Y the largest |y| of the window: |value| <= Y (1 + 3 rho/2).

    Akima's slopes depend on the data, so u and v take different
    weights: with an Akima stage the bound is K * hypot(max |u|,
    max |v|) over the data nodes, K the product over the four axes;
    otherwise it is K * max_speed().  Rounding can carry a sample past
    C by a few ulps only.
    """
    gain = (_stage_gain(grid.x_coords, scheme.xy_method)
            * _stage_gain(grid.y_coords, scheme.xy_method)
            * _stage_gain(grid.z_levels, scheme.z_method)
            * _stage_gain(grid.t_steps, scheme.t_method))
    if "akima" not in (effective_method(scheme.z_method, grid.z_levels.size),
                       effective_method(scheme.t_method, grid.t_steps.size)):
        return gain * grid.max_speed()
    data = True if grid._flat_fill is None else ~grid._flat_fill
    return gain * math.hypot(
        np.max(np.abs(grid._flat_u), where=data, initial=0.0),
        np.max(np.abs(grid._flat_v), where=data, initial=0.0))


# Reason codes returned by sample_batch, one per point.
SAMPLE_OK = 0
SAMPLE_OUT_OF_DOMAIN = 1
SAMPLE_LAND = 2


def _nearest(coords: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Index of the knot nearest each q: the walls between knots lie at
    their midpoints, 0.5 * (c_lo + c_hi), a q on a wall reads the lower
    knot, and a NaN q (an infeasible lane's time) reads the last knot.
    search.BlockedRegions.land_cells puts the land screen's walls there."""
    return np.searchsorted(0.5 * (coords[1:] + coords[:-1]), q, side="left")


@functools.lru_cache(maxsize=64)
def _cell_table(raw: bytes, method: str):
    """The cell-constant parts of _axis_stencil for a method other than
    nearest, on the axis whose float64 knots are raw, a column per cell:
    (interior knots, knots, x0 and h then Akima's knot widths or
    Catmull-Rom's tangent reciprocals, Akima's ghost or Catmull-Rom's end
    flags).  Callers take copies."""
    coords = np.frombuffer(raw)
    n = coords.size
    i = np.arange(n - 1, dtype=np.int32)
    lo = {"akima": -2, "cubic": -1, "bicubic": -1}.get(method, 0)
    knots = np.clip(i + np.arange(lo, 2 - lo, dtype=np.int32)[:, None], 0,
                    n - 1)
    real, flags = [coords[:-1], np.diff(coords)], []
    if method == "akima":
        real += list(np.diff(coords[knots], axis=0))
        flags = [i < 2, i < 1, i + 1 > n - 2, i + 2 > n - 2]
    elif lo:  # Catmull-Rom
        real += list(1.0 / (coords[knots[2:]] - coords[knots[:2]]))
        flags = [i > 0, i + 2 <= n - 1]
    return (coords[1:-1], knots, np.array(real),
            np.array(flags, dtype=bool).reshape(-1, n - 1))


def _axis_knots(coords: np.ndarray, q: np.ndarray, method: str) -> np.ndarray:
    """The knots (W, N) of _axis_stencil(coords, q, method)."""
    method = effective_method(method, coords.size)
    if method == "nearest":
        return _nearest(coords, q)[None]
    inner, knots, _, _ = _cell_table(coords.tobytes(), method)
    return knots.take(np.searchsorted(inner, q, side="right"), axis=1)


def _axis_stencil(coords: np.ndarray, q: np.ndarray, method: str):
    """Fixed-width stencil of one axis over N queries: (knots, weights,
    akima), knots (W, N) in ascending knot order.

    Cubic spans knots i-1 .. i+2 and Akima i-2 .. i+3 around the cell i
    of q (clamped to [0, n-2]), clamped to the axis; a clamped slot
    repeats a knot of the stencil and, for cubic, carries weight zero.
    For Akima, weights is None and akima holds what _akima_stage needs.
    Everything but q's place in its cell comes from _cell_table.
    """
    method = effective_method(method, coords.size)
    if method == "nearest":
        return _nearest(coords, q)[None], [np.ones(q.shape)], None
    inner, *table = _cell_table(coords.tobytes(), method)
    i = np.searchsorted(inner, q, side="right")
    knots, (x0, h, *real), flags = (a.take(i, axis=1) for a in table)
    s = (q - x0) / h
    if method in ("linear", "bilinear"):
        return knots, [1.0 - s, s], None
    s2 = s * s
    s3 = s2 * s
    if method == "akima":
        basis = (2.0 * s3 - 3.0 * s2 + 1.0, 3.0 * s2 - 2.0 * s3,
                 s3 - 2.0 * s2 + s, s3 - s2)
        return knots, None, (h, basis, real, tuple(flags))
    # Catmull-Rom: tangents are centered differences, one-sided at the
    # axis ends, so the stencil stays inside the grid
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h01 = 3.0 * s2 - 2.0 * s3
    h10 = (s3 - 2.0 * s2 + s) * h
    h11 = (s3 - s2) * h
    left, right = flags
    t1 = h10 * real[0]
    t2 = h11 * real[1]
    w01 = h01 + t1
    # t1 * -1.0 is -t1 but keeps a NaN's sign, so a NaN query's weights
    # share one NaN and its sample does not depend on the batch's shape
    return (knots,
            [np.where(left, t1 * -1.0, 0.0),
             np.where(left, h00, h00 - t1) - t2,
             np.where(right, w01, w01 + t2),
             np.where(right, t2, 0.0)],
            None)


def _weighted_sum(vals: np.ndarray, weights: list) -> np.ndarray:
    """Contract the second-to-last axis of vals with per-point weights,
    accumulating knot by knot."""
    acc = vals[..., 0, :] * weights[0]
    for k in range(1, len(weights)):
        acc += vals[..., k, :] * weights[k]
    return acc


def _akima_node_slope(m_prev2, m_prev, m_cur, m_next):
    w1 = np.abs(m_next - m_cur)
    w2 = np.abs(m_prev - m_prev2)
    den = w1 + w2
    return np.where(den == 0.0, 0.5 * (m_prev + m_cur),
                    (w1 * m_prev + w2 * m_cur) / den)


def _akima_stage(vals: np.ndarray, akima) -> np.ndarray:
    """Akima spline along the second-to-last axis of vals (six knots).

    Segment slopes beyond the data are extended with the standard
    quadratic rule (each ghost slope continues the trend of the two
    slopes inside it), and where both curvature weights vanish the node
    slope falls back to the average of its two segment slopes.  Only the
    five segments around the query cell enter, which is what makes the
    six-knot window exact.
    """
    h, (b00, b01, b10, b11), dx, (gm2, gm1, gp1, gp2) = akima
    ys = [vals[..., k, :] for k in range(6)]
    m = [(ys[k + 1] - ys[k]) / dx[k] for k in range(5)]  # segments j-2..j+2
    m[1] = np.where(gm1, 2.0 * m[2] - m[3], m[1])
    m[0] = np.where(gm2, 2.0 * m[1] - m[2], m[0])
    m[3] = np.where(gp1, 2.0 * m[2] - m[1], m[3])
    m[4] = np.where(gp2, 2.0 * m[3] - m[2], m[4])
    t0 = _akima_node_slope(m[0], m[1], m[2], m[3])
    t1 = _akima_node_slope(m[1], m[2], m[3], m[4])
    return ys[2] * b00 + ys[3] * b01 + t0 * h * b10 + t1 * h * b11


def _stage(vals: np.ndarray, stencil) -> np.ndarray:
    _, weights, akima = stencil
    if weights is None:
        return _akima_stage(vals, akima)
    return _weighted_sum(vals, weights)


# Grid nodes per space_stage gather, and layer values per depth-stage
# gather: under 60 B each with indices, sums and temporaries
MAX_GATHER_NODES = 1 << 14


def _window(knots: np.ndarray, shape):
    """Knot windows of columns of points (C, K) from their stencils'
    ascending knots (W, C * K): each column's first knot, the widest
    window's knot count, and each stencil knot's slot in its column's
    window, (W, C * K)."""
    slot = np.array(knots).reshape(len(knots), *shape)
    lo = slot[0].min(axis=1, initial=2**31 - 1)
    slot -= lo[:, None]
    return lo, int(slot[-1].max(initial=0)) + 1, slot.reshape(len(slot), -1)


def _flat(a: np.ndarray, shape) -> np.ndarray:  # broadcast only if need be
    return (a if a.shape == shape else np.broadcast_to(a, shape)).reshape(-1)


class SpaceWindow(NamedTuple):
    """Part one of the kernel (space_stage) for C columns of K points,
    point j of column c being lane c * K + j, over n_wt time slots."""

    series: np.ndarray  # (2, n_wt, C * K): u, v after the depth stage
    fill: np.ndarray | None  # (n_wt, C * K): a fill node in that stencil
    reason: np.ndarray  # (C * K,) int8: SAMPLE_OK or SAMPLE_OUT_OF_DOMAIN


def space_stage(grid: FlowGrid, x, y, z, lo, n_wt: int,
                scheme: InterpScheme = DEFAULT_SCHEME) -> SpaceWindow:
    """Part one of the kernel for C columns of K points sharing (x, y),
    x and y (C,) with z (C, K): the x-then-y stage once per (column,
    time knot, depth knot) of the column's windows, then each point's
    depth stage at each of its column's time knots, each stage
    MAX_GATHER_NODES values at a time.  Column c's time window holds
    knots lo[c] + s for slots s < n_wt (a slot past the axis end repeats
    its last knot), its depth window the knots its points' depth
    stencils span."""
    n_col, k = z.shape
    xs, ys, zs = grid.x_coords, grid.y_coords, grid.z_levels
    inside = (x >= xs[0]) & (x <= xs[-1]) & (y >= ys[0]) & (y <= ys[-1])
    kx, wx, _ = _axis_stencil(xs, x, scheme.xy_method)
    ky, wy, _ = _axis_stencil(ys, y, scheme.xy_method)
    zq = np.minimum(np.maximum(z, zs[0]), zs[-1]).reshape(-1)
    lo_z, n_wz, jz = _window(_axis_knots(zs, zq, scheme.z_method), (n_col, k))

    # horizontal layers (2, n_wt, n_wz, C) in chunks of columns
    nt, nz, ny, nx = grid.shape
    yx = ky[:, None, :] * nx + kx  # (Wy, Wx, C)
    layers = np.empty((2, n_wt, n_wz, n_col))
    fill = np.zeros(layers.shape[1:], dtype=bool)
    step = max(1, MAX_GATHER_NODES // (n_wt * n_wz * yx.shape[0] * yx.shape[1]))
    win_t, win_z = (np.arange(n, dtype=np.int32)[:, None] for n in (n_wt, n_wz))
    for c in range(0, n_col, step):
        cs = slice(c, c + step)
        it = np.minimum(lo[cs] + win_t, nt - 1)
        iz = np.minimum(lo_z[cs] + win_z, nz - 1)
        idx = ((it[:, None, :] * nz + iz) * (ny * nx))[:, :, None, None, :] \
            + yx[:, :, cs]  # (n_wt, n_wz, Wy, Wx, Cc)
        vals = np.empty((2,) + idx.shape)
        grid._flat_u.take(idx, out=vals[0], mode="clip")
        grid._flat_v.take(idx, out=vals[1], mode="clip")
        if grid._flat_fill is not None:
            fill[:, :, cs] = grid._flat_fill.take(idx).any(axis=(2, 3))
        layers[:, :, :, cs] = _weighted_sum(_weighted_sum(
            vals, [w[cs] for w in wx]), [w[cs] for w in wy])
    vals = idx = None  # the last chunk's, before the depth stage's own

    # each lane's depth stage at its depth knots' slots li (Wz, C * K)
    li = jz * n_col + np.arange(n_col, dtype=jz.dtype).repeat(k)
    layers, fill = layers.reshape(2, n_wt, -1), fill.reshape(n_wt, -1)
    series = np.empty((2, n_wt, zq.size))
    land = None if grid._flat_fill is None else np.empty((n_wt, zq.size),
                                                          dtype=bool)
    step = max(1, MAX_GATHER_NODES // (n_wt * len(li)))
    for p in range(0, zq.size, step):
        ps = slice(p, p + step)
        series[:, :, ps] = _stage(layers.take(li[:, ps], axis=2),
                                  _axis_stencil(zs, zq[ps], scheme.z_method))
        if land is not None:
            land[:, ps] = fill.take(li[:, ps], axis=1).any(axis=1)
    reason = np.where(inside, SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN).astype(
        np.int8).repeat(k)
    return SpaceWindow(series, land, reason)


def time_stage(space: SpaceWindow, st_t, jt, lanes: slice = slice(None)):
    """Part two of the kernel: the time stage of space's lanes in lanes,
    each reading its series at its time stencil st_t (_axis_stencil over
    the lanes' clamped times), whose knots sit at slots jt (Wt, lanes)
    of its column's time window.

    Returns (u, v, reason) per lane, reason SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN
    or SAMPLE_LAND (a fill value in the stencil); a lane whose slots
    leave its window gets values that mean nothing.
    """
    series, fill, reason = space
    n = series.shape[2]
    li = jt * n + np.arange(*lanes.indices(n), dtype=np.int32)
    out = _stage(series.reshape(2, -1).take(li, axis=1, mode="clip"), st_t)
    reason = reason[lanes].copy()
    if fill is not None:
        reason[(reason == SAMPLE_OK)
               & fill.take(li, mode="clip").any(axis=0)] = SAMPLE_LAND
    return out[0], out[1], reason


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def sample_batch(grid: FlowGrid, x, y, z, t,
                 scheme: InterpScheme = DEFAULT_SCHEME):
    """Sample the current at N space-time points at once.

    x, y of shape (C, 1) with z, t of shape (C, K) are C columns of K
    points sharing (x, y); 1-D inputs are columns of one point.  Runs the
    kernel's two parts: space_stage over each column's window, the time
    knots its points' stencils span (padded to the widest), then
    time_stage for every point.  Sums run knot by knot in the scalar
    order, so a point's value does not depend on the rest of the batch.
    Depth and time clamp to the grid range.  Instead of raising, each
    point gets a reason code, SAMPLE_OK, SAMPLE_OUT_OF_DOMAIN or
    SAMPLE_LAND (a fill value in the stencil); u, v mean nothing if not OK.

    Returns:
        (u, v, reason) of the points' shape, (N,) or (C, K): m/s, int8.
    """
    x, y, z, t = (np.asarray(a, dtype=np.float64) for a in (x, y, z, t))
    out_shape = np.broadcast(x, y, z, t).shape
    if len(out_shape) < 2:  # columns of one point
        x, y, z, t = (a.reshape(-1, 1) for a in (x, y, z, t))
        out_shape = (-1,)
    shape = n_col, _ = np.broadcast(x, y, z, t).shape
    ts = grid.t_steps
    st_t = _axis_stencil(ts, np.minimum(np.maximum(_flat(t, shape), ts[0]),
                                        ts[-1]), scheme.t_method)
    lo, n_wt, jt = _window(st_t[0], shape)
    space = space_stage(grid, _flat(x, (n_col, 1)), _flat(y, (n_col, 1)),
                        np.broadcast_to(z, shape), lo, n_wt, scheme)
    return tuple(a.reshape(out_shape) for a in time_stage(space, st_t, jt))


def sample(grid: FlowGrid, x: float, y: float, z: float, t: float,
           scheme: InterpScheme = DEFAULT_SCHEME) -> CurrentVector:
    """Sample the current at one space-time point (see sample_batch).

    Horizontal queries outside the domain raise OutOfDomainError; if any
    grid node in the support stencil is a fill value the sample raises
    LandContactError.

    Returns:
        CurrentVector(u, v) in m/s.
    """
    u, v, reason = sample_batch(grid, x, y, z, t, scheme)
    if reason[0] == SAMPLE_OUT_OF_DOMAIN:
        raise OutOfDomainError(f"position ({x:g}, {y:g}) outside flow domain")
    if reason[0] == SAMPLE_LAND:
        raise LandContactError(f"fill value in stencil near ({x:g}, {y:g})")
    return CurrentVector(float(u[0]), float(v[0]))


# ---------------------------------------------------------------------------
# synthetic fields

def synth_field(kind: str, x_coords, y_coords, z_levels=(0.0,),
                t_steps=(0.0,), params: dict | None = None,
                fill_sentinel: float = FILL_DEFAULT) -> FlowGrid:
    """Generate a synthetic flow field on the given axes.

    Kinds:
        uniform        constant (u0, v0) everywhere
        gyre           time-perturbed divergence-free double gyre
                       (amplitude, epsilon, period)
        tidal_channel  spatially uniform u = amplitude*sin(2*pi*t/period)

    The gyre follows the standard two-cell benchmark: with the domain
    rescaled to [0, 2] x [0, 1], f(x, t) = a*x^2 + b*x where
    a = epsilon*sin(2*pi*t/period) and b = 1 - 2a, giving
    u = -pi*A*sin(pi*f)*cos(pi*y) and v = pi*A*cos(pi*f)*sin(pi*y)*df/dx.
    Both components derive from one stream function, so the field is
    divergence-free; on domains that are not twice as wide as they are
    tall this scales v by 2*height/width.
    """
    params = dict(params or {})
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"kind must be one of {SYNTH_KINDS}, got {kind!r}")
    x = _as_axis(x_coords, "axes.x")
    y = _as_axis(y_coords, "axes.y")
    z = _as_axis(z_levels, "axes.z")
    t = _as_axis(t_steps, "axes.t")
    shape = (t.size, z.size, y.size, x.size)

    def take(name: str, default: float) -> float:
        val = float(params.pop(name, default))
        if not math.isfinite(val):
            raise ConfigError(f"{name}: must be finite, got {val}")
        if name == "period" and val <= 0:
            raise ConfigError(f"{kind} period must be positive")
        return val

    if kind == "uniform":
        u = np.full(shape, take("u0", 0.0))
        v = np.full(shape, take("v0", 0.0))
    elif kind == "gyre":
        amplitude = take("amplitude", 0.1)
        epsilon = take("epsilon", 0.25)
        period = take("period", 43200.0)
        xr = x[-1] - x[0]
        yr = y[-1] - y[0]
        xn = (2.0 * (x - x[0]) / xr) if xr > 0 else np.zeros_like(x)
        yn = ((y - y[0]) / yr) if yr > 0 else np.zeros_like(y)
        # v carries the stream-function aspect factor 2*height/width so
        # the field stays divergence-free on any rectangle
        aspect = (2.0 * yr / xr) if xr > 0 and yr > 0 else 1.0
        tt = t.reshape(-1, 1, 1, 1)
        xg = xn.reshape(1, 1, 1, -1)
        yg = yn.reshape(1, 1, -1, 1)
        a = epsilon * np.sin(2.0 * np.pi * tt / period)
        b = 1.0 - 2.0 * a
        f = a * xg * xg + b * xg
        dfdx = 2.0 * a * xg + b
        u = np.broadcast_to(
            -np.pi * amplitude * np.sin(np.pi * f) * np.cos(np.pi * yg),
            shape).copy()
        v = np.broadcast_to(
            np.pi * amplitude * aspect
            * np.cos(np.pi * f) * np.sin(np.pi * yg) * dfdx,
            shape).copy()
    else:  # tidal_channel
        amplitude = take("amplitude", 0.2)
        period = take("period", 43200.0)
        ut = amplitude * np.sin(2.0 * np.pi * t / period)
        u = np.broadcast_to(ut.reshape(-1, 1, 1, 1), shape).copy()
        v = np.zeros(shape)

    if params:
        raise ConfigError(
            f"unknown parameters for kind {kind!r}: {sorted(params)}")
    return FlowGrid(x, y, z, t, u, v, fill_sentinel=fill_sentinel)


# ---------------------------------------------------------------------------
# archive I/O

def _header_dict(grid: FlowGrid, encoding: str) -> dict:
    return {
        "version": FORMAT_VERSION,
        "encoding": encoding,
        "fill_sentinel": grid.fill_sentinel,
        "axes": {
            "x": grid.x_coords.tolist(),
            "y": grid.y_coords.tolist(),
            "z": grid.z_levels.tolist(),
            "t": grid.t_steps.tolist(),
        },
    }


def save_flow_grid(grid: FlowGrid, path, encoding: str = "inline") -> None:
    """Write a grid archive; encoding is "inline" (text) or "binary".

    The text variant stores u and v as flat row-major [t][z][y][x]
    JSON arrays and round-trips float64 exactly.  The binary variant
    appends little-endian float32 blocks (u then v) after the header
    line, records their byte offset in the header and stores the fill
    sentinel rounded to float32 as well; a finite value or sentinel beyond
    float32's range raises ConfigError before anything is written.
    """
    if encoding not in ("inline", "binary"):
        raise ConfigError(f'encoding must be "inline" or "binary", got {encoding!r}')
    header = _header_dict(grid, encoding)
    if encoding == "inline":  # json.dump's text, u and v a piece at a time
        step = _CHUNK_BYTES // 16  # a value writes up to 24 characters
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":"))[:-1])
            for name, flat in (("u", grid.u.ravel()), ("v", grid.v.ravel())):
                fh.write(f',"{name}":[')
                fh.writelines("," * (i > 0) + json.dumps(
                    flat[i:i + step].tolist(), separators=(",", ":"))[1:-1]
                    for i in range(0, flat.size, step))
                fh.write("]")
            fh.write("}\n")
        return
    comps = {"u": grid.u, "v": grid.v, "fill_sentinel": grid.fill_sentinel}
    with np.errstate(over="ignore"):
        blocks = {name: np.ascontiguousarray(c, dtype="<f4")
                  for name, c in comps.items()}
    for name, comp in comps.items():
        if (np.isinf(blocks[name]) & np.isfinite(comp)).any():
            raise ConfigError(f"{name}: a value beyond float32's range cannot "
                              "be stored in a binary archive")
    # the sentinel as its fill nodes are stored, so that they load as fill
    header["fill_sentinel"] = float(blocks.pop("fill_sentinel")[0])
    header["data_offset"] = 0
    while True:
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        offset = len(blob) + 1
        if header["data_offset"] == offset:
            break
        header["data_offset"] = offset
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(b"\n")
        for block in blocks.values():
            fh.write(block.tobytes())


def _require(header: dict, key: str):
    if key not in header:
        raise FlowFormatError(f"{key}: missing header key")
    return header[key]


def _parse_header(header: dict) -> tuple[np.ndarray, ...]:
    version = _require(header, "version")
    if version != FORMAT_VERSION:
        raise FlowFormatError(f"version: unsupported value {version!r}")
    axes = _require(header, "axes")
    if not isinstance(axes, dict):
        raise FlowFormatError("axes: must be an object")
    out = []
    for name in ("x", "y", "z", "t"):
        if name not in axes:
            raise FlowFormatError(f"axes.{name}: missing")
        out.append(_as_axis(axes[name], f"axes.{name}"))
    fill = _require(header, "fill_sentinel")
    if not isinstance(fill, (int, float)):
        raise FlowFormatError("fill_sentinel: must be numeric")
    return (*out, float(fill))


def _top_level_arrays(raw: bytes) -> dict:
    """Map "u"/"v" of the outer JSON object to the (start, stop) of their
    arrays' content where that holds no string, array or object.

    The scan skips strings, stops where the outer object closes and
    validates nothing; an escaped or repeated key splits nothing.
    """
    found, depth, pos = {}, 0, 0
    while (tok := _TOKEN.search(raw, pos)) is not None:
        pos, t = tok.end(), tok.group()
        if t in (b"{", b"["):
            depth += 1
        elif t in (b"}", b"]"):
            if (depth := depth - 1) <= 0:
                break
        elif depth == 1 and (colon := _COLON.match(raw, pos)):
            key = t[1:-1].decode("utf-8", "replace")
            if "\\" in key or key in found:
                return {}
            start = colon.end() + 1
            stop = raw.find(b"]", start) if raw[start - 1:start] == b"[" else -1
            if key in ("u", "v") and stop >= 0 and all(
                    raw.find(ch, start, stop) < 0 for ch in b'[{"'):
                found[key], pos = (start, stop), stop + 1
    return found


def _pieces(name: str, raw: bytes, lo: int, hi: int):
    """Yield the array content raw[lo:hi] as JSON lists of about
    _CHUNK_BYTES each, cut at commas."""
    pos = lo
    while True:
        cut = raw.find(b",", min(pos + _CHUNK_BYTES, hi), hi)
        stop = hi if cut < 0 else cut
        try:
            vals = json.loads("[" + raw[pos:stop].decode("utf-8") + "]")
            if not vals and (pos > lo or cut >= 0):  # "[,1]" or "[1,]"
                raise ValueError("empty value")
        except ValueError as exc:  # also UnicodeDecodeError
            raise FlowFormatError(f"{name}: not a JSON array ({exc})") from exc
        yield vals
        if cut < 0:
            return
        pos = cut + 1


def _gather(name: str, pieces, room: int, count: int) -> np.ndarray:
    """Check JSON lists as one flat array of numbers and convert them
    into count float64 values; room bounds the values they can hold."""
    out = np.empty(min(room, count))
    n = 0
    for vals in pieces:
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
        if not numbers:  # NaN passes: it marks fill
            raise FlowFormatError(f"{name}: must be a flat array of numbers")
        if n + arr.size <= out.size:
            out[n:n + arr.size] = arr
        n += arr.size
    if n != count:
        raise FlowFormatError(f"{name}: expected {count} values, got {n}")
    return out


def load_flow_grid(path) -> FlowGrid:
    """Read a grid archive written by save_flow_grid.

    Malformed files raise FlowFormatError naming the offending key;
    loading never mutates the file.  Inline u and v are parsed from the
    file's bytes a piece at a time, never held as Python floats.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    spans = _top_level_arrays(raw)
    cuts = [0, *(i for span in spans.values() for i in span), len(raw)]
    try:  # the document with each array found read as []
        header = json.loads(b"".join(raw[a:b] for a, b in zip(
            cuts[::2], cuts[1::2])).decode("utf-8"))
    except (ValueError, RecursionError):  # ValueError: a binary archive
        spans = {}
        try:
            header = json.loads(raw.split(b"\n", 1)[0].decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # nested too deeply
            raise FlowFormatError(f"header: not parseable ({exc})") from exc
    if not isinstance(header, dict):
        raise FlowFormatError("header: must be an object")
    x, y, z, t, fill = _parse_header(header)
    encoding = _require(header, "encoding")
    shape = (t.size, z.size, y.size, x.size)
    count = math.prod(shape)

    if encoding == "inline":
        comps = []
        for name in ("u", "v"):
            vals, span = _require(header, name), spans.get(name)
            if span:  # a value takes a byte, and all but one a comma too
                pieces = _pieces(name, raw, *span)
                room = (span[1] - span[0] + 1) // 2
            else:
                pieces, room = [vals], len(vals) if isinstance(vals, list) else 0
            comps.append(_gather(name, pieces, room, count).reshape(shape))
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
