"""Output checks written apart from the planner's code paths.

Every function here re-derives what a correct plan must satisfy from the
generated inputs alone: the archive arrays, the mission document and the
documented model (a leg is flown as ceil(1/h) straight slants from the
climb-to depth down to the dive-to depth, each slant split into n_sub
sub-segments that sample the current at their start position, mid depth
and accumulated clock time).  Nothing here imports the planner; the one
check that needs the planner's bicubic/Akima sampler takes it as an
argument, raising OffField or OnLand where the planner's sampler raises.

Each problem found is returned as a string starting with a tag
(``retime:``, ``land:``, ``polygon:``, ``rule:``, ``route:``, ``probe:``)
so tests can tell which check fired.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right

import numpy as np

# file values carry 6 decimals; see README.md, "Tolerances"
ROUND_HALF = 5e-7


class OffField(Exception):
    """A horizontal position outside the archive's x/y range."""


class OnLand(Exception):
    """An interpolation stencil that holds a fill value."""


def _cell(knots: list, q: float) -> int:
    """Left knot of the interval holding q, kept inside [0, n-2]."""
    i = bisect_right(knots, q) - 1
    return min(max(i, 0), len(knots) - 2)


def _linear_stencil(knots: list, q: float) -> list[tuple[int, float]]:
    """(index, weight) pairs for clamped linear interpolation along one axis."""
    if len(knots) == 1:
        return [(0, 1.0)]
    q = min(max(q, knots[0]), knots[-1])
    i = _cell(knots, q)
    f = (q - knots[i]) / (knots[i + 1] - knots[i])
    return [(i, 1.0 - f), (i + 1, f)]


class BilinearSampler:
    """Independent bilinear (x, y) / linear (z) / linear (t) sampler.

    Depth and time clamp to the axis range; a position outside the x/y
    range raises OffField and a stencil touching a fill value (or NaN)
    raises OnLand, which is how the archive marks land.
    """

    def __init__(self, x, y, z, t, u, v, fill: float):
        self.x = [float(q) for q in x]
        self.y = [float(q) for q in y]
        self.z = [float(q) for q in z]
        self.t = [float(q) for q in t]
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        self.fill = fill

    def __call__(self, px: float, py: float, pz: float, pt: float):
        if not (self.x[0] <= px <= self.x[-1] and self.y[0] <= py <= self.y[-1]):
            raise OffField(f"({px}, {py})")
        sx = _linear_stencil(self.x, px)
        sy = _linear_stencil(self.y, py)
        sz = _linear_stencil(self.z, pz)
        st = _linear_stencil(self.t, pt)
        out = []
        for comp in (self.u, self.v):
            acc = 0.0
            for it, wt in st:
                for iz, wz in sz:
                    for iy, wy in sy:
                        for ix, wx in sx:
                            val = float(comp[it, iz, iy, ix])
                            if val == self.fill or math.isnan(val):
                                raise OnLand(f"({px}, {py})")
                            acc += wt * wz * wy * wx * val
            out.append(acc)
        return out[0], out[1]


def ground_speed(cu: float, cv: float, ux: float, uy: float, uz: float,
                 speed: float) -> float | None:
    """Speed g along unit direction d with |g*d - c| = speed, c = (cu, cv, 0).

    The larger root of g^2 - 2 g (c.d) + |c|^2 - speed^2 = 0; None when
    there is no positive real root (cross current too strong, or swept
    backwards).
    """
    cd = cu * ux + cv * uy
    disc = cd * cd - (cu * cu + cv * cv) + speed * speed
    if disc < 0.0:
        return None
    g = cd + math.sqrt(disc)
    return g if g > 0.0 else None


def n_slants(h: float) -> int:
    """Slants per leg: the least n with n * h >= 1, robust to float noise."""
    n = round(1.0 / h)
    return n if abs(n * h - 1.0) < 1e-9 else math.ceil(1.0 / h)


def leg_time(current, a, b, z_climb: float, z_dive: float, depart: float,
             h: float, n_sub: int, speed: float) -> tuple[float, float]:
    """Saw-tooth leg time from a to b, and the least ground speed used.

    current(x, y, z, t) -> (u, v) may raise OffField or OnLand; either,
    or a sub-segment with no ground speed, makes the leg infeasible (inf).
    """
    n = n_slants(h)
    ax, ay = a
    bx, by = b
    t = depart
    g_min = math.inf
    for k in range(n):
        x0 = ax + (bx - ax) * k / n
        y0 = ay + (by - ay) * k / n
        x1 = ax + (bx - ax) * (k + 1) / n
        y1 = ay + (by - ay) * (k + 1) / n
        dx, dy, dz = x1 - x0, y1 - y0, z_dive - z_climb
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        ux, uy, uz = dx / length, dy / length, dz / length
        for m in range(n_sub):
            try:
                cu, cv = current(x0 + dx * m / n_sub, y0 + dy * m / n_sub,
                                 z_climb + dz * (m + 0.5) / n_sub, t)
            except (OffField, OnLand):
                return math.inf, g_min
            g = ground_speed(cu, cv, ux, uy, uz, speed)
            if g is None:
                return math.inf, g_min
            g_min = min(g_min, g)
            t += (length / n_sub) / g
    return t - depart, g_min


def uniform_leg_time(a, b, z_climb: float, z_dive: float, h: float,
                     cu: float, cv: float, speed: float) -> float:
    """Closed-form leg time in a uniform steady current."""
    n = n_slants(h)
    dx = (b[0] - a[0]) / n
    dy = (b[1] - a[1]) / n
    dz = z_dive - z_climb
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    g = ground_speed(cu, cv, dx / length, dy / length, dz / length, speed)
    return math.inf if g is None else n * length / g


def profile_family(fam: dict) -> list[tuple[float, float]]:
    """(climb-to, dive-to) pairs of a mission's profile family.

    Climb-to levels spread over [z_min, z_climb_to_max] (a single level
    sits at z_min), dive-to levels over [z_min + z_min_range, z_max] (a
    single level sits at z_max); pairs shallower than z_min_range drop.
    """
    def levels(lo, hi, n, single):
        if n == 1:
            return [single]
        return [float(q) for q in np.linspace(lo, hi, n)]

    zr = fam["z_min_range"]
    climbs = levels(fam["z_min"], fam["z_climb_to_max"],
                    fam.get("n_climb_to_levels", 1), fam["z_min"])
    dives = levels(fam["z_min"] + zr, fam["z_max"],
                   fam.get("n_dive_to_levels", 1), fam["z_max"])
    out = []
    for c in climbs:
        for d in dives:
            if d - c >= zr - 1e-9 and (c, d) not in out:
                out.append((c, d))
    return out


def selection_problem(times: list[float], amps: list[float], chosen: int,
                      mode: str, slack: float, tol: float) -> str | None:
    """Whether `chosen` obeys the cost mode's rule, or why it does not.

    fastest: no profile is faster by more than tol.  max_amplitude: the
    chosen profile arrives within slack x fastest, and no profile that
    clearly does (by tol) has a larger amplitude.
    """
    best = min(times)
    if math.isinf(times[chosen]):
        return f"rule: chosen profile {chosen} is infeasible"
    if mode == "fastest":
        if times[chosen] > best + tol:
            return (f"rule: fastest mode chose {times[chosen]:.6f} s, "
                    f"best is {best:.6f} s")
        return None
    limit = slack * best
    if times[chosen] > limit + tol:
        return (f"rule: max_amplitude chose {times[chosen]:.6f} s, "
                f"beyond slack limit {limit:.6f} s")
    for i, (ti, ai) in enumerate(zip(times, amps)):
        if ti <= limit - tol and ai > amps[chosen] + 1e-9:
            return (f"rule: max_amplitude chose amplitude {amps[chosen]:g}, "
                    f"profile {i} with {ai:g} fits the slack")
    return None


def land_rectangles(x, y, u, v, fill: float) -> np.ndarray:
    """Land as the union of nearest-node cells of filled columns.

    A node is land when u or v is filled at every depth and time; the
    area nearest to it is the rectangle between the midpoints to its
    neighbours.  Returns (n, 4) rows of (x0, x1, y0, y1).
    """
    filled = (u == fill) | np.isnan(u) | (v == fill) | np.isnan(v)
    mask = filled.all(axis=(0, 1))
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xe = np.concatenate(([x[0]], 0.5 * (x[1:] + x[:-1]), [x[-1]]))
    ye = np.concatenate(([y[0]], 0.5 * (y[1:] + y[:-1]), [y[-1]]))
    iy, ix = np.nonzero(mask)
    return np.stack([xe[ix], xe[ix + 1], ye[iy], ye[iy + 1]], axis=1)


def segment_hits_rectangles(a, b, rects: np.ndarray) -> bool:
    """Whether segment a-b passes through the interior of any rectangle
    (Liang-Barsky clipping, all rectangles at once)."""
    if rects.size == 0:
        return False
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    lo = np.zeros(len(rects))
    hi = np.ones(len(rects))
    for d, p0, r0, r1 in ((dx, ax, rects[:, 0], rects[:, 1]),
                          (dy, ay, rects[:, 2], rects[:, 3])):
        if d == 0.0:
            outside = (p0 <= r0) | (p0 >= r1)
            hi = np.where(outside, -1.0, hi)
            continue
        t0 = (r0 - p0) / d
        t1 = (r1 - p0) / d
        lo = np.maximum(lo, np.minimum(t0, t1))
        hi = np.minimum(hi, np.maximum(t0, t1))
    return bool(np.any(hi - lo > 1e-12))


def winding_number(px: float, py: float, poly) -> int:
    """Winding number of the closed polygon around (px, py)."""
    wn = 0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
        if y0 <= py < y1 and cross > 0:
            wn += 1
        elif y1 <= py < y0 and cross < 0:
            wn -= 1
    return wn


def segment_hits_polygon(a, b, poly) -> bool:
    """Whether segment a-b passes through the polygon's interior.

    The segment is cut where it crosses polygon edges; it touches the
    interior iff the midpoint of some piece lies inside.
    """
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    cuts = [0.0, 1.0]
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        ex, ey = poly[(i + 1) % n][0] - x0, poly[(i + 1) % n][1] - y0
        den = dx * ey - dy * ex
        if den == 0.0:
            continue
        s = ((x0 - ax) * ey - (y0 - ay) * ex) / den
        r = ((x0 - ax) * dy - (y0 - ay) * dx) / den
        if 0.0 < s < 1.0 and 0.0 <= r <= 1.0:
            cuts.append(s)
    cuts.sort()
    for s0, s1 in zip(cuts, cuts[1:]):
        if s1 - s0 < 1e-12:
            continue
        sm = 0.5 * (s0 + s1)
        if winding_number(ax + sm * dx, ay + sm * dy, poly) != 0:
            return True
    return False


def retime_tolerance(arrival: float, g_min: float) -> float:
    """Allowed gap between a re-timed leg and the file's arrival.

    Departure and arrival each carry up to ROUND_HALF of rounding (the
    departure's error moves the leg time by at most as much again),
    each endpoint coordinate up to ROUND_HALF metres, which at ground
    speed g_min is at most 2*sqrt(2)*ROUND_HALF/g_min seconds, plus
    float noise of the chained sum.
    """
    return (3.0 * ROUND_HALF + 2.0 * math.sqrt(2.0) * ROUND_HALF / g_min
            + 1e-12 * abs(arrival))


def read_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "waypoints.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_route(doc: dict, mission: dict, current, land: np.ndarray,
                lattice_arrival: float) -> list[str]:
    """Checks shared by the gyre workloads; returns problems found.

    Re-times every leg from its file departure with `current`, screens
    it against land and restricted polygons, checks each leg's profile
    against the cost mode's rule, and compares the smoothed arrival
    with the lattice arrival.
    """
    problems: list[str] = []
    wps = doc["waypoints"]
    if doc["totals"]["status"] != "ok" or len(wps) < 2:
        return ["route: no feasible route exported"]
    start = (float(mission["start"]["x"]), float(mission["start"]["y"]))
    goal = (float(mission["goal"]["x"]), float(mission["goal"]["y"]))
    if (wps[0]["x"], wps[0]["y"]) != start or (wps[-1]["x"], wps[-1]["y"]) != goal:
        problems.append("route: endpoints differ from the mission terminals")
    fam = profile_family(mission["profile_family"])
    amps = [d - c for c, d in fam]
    speed = mission["vehicle"]["speed_through_water"]
    h, n_sub = mission["h"], mission["n_sub"]
    mode = mission.get("cost_mode", "fastest")
    slack = mission.get("slack_factor", 1.1)
    polys = mission.get("restricted_areas", [])
    for i in range(len(wps) - 1):
        w0, w1 = wps[i], wps[i + 1]
        a, b = (w0["x"], w0["y"]), (w1["x"], w1["y"])
        if segment_hits_rectangles(a, b, land):
            problems.append(f"land: leg {i} crosses land")
        for poly in polys:
            if segment_hits_polygon(a, b, poly):
                problems.append(f"polygon: leg {i} enters a restricted area")
        prof = w1["profile"]
        chosen = next((k for k, (c, d) in enumerate(fam)
                       if abs(c - prof["z_climb_to"]) < 1e-9
                       and abs(d - prof["z_dive_to"]) < 1e-9), None)
        if chosen is None:
            problems.append(f"rule: leg {i} flies a profile outside the family")
            continue
        depart = w0["arrival_s"]
        times = []
        g_min = math.inf
        for k, (c, d) in enumerate(fam):
            dt, g = leg_time(current, a, b, c, d, depart, h, n_sub, speed)
            times.append(dt)
            if k == chosen:
                g_min = g
        dt = times[chosen]
        if math.isinf(dt):
            problems.append(f"retime: leg {i} is infeasible when re-timed")
            continue
        gap = abs(depart + dt - w1["arrival_s"])
        if gap > retime_tolerance(w1["arrival_s"], g_min):
            problems.append(f"retime: leg {i} re-times {gap:.3g} s off")
        why = selection_problem(times, amps, chosen, mode, slack,
                                tol=retime_tolerance(depart + dt, g_min))
        if why:
            problems.append(f"{why} (leg {i})")
    t0 = mission.get("start_time", 0.0)
    travel = doc["totals"]["travel_time_s"]
    if abs(t0 + travel - wps[-1]["arrival_s"]) > 3 * ROUND_HALF + 1e-12 * travel:
        problems.append("route: travel_time_s disagrees with the last arrival")
    if wps[-1]["arrival_s"] > lattice_arrival + 2 * ROUND_HALF + 1e-12 * travel:
        problems.append("route: smoothed arrival is later than the lattice arrival")
    return problems


def check_drift_route(doc: dict, mission: dict, drift: tuple,
                      lattice: list, lattice_arrival: float) -> list[str]:
    """Closed-form checks of the uniform-drift mission.

    The smoothed route is the single straight leg flown with the
    fastest profile, and the lattice route is the diagonal staircase
    whose arrival is its leg count times the closed-form diagonal leg
    time.
    """
    problems: list[str] = []
    cu, cv = drift
    speed = mission["vehicle"]["speed_through_water"]
    h = mission["h"]
    fam = profile_family(mission["profile_family"])
    start = (float(mission["start"]["x"]), float(mission["start"]["y"]))
    goal = (float(mission["goal"]["x"]), float(mission["goal"]["y"]))
    t0 = mission.get("start_time", 0.0)
    direct = [uniform_leg_time(start, goal, c, d, h, cu, cv, speed)
              for c, d in fam]
    best = min(direct)
    travel = doc["totals"]["travel_time_s"]
    if abs(travel - best) > 1e-9 * best:
        problems.append(f"route: travel {travel:.6f} s, closed form {best:.6f} s")
    wps = doc["waypoints"]
    if len(wps) != 2:
        problems.append(f"route: {len(wps)} waypoints, the straight leg has 2")
    else:
        prof = wps[1]["profile"]
        chosen = next((k for k, (c, d) in enumerate(fam)
                       if abs(c - prof["z_climb_to"]) < 1e-9
                       and abs(d - prof["z_dive_to"]) < 1e-9), None)
        why = ("rule: profile outside the family" if chosen is None else
               selection_problem(direct, [d - c for c, d in fam], chosen,
                                 "fastest", 1.0, 1e-9 * best))
        if why:
            problems.append(why)
        if abs(t0 + travel - wps[1]["arrival_s"]) > 3 * ROUND_HALF + 1e-12 * travel:
            problems.append("retime: goal arrival disagrees with travel_time_s")
    spacing = mission["grid_spacing"]
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(lattice, lattice[1:])]
    if any(abs(dx - spacing) > 1e-6 or abs(dy - spacing) > 1e-6
           for dx, dy in steps):
        problems.append("route: the lattice route is not the diagonal staircase")
    diag = min(uniform_leg_time((0.0, 0.0), (spacing, spacing), c, d, h,
                                cu, cv, speed) for c, d in fam)
    want = t0 + len(steps) * diag
    if abs(lattice_arrival - want) > 1e-9 * want:
        problems.append(f"route: lattice arrival {lattice_arrival:.6f} s, "
                        f"closed form {want:.6f} s")
    return problems


def probe_problems(sample, points, u, v, tol: float = 1e-12) -> list[str]:
    """sample(x, y, z, t) -> (u, v) must return stored node values."""
    problems = []
    for (x, y, z, t), idx in points:
        got = sample(x, y, z, t)
        want = (float(u[idx]), float(v[idx]))
        if abs(got[0] - want[0]) > tol or abs(got[1] - want[1]) > tol:
            problems.append(f"probe: node {idx} samples {got}, stored {want}")
    return problems
