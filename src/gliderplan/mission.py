"""Mission configuration, planning orchestration, and exports.

A mission file is a JSON object naming a flow archive, the two
terminals, the vehicle, and the planner knobs.  Geographic positions
are mapped to the planner's local Cartesian frame with an
equirectangular projection about a configured origin, which keeps
positions within a few hundred kilometers accurate to well under the
lattice spacing.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os.path
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import ConfigError
from .flowfield import (SAMPLE_OK, FlowGrid, InterpScheme, load_flow_grid,
                        sample, sample_batch)  # sample: for bench/spans.py
from .kinematics import (DiveProfile, ProfileFamilySpec, VehicleSpec,
                         make_dive_profiles, optimal_profile_cost)
from .search import (BlockedRegions, LegReport, PlannedPath, Rect,
                     build_graph, connect_terminals, make_edge_cost,
                     path_report, segment_clear, tve_dijkstra)
from .smoothing import SmoothingTrace, smooth_path

log = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0


def project(lat: float, lon: float, lat0: float, lon0: float
            ) -> tuple[float, float]:
    """Geographic to local Cartesian meters (equirectangular about origin)."""
    x = EARTH_RADIUS_M * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_M * math.radians(lat - lat0)
    return x, y


def unproject(x: float, y: float, lat0: float, lon0: float
              ) -> tuple[float, float]:
    """Local Cartesian meters back to (lat, lon)."""
    lat = lat0 + math.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(
        x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


def format_duration(seconds: float) -> str:
    """Seconds to \"dd:hh:mm:ss\", truncating fractional seconds."""
    if math.isinf(seconds):
        return "INFEASIBLE"
    if math.isnan(seconds):
        return "N/A"
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds!r}")
    total = int(seconds)
    days, rem = divmod(total, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{days:02d}:{hours:02d}:{minutes:02d}:{secs:02d}"


class LatLon(NamedTuple):
    """A geographic position in degrees."""

    lat: float
    lon: float


@dataclass(frozen=True)
class MissionSpec:
    """A fully validated mission: inputs resolved, defaults applied."""

    flow_path: str
    start_xy: tuple
    goal_xy: tuple
    start_time: float
    vehicle: VehicleSpec
    region: Rect
    grid_spacing: float
    neighbor_set: int
    h: float
    n_sub: int
    scheme: InterpScheme
    profile_family: ProfileFamilySpec
    cost_mode: str
    slack_factor: float
    restricted_areas: tuple
    projection_origin: LatLon | None
    smooth: bool
    start_latlon: tuple | None = None
    goal_latlon: tuple | None = None
    # the archive parse_mission loaded, so no caller loads it again
    grid: FlowGrid | None = field(default=None, compare=False, repr=False)


REQUIRED = object()


class Key(NamedTuple):
    """One mission-file key.  kind is "float", "int", "bool", "str",
    "object", "position" or "polygons".  A missing key takes `default`:
    REQUIRED is an error, None leaves it unset (or to the flow grid), and
    any other default is read like a written value.  `allowed` lists the
    only values accepted; `check` is a (test, message) pair.  An object
    passes its `keys`' values to `build`; each value lands in the field
    named `attr`, else `name`."""

    name: str
    kind: str
    default: object = REQUIRED
    allowed: tuple = ()
    check: tuple | None = None
    keys: tuple = ()
    build: Callable | None = None
    attr: str = ""


def _floats(*names: str) -> tuple:
    return tuple(Key(name, "float") for name in names)


# Every key a mission file may hold; MissionSpec has a field for each.
MISSION_KEYS = (
    Key("flow", "str", attr="flow_path"),
    Key("start", "position", attr="start_xy"),
    Key("goal", "position", attr="goal_xy"),
    Key("start_time", "float", None),
    Key("vehicle", "object", {}, build=VehicleSpec,
        keys=(Key("speed_through_water", "float", 0.3),)),
    Key("region", "object", None, build=Rect, keys=_floats(*Rect._fields)),
    Key("grid_spacing", "float", None, check=(lambda v: v > 0,
                                              "must be positive")),
    Key("neighbor_set", "int", 16, (8, 16)),
    # h and n_sub set the sub-steps per leg, at most ceil(1/h) * n_sub
    Key("h", "float", 0.25, check=(lambda v: 0.01 <= v <= 1,
                                   "must lie in [0.01, 1]")),
    Key("n_sub", "int", 4, check=(lambda v: 1 <= v <= 100,
                                  "must lie in [1, 100]")),
    Key("scheme", "object", {}, build=InterpScheme, keys=(
        Key("xy", "str", "bilinear", attr="xy_method"),
        Key("z", "str", "linear", attr="z_method"),
        Key("t", "str", "linear", attr="t_method"))),
    Key("profile_family", "object", build=ProfileFamilySpec, keys=_floats(
        "z_min", "z_climb_to_max", "z_max", "z_min_range") + (
        Key("n_climb_to_levels", "int", 1), Key("n_dive_to_levels", "int", 1))),
    Key("cost_mode", "str", "fastest", ("fastest", "max_amplitude")),
    Key("slack_factor", "float", 1.1, check=(lambda v: v >= 1,
                                             "must be at least 1.0")),
    Key("restricted_areas", "polygons", []),
    Key("projection_origin", "object", None, build=LatLon, keys=(
        Key("lat", "float", check=(lambda v: abs(v) < 89,
                                   "must lie strictly between -89 and 89")),
        Key("lon", "float"))),
    Key("smooth", "bool", True),
)


def _number(val, path: str, integer: bool = False):
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}: must be a number")
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be a finite number")
    if integer and val != int(val):
        raise ConfigError(f"{path}: must be an integer")
    return int(val) if integer else float(val)


def _polygons(val, path: str) -> tuple:
    if not isinstance(val, list):
        raise ConfigError(f"{path}: must be an array of polygons")
    polys = []
    for i, poly in enumerate(val):
        where = f"{path}[{i}]"
        if (not isinstance(poly, list) or len(poly) < 3
                or not all(isinstance(p, list) and len(p) == 2 for p in poly)):
            raise ConfigError(f"{where}: must be an array of >= 3 [x, y] pairs")
        polys.append(tuple(tuple(_number(c, where) for c in p) for p in poly))
    return tuple(polys)


def _position_keys(obj: dict, path: str) -> tuple:
    cartesian = "x" in obj or "y" in obj
    geographic = "lat" in obj or "lon" in obj
    if cartesian and geographic:
        raise ConfigError(f"{path}: give either x/y or lat/lon, not both")
    if not (cartesian or geographic):
        raise ConfigError(f"{path}: needs either x/y or lat/lon")
    return _floats("x", "y") if cartesian else _floats("lat", "lon")


def _read(key: Key, val, path: str):
    """A mission value checked against its key; objects come back built."""
    if key.kind in ("float", "int"):
        val = _number(val, path, key.kind == "int")
    elif key.kind == "bool" and not isinstance(val, bool):
        raise ConfigError(f"{path}: must be true or false")
    elif key.kind == "str" and not isinstance(val, str):
        raise ConfigError(f"{path}: must be a string")
    elif key.kind == "polygons":
        val = _polygons(val, path)
    elif key.kind in ("object", "position"):
        if not isinstance(val, dict):
            raise ConfigError(f"{path}: must be an object")
        keys = _position_keys(val, path) if key.kind == "position" else key.keys
        val = _read_keys(keys, val, path + ".")
        if key.build is not None:
            try:
                val = key.build(**val)
            except ConfigError as exc:
                # the built type leads with its field: name the file's key
                attr, _, msg = str(exc).partition(": ")
                name = {k.attr: k.name for k in key.keys}.get(attr, attr)
                raise ConfigError(f"{path}.{name}: {msg}") from exc
    if key.allowed and val not in key.allowed:
        words = [json.dumps(a) for a in key.allowed]
        raise ConfigError(
            f"{path}: must be {', '.join(words[:-1])} or {words[-1]}")
    if key.check is not None and not key.check[0](val):
        raise ConfigError(f"{path}: {key.check[1]}")
    return val


def _read_keys(keys: tuple, obj: dict, where: str) -> dict:
    """{field: value} for keys read from obj; any other key is an error."""
    unknown = sorted(set(obj) - {key.name for key in keys})
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown key")
    out = {}
    for key in keys:
        path = where + key.name
        val = obj.get(key.name, key.default)
        if val is REQUIRED:
            raise ConfigError(f"{path}: missing required key")
        # a None default leaves the field unset; a written null is read
        out[key.attr or key.name] = (
            None if val is None and key.name not in obj
            else _read(key, val, path))
    return out


def parse_mission(path, values: dict | None = None,
                  grid: FlowGrid | None = None) -> MissionSpec:
    """Load and validate a mission file.

    Every key, at any level, is read through MISSION_KEYS and its
    defaults; the flow path is resolved relative to the mission file,
    and the mission is cross-checked against the flow grid's axes.
    `values` maps dotted key paths ("scheme.xy") to values read as if
    the file held them; `grid` is the archive, if the caller has it.
    Every failure raises ConfigError naming the offending key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"mission file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"mission file: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("mission file: top level must be an object")
    for dotted, value in (values or {}).items():
        *parents, leaf = dotted.split(".")
        node = doc
        for name in parents:
            found = node.setdefault(name, {})
            node = found if isinstance(found, dict) else {}  # read rejects it
        node[leaf] = value

    f = _read_keys(MISSION_KEYS, doc, "")
    flow = f["flow_path"] = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(path)), f["flow_path"]))
    if grid is None:
        try:
            grid = load_flow_grid(flow)
        except OSError as exc:
            raise ConfigError(f"flow: cannot read {flow} ({exc})") from exc

    # cross-field checks: they need the grid or several keys at once
    gx0, gy0, gx1, gy1 = grid.horizontal_bounds()
    region = f["region"]
    if region is None:
        region = f["region"] = Rect(gx0, gy0, gx1, gy1)
    elif not (region.x_max > region.x_min and region.y_max > region.y_min):
        raise ConfigError("region: x_max/y_max must exceed x_min/y_min")
    origin = f["projection_origin"]
    for name in ("start", "goal"):
        pos = f[name + "_xy"]  # as read: x/y or lat/lon
        if "x" in pos:
            xy = (pos["x"], pos["y"])
            latlon = None if origin is None else unproject(*xy, *origin)
        elif origin is None:
            raise ConfigError(
                f"projection_origin: required when {name} is geographic")
        else:
            latlon = (pos["lat"], pos["lon"])
            xy = project(*latlon, *origin)
        f[name + "_xy"], f[name + "_latlon"] = xy, latlon
        px, py = xy
        if not region.contains(px, py):
            raise ConfigError(f"{name}: ({px:g}, {py:g}) outside the region")
        if not (gx0 <= px <= gx1 and gy0 <= py <= gy1):
            raise ConfigError(f"{name}: ({px:g}, {py:g}) outside the flow domain")
    if f["start_xy"] == f["goal_xy"]:
        raise ConfigError("goal: must differ from start")
    if f["grid_spacing"] is None:
        f["grid_spacing"] = float(min(region.x_max - region.x_min,
                                      region.y_max - region.y_min) / 20.0)

    deepest = float(grid.z_levels[-1])
    if f["profile_family"].z_max > deepest:
        raise ConfigError(
            f"profile_family.z_max: {f['profile_family'].z_max:g} exceeds "
            f"the deepest flow level {deepest:g}")

    t0 = float(grid.t_steps[0])
    if f["start_time"] is None:
        f["start_time"] = t0
    elif f["start_time"] < t0:
        log.warning("start_time %g precedes the first flow step %g; clamped",
                    f["start_time"], t0)
        f["start_time"] = t0
    return MissionSpec(**f, grid=grid)


@dataclass
class MissionResult:
    """Everything a planning run produced."""

    spec: MissionSpec
    status: str  # "ok" or "infeasible"
    planned: PlannedPath | None
    smoothed: PlannedPath | None
    trace: SmoothingTrace | None
    straight_line_time: float
    straight_line_profile: DiveProfile | None
    no_current_time: float
    report: list
    n_vertices: int
    n_edges: int
    comp_time: float

    @property
    def final_path(self) -> PlannedPath | None:
        return self.smoothed if self.smoothed is not None else self.planned


def run_mission(spec: MissionSpec, grid: FlowGrid | None = None
                ) -> MissionResult:
    """Plan a mission end to end.

    Builds the lattice, inserts the terminals, runs the time-varying
    search with optimal-profile edge costs, smooths the route (unless
    disabled), and gathers per-leg current diagnostics plus the two
    straight-line baselines (direct leg through the field, and plain
    distance over speed; the direct leg is screened like every edge).
    An unreachable goal yields status "infeasible" with the baselines
    still filled in.  The grid defaults to the one parse_mission loaded.
    """
    t_wall = time.perf_counter()
    grid = grid or spec.grid or load_flow_grid(spec.flow_path)
    blocked = BlockedRegions(grid=grid, polygons=spec.restricted_areas)
    graph = build_graph(spec.region, spec.grid_spacing, spec.neighbor_set,
                        blocked)
    start_idx, goal_idx = connect_terminals(graph, spec.start_xy, spec.goal_xy)
    profiles = make_dive_profiles(spec.profile_family)
    cost = make_edge_cost(grid, spec.vehicle, profiles, spec.h, spec.scheme,
                          spec.n_sub, spec.cost_mode, spec.slack_factor,
                          graph=graph)

    planned = tve_dijkstra(graph, start_idx, goal_idx, spec.start_time, cost)

    # legs that bypass the lattice must pass the same blocked-geometry
    # screen the graph applied to its edges
    step = spec.grid_spacing / 4.0

    @functools.cache  # smoothing re-times the same legs pass after pass
    def clear(a, b) -> bool:
        return segment_clear(blocked, a[0], a[1], b[0], b[1], step)

    straight_profile, straight_time = None, math.inf
    if clear(spec.start_xy, spec.goal_xy):
        straight_profile, straight_time = optimal_profile_cost(
            spec.start_xy, spec.goal_xy, spec.start_time, profiles, grid,
            spec.vehicle, spec.h, spec.scheme, spec.n_sub, spec.cost_mode,
            spec.slack_factor)
    dist = math.hypot(spec.goal_xy[0] - spec.start_xy[0],
                      spec.goal_xy[1] - spec.start_xy[1])
    no_current = dist / spec.vehicle.speed_through_water

    smoothed = None
    trace = None
    report: list[LegReport] = []
    status = "infeasible"
    if planned is not None:
        status = "ok"
        if spec.smooth and len(planned.waypoints) > 2:
            def smooth_cost(a, b, t):
                if not clear(a, b):
                    return None, math.inf
                return cost(a, b, t)

            wp_s, tt_s, trace = smooth_path(planned.waypoints,
                                            spec.start_time, smooth_cost)
            length = sum(
                math.hypot(wp_s[i + 1][0] - wp_s[i][0],
                           wp_s[i + 1][1] - wp_s[i][1])
                for i in range(len(wp_s) - 1))
            smoothed = PlannedPath(wp_s, tt_s, trace.profiles,
                                   total_time=tt_s[-1] - spec.start_time,
                                   total_length=length,
                                   fifo_violations=planned.fifo_violations)
        final = smoothed if smoothed is not None else planned
        report = path_report(final, grid, spec.vehicle, spec.scheme)

    return MissionResult(
        spec=spec, status=status, planned=planned, smoothed=smoothed,
        trace=trace, straight_line_time=straight_time,
        straight_line_profile=straight_profile, no_current_time=no_current,
        report=report, n_vertices=graph.n_vertices, n_edges=graph.n_edges,
        comp_time=time.perf_counter() - t_wall)


def _round6(x: float) -> float:
    return round(float(x), 6)


def summary_lines(result: MissionResult) -> list[str]:
    """Stable key: value lines describing a planning run."""
    spec = result.spec
    final = result.final_path
    lines = [f"status: {result.status}"]
    if final is not None:
        elapsed = final.arrival_times[-1] - spec.start_time
        lines += [
            f"travel_time_s: {elapsed:.3f}",
            f"travel_time: {format_duration(elapsed)}",
            f"path_length_km: {final.total_length / 1000.0:.3f}",
            f"waypoints_initial: {len(result.planned.waypoints)}",
            f"waypoints_smoothed: {len(final.waypoints)}",
        ]
    else:
        lines += ["travel_time_s: inf", "travel_time: INFEASIBLE"]
    lines += [
        f"straight_line_s: "
        f"{'inf' if math.isinf(result.straight_line_time) else format(result.straight_line_time, '.3f')}",
        f"straight_line: {format_duration(result.straight_line_time)}",
        f"straight_line_no_current_s: {result.no_current_time:.3f}",
        f"straight_line_no_current: {format_duration(result.no_current_time)}",
        f"speed_through_water: {spec.vehicle.speed_through_water:g}",
        f"vertices: {result.n_vertices}",
        f"edges: {result.n_edges}",
    ]
    if result.trace is not None:
        lines += [
            f"smoothing_iterations: {result.trace.iterations}",
            f"merges_accepted: {result.trace.merges_accepted}",
        ]
    if result.planned is not None:
        lines.append(f"fifo_violations: {result.planned.fifo_violations}")
    lines.append(f"comp_time_s: {result.comp_time:.2f}")
    return lines


def export_waypoints(result: MissionResult, path) -> None:
    """Write the planned route as a structured waypoint file.

    The file echoes the mission (defaults applied), the summary totals,
    and one record per waypoint with Cartesian and geographic positions
    (geographic only when the mission has a projection origin), arrival
    clock time, elapsed time formatted as dd:hh:mm:ss, and the dive
    band used to reach the waypoint (null on the first record).
    Serialization is deterministic: re-exporting the same result is
    byte-identical.
    """
    spec = result.spec
    origin = spec.projection_origin

    def pos_fields(x: float, y: float) -> dict:
        rec = {"x": _round6(x), "y": _round6(y), "lat": None, "lon": None}
        if origin is not None:
            lat, lon = unproject(x, y, origin[0], origin[1])
            rec["lat"] = _round6(lat)
            rec["lon"] = _round6(lon)
        return rec

    def echo(keys, obj) -> dict:
        out = {}
        for key in keys:
            val = getattr(obj, key.attr or key.name)
            if key.kind == "object" and val is not None:
                val = echo(key.keys, val)
            elif key.kind == "position":
                val = pos_fields(*val)
            elif key.kind == "polygons":
                val = [[list(p) for p in poly] for poly in val]
            out[key.name] = val
        return out

    final = result.final_path
    records = []
    if final is not None:
        for i, (x, y) in enumerate(final.waypoints):
            rec = {"index": i}
            rec.update(pos_fields(x, y))
            arr = final.arrival_times[i]
            rec["arrival_s"] = _round6(arr)
            rec["elapsed"] = format_duration(arr - spec.start_time)
            prof = final.profiles[i - 1] if i > 0 else None
            rec["profile"] = (None if prof is None else
                              {"z_climb_to": prof.z_climb_to,
                               "z_dive_to": prof.z_dive_to})
            records.append(rec)

    totals: dict = {"status": result.status}
    if final is not None:
        elapsed = final.arrival_times[-1] - spec.start_time
        totals.update({
            "travel_time_s": _round6(elapsed),
            "travel_time": format_duration(elapsed),
            "path_length_m": _round6(final.total_length),
            "waypoints_initial": len(result.planned.waypoints),
            "waypoints_smoothed": len(final.waypoints),
            "fifo_violations": result.planned.fifo_violations,
        })
    totals.update({
        "straight_line_s": (None if math.isinf(result.straight_line_time)
                            else _round6(result.straight_line_time)),
        "straight_line": format_duration(result.straight_line_time),
        "straight_line_no_current_s": _round6(result.no_current_time),
        "straight_line_no_current": format_duration(result.no_current_time),
    })

    doc = {"version": 1, "mission": echo(MISSION_KEYS, spec),
           "totals": totals, "waypoints": records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_svg(result: MissionResult, grid: FlowGrid, path,
               depth: float | None = None, at_time: float | None = None,
               width: int = 900) -> None:
    """Render the mission as a standalone SVG map.

    Shows the region, land cells, restricted areas, a sub-sampled
    current field at the given depth and time (defaults: shallowest
    level, mission start), the raw planned track, the smoothed track,
    and the terminals.  Output is deterministic for a given result.
    """
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
    mask = grid.land_mask
    if mask.any():
        xs = grid.x_coords
        ys = grid.y_coords
        for jy in range(ys.size):
            for jx in range(xs.size):
                if not mask[jy, jx]:
                    continue
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
    label = ("travel time " + format_duration(
        final.arrival_times[-1] - spec.start_time)
        if final is not None else "infeasible")
    parts.append(f'<text x="{fmt(margin)}" y="{fmt(margin - 12)}" '
                 f'font-family="sans-serif" font-size="13" '
                 f'fill="#222">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
