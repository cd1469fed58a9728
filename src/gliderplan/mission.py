"""Mission configuration, planning orchestration, and exports.

A mission file is a JSON object naming a flow archive, the two
terminals, the vehicle, and the planner knobs.  Geographic positions
are mapped to the planner's local Cartesian frame with an
equirectangular projection about a configured origin, which keeps
positions within a few hundred kilometers accurate to well under the
lattice spacing.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field

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
    projection_origin: tuple | None
    smooth: bool
    start_latlon: tuple | None = None
    goal_latlon: tuple | None = None
    # the archive parse_mission loaded, so no caller loads it again
    grid: FlowGrid | None = field(default=None, compare=False, repr=False)


def _number(val, key: str, where: str, kind=float):
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{where}{key}: must be a number")
    if not math.isfinite(val):
        raise ConfigError(f"{where}{key}: must be a finite number")
    if kind is int and val != int(val):
        raise ConfigError(f"{where}{key}: must be an integer")
    return kind(val)


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ConfigError(f"{where}{key}: missing required key")
    val = obj[key]
    if kind is float:
        return _number(val, key, where)
    if not isinstance(val, kind):
        raise ConfigError(f"{where}{key}: unexpected type {type(val).__name__}")
    return val


def _opt(obj: dict, key: str, default, where: str):
    """obj[key] or the default; a number must be finite, and an integer
    default makes the key integer-valued."""
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(default, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{where}{key}: must be true or false")
        return val
    if isinstance(default, (int, float)):
        return _number(val, key, where, type(default))
    return val


def _parse_position(obj, name: str, origin) -> tuple[tuple, tuple | None]:
    """Returns ((x, y), (lat, lon) or None)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be an object")
    if "x" in obj or "y" in obj:
        x = _need(obj, "x", float, f"{name}.")
        y = _need(obj, "y", float, f"{name}.")
        latlon = None
        if origin is not None:
            latlon = unproject(x, y, origin[0], origin[1])
        return (x, y), latlon
    if "lat" in obj or "lon" in obj:
        lat = _need(obj, "lat", float, f"{name}.")
        lon = _need(obj, "lon", float, f"{name}.")
        if origin is None:
            raise ConfigError(
                f"projection_origin: required when {name} is geographic")
        return project(lat, lon, origin[0], origin[1]), (lat, lon)
    raise ConfigError(f"{name}: needs either x/y or lat/lon")


def parse_mission(path) -> MissionSpec:
    """Load and validate a mission file.

    Applies defaults (0.3 m/s vehicle, h = 0.25, 16-neighborhood,
    bilinear/linear/linear sampling, fastest cost mode), resolves the
    flow path relative to the mission file, and cross-checks the
    mission against the flow grid's axes.  Every failure raises
    ConfigError naming the offending key.
    """
    import os.path

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"mission file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"mission file: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("mission file: top level must be an object")

    flow_rel = _need(raw, "flow", str, "")
    flow_path = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(path)), flow_rel))
    try:
        grid = load_flow_grid(flow_path)
    except OSError as exc:
        raise ConfigError(f"flow: cannot read {flow_path} ({exc})") from exc

    origin = None
    if "projection_origin" in raw:
        po = raw["projection_origin"]
        if not isinstance(po, dict):
            raise ConfigError("projection_origin: must be an object")
        lat0 = _need(po, "lat", float, "projection_origin.")
        lon0 = _need(po, "lon", float, "projection_origin.")
        if abs(lat0) >= 89.0:
            raise ConfigError(
                "projection_origin.lat: must lie strictly between -89 and 89")
        origin = (lat0, lon0)

    start_xy, start_ll = _parse_position(_need(raw, "start", dict, ""),
                                         "start", origin)
    goal_xy, goal_ll = _parse_position(_need(raw, "goal", dict, ""),
                                       "goal", origin)
    if start_xy == goal_xy:
        raise ConfigError("goal: must differ from start")

    veh = raw.get("vehicle", {})
    if not isinstance(veh, dict):
        raise ConfigError("vehicle: must be an object")
    try:
        vehicle = VehicleSpec(speed_through_water=_opt(
            veh, "speed_through_water", 0.3, "vehicle."))
    except ConfigError as exc:
        raise ConfigError(f"vehicle.speed_through_water: {exc}") from exc

    gx0, gy0, gx1, gy1 = grid.horizontal_bounds()
    if "region" in raw:
        reg = raw["region"]
        if not isinstance(reg, dict):
            raise ConfigError("region: must be an object")
        region = Rect(_need(reg, "x_min", float, "region."),
                      _need(reg, "y_min", float, "region."),
                      _need(reg, "x_max", float, "region."),
                      _need(reg, "y_max", float, "region."))
        if not (region.x_max > region.x_min and region.y_max > region.y_min):
            raise ConfigError("region: x_max/y_max must exceed x_min/y_min")
    else:
        region = Rect(gx0, gy0, gx1, gy1)

    for name, (px, py) in (("start", start_xy), ("goal", goal_xy)):
        if not region.contains(px, py):
            raise ConfigError(f"{name}: ({px:g}, {py:g}) outside the region")
        if not (gx0 <= px <= gx1 and gy0 <= py <= gy1):
            raise ConfigError(f"{name}: ({px:g}, {py:g}) outside the flow domain")

    span = min(region.x_max - region.x_min, region.y_max - region.y_min)
    grid_spacing = _opt(raw, "grid_spacing", span / 20.0, "")
    if grid_spacing <= 0:
        raise ConfigError("grid_spacing: must be positive")
    neighbor_set = _opt(raw, "neighbor_set", 16, "")
    if neighbor_set not in (8, 16):
        raise ConfigError("neighbor_set: must be 8 or 16")
    h = _opt(raw, "h", 0.25, "")
    if not (0.0 < h <= 1.0):
        raise ConfigError("h: must lie in (0, 1]")
    n_sub = _opt(raw, "n_sub", 4, "")
    if n_sub < 1:
        raise ConfigError("n_sub: must be at least 1")

    sch = raw.get("scheme", {})
    if not isinstance(sch, dict):
        raise ConfigError("scheme: must be an object")
    try:
        scheme = InterpScheme(
            xy_method=_opt(sch, "xy", "bilinear", "scheme."),
            z_method=_opt(sch, "z", "linear", "scheme."),
            t_method=_opt(sch, "t", "linear", "scheme."))
    except ConfigError as exc:
        raise ConfigError(f"scheme: {exc}") from exc

    fam = _need(raw, "profile_family", dict, "")
    try:
        family = ProfileFamilySpec(
            z_min=_need(fam, "z_min", float, "profile_family."),
            z_climb_to_max=_need(fam, "z_climb_to_max", float,
                                 "profile_family."),
            z_max=_need(fam, "z_max", float, "profile_family."),
            z_min_range=_need(fam, "z_min_range", float, "profile_family."),
            n_climb_to_levels=_opt(fam, "n_climb_to_levels", 1,
                                   "profile_family."),
            n_dive_to_levels=_opt(fam, "n_dive_to_levels", 1,
                                  "profile_family."))
    except ConfigError as exc:
        raise ConfigError(f"profile_family: {exc}") from exc
    if family.z_max > float(grid.z_levels[-1]):
        raise ConfigError(
            f"profile_family.z_max: {family.z_max:g} exceeds the deepest "
            f"flow level {float(grid.z_levels[-1]):g}")

    cost_mode = _opt(raw, "cost_mode", "fastest", "")
    if cost_mode not in ("fastest", "max_amplitude"):
        raise ConfigError('cost_mode: must be "fastest" or "max_amplitude"')
    slack_factor = _opt(raw, "slack_factor", 1.1, "")
    if slack_factor < 1.0:
        raise ConfigError("slack_factor: must be at least 1.0")

    areas = raw.get("restricted_areas", [])
    if not isinstance(areas, list):
        raise ConfigError("restricted_areas: must be an array of polygons")
    polys = []
    for i, poly in enumerate(areas):
        if (not isinstance(poly, list) or len(poly) < 3
                or not all(isinstance(p, list) and len(p) == 2 for p in poly)):
            raise ConfigError(
                f"restricted_areas[{i}]: must be an array of >= 3 [x, y] pairs")
        polys.append(tuple(
            tuple(_number(c, f"restricted_areas[{i}]", "") for c in p)
            for p in poly))

    start_time = _opt(raw, "start_time", float(grid.t_steps[0]), "")
    if start_time < float(grid.t_steps[0]):
        log.warning("start_time %g precedes the first flow step %g; clamped",
                    start_time, float(grid.t_steps[0]))
        start_time = float(grid.t_steps[0])

    smooth = _opt(raw, "smooth", True, "")

    known = {"flow", "start", "goal", "start_time", "vehicle", "region",
             "grid_spacing", "neighbor_set", "h", "n_sub", "scheme",
             "profile_family", "cost_mode", "slack_factor",
             "restricted_areas", "projection_origin", "smooth"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")

    return MissionSpec(
        flow_path=flow_path, start_xy=start_xy, goal_xy=goal_xy,
        start_time=start_time, vehicle=vehicle, region=region,
        grid_spacing=float(grid_spacing), neighbor_set=int(neighbor_set),
        h=float(h), n_sub=int(n_sub), scheme=scheme, profile_family=family,
        cost_mode=cost_mode, slack_factor=float(slack_factor),
        restricted_areas=tuple(polys), projection_origin=origin,
        smooth=bool(smooth), start_latlon=start_ll, goal_latlon=goal_ll,
        grid=grid)


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
    if grid is None:
        grid = spec.grid
    if grid is None:
        grid = load_flow_grid(spec.flow_path)
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

    mission_echo = {
        "flow": spec.flow_path,
        "start": pos_fields(*spec.start_xy),
        "goal": pos_fields(*spec.goal_xy),
        "start_time": spec.start_time,
        "vehicle": {"speed_through_water": spec.vehicle.speed_through_water},
        "region": {"x_min": spec.region.x_min, "y_min": spec.region.y_min,
                   "x_max": spec.region.x_max, "y_max": spec.region.y_max},
        "grid_spacing": spec.grid_spacing,
        "neighbor_set": spec.neighbor_set,
        "h": spec.h,
        "n_sub": spec.n_sub,
        "scheme": {"xy": spec.scheme.xy_method, "z": spec.scheme.z_method,
                   "t": spec.scheme.t_method},
        "profile_family": {
            "z_min": spec.profile_family.z_min,
            "z_climb_to_max": spec.profile_family.z_climb_to_max,
            "z_max": spec.profile_family.z_max,
            "z_min_range": spec.profile_family.z_min_range,
            "n_climb_to_levels": spec.profile_family.n_climb_to_levels,
            "n_dive_to_levels": spec.profile_family.n_dive_to_levels,
        },
        "cost_mode": spec.cost_mode,
        "slack_factor": spec.slack_factor,
        "restricted_areas": [[list(p) for p in poly]
                             for poly in spec.restricted_areas],
        "projection_origin": (None if origin is None
                              else {"lat": origin[0], "lon": origin[1]}),
        "smooth": spec.smooth,
    }

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

    doc = {"version": 1, "mission": mission_echo, "totals": totals,
           "waypoints": records}
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
