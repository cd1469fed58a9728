"""Mission parsing, orchestration, and export tests."""

import copy
import itertools
import json
import math
import os
import tempfile
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gliderplan.mission as mission_mod
from gliderplan.errors import ConfigError, GliderPlanError
from gliderplan.flowfield import (XY_METHODS, ZT_METHODS, FlowGrid,
                                  InterpScheme, save_flow_grid)
from gliderplan.kinematics import make_dive_profiles, optimal_profile_cost
from gliderplan.mission import (export_waypoints, format_duration,
                                parse_mission, project, render_svg,
                                run_mission, summary_lines, unproject)
from gliderplan.search import Rect

from conftest import (count_kernel_calls, make_land_grid, make_uniform_grid,
                      write_gyre_mission)
from oracles import render_svg_reference


def write_flow(tmp_path, grid, name="flow.json"):
    path = tmp_path / name
    save_flow_grid(grid, path)
    return path


BASE_MISSION = {
    "flow": "flow.json",
    "start": {"x": 10000.0, "y": 50000.0},
    "goal": {"x": 90000.0, "y": 50000.0},
    "profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                       "z_max": 100.0, "z_min_range": 40.0},
}


def write_mission(tmp_path, overrides=None, grid=None, name="mission.json"):
    """Write a mission file plus its flow archive, return the mission path."""
    if grid is None:
        grid = make_uniform_grid(0.1, 0.0)
    doc = dict(BASE_MISSION)
    if overrides:
        doc.update(overrides)
        # None means "remove the key entirely"
        doc = {k: v for k, v in doc.items() if v is not None}
    write_flow(tmp_path, grid)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestProjection:
    def test_known_longitude_arc_at_equator(self):
        # one degree of longitude at the equator is R * pi / 180
        x, y = project(0.0, 1.0, 0.0, 0.0)
        assert x == pytest.approx(6_371_000.0 * math.pi / 180.0, rel=1e-12)
        assert y == 0.0

    def test_longitude_shrinks_with_latitude(self):
        x_eq, _ = project(0.0, 1.0, 0.0, 0.0)
        x_60, _ = project(60.0, 1.0, 60.0, 0.0)
        assert x_60 == pytest.approx(x_eq * math.cos(math.radians(60.0)),
                                     rel=1e-12)

    def test_latitude_arc_independent_of_origin_longitude(self):
        _, y1 = project(45.5, -63.0, 44.0, -63.0)
        _, y2 = project(45.5, 10.0, 44.0, 10.0)
        assert y1 == pytest.approx(y2, abs=1e-9)

    @given(lat=st.floats(-80.0, 80.0), dlat=st.floats(-2.0, 2.0),
           dlon=st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_geographic(self, lat, dlat, dlon):
        lat0, lon0 = lat, -63.0
        x, y = project(lat0 + dlat, lon0 + dlon, lat0, lon0)
        back = unproject(x, y, lat0, lon0)
        assert back[0] == pytest.approx(lat0 + dlat, abs=1e-9)
        assert back[1] == pytest.approx(lon0 + dlon, abs=1e-9)

    @given(x=st.floats(-300000.0, 300000.0), y=st.floats(-300000.0, 300000.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_cartesian_within_a_meter(self, x, y):
        lat, lon = unproject(x, y, 44.0, -63.0)
        x2, y2 = project(lat, lon, 44.0, -63.0)
        assert math.hypot(x2 - x, y2 - y) < 1.0


class TestFormatDuration:
    def test_known_values(self):
        assert format_duration(700000.0) == "08:02:26:40"
        assert format_duration(701833.33) == "08:02:57:13"
        assert format_duration(0.0) == "00:00:00:00"
        assert format_duration(59.0) == "00:00:00:59"
        assert format_duration(86399.999) == "00:23:59:59"
        assert format_duration(86400.0) == "01:00:00:00"

    def test_infeasible_and_undefined(self):
        assert format_duration(math.inf) == "INFEASIBLE"
        assert format_duration(math.nan) == "N/A"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)

    @given(st.floats(0.0, 1e9))
    @settings(max_examples=200, deadline=None)
    def test_fields_in_range_and_reconstructible(self, seconds):
        text = format_duration(seconds)
        d, h, m, s = (int(p) for p in text.split(":"))
        assert 0 <= h < 24 and 0 <= m < 60 and 0 <= s < 60
        assert d * 86400 + h * 3600 + m * 60 + s == int(seconds)


class TestParseMissionDefaults:
    def test_defaults_applied(self, tmp_path):
        spec = parse_mission(write_mission(tmp_path))
        assert spec.vehicle.speed_through_water == 0.3
        # region defaults to the flow grid's horizontal bounds
        assert (spec.region.x_min, spec.region.y_min) == (0.0, 0.0)
        assert (spec.region.x_max, spec.region.y_max) == (100000.0, 100000.0)
        assert spec.grid_spacing == pytest.approx(100000.0 / 20.0)
        assert spec.neighbor_set == 16
        assert spec.h == 0.25
        assert spec.n_sub == 4
        assert (spec.scheme.xy_method, spec.scheme.z_method,
                spec.scheme.t_method) == ("bilinear", "linear", "linear")
        assert spec.cost_mode == "fastest"
        assert spec.slack_factor == 1.1
        assert spec.restricted_areas == ()
        assert spec.projection_origin is None
        assert spec.start_latlon is None and spec.goal_latlon is None
        assert spec.smooth is True
        assert spec.start_time == 0.0

    def test_flow_path_resolved_relative_to_mission_file(self, tmp_path):
        sub = tmp_path / "cfg"
        sub.mkdir()
        grid = make_uniform_grid(0.1, 0.0)
        write_flow(tmp_path, grid, name="field.json")
        path = sub / "mission.json"
        doc = dict(BASE_MISSION)
        doc["flow"] = "../field.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = parse_mission(path)
        assert spec.flow_path == str(tmp_path / "field.json")

    def test_explicit_values_respected(self, tmp_path):
        spec = parse_mission(write_mission(tmp_path, {
            "start_time": 3600.0,
            "vehicle": {"speed_through_water": 0.5},
            "region": {"x_min": 5000.0, "y_min": 5000.0,
                       "x_max": 95000.0, "y_max": 95000.0},
            "grid_spacing": 10000.0,
            "neighbor_set": 8,
            "h": 0.5,
            "n_sub": 2,
            "scheme": {"xy": "bicubic", "z": "nearest", "t": "akima"},
            "cost_mode": "max_amplitude",
            "slack_factor": 1.25,
            "restricted_areas": [[[1000.0, 1000.0], [2000.0, 1000.0],
                                  [1500.0, 2000.0]]],
            "smooth": False,
        }))
        assert spec.start_time == 3600.0
        assert spec.vehicle.speed_through_water == 0.5
        assert spec.region.x_min == 5000.0 and spec.region.y_max == 95000.0
        assert spec.grid_spacing == 10000.0
        assert spec.neighbor_set == 8
        assert spec.h == 0.5 and spec.n_sub == 2
        assert spec.scheme.xy_method == "bicubic"
        assert spec.scheme.z_method == "nearest"
        assert spec.scheme.t_method == "akima"
        assert spec.cost_mode == "max_amplitude"
        assert spec.slack_factor == 1.25
        assert spec.restricted_areas == (
            ((1000.0, 1000.0), (2000.0, 1000.0), (1500.0, 2000.0)),)
        assert spec.smooth is False

    def test_geographic_terminals(self, tmp_path):
        origin = (44.0, -63.0)
        want_start = (20000.0, 30000.0)
        want_goal = (80000.0, 70000.0)
        s_lat, s_lon = unproject(*want_start, *origin)
        g_lat, g_lon = unproject(*want_goal, *origin)
        spec = parse_mission(write_mission(tmp_path, {
            "projection_origin": {"lat": origin[0], "lon": origin[1]},
            "start": {"lat": s_lat, "lon": s_lon},
            "goal": {"lat": g_lat, "lon": g_lon},
        }))
        assert spec.projection_origin == origin
        assert spec.start_latlon == (s_lat, s_lon)
        assert spec.goal_latlon == (g_lat, g_lon)
        # projected positions land within a meter of the intended spot
        assert math.hypot(spec.start_xy[0] - want_start[0],
                          spec.start_xy[1] - want_start[1]) < 1.0
        assert math.hypot(spec.goal_xy[0] - want_goal[0],
                          spec.goal_xy[1] - want_goal[1]) < 1.0

    def test_cartesian_terminals_gain_latlon_with_origin(self, tmp_path):
        spec = parse_mission(write_mission(tmp_path, {
            "projection_origin": {"lat": 44.0, "lon": -63.0}}))
        assert spec.start_latlon is not None
        back = project(*spec.start_latlon, 44.0, -63.0)
        assert back[0] == pytest.approx(10000.0, abs=1e-6)
        assert back[1] == pytest.approx(50000.0, abs=1e-6)

    def test_early_start_time_clamped_with_warning(self, tmp_path, capsys):
        path = write_mission(tmp_path, {"start_time": -500.0})
        capsys.readouterr()
        spec = parse_mission(path)
        assert spec.start_time == 0.0
        assert capsys.readouterr().err == (
            "start_time -500 precedes the first flow step 0; clamped\n")

    def test_start_time_within_the_clock(self, tmp_path):
        # past 2^32 s a float64 clock no longer holds the microseconds
        # arrivals are written with
        below = math.nextafter(2.0 ** 32, 0.0)
        spec = parse_mission(write_mission(tmp_path, {"start_time": below}))
        assert spec.start_time == below
        with pytest.raises(ConfigError, match="^start_time: "):
            parse_mission(write_mission(tmp_path, {"start_time": 2.0 ** 32}))
        # a time axis that starts past it, through the default
        late = make_uniform_grid(0.1, 0.0)
        late = FlowGrid(late.x_coords, late.y_coords, late.z_levels,
                        late.t_steps + 2.0 ** 33, late.u, late.v)
        with pytest.raises(ConfigError, match="^start_time: "):
            parse_mission(write_mission(tmp_path, grid=late))


class TestParseMissionErrors:
    def check(self, tmp_path, overrides, match):
        path = write_mission(tmp_path, overrides)
        with pytest.raises(ConfigError, match=match):
            parse_mission(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="mission file"):
            parse_mission(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_mission(path)

    def test_top_level_not_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="top level"):
            parse_mission(path)

    def test_missing_flow(self, tmp_path):
        self.check(tmp_path, {"flow": None}, "flow: missing required key")

    def test_unreadable_flow(self, tmp_path):
        self.check(tmp_path, {"flow": "missing-field.json"},
                   "flow: cannot read")

    def test_missing_start(self, tmp_path):
        self.check(tmp_path, {"start": None}, "start: missing required key")

    def test_missing_profile_family(self, tmp_path):
        self.check(tmp_path, {"profile_family": None},
                   "profile_family: missing required key")

    def test_non_numeric_coordinate(self, tmp_path):
        self.check(tmp_path, {"start": {"x": "ten", "y": 0.0}},
                   "start.x: must be a number")

    def test_position_without_any_coordinates(self, tmp_path):
        self.check(tmp_path, {"goal": {"depth": 5}},
                   "goal: needs either x/y or lat/lon")

    def test_geographic_without_origin(self, tmp_path):
        self.check(tmp_path, {"start": {"lat": 44.1, "lon": -63.0}},
                   "projection_origin: required when start is geographic")

    def test_polar_origin_rejected(self, tmp_path):
        self.check(tmp_path,
                   {"projection_origin": {"lat": 89.5, "lon": 0.0}},
                   "projection_origin.lat")

    def test_goal_equal_to_start(self, tmp_path):
        self.check(tmp_path, {"goal": dict(BASE_MISSION["start"])},
                   "goal: must differ from start")

    def test_zero_vehicle_speed(self, tmp_path):
        self.check(tmp_path, {"vehicle": {"speed_through_water": 0.0}},
                   "vehicle.speed_through_water")

    def test_degenerate_region(self, tmp_path):
        self.check(tmp_path,
                   {"region": {"x_min": 0.0, "y_min": 0.0,
                               "x_max": 0.0, "y_max": 100000.0}},
                   "region: x_max/y_max must exceed")

    def test_start_outside_region(self, tmp_path):
        self.check(tmp_path,
                   {"region": {"x_min": 40000.0, "y_min": 0.0,
                               "x_max": 100000.0, "y_max": 100000.0}},
                   "start: .* outside the region")

    def test_goal_outside_flow_domain(self, tmp_path):
        self.check(tmp_path,
                   {"region": {"x_min": 0.0, "y_min": 0.0,
                               "x_max": 200000.0, "y_max": 100000.0},
                    "goal": {"x": 150000.0, "y": 50000.0}},
                   "goal: .* outside the flow domain")

    def test_bad_grid_spacing(self, tmp_path):
        self.check(tmp_path, {"grid_spacing": 0}, "grid_spacing")

    def test_bad_neighbor_set(self, tmp_path):
        self.check(tmp_path, {"neighbor_set": 12},
                   "neighbor_set: must be 8 or 16")

    def test_bad_h(self, tmp_path):
        self.check(tmp_path, {"h": 0.0}, "h: must lie")
        self.check(tmp_path, {"h": 1.5}, "h: must lie")

    def test_bad_n_sub(self, tmp_path):
        self.check(tmp_path, {"n_sub": 0}, "n_sub")

    def test_bad_scheme_method(self, tmp_path):
        self.check(tmp_path, {"scheme": {"xy": "quintic"}}, "scheme")

    def test_missing_profile_band_edge(self, tmp_path):
        fam = dict(BASE_MISSION["profile_family"])
        del fam["z_max"]
        self.check(tmp_path, {"profile_family": fam},
                   "profile_family.z_max: missing required key")

    def test_profile_deeper_than_flow(self, tmp_path):
        fam = dict(BASE_MISSION["profile_family"], z_max=500.0)
        self.check(tmp_path, {"profile_family": fam},
                   "profile_family.z_max: 500 exceeds the deepest flow "
                   "level 200")

    def test_bad_cost_mode(self, tmp_path):
        self.check(tmp_path, {"cost_mode": "cheapest"}, "cost_mode")

    def test_bad_slack_factor(self, tmp_path):
        self.check(tmp_path, {"slack_factor": 0.9},
                   "slack_factor: must be at least 1.0")

    def test_restricted_areas_not_a_list(self, tmp_path):
        self.check(tmp_path, {"restricted_areas": {"poly": []}},
                   "restricted_areas: must be an array")

    def test_restricted_polygon_too_short(self, tmp_path):
        self.check(tmp_path,
                   {"restricted_areas": [[[0.0, 0.0], [1.0, 1.0]]]},
                   r"restricted_areas\[0\]")

    def test_unknown_key(self, tmp_path):
        self.check(tmp_path, {"turbo": True}, "turbo: unknown key")

    def test_non_boolean_smooth(self, tmp_path):
        self.check(tmp_path, {"smooth": "yes"},
                   "smooth: must be true or false")

    @pytest.mark.parametrize("overrides,match", [
        ({"vehicle": {"speed": 0.5}}, "vehicle.speed: unknown key"),
        ({"region": {"x_min": 0.0, "y_min": 0.0, "x_max": 90000.0,
                     "y_max": 90000.0, "z_max": 5.0}},
         "region.z_max: unknown key"),
        ({"projection_origin": {"lat": 44.0, "lon": -63.0, "alt": 0.0}},
         "projection_origin.alt: unknown key"),
        ({"scheme": {"xy": "bicubic", "zz": "akima"}},
         "scheme.zz: unknown key"),
        ({"profile_family": dict(BASE_MISSION["profile_family"],
                                 n_dive_levels=3)},
         "profile_family.n_dive_levels: unknown key"),
        ({"goal": {"x": 90000.0, "y": 50000.0, "depth": 5.0}},
         "goal.depth: unknown key"),
    ])
    def test_unknown_nested_key(self, tmp_path, overrides, match):
        self.check(tmp_path, overrides, match)

    def test_position_with_both_frames(self, tmp_path):
        self.check(tmp_path, {"projection_origin": {"lat": 44.0, "lon": -63.0},
                              "start": {"x": 10000.0, "y": 50000.0,
                                        "lat": 44.1}},
                   "start: give either x/y or lat/lon, not both")

    @pytest.mark.parametrize("key", ["region", "smooth", "scheme",
                                     "restricted_areas", "projection_origin"])
    def test_null_is_not_an_absent_key(self, tmp_path, key):
        path = write_mission(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = None
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key}: must be"):
            parse_mission(path)

    @pytest.mark.parametrize("overrides,match", [
        ({"h": 0.005}, "h: must lie in"),
        ({"n_sub": 101}, "n_sub: must lie in"),
        ({"profile_family": dict(BASE_MISSION["profile_family"],
                                 n_climb_to_levels=10**9)},
         "profile_family.n_climb_to_levels: must lie in"),
    ])
    def test_work_per_leg_is_bounded(self, tmp_path, overrides, match):
        self.check(tmp_path, overrides, match)

    def test_values_are_read_like_the_file(self, tmp_path):
        path = write_mission(tmp_path)
        spec = parse_mission(path, {"scheme.xy": "bicubic", "smooth": False,
                                    "vehicle.speed_through_water": 1})
        assert spec.scheme.xy_method == "bicubic"
        assert spec.smooth is False
        assert spec.vehicle.speed_through_water == 1.0
        with pytest.raises(ConfigError, match="scheme.z: must be"):
            parse_mission(path, {"scheme.z": "quintic"})


# every mission key, on a 3 x 3 lattice over a 50 km uniform field
FULL_MISSION = {
    "flow": "flow.json",
    "start": {"x": 10000.0, "y": 10000.0},
    "goal": {"x": 40000.0, "y": 40000.0},
    "start_time": 600.0,
    "vehicle": {"speed_through_water": 0.3},
    "region": {"x_min": 0.0, "y_min": 0.0, "x_max": 50000.0,
               "y_max": 50000.0},
    "grid_spacing": 25000.0,
    "neighbor_set": 8,
    "h": 1.0,
    "n_sub": 1,
    "scheme": {"xy": "bilinear", "z": "linear", "t": "linear"},
    "profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0, "z_max": 100.0,
                       "z_min_range": 40.0, "n_climb_to_levels": 1,
                       "n_dive_to_levels": 2},
    "cost_mode": "fastest",
    "slack_factor": 1.1,
    "restricted_areas": [[[20000.0, 30000.0], [30000.0, 30000.0],
                          [25000.0, 35000.0]]],
    "projection_origin": {"lat": 44.0, "lon": -63.0},
    "smooth": True,
}

# wrong types, non-finite, negative, zero, tiny and huge values
ODD_VALUES = (None, "text", True, [], {}, [1.0, 2.0], math.nan, math.inf,
              -math.inf, -1.0, 0, 2.5, 1e-300, 1e300, -1e300, 10**9)


def _key_paths(node, prefix=()):
    """Every key path in a mission document, list items by index."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, val in items:
        yield prefix + (key,)
        yield from _key_paths(val, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutation")
    write_flow(path, make_uniform_grid(0.1, 0.05, extent=50000.0))
    return path


class TestMissionMutation:
    def test_full_mission_plans(self, mutation_dir):
        path = mutation_dir / "full.json"
        path.write_text(json.dumps(FULL_MISSION), encoding="utf-8")
        result = run_mission(parse_mission(path))
        assert result.status == "ok"
        out = mutation_dir / "full-waypoints.json"
        export_waypoints(result, out)
        echo = json.loads(out.read_text(encoding="utf-8"))["mission"]
        assert set(echo) == set(FULL_MISSION)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_mission_fails_only_with_planner_errors(self, mutation_dir,
                                                            data):
        doc = copy.deepcopy(FULL_MISSION)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            op = data.draw(st.sampled_from(
                ("drop", "set", "unknown", "mixed")))
            paths = list(_key_paths(doc))
            if op == "mixed":
                # a cartesian terminal that also names a latitude
                end = _at(doc, ()).get(data.draw(st.sampled_from(
                    ("start", "goal"))))
                if isinstance(end, dict):
                    end["lat"] = 44.1
            elif op == "unknown":
                objects = [()] + [p for p in paths
                                  if isinstance(_at(doc, p), dict)]
                _at(doc, data.draw(st.sampled_from(objects)))["zz"] = 1
            elif paths:
                path = data.draw(st.sampled_from(paths), label="path")
                parent = _at(doc, path[:-1])
                if op == "drop":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(
                        data.draw(st.sampled_from(ODD_VALUES)))
        mission = mutation_dir / "mission.json"
        mission.write_text(json.dumps(doc), encoding="utf-8")
        try:
            run_mission(parse_mission(mission))
        except GliderPlanError:
            pass


FAST_KNOBS = {
    "grid_spacing": 20000.0,
    "neighbor_set": 8,
    "h": 0.5,
    "n_sub": 1,
}

# terminals either side of the land wall in make_land_grid's 50 km domain
LAND_TERMINALS = {
    "start": {"x": 10000.0, "y": 25000.0},
    "goal": {"x": 40000.0, "y": 25000.0},
    "grid_spacing": 10000.0,
}


def plan_fast(tmp_path, overrides=None, grid=None):
    merged = dict(FAST_KNOBS)
    if overrides:
        merged.update(overrides)
    spec = parse_mission(write_mission(tmp_path, merged, grid=grid))
    return spec, run_mission(spec)


class TestRunMission:
    def test_uniform_current_mission(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        assert result.status == "ok"
        final = result.final_path
        assert final is not None
        assert final.waypoints[0] == spec.start_xy
        assert final.waypoints[-1] == spec.goal_xy
        assert final.arrival_times[0] == spec.start_time
        for a, b in zip(final.arrival_times, final.arrival_times[1:]):
            assert b > a
        assert final.total_time == pytest.approx(
            final.arrival_times[-1] - spec.start_time, rel=1e-12)
        assert len(final.profiles) == len(final.waypoints) - 1
        assert all(p is not None for p in final.profiles)
        assert result.n_vertices > 0 and result.n_edges > 0
        assert result.planned.fifo_violations == 0
        assert result.comp_time > 0.0

    def test_search_settles_toward_the_goal(self, tmp_path):
        # A* over 38 vertices in a 0.1 m/s current; Dijkstra's order
        # settles 30
        _, result = plan_fast(tmp_path)
        assert result.planned.vertices_settled == 6
        assert not any(line.startswith("vertices_settled")
                       for line in summary_lines(result))

    def test_baselines_filled(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        # 80 km at 0.3 m/s through still water
        assert result.no_current_time == pytest.approx(80000.0 / 0.3)
        assert math.isfinite(result.straight_line_time)
        assert result.straight_line_time > 0.0
        assert result.straight_line_profile is not None
        # planner can never beat the unconstrained direct leg
        final = result.final_path
        elapsed = final.arrival_times[-1] - spec.start_time
        assert elapsed >= result.straight_line_time - 1e-6

    def test_blocked_straight_line_baseline_is_infeasible(self, tmp_path):
        # a 50 km direct leg in still water straight through a
        # 20 km x 35 km keep-out square
        block = [[40000.0, 32500.0], [60000.0, 32500.0],
                 [60000.0, 67500.0], [40000.0, 67500.0]]
        _, result = plan_fast(tmp_path, {
            "start": {"x": 25000.0, "y": 50000.0},
            "goal": {"x": 75000.0, "y": 50000.0},
            "restricted_areas": [block]}, grid=make_uniform_grid())
        assert result.status == "ok"
        assert result.final_path.total_length > 50000.0
        assert math.isinf(result.straight_line_time)
        assert result.straight_line_profile is None
        assert "straight_line_s: inf" in summary_lines(result)
        path = tmp_path / "wp.json"
        export_waypoints(result, path)
        totals = json.loads(path.read_text())["totals"]
        assert totals["straight_line_s"] is None
        assert totals["straight_line"] == "INFEASIBLE"

    def test_smoothing_runs_and_helps(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        assert result.smoothed is not None
        assert result.trace is not None
        assert result.final_path is result.smoothed
        assert len(result.smoothed.waypoints) <= len(result.planned.waypoints)
        assert (result.smoothed.arrival_times[-1]
                <= result.planned.arrival_times[-1] + 1e-6)
        # uniform field: the smoothed route collapses to the direct leg
        assert len(result.smoothed.waypoints) == 2
        assert result.smoothed.arrival_times[-1] - spec.start_time == (
            pytest.approx(result.straight_line_time, rel=1e-9))

    def test_smoothing_disabled(self, tmp_path):
        _, result = plan_fast(tmp_path, {"smooth": False})
        assert result.status == "ok"
        assert result.smoothed is None and result.trace is None
        assert result.final_path is result.planned

    def test_land_wall_is_infeasible(self, tmp_path):
        grid = make_land_grid()
        _, result = plan_fast(tmp_path, LAND_TERMINALS, grid=grid)
        assert result.status == "infeasible"
        assert result.planned is None and result.final_path is None
        # direct leg crosses the wall too
        assert math.isinf(result.straight_line_time)
        assert result.straight_line_profile is None
        assert math.isfinite(result.no_current_time)

    def test_restricted_area_forces_detour(self, tmp_path):
        block = [[40000.0, 30000.0], [60000.0, 30000.0],
                 [60000.0, 70000.0], [40000.0, 70000.0]]
        _, plain = plan_fast(tmp_path)
        _, detour = plan_fast(tmp_path, {"restricted_areas": [block]})
        assert detour.status == "ok"
        assert (detour.final_path.arrival_times[-1]
                >= plain.final_path.arrival_times[-1] - 1e-9)
        assert detour.final_path.total_length > 80000.0
        # no waypoint may sit inside the keep-out box
        for x, y in detour.final_path.waypoints:
            assert not (40000.0 < x < 60000.0 and 30000.0 < y < 70000.0)

    def test_batched_edge_cost_does_not_change_result(self, tmp_path,
                                                      monkeypatch):
        _, batched = plan_fast(tmp_path)
        make = mission_mod.make_edge_cost

        def one_leg_at_a_time(*args, **kwargs):
            cost = make(*args, **kwargs)
            del cost.prefetch
            return cost

        monkeypatch.setattr(mission_mod, "make_edge_cost", one_leg_at_a_time)
        _, single = plan_fast(tmp_path)
        for path in ("planned", "final_path"):
            a, b = getattr(batched, path), getattr(single, path)
            assert a.waypoints == b.waypoints
            assert a.arrival_times == b.arrival_times
            assert a.profiles == b.profiles


class TestSmoothingKernelCalls:
    """Smoothing times the legs of one run of merges together: pinned
    kernel-call counts, with the one-leg-per-call counts in comments."""

    def test_acceptance_8_mission(self, tmp_path, monkeypatch):
        spec = parse_mission(write_gyre_mission(tmp_path))
        calls = count_kernel_calls(monkeypatch)
        result = run_mission(spec)
        assert (len(result.planned.waypoints),
                len(result.smoothed.waypoints)) == (14, 10)
        assert calls["smoothing"] == 15  # 30 one leg per call
        # kernel calls, lanes (legs x 3 profiles) and leg screens of
        # every stage: the search's prefetched fan-outs of screened arcs,
        # smoothing's lockstep merges, and a baseline the table already
        # holds
        assert [calls[stage + count] for stage in ("search", "smoothing",
                                                   "baseline")
                for count in ("", "_lanes", "_screens")] == \
            [21, 3_369, 0, 15, 255, 5, 0, 0, 0]

    def test_drift_lattice_mission_and_its_baseline(self, tmp_path,
                                                   monkeypatch):
        # uniform drift across the course, 16 neighbours, 12 profiles
        grid = make_uniform_grid(u0=0.035, v0=-0.035, extent=50_000.0,
                                 depth=100.0, nz=2)
        spec = parse_mission(write_mission(tmp_path, {
            "start": {"x": 5_000.0, "y": 5_000.0},
            "goal": {"x": 45_000.0, "y": 45_000.0},
            "grid_spacing": 5_000.0, "neighbor_set": 16, "h": 1.0,
            "n_sub": 1, "profile_family": {
                "z_min": 0.0, "z_climb_to_max": 20.0, "z_max": 100.0,
                "z_min_range": 30.0, "n_climb_to_levels": 3,
                "n_dive_to_levels": 5}}, grid=grid))
        profiles = make_dive_profiles(spec.profile_family)
        assert len(profiles) == 12
        calls = count_kernel_calls(monkeypatch)
        result = run_mission(spec)
        assert len(result.smoothed.waypoints) == 2
        assert calls["smoothing"] == 7  # 28 one leg per call
        # the baseline is the smoothed route's one leg, read from the
        # table, and the same as a one-leg call gives
        assert calls["baseline"] == 0
        assert (result.straight_line_profile, result.straight_line_time) == \
            optimal_profile_cost(spec.start_xy, spec.goal_xy, spec.start_time,
                                 profiles, grid, spec.vehicle, spec.h,
                                 spec.scheme, spec.n_sub)
        assert result.straight_line_time == result.smoothed.total_time


class TestSummaryLines:
    def test_ok_run_keys_in_order(self, tmp_path):
        _, result = plan_fast(tmp_path)
        lines = summary_lines(result)
        keys = [ln.split(":", 1)[0] for ln in lines]
        assert keys == [
            "status", "travel_time_s", "travel_time", "path_length_km",
            "waypoints_initial", "waypoints_smoothed", "straight_line_s",
            "straight_line", "straight_line_no_current_s",
            "straight_line_no_current", "speed_through_water", "vertices",
            "edges", "smoothing_iterations", "merges_accepted",
            "fifo_violations", "comp_time_s",
        ]
        assert lines[0] == "status: ok"

    def test_consistent_durations(self, tmp_path):
        _, result = plan_fast(tmp_path)
        vals = dict(ln.split(": ", 1) for ln in summary_lines(result))
        assert vals["travel_time"] == format_duration(
            float(vals["travel_time_s"]))
        assert vals["straight_line_no_current"] == format_duration(
            float(vals["straight_line_no_current_s"]))
        assert vals["speed_through_water"] == "0.3"

    def test_infeasible_run(self, tmp_path):
        _, result = plan_fast(tmp_path, LAND_TERMINALS, grid=make_land_grid())
        vals = dict(ln.split(": ", 1) for ln in summary_lines(result))
        assert vals["status"] == "infeasible"
        assert vals["travel_time_s"] == "inf"
        assert vals["travel_time"] == "INFEASIBLE"
        assert vals["straight_line_s"] == "inf"
        assert "fifo_violations" not in vals
        assert "smoothing_iterations" not in vals


class TestExportWaypoints:
    def test_document_structure(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        out = tmp_path / "waypoints.json"
        export_waypoints(result, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == 1
        assert set(doc) == {"version", "mission", "totals", "waypoints"}
        # the echoed mission uses exactly the mission-file vocabulary
        assert set(doc["mission"]) == {
            "flow", "start", "goal", "start_time", "vehicle", "region",
            "grid_spacing", "neighbor_set", "h", "n_sub", "scheme",
            "profile_family", "cost_mode", "slack_factor",
            "restricted_areas", "projection_origin", "smooth"}
        assert doc["mission"]["grid_spacing"] == 20000.0
        assert doc["mission"]["projection_origin"] is None

        totals = doc["totals"]
        assert totals["status"] == "ok"
        assert totals["travel_time"] == format_duration(
            totals["travel_time_s"])
        assert totals["waypoints_smoothed"] == len(doc["waypoints"])
        assert totals["fifo_violations"] == 0
        assert totals["straight_line_s"] > 0.0

        records = doc["waypoints"]
        assert [r["index"] for r in records] == list(range(len(records)))
        assert records[0]["profile"] is None
        assert all(set(r["profile"]) == {"z_climb_to", "z_dive_to"}
                   for r in records[1:])
        arrivals = [r["arrival_s"] for r in records]
        assert arrivals == sorted(arrivals)
        assert records[0]["elapsed"] == "00:00:00:00"
        assert all(r["lat"] is None and r["lon"] is None for r in records)

    def test_geographic_positions_round_trip(self, tmp_path):
        origin = {"lat": 44.0, "lon": -63.0}
        spec, result = plan_fast(tmp_path, {"projection_origin": origin})
        out = tmp_path / "waypoints.json"
        export_waypoints(result, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        for rec in doc["waypoints"]:
            assert rec["lat"] is not None and rec["lon"] is not None
            x, y = project(rec["lat"], rec["lon"], 44.0, -63.0)
            # six-decimal geographic rounding keeps positions sub-meter
            assert math.hypot(x - rec["x"], y - rec["y"]) < 1.0

    def test_export_is_deterministic(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        export_waypoints(result, a)
        export_waypoints(result, b)
        assert a.read_bytes() == b.read_bytes()
        # a fresh planning run of the same mission exports identically
        rerun = run_mission(spec)
        c = tmp_path / "c.json"
        export_waypoints(rerun, c)
        assert a.read_bytes() == c.read_bytes()

    def test_serialization_is_sorted_with_trailing_newline(self, tmp_path):
        _, result = plan_fast(tmp_path)
        out = tmp_path / "waypoints.json"
        export_waypoints(result, out)
        raw = out.read_text(encoding="utf-8")
        assert raw.endswith("\n")
        doc = json.loads(raw)
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_infeasible_export(self, tmp_path):
        _, result = plan_fast(tmp_path, LAND_TERMINALS, grid=make_land_grid())
        out = tmp_path / "waypoints.json"
        export_waypoints(result, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["totals"]["status"] == "infeasible"
        assert doc["totals"]["straight_line_s"] is None
        assert doc["totals"]["straight_line"] == "INFEASIBLE"
        assert "travel_time_s" not in doc["totals"]
        assert doc["waypoints"] == []


SVG_NS = "{http://www.w3.org/2000/svg}"


def render_to(tmp_path, result, grid, name="map.svg", **kwargs):
    out = tmp_path / name
    render_svg(result, grid, out, **kwargs)
    return out


class TestRenderSvg:
    def test_renders_valid_svg(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        from gliderplan.flowfield import load_flow_grid
        grid = load_flow_grid(spec.flow_path)
        out = render_to(tmp_path, result, grid)
        root = ET.parse(out).getroot()
        assert root.tag == SVG_NS + "svg"
        assert root.get("width") == "900"
        assert root.get("viewBox") is not None
        polylines = root.findall(SVG_NS + "polyline")
        # raw track plus smoothed track
        assert len(polylines) == 2
        assert all(p.get("points") for p in polylines)
        texts = root.findall(SVG_NS + "text")
        assert len(texts) == 1 and "travel time" in texts[0].text
        # start marker circle and goal marker square both present
        assert root.findall(SVG_NS + "circle")
        assert any(r.get("fill") == "#1d3f8f"
                   for r in root.findall(SVG_NS + "rect"))

    def test_land_and_restricted_areas_drawn(self, tmp_path):
        grid = make_land_grid()
        block = [[5000.0, 35000.0], [15000.0, 35000.0], [10000.0, 45000.0]]
        over = dict(LAND_TERMINALS, restricted_areas=[block])
        spec, result = plan_fast(tmp_path, over, grid=grid)
        out = render_to(tmp_path, result, grid)
        root = ET.parse(out).getroot()
        land = [r for r in root.findall(SVG_NS + "rect")
                if r.get("fill") == "#b9a98c"]
        # one filled column of six nodes
        assert len(land) == 6
        polys = root.findall(SVG_NS + "polygon")
        assert len(polys) == 1
        assert len(polys[0].get("points").split()) == 3

    def test_render_is_deterministic(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        from gliderplan.flowfield import load_flow_grid
        grid = load_flow_grid(spec.flow_path)
        a = render_to(tmp_path, result, grid, name="a.svg")
        b = render_to(tmp_path, result, grid, name="b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_rendering(self, tmp_path):
        grid = make_land_grid()
        _, result = plan_fast(tmp_path, LAND_TERMINALS, grid=grid)
        out = render_to(tmp_path, result, grid)
        root = ET.parse(out).getroot()
        assert root.findall(SVG_NS + "polyline") == []
        texts = root.findall(SVG_NS + "text")
        assert texts[0].text == "infeasible"

    def test_custom_width_and_depth(self, tmp_path):
        spec, result = plan_fast(tmp_path)
        from gliderplan.flowfield import load_flow_grid
        grid = load_flow_grid(spec.flow_path)
        out = render_to(tmp_path, result, grid, name="wide.svg",
                        width=500, depth=100.0, at_time=1800.0)
        root = ET.parse(out).getroot()
        assert root.get("width") == "500"


SVG_SCHEMES = [InterpScheme(xy, z, t) for xy, z, t in
               itertools.product(XY_METHODS, ZT_METHODS, ZT_METHODS)]


def svg_case(xs, ys, u, v, region, kind="feasible", scheme=InterpScheme(),
             zs=(0.0,), ts=(0.0,), fill=-9999.0, polygons=(), waypoints=None,
             start_time=0.0, **kwargs):
    """(grid, result, render kwargs) for render_svg without planning.

    u and v broadcast to the grid's (t, z, y, x) shape; kind is
    "feasible" (raw and smoothed tracks), "unsmoothed" or "infeasible".
    """
    shape = (len(ts), len(zs), len(ys), len(xs))
    grid = FlowGrid(xs, ys, zs, ts, np.broadcast_to(u, shape).copy(),
                    np.broadcast_to(v, shape).copy(), fill_sentinel=fill)
    x0, y0, x1, y1 = region
    track = SimpleNamespace(waypoints=waypoints or [(x0, y0), (x1, y1)],
                            total_time=98765.4)
    planned = None if kind == "infeasible" else track
    smoothed = track if kind == "feasible" else None
    spec = SimpleNamespace(
        region=Rect(*region), start_time=start_time, scheme=scheme,
        restricted_areas=polygons, start_xy=track.waypoints[0],
        goal_xy=track.waypoints[-1])
    result = SimpleNamespace(spec=spec, planned=planned, smoothed=smoothed,
                             final_path=smoothed or planned)
    return grid, result, kwargs


@st.composite
def svg_cases(draw):
    def axis():
        gaps = draw(st.lists(st.floats(20.0, 4000.0), max_size=7))
        return draw(st.floats(-5000.0, 5000.0)) + np.concatenate(
            ([0.0], np.cumsum(gaps)))

    def bounds(ax):
        # knots themselves, so the region's edges run through land
        # cells and arrow nodes
        pick = st.one_of(st.sampled_from(ax.tolist()),
                         st.floats(ax[0] - 3000.0, ax[-1] + 3000.0))
        lo, hi = sorted((draw(pick), draw(pick)))
        if hi - lo < 1.0:
            hi = lo + draw(st.floats(1.0, 9e3))
        return lo, hi

    xs, ys = axis(), axis()
    zs = (0.0, 40.0, 200.0)[:draw(st.integers(1, 3))]
    ts = (0.0, 3600.0, 9000.0)[:draw(st.integers(1, 3))]
    shape = (len(ts), len(zs), ys.size, xs.size)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # speeds over three decades, so that some arrows fall under a pixel
    u, v = rng.normal(size=(2,) + shape) * 10.0 ** rng.uniform(-3, 0, shape)
    fill = draw(st.sampled_from([-9999.0, 1e20, math.nan]))
    land = rng.random((ys.size, xs.size)) < draw(st.floats(0.0, 1.0))
    for comp in (u, v):  # still water, land in sentinel or NaN, stray fill
        comp[rng.random(shape) < 0.1] = 0.0
        comp[:, :, land] = np.where(rng.random(land.sum()) < 0.5,
                                    fill, math.nan)
        comp[rng.random(shape) < 0.03] = fill
    (x0, x1), (y0, y1) = bounds(xs), bounds(ys)
    pts = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    kwargs = {name: draw(strat) for name, strat in (
        ("width", st.integers(120, 1600)), ("depth", st.floats(-10.0, 250.0)),
        ("at_time", st.floats(-100.0, 9500.0))) if draw(st.booleans())}
    return svg_case(
        xs, ys, u, v, (x0, y0, x1, y1),
        kind=draw(st.sampled_from(["feasible", "unsmoothed", "infeasible"])),
        scheme=draw(st.sampled_from(SVG_SCHEMES)), zs=zs, ts=ts, fill=fill,
        polygons=draw(st.lists(st.lists(pts, min_size=3, max_size=4),
                               max_size=1)),
        waypoints=draw(st.lists(pts, min_size=2, max_size=5)),
        start_time=draw(st.floats(0.0, 9000.0)), **kwargs)


class TestRenderSvgArrays:
    @settings(max_examples=250, deadline=None)
    @given(case=svg_cases())
    # every node land, the region's edges on knots: the closed interval
    # keeps the cells on them, the axis ends have no outer half-width
    @example(case=svg_case([0.0, 300.0, 1000.0], [-50.0, 0.0, 700.0, 900.0],
                           -9999.0, -9999.0, (0.0, -50.0, 1000.0, 700.0)))
    # one knot on each axis: a zero-size cell and one arrow
    @example(case=svg_case([5.0], [7.0], 0.2, -0.1, (0.0, 0.0, 10.0, 10.0),
                           kind="unsmoothed", width=300))
    # an arrow of 1 - 1 ulp pixels, which np.hypot rounds up to 1.0
    @example(case=svg_case([0.0, 135.50135501355442], [0.0, 100.0],
                           -0.384597, 0.319507, (0.0, 0.0, 1e5, 1e5),
                           kind="infeasible"))
    def test_matches_the_per_cell_reference(self, case):
        grid, result, kwargs = case
        with tempfile.TemporaryDirectory() as tmp:
            got, want = (os.path.join(tmp, name) for name in ("a", "b"))
            render_svg(result, grid, got, **kwargs)
            render_svg_reference(result, grid, want, **kwargs)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()
