"""Each output check accepts a real plan and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py

Run from the root of a source checkout; the end-to-end cases plan two
small generated missions with the planner in src/.
"""

import copy
import math
import os
import random
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import FILL, SPEED, make_workload, write_inputs  # noqa: E402


def test_bilinear_sampler_is_exact_on_multilinear_fields():
    rng = random.Random(0)
    x = np.array([0.0, 1.0, 2.5, 4.0])
    y = np.array([0.0, 2.0, 3.0])
    z = np.array([0.0, 10.0, 30.0])
    t = np.array([0.0, 100.0])
    tt, zz, yy, xx = np.meshgrid(t, z, y, x, indexing="ij")

    def f(x_, y_, z_, t_):
        return 1.0 + 0.5 * x_ - 0.25 * y_ + 0.1 * x_ * y_ + 0.02 * z_ + 1e-3 * t_

    u = f(xx, yy, zz, tt)
    s = checks.BilinearSampler(x, y, z, t, u, -u, FILL)
    for _ in range(200):
        q = (rng.uniform(0, 4), rng.uniform(0, 3), rng.uniform(0, 30),
             rng.uniform(0, 100))
        got_u, got_v = s(*q)
        assert got_u == pytest.approx(f(*q), rel=1e-12)
        assert got_v == pytest.approx(-f(*q), rel=1e-12)
    # depth and time clamp to the axis ends
    assert s(1.0, 1.0, 99.0, -5.0)[0] == pytest.approx(f(1.0, 1.0, 30.0, 0.0))
    with pytest.raises(checks.OffField):
        s(4.5, 1.0, 0.0, 0.0)
    u[:, :, 1, 2] = FILL
    with pytest.raises(checks.OnLand):
        checks.BilinearSampler(x, y, z, t, u, u, FILL)(2.0, 1.5, 0.0, 0.0)


def test_ground_speed_solves_the_slant_quadratic():
    rng = random.Random(1)
    for _ in range(200):
        # |c| < speed, so the glider always makes headway
        cu, cv = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
        d = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.01])
        d /= np.linalg.norm(d)
        g = checks.ground_speed(cu, cv, *d, SPEED)
        assert g is not None
        assert np.linalg.norm(g * d - np.array([cu, cv, 0.0])) == \
            pytest.approx(SPEED, rel=1e-12)
    # a cross current stronger than the glider leaves no ground speed
    assert checks.ground_speed(0.0, 0.31, 1.0, 0.0, 0.0, SPEED) is None


def test_selection_rules():
    times = [100.0, 104.0, 109.0, 120.0]
    amps = [20.0, 40.0, 60.0, 80.0]
    assert checks.selection_problem(times, amps, 0, "fastest", 1.1, 1e-6) is None
    assert checks.selection_problem(times, amps, 1, "fastest", 1.1, 1e-6)
    # slack 1.1 admits 109 s, whose amplitude 60 beats 40
    assert checks.selection_problem(times, amps, 2, "max_amplitude", 1.1,
                                    1e-6) is None
    assert checks.selection_problem(times, amps, 1, "max_amplitude", 1.1, 1e-6)
    assert checks.selection_problem(times, amps, 3, "max_amplitude", 1.1, 1e-6)
    assert checks.selection_problem([math.inf, 5.0], [1.0, 2.0], 0, "fastest",
                                    1.1, 1e-6)


def test_geometry_screens():
    square = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    assert checks.segment_hits_polygon((-1.0, 1.0), (3.0, 1.0), square)
    assert checks.segment_hits_polygon((1.0, 1.0), (1.5, 1.5), square)
    assert not checks.segment_hits_polygon((-1.0, 3.0), (3.0, 2.5), square)
    # grazing an edge or a corner does not enter the interior
    assert not checks.segment_hits_polygon((-1.0, 2.0), (3.0, 2.0), square)
    assert not checks.segment_hits_polygon((-1.0, 1.0), (1.0, 3.0), square)
    rects = np.array([[0.0, 2.0, 0.0, 2.0]])
    assert checks.segment_hits_rectangles((-1.0, 1.0), (3.0, 1.0), rects)
    assert checks.segment_hits_rectangles((1.0, -1.0), (1.0, 0.5), rects)
    assert not checks.segment_hits_rectangles((-1.0, 1.0), (1.0, 3.0), rects)
    assert not checks.segment_hits_rectangles((3.0, -1.0), (3.0, 5.0), rects)


def _plan(name, seed, tmp_path_factory):
    import gliderplan
    work = str(tmp_path_factory.mktemp(name))
    wl = make_workload(name, seed)
    mission = write_inputs(wl, work)
    report = run.run_op(ROOT, mission, work, False, time.perf_counter() + 150)
    assert report is not None and report["exit_code"] == 0
    checker = run.Checker(wl, os.path.join(work, wl.mission["flow"]),
                          gliderplan)
    doc = checks.read_outputs(os.path.join(work, "out"))
    return wl, checker, report, doc


@pytest.fixture(scope="module")
def gyre_plan(tmp_path_factory):
    return _plan("gyre-akima", 3, tmp_path_factory)


@pytest.fixture(scope="module")
def drift_plan(tmp_path_factory):
    return _plan("drift-lattice", 3, tmp_path_factory)


def _gyre_problems(plan, doc):
    wl, checker, report, _ = plan
    return checks.check_route(doc, wl.mission, checker.current, checker.land,
                              report["lattice_arrival"])


def _tags(problems):
    return {p.split(":", 1)[0] for p in problems}


def test_gyre_plan_passes_every_check(gyre_plan):
    wl, checker, report, doc = gyre_plan
    assert checker.setup_problems == []
    assert len(doc["waypoints"]) >= 3
    assert _gyre_problems(gyre_plan, doc) == []


def test_shifted_arrival_is_rejected(gyre_plan):
    doc = copy.deepcopy(gyre_plan[3])
    doc["waypoints"][1]["arrival_s"] += 0.01
    assert "retime" in _tags(_gyre_problems(gyre_plan, doc))


def test_waypoint_on_the_island_is_rejected(gyre_plan):
    wl = gyre_plan[0]
    doc = copy.deepcopy(gyre_plan[3])
    cx, cy, _ = wl.island
    doc["waypoints"][1]["x"], doc["waypoints"][1]["y"] = cx, cy
    assert "land" in _tags(_gyre_problems(gyre_plan, doc))


def test_waypoint_in_the_restricted_area_is_rejected(gyre_plan):
    wl = gyre_plan[0]
    doc = copy.deepcopy(gyre_plan[3])
    poly = np.array(wl.polygons[0])
    doc["waypoints"][1]["x"], doc["waypoints"][1]["y"] = poly.mean(axis=0)
    assert "polygon" in _tags(_gyre_problems(gyre_plan, doc))


def test_swapped_profile_is_rejected(gyre_plan):
    wl = gyre_plan[0]
    doc = copy.deepcopy(gyre_plan[3])
    prof = doc["waypoints"][1]["profile"]
    family = checks.profile_family(wl.mission["profile_family"])
    other = next(p for p in family
                 if p != (prof["z_climb_to"], prof["z_dive_to"]))
    prof["z_climb_to"], prof["z_dive_to"] = other
    assert "rule" in _tags(_gyre_problems(gyre_plan, doc))


def test_smoothed_arrival_after_lattice_arrival_is_rejected(gyre_plan):
    wl, checker, report, doc = gyre_plan
    problems = checks.check_route(doc, wl.mission, checker.current,
                                  checker.land,
                                  doc["waypoints"][-1]["arrival_s"] - 1.0)
    assert "route" in _tags(problems)


def _drift_problems(plan, doc, lattice_arrival=None):
    wl, _, report, _ = plan
    return checks.check_drift_route(
        doc, wl.mission, wl.drift, report["lattice_waypoints"],
        report["lattice_arrival"] if lattice_arrival is None
        else lattice_arrival)


def test_drift_plan_matches_the_closed_form(drift_plan):
    assert drift_plan[1].setup_problems == []
    assert _drift_problems(drift_plan, drift_plan[3]) == []


def test_drift_corruptions_are_rejected(drift_plan):
    doc = copy.deepcopy(drift_plan[3])
    doc["totals"]["travel_time_s"] += 1e-3
    assert "route" in _tags(_drift_problems(drift_plan, doc))

    doc = copy.deepcopy(drift_plan[3])
    prof = doc["waypoints"][1]["profile"]
    prof["z_climb_to"], prof["z_dive_to"] = 0.0, 100.0
    assert "rule" in _tags(_drift_problems(drift_plan, doc))

    lattice = drift_plan[2]["lattice_arrival"]
    assert "route" in _tags(_drift_problems(drift_plan, drift_plan[3],
                                            lattice * (1 + 1e-8)))
