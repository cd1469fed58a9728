"""The benchmark's missions and its traced child, run from the tests.

bench/ generates the benchmark's inputs and checks its outputs apart
from the planner; these tests plan its missions in-process, so that a
planner change that breaks them fails here rather than in a benchmark
run.
"""

import json
import os
import subprocess
import sys

import pytest

from gliderplan import FlowGrid, parse_mission, run_mission
from gliderplan.mission import render_svg

from oracles import render_svg_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)
import checks  # noqa: E402
from workloads import FILL, make_workload, write_inputs  # noqa: E402


@pytest.mark.parametrize("seed", [165, 173])
def test_strong_gyre_route_stays_off_land(tmp_path, seed):
    # a leg screened at points every grid_spacing / 4 clipped a land
    # cell's corner between two of them at these seeds
    wl = make_workload("strong-gyre", seed)
    fld = wl.flow
    u, v = fld.stored()
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(wl.mission), encoding="utf-8")
    grid = FlowGrid(fld.x, fld.y, fld.z, fld.t, u, v, fill_sentinel=FILL)
    result = run_mission(parse_mission(path, grid=grid))
    assert result.status == "ok"
    land = checks.land_rectangles(fld.x, fld.y, u, v, FILL)
    wp = result.final_path.waypoints
    assert [i for i, (a, b) in enumerate(zip(wp, wp[1:]))
            if checks.segment_hits_rectangles(a, b, land)] == []
    # the map of about 1,200 land cells, drawn from arrays and one cell
    # at a time
    svgs = tmp_path / "plan.svg", tmp_path / "reference.svg"
    render_svg(result, grid, svgs[0])
    render_svg_reference(result, grid, svgs[1])
    assert svgs[0].read_bytes() == svgs[1].read_bytes()


def run_child(mission: str, out, report, *flags) -> None:
    """Plan mission with bench/child.py into out, its report at report."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--src",
         os.path.join(ROOT, "src"), "--mission", mission, "--out", str(out),
         "--report", str(report), "--t0", "0", *flags],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_traced_child_reports_layers(tmp_path):
    # bench/spans.py wraps planner functions by name: renaming one must
    # fail here, not leave the traced benchmark broken
    mission = write_inputs(make_workload("drift-lattice", 1),
                           str(tmp_path / "in"))
    report = tmp_path / "r.json"
    run_child(mission, tmp_path / "out", report, "--trace")
    assert json.loads(report.read_text(encoding="utf-8"))["layers"]


def test_traced_child_plans_the_untraced_route_on_land(tmp_path):
    # bench/spans.py wraps the edge cost in a plain function; the leg
    # table inside it still screens smoothing's merges and the baseline
    # against the island and the keep-out square
    wl = make_workload("gyre-akima", 1)
    mission = write_inputs(wl, str(tmp_path / "in"))
    routes = []
    for flags in ((), ("--trace",)):
        out = tmp_path / f"out{len(flags)}"
        run_child(mission, out, tmp_path / "r.json", *flags)
        routes.append((out / "waypoints.json").read_bytes())
    assert routes[0] == routes[1]
    land = checks.land_rectangles(wl.flow.x, wl.flow.y, *wl.flow.stored(),
                                  FILL)
    wp = [(w["x"], w["y"]) for w in json.loads(routes[1])["waypoints"]]
    assert wl.mission["restricted_areas"]
    assert [i for i, (a, b) in enumerate(zip(wp, wp[1:]))
            if checks.segment_hits_rectangles(a, b, land)
            or any(checks.segment_hits_polygon(a, b, poly)
                   for poly in wl.mission["restricted_areas"])] == []
