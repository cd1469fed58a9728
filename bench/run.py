"""Benchmark of `gliderplan plan` on three generated missions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are
generated from the seed (workloads.py).  Then, for S seconds, the
benchmark repeats one operation: a `gliderplan plan` call in a fresh
child process (child.py) followed by the checks of everything it wrote
(checks.py).  The last line of standard output is one JSON object:
correct, attempted, failed and the metrics, which are the medians over
the operations -- end-to-end metrics with --trace 0, per-layer metrics
(spans.py) with --trace 1.  The four end-to-end times are CPU time of
the plan process (all threads), which unlike wall time does not carry
the time a shared host takes the virtual CPUs away; the wall times are
kept in the fuller record, with every operation's values, the seed and
the machine, in bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import FILL, WORKLOADS, make_workload, write_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "plan_s": "s",
    "output_s": "s",
    "mission_s": "s",
    "route_travel_s": "s",
    "peak_rss_mb": "MB",
}
OUTPUT_FILES = ("waypoints.json", "plan.svg", "summary.txt")
OP_TIMEOUT_S = 150.0


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def probe_points(wl, n: int = 12) -> list:
    """Archive nodes, drawn from the seed, whose bicubic stencil is clear
    of land; each as ((x, y, z, t), (it, iz, iy, ix))."""
    fld = wl.flow
    rng = random.Random(wl.seed)
    land = (fld.u == FILL).all(axis=(0, 1))
    points = []
    while len(points) < n:
        ix = rng.randrange(2, fld.x.size - 2)
        iy = rng.randrange(2, fld.y.size - 2)
        if land[max(0, iy - 3):iy + 4, max(0, ix - 3):ix + 4].any():
            continue
        iz, it = rng.randrange(fld.z.size), rng.randrange(fld.t.size)
        points.append(((float(fld.x[ix]), float(fld.y[iy]),
                        float(fld.z[iz]), float(fld.t[it])),
                       (it, iz, iy, ix)))
    return points


class Checker:
    """Checks one workload's outputs against computations made apart
    from the planner (see checks.py)."""

    def __init__(self, wl, archive: str, gp):
        self.wl = wl
        self.mission = wl.mission
        fld = wl.flow
        u, v = fld.stored()
        self.land = checks.land_rectangles(fld.x, fld.y, u, v, FILL)
        grid = gp.load_flow_grid(archive)
        sch = wl.mission["scheme"]
        scheme = gp.InterpScheme(sch["xy"], sch["z"], sch["t"])

        def planner_sample(x, y, z, t):
            try:
                return tuple(gp.sample(grid, x, y, z, t, scheme))
            except gp.LandContactError as exc:
                raise checks.OnLand(str(exc)) from exc
            except gp.OutOfDomainError as exc:
                raise checks.OffField(str(exc)) from exc

        points = probe_points(wl)
        self.setup_problems = checks.probe_problems(planner_sample, points,
                                                    u, v)
        if wl.name == "gyre-akima":
            # there is no independent bicubic/Akima sampler: the planner's
            # sample(), checked at the probe nodes above, is the current
            self.current = planner_sample
        else:
            self.current = checks.BilinearSampler(fld.x, fld.y, fld.z, fld.t,
                                                  u, v, FILL)
            self.setup_problems += checks.probe_problems(self.current, points,
                                                         u, v)
        self.reference = None  # stable bytes of the first checked output

    def check(self, out_dir: str, report: dict) -> list[str]:
        files = {}
        for name in OUTPUT_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        # summary.txt carries the wall-clock comp_time_s line
        stable = dict(files)
        stable["summary.txt"] = b"\n".join(
            line for line in files["summary.txt"].splitlines()
            if not line.startswith(b"comp_time_s:"))
        stable["lattice"] = json.dumps(
            [report.get("lattice_waypoints"), report.get("lattice_arrival")]
        ).encode()
        if self.reference is not None:
            if stable == self.reference:
                return []
            problems = ["determinism: outputs differ from the first operation"]
        else:
            problems = []
            self.reference = stable
        doc = json.loads(files["waypoints.json"])
        problems += self._check_files(doc, files)
        if "lattice_arrival" not in report:
            return problems + ["route: no lattice route"]
        if self.wl.name == "drift-lattice":
            problems += checks.check_drift_route(
                doc, self.mission, self.wl.drift, report["lattice_waypoints"],
                report["lattice_arrival"])
        else:
            problems += checks.check_route(
                doc, self.mission, self.current, self.land,
                report["lattice_arrival"])
        return problems

    @staticmethod
    def _check_files(doc: dict, files: dict) -> list[str]:
        problems = []
        lines = dict(line.split(": ", 1) for line in
                     files["summary.txt"].decode().splitlines() if ": " in line)
        if lines.get("status") != "ok":
            problems.append("summary: status is not ok")
        # 3 decimals in the summary, 6 in the waypoint file
        elif abs(float(lines["travel_time_s"])
                 - doc["totals"]["travel_time_s"]) > 5e-4 + 5e-7:
            problems.append("summary: travel_time_s disagrees with waypoints")
        try:
            svg = ET.fromstring(files["plan.svg"])
        except ET.ParseError as exc:
            return problems + [f"svg: not well-formed ({exc})"]
        if len(svg.findall("{http://www.w3.org/2000/svg}polyline")) < 1:
            problems.append("svg: no route drawn")
        return problems


def run_op(root: str, mission: str, work: str, trace: bool, deadline: float):
    """One `gliderplan plan` call in a fresh process; returns its report,
    or None when the call failed."""
    out_dir = os.path.join(work, "out")
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.remove(path)
    report_path = os.path.join(work, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    env = dict(os.environ)
    env["GLIDERPLAN_THREADS"] = str(len(os.sched_getaffinity(0)))
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--src", os.path.join(root, "src"),
           "--mission", mission, "--out", out_dir,
           "--report", report_path]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        print("operation timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(report_path):
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return None
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gliderplan", "cli.py")):
        print("error: run from the root of a gliderplan checkout "
              "(src/gliderplan not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import gliderplan as gp

    t_begin = time.perf_counter()
    work = os.path.join(HERE, "work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        wl = make_workload(args.workload, args.seed)
        mission = write_inputs(wl, work)
        checker = Checker(wl, os.path.join(work, wl.mission["flow"]), gp)
        out_dir = os.path.join(work, "out")
        problems = list(checker.setup_problems)
        ops = []
        attempted = failed = 0
        t_start = time.perf_counter()
        hard_deadline = t_begin + OP_TIMEOUT_S
        while attempted == 0 or time.perf_counter() - t_start < args.seconds:
            attempted += 1
            report = run_op(root, mission, work, bool(args.trace),
                            hard_deadline)
            if report is None:
                failed += 1
            else:
                problems += checker.check(out_dir, report)
                doc = checks.read_outputs(out_dir)
                report["route_travel_s"] = doc["totals"]["travel_time_s"]
                ops.append(report)
            if time.perf_counter() > hard_deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # the first operation warms the page and bytecode caches, which a
    # user's repeated plans find warm; it is checked but not timed
    timed = ops[1:] if len(ops) > 1 else ops
    metrics = {}
    if args.trace:
        for name, (unit, _) in LAYER_METRICS.items():
            vals = [op["layers"][name] for op in timed]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            vals = [op["route_travel_s"] if name == "route_travel_s"
                    else op["cpu"][name] for op in timed]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
    result = {"correct": not problems and bool(ops), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine(),
                  gliderplan_threads=len(os.sched_getaffinity(0)),
                  problems=sorted(set(problems)), operations=ops)
    for op in ops:
        op.pop("lattice_waypoints", None)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in record["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
