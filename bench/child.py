"""One `gliderplan plan` call, timed in a fresh process.

    python3 bench/child.py --src SRC --mission M --out DIR --report R \
        --t0 T [--trace]

Runs ``gliderplan.cli.main(["plan", M, "--out", DIR])`` in-process and
writes a JSON report to R.  T is the parent's ``time.perf_counter()``
taken just before it started this process; on Linux that clock is
system-wide, so the wall-clock set-up time includes interpreter start
and imports, as every CLI user pays them (the CPU clock counts them
from the fork).

Untraced, the only hook is a pair of clocks -- wall time and the
process's CPU time over all its threads -- read around ``cli.main`` and
around the CLI's one call into ``run_mission``.  With --trace, the layer
boundaries are wrapped as well (see spans.py) and the report also
carries the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--mission", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import gliderplan.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"gliderplan imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import gliderplan
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(gliderplan)

    marks = {}
    run_mission = cli.run_mission

    def clocks():
        return time.perf_counter(), time.process_time()

    def timed_run_mission(*a, **kw):
        marks["run_start"] = clocks()
        result = run_mission(*a, **kw)
        marks["run_end"] = clocks()
        marks["result"] = result
        return result

    cli.run_mission = timed_run_mission
    code = cli.main(["plan", args.mission, "--out", args.out])
    t_end = clocks()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"exit_code": code}
    result = marks.get("result")
    if result is not None and result.planned is not None:
        report["lattice_waypoints"] = [list(p) for p in result.planned.waypoints]
        report["lattice_arrival"] = result.planned.arrival_times[-1]
    if "run_end" in marks:
        # process CPU time counts from the fork, so it starts at 0.0
        for key, k, t0 in (("wall", 0, args.t0), ("cpu", 1, 0.0)):
            start, end = marks["run_start"][k], marks["run_end"][k]
            report[key] = {
                "setup_s": start - t0,
                "plan_s": end - start,
                "output_s": t_end[k] - end,
                "mission_s": t_end[k] - t0,
                "peak_rss_mb": peak_kb / 1024.0,
            }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        # measured as the untraced plan_s is, so the two give the overhead
        report["layers"]["traced.plan_s"] = report["cpu"]["plan_s"]
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
