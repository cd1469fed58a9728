#!/usr/bin/env python3
"""Check that two source trees plan the same missions to the same bytes.

Plans every mission once with each tree's `python -m gliderplan.cli plan`,
each run in a fresh process, and compares the outputs: waypoints.json,
plan.svg and summary.txt, the last less its `comp_time_s:` line (a wall
time).  Missions are mission files, or benchmark workloads written by
bench/workloads.py from NAME:SEED:

    python3 scripts/compare_outputs.py --parent ../old/src --change src \\
        --workload strong-gyre:1 --workload drift-lattice:2 mission.json

Prints one `key: value` line per mission and file, `same` or what
differs, and exits 1 if anything differs, including a plan's exit code.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("waypoints.json", "plan.svg", "summary.txt")


def write_workload(spec: str, work: str) -> str:
    """Write NAME:SEED's benchmark inputs under work; return the mission."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import make_workload, write_inputs

    name, _, seed = spec.rpartition(":")
    return write_inputs(make_workload(name, int(seed)),
                        os.path.join(work, "inputs", f"{name}-{seed}"))


def plan(src: str, mission: str, out: str, extra: list) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-m", "gliderplan.cli", "plan", mission, "--out",
         out, *extra], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def read(path: str):
    """The file's bytes, less any comp_time_s line; None if missing."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except FileNotFoundError:
        return None
    return b"".join(ln for ln in lines if not ln.startswith(b"comp_time_s:"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("missions", nargs="*", help="mission JSON files")
    ap.add_argument("--parent", required=True, help="src/ of the parent")
    ap.add_argument("--change", required=True, help="src/ of the change")
    ap.add_argument("--workload", action="append", default=[],
                    metavar="NAME:SEED", help="a benchmark workload")
    ap.add_argument("--no-smooth", action="store_true",
                    help="pass --no-smooth to every plan")
    ap.add_argument("--work", help="directory for inputs and outputs "
                    "(default: a new temporary directory)")
    args = ap.parse_args(argv)
    if not args.missions and not args.workload:
        ap.error("give a mission file or --workload")
    work = args.work or tempfile.mkdtemp(prefix="compare-outputs-")
    extra = ["--no-smooth"] if args.no_smooth else []
    missions = [(m, m) for m in args.missions] + [
        (w, write_workload(w, work)) for w in args.workload]
    differ = 0
    for k, (label, mission) in enumerate(missions):
        outs = [os.path.join(work, "out", str(k), side)
                for side in ("parent", "change")]
        codes = [plan(src, os.path.abspath(mission), out, extra)
                 for src, out in zip((args.parent, args.change), outs)]
        results = [("exit", codes[0] == codes[1],
                    f"{codes[0]} -> {codes[1]}")]
        for name in FILES:
            a, b = (read(os.path.join(out, name)) for out in outs)
            results.append((name, a is not None and a == b,
                            "missing" if a is None or b is None else "differs"))
        for name, same, why in results:
            differ += not same
            print(f"{label}/{name}: {'same' if same else why}")
    print(f"differences: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
