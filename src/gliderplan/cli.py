"""Command-line interface.

Subcommands:
    plan    plan a mission file; writes waypoints, SVG map, summary
    sample  interpolate a flow archive at one space-time point
    synth   generate a synthetic flow archive
    sweep   re-plan a mission over a swept parameter, print a table

Exit codes: 0 on success, 2 when the answer is "infeasible" (no route,
out-of-domain or land-contact sample), 1 on any error such as a bad
flag, unreadable file, or invalid configuration.  Output is stable
"key: value" lines so scripts can parse it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (ConfigError, GliderPlanError, LandContactError,
                     OutOfDomainError)
from .flowfield import (InterpScheme, SYNTH_KINDS, effective_scheme,
                        load_flow_grid, sample, save_flow_grid, synth_field)
from .mission import (format_duration, export_waypoints, parse_mission,
                      render_svg, run_mission, summary_lines)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# Grid nodes `synth` may make, checked before any array: tracemalloc
# measured 240 B per node at its peak; strong-gyre's archive has 681k.
MAX_SYNTH_NODES = 1_000_000

# the mission keys each `sweep --vary` choice sets
SWEEP_KEYS = {"vehicle_speed": ("vehicle.speed_through_water",),
              "grid_spacing": ("grid_spacing",), "xy_method": ("scheme.xy",),
              "zt_method": ("scheme.z", "scheme.t")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gliderplan",
        description="Time-optimal glider routes through time-varying currents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a mission file")
    p_plan.add_argument("mission", help="mission JSON file")
    p_plan.add_argument("--out", default=".", help="output directory")
    p_plan.add_argument("--no-smooth", action="store_true",
                        help="skip path smoothing")
    p_plan.add_argument("--svg-depth", type=float, default=None,
                        help="depth rendered in the SVG current layer")
    p_plan.add_argument("--svg-time", type=float, default=None,
                        help="time rendered in the SVG current layer")

    p_sample = sub.add_parser("sample", help="sample a flow archive")
    p_sample.add_argument("flow", help="flow archive file")
    p_sample.add_argument("--x", type=float, required=True)
    p_sample.add_argument("--y", type=float, required=True)
    p_sample.add_argument("--z", type=float, default=0.0)
    p_sample.add_argument("--t", type=float, default=0.0)
    p_sample.add_argument("--scheme", default="bilinear,linear,linear",
                          help="xy,z,t methods (e.g. bicubic,akima,linear)")

    p_synth = sub.add_parser("synth", help="generate a synthetic flow archive")
    p_synth.add_argument("kind", choices=SYNTH_KINDS)
    p_synth.add_argument("--out", required=True, help="output archive path")
    p_synth.add_argument("--nx", type=int, default=25)
    p_synth.add_argument("--ny", type=int, default=25)
    p_synth.add_argument("--nz", type=int, default=1)
    p_synth.add_argument("--nt", type=int, default=3)
    p_synth.add_argument("--width", type=float, default=100000.0,
                         help="domain width, m")
    p_synth.add_argument("--height", type=float, default=100000.0,
                         help="domain height, m")
    p_synth.add_argument("--depth", type=float, default=100.0,
                         help="deepest level, m")
    p_synth.add_argument("--duration", type=float, default=43200.0,
                         help="time axis span, s")
    p_synth.add_argument("--encoding", choices=("inline", "binary"),
                         default="inline")
    p_synth.add_argument("--u0", type=float, default=None,
                         help="uniform: eastward component")
    p_synth.add_argument("--v0", type=float, default=None,
                         help="uniform: northward component")
    p_synth.add_argument("--amplitude", type=float, default=None,
                         help="gyre/tidal_channel: speed scale, m/s")
    p_synth.add_argument("--epsilon", type=float, default=None,
                         help="gyre: time-perturbation strength")
    p_synth.add_argument("--period", type=float, default=None,
                         help="gyre/tidal_channel: period, s")

    p_sweep = sub.add_parser("sweep", help="re-plan over a swept parameter")
    p_sweep.add_argument("mission", help="mission JSON file")
    p_sweep.add_argument("--vary", required=True, choices=tuple(SWEEP_KEYS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values to sweep")
    return parser


def _axis(span: float, n: int):
    return np.linspace(0.0, span, n) if n > 1 else np.array([0.0])


def _check_flags(args, flags, rule: str, ok) -> None:
    for flag in flags:
        if not ok(getattr(args, flag)):
            raise GliderPlanError(f"--{flag.replace('_', '-')}: {rule}, "
                                  f"got {getattr(args, flag)!r}")


def _cmd_plan(args) -> int:
    _check_flags(args, ("svg_depth", "svg_time"), "must be finite",
                 lambda v: v is None or math.isfinite(v))
    spec = parse_mission(args.mission,
                         {"smooth": False} if args.no_smooth else None)
    result = run_mission(spec)

    os.makedirs(args.out, exist_ok=True)
    wp_path = os.path.join(args.out, "waypoints.json")
    svg_path = os.path.join(args.out, "plan.svg")
    txt_path = os.path.join(args.out, "summary.txt")
    export_waypoints(result, wp_path)
    render_svg(result, spec.grid, svg_path, depth=args.svg_depth,
               at_time=args.svg_time)
    lines = summary_lines(result)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    for line in lines:
        print(line)
    print(f"waypoints_file: {wp_path}")
    print(f"svg_file: {svg_path}")
    print(f"summary_file: {txt_path}")
    return EXIT_OK if result.status == "ok" else EXIT_INFEASIBLE


def _cmd_sample(args) -> int:
    _check_flags(args, ("x", "y", "z", "t"), "must be finite", math.isfinite)
    parts = [p.strip() for p in args.scheme.split(",")]
    if len(parts) != 3:
        raise GliderPlanError(
            f"--scheme needs three comma-separated methods, got {args.scheme!r}")
    scheme = InterpScheme(*parts)
    grid = load_flow_grid(args.flow)
    try:
        cur = sample(grid, args.x, args.y, args.z, args.t, scheme)
    except (OutOfDomainError, LandContactError) as exc:
        print(f"status: {'land_contact' if isinstance(exc, LandContactError) else 'out_of_domain'}")
        print(f"message: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    eff = effective_scheme(scheme, grid)
    print("status: ok")
    print(f"u: {cur.u:.9g}")
    print(f"v: {cur.v:.9g}")
    print(f"magnitude: {cur.magnitude:.9g}")
    print(f"scheme: {scheme.xy_method},{scheme.z_method},{scheme.t_method}")
    print(f"scheme_effective: "
          f"{eff.xy_method},{eff.z_method},{eff.t_method}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    _check_flags(args, ("nx", "ny", "nz", "nt"), "must be at least 1",
                 lambda n: n >= 1)
    if (nodes := args.nx * args.ny * args.nz * args.nt) > MAX_SYNTH_NODES:
        raise ConfigError(f"--nx * --ny * --nz * --nt: {nodes:,} nodes exceed "
                          f"the {MAX_SYNTH_NODES:,} allowed")
    params = {key: val for key in ("u0", "v0", "amplitude", "epsilon",
                                   "period")
              if (val := getattr(args, key)) is not None}
    grid = synth_field(
        args.kind,
        _axis(args.width, args.nx),
        _axis(args.height, args.ny),
        _axis(args.depth, args.nz),
        _axis(args.duration, args.nt),
        params=params)
    save_flow_grid(grid, args.out, encoding=args.encoding)
    nt, nz, ny, nx = grid.shape
    print(f"file: {args.out}")
    print(f"kind: {args.kind}")
    print(f"shape: t={nt} z={nz} y={ny} x={nx}")
    print(f"encoding: {args.encoding}")
    return EXIT_OK


def _flag_value(text: str):
    """A flag's text as a mission-file value: its JSON reading, if any."""
    try:
        return json.loads(text)
    except ValueError:
        return text
    except RecursionError as exc:
        raise ConfigError(f"--values: {text[:10]}... is nested too deeply") from exc


def _cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise GliderPlanError("--values is empty")
    header = (f"{'value':>12}  {'status':>10}  {'travel_time':>12}  "
              f"{'travel_s':>14}  {'length_km':>10}  {'wp_raw':>6}  "
              f"{'wp_smooth':>9}  {'comp_s':>7}")
    # every value is read like a mission-file value before any planning;
    # the first case loads the archive and the others share it
    cases = []
    for value in values:
        keys = dict.fromkeys(SWEEP_KEYS[args.vary], _flag_value(value))
        cases.append(parse_mission(args.mission, keys,
                                   cases[0].grid if cases else None))
    print(f"vary: {args.vary}")
    print(header)
    any_infeasible = False
    for value, case in zip(values, cases):
        result = run_mission(case)
        final = result.final_path
        if final is None:
            any_infeasible = True
            print(f"{value:>12}  {'infeasible':>10}  {'-':>12}  {'-':>14}  "
                  f"{'-':>10}  {'-':>6}  {'-':>9}  "
                  f"{result.comp_time:>7.2f}")
            continue
        elapsed = final.total_time
        print(f"{value:>12}  {'ok':>10}  {format_duration(elapsed):>12}  "
              f"{elapsed:>14.3f}  {final.total_length / 1000.0:>10.3f}  "
              f"{len(result.planned.waypoints):>6}  "
              f"{len(final.waypoints):>9}  {result.comp_time:>7.2f}")
    return EXIT_INFEASIBLE if any_infeasible else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help exits 0
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_sweep(args)
    except (GliderPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
