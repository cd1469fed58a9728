"""Time-optimal route planning for underwater gliders in ocean currents."""

import os

# numpy's OpenBLAS starts a worker thread per extra core at import, and
# an idle worker spins for about 0.1 s of CPU; the planner makes no BLAS
# call.  The setting counts only before numpy's first import, and a value
# the user has set stays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (ConfigError, FlowFormatError, GliderPlanError,
                     LandContactError, OutOfDomainError)
from .flowfield import (CurrentVector, DEFAULT_SCHEME, FlowGrid, InterpScheme,
                        effective_scheme, load_flow_grid, sample,
                        save_flow_grid, synth_field)
from .kinematics import (DiveProfile, INFEASIBLE, ProfileFamilySpec,
                         VehicleSpec, glider_travel_time, make_dive_profiles,
                         optimal_profile_cost)
from .mission import (MissionResult, MissionSpec, export_waypoints,
                      format_duration, parse_mission, project, render_svg,
                      run_mission, summary_lines, unproject)
from .search import (BlockedRegions, PlannedPath, Rect, SearchGraph,
                     build_graph, connect_terminals, make_edge_cost,
                     tve_dijkstra)
from .smoothing import SmoothingTrace, recompute_arrivals, smooth_path

__version__ = "0.1.0"

__all__ = [
    "BlockedRegions", "ConfigError", "CurrentVector", "DEFAULT_SCHEME",
    "DiveProfile", "FlowFormatError", "FlowGrid", "GliderPlanError",
    "INFEASIBLE", "InterpScheme", "LandContactError", "MissionResult",
    "MissionSpec", "OutOfDomainError", "PlannedPath", "ProfileFamilySpec",
    "Rect", "SearchGraph", "SmoothingTrace", "VehicleSpec", "build_graph",
    "connect_terminals", "effective_scheme", "export_waypoints",
    "format_duration", "glider_travel_time", "load_flow_grid",
    "make_dive_profiles", "make_edge_cost", "optimal_profile_cost",
    "parse_mission", "project", "recompute_arrivals", "render_svg",
    "run_mission", "sample", "save_flow_grid", "smooth_path",
    "summary_lines", "synth_field", "tve_dijkstra", "unproject",
]
