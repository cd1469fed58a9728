"""Vehicle kinematics: over-ground speed, leg travel times, dive profiles.

Travel times are plain floats in seconds; the distinguished value
INFEASIBLE (infinity) marks legs that cannot be flown.  Infinity
propagates through every chained computation, so callers can add and
compare times without special-casing impassable legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .flowfield import (DEFAULT_SCHEME, SAMPLE_OK, FlowGrid, InterpScheme,
                        _axis_knots, _axis_stencil, depth_stencils,
                        grid_tables, sample, space_stage,
                        time_stage)  # sample: for bench/spans.py

INFEASIBLE = math.inf

# Units of 20 B that one profile_times call may hoist into a space stage:
# one per lane and time slot for its series (u, v and fill, 17 B), three
# more per lane (under 60 B) and one per node (column, time slot, depth
# knot) of the transient layers (17 B), so at most about 2.6 MB beside
# flowfield.MAX_GATHER_NODES' gather chunks
MAX_HOISTED = 1 << 17


@dataclass(frozen=True)
class VehicleSpec:
    """Vehicle performance envelope."""

    speed_through_water: float = 0.3

    def __post_init__(self) -> None:
        s = self.speed_through_water
        # 100 m/s is far above any glider and keeps speed^2 finite
        if not (isinstance(s, (int, float)) and 0 < s <= 100):
            raise ConfigError(
                f"speed_through_water: must lie in (0, 100] m/s, got {s!r}")


@dataclass(frozen=True)
class DiveProfile:
    """Sawtooth dive band: climb apex depth and dive floor depth, meters down."""

    z_climb_to: float
    z_dive_to: float

    def __post_init__(self) -> None:
        if not self.z_dive_to > self.z_climb_to:
            raise ConfigError(
                f"z_dive_to ({self.z_dive_to!r}) must exceed z_climb_to "
                f"({self.z_climb_to!r})")

    @property
    def amplitude(self) -> float:
        return self.z_dive_to - self.z_climb_to


@dataclass(frozen=True)
class ProfileFamilySpec:
    """Parameters spanning a family of candidate dive profiles."""

    z_min: float
    z_climb_to_max: float
    z_max: float
    z_min_range: float
    n_climb_to_levels: int = 1
    n_dive_to_levels: int = 1

    def __post_init__(self) -> None:
        # each message leads with the field at fault
        if not (self.z_min <= self.z_climb_to_max <= self.z_max):
            raise ConfigError(
                "z_climb_to_max: must lie between z_min and z_max, "
                f"got {self.z_min!r} / {self.z_climb_to_max!r} / {self.z_max!r}")
        if not self.z_min_range > 0:
            raise ConfigError(
                f"z_min_range: must be positive, got {self.z_min_range!r}")
        if self.z_min_range > self.z_max - self.z_min:
            raise ConfigError(
                f"z_min_range: {self.z_min_range!r} exceeds the available "
                f"depth band ({self.z_max - self.z_min!r})")
        for name in ("n_climb_to_levels", "n_dive_to_levels"):
            if not 1 <= getattr(self, name) <= 100:  # <= 10^4 profiles
                raise ConfigError(f"{name}: must lie in [1, 100]")


@np.errstate(invalid="ignore")
def over_ground_speed(vehicle: VehicleSpec, cu, cv, ux, uy):
    """Over-ground speed v = c_par + sqrt(speed^2 - c_perp^2), lane by lane.

    The current (cu, cv) splits into c_par along the unit direction of
    travel, whose horizontal part is (ux, uy), and the cross component
    c_perp the vehicle crabs against.  Returns (v, ok); ok is False
    where the cross current exceeds the speed through water or the
    along-track sum is not positive, and there v means nothing.
    """
    c_par = cu * ux + cv * uy
    s2 = vehicle.speed_through_water ** 2 - (cu * cu + cv * cv - c_par * c_par)
    v = c_par + np.sqrt(s2)
    return v, (s2 >= 0.0) & (v > 0.0)


class LegSetup(tuple):
    """The family, with all of a profile_times call on these arguments
    that depends on no leg: where a leg's segments and sub-steps start,
    depth_stencils of each sub-step slot's depths (n_col, P), grid_tables
    and choose_profile's tie order."""

    def __new__(cls, profiles, grid: FlowGrid, vehicle: VehicleSpec,
                h=0.25, scheme=DEFAULT_SCHEME, n_sub=4):
        if not (0.0 < h <= 1.0):
            raise ConfigError(f"h must lie in (0, 1], got {h!r}")
        if n_sub < 1:
            raise ConfigError(f"n_sub must be at least 1, got {n_sub!r}")
        self = super().__new__(cls, profiles)
        self.args = grid, vehicle, h, scheme, n_sub
        # 1/h is taken with a small backoff so float noise cannot add a
        # segment; slot g = i * n_sub + s is sub-step s of segment i
        n_seg = math.ceil(1.0 / h - 1e-9)
        self.n_col, self.tables = n_seg * n_sub, grid_tables(grid, scheme)
        self.seg = np.arange(n_seg + 1)[:, None, None] / n_seg
        self.sub = (np.arange(n_sub) / n_sub)[:, None, None]
        zc, zd = np.reshape([(p.z_climb_to, p.z_dive_to) for p in self],
                            (-1, 2)).T
        self.dz = zd - zc
        self.depths = depth_stencils(grid, self.tables[2], zc + (np.arange(
            0.5, self.n_col) % n_sub / n_sub)[:, None] * self.dz)
        self.order = _tie_order(self)
        return self


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def profile_times(tails_2d, heads_2d, t_start, profiles, grid: FlowGrid,
                  vehicle: VehicleSpec, h: float = 0.25,
                  scheme: InterpScheme = DEFAULT_SCHEME,
                  n_sub: int = 4) -> np.ndarray:
    """(H, P) times of every head x profile sawtooth run, head k from tail k.

    A run is divided into ceil(1/h) equal segments, 0 < h <= 1, each
    flown as one straight slant from the profile's climb apex down to
    its dive floor, departing when the previous segment arrived, so
    later segments see the field at later times.  A segment is split
    into n_sub equal sub-steps; each samples the current once, at its
    starting horizontal position, its mid depth and the clock so far,
    and flies at the over_ground_speed that gives.  tails_2d is (H, 2) or
    one shared (x, y); t_start is (H,) or one shared departure.

    profiles is a LegSetup made with these arguments, whose work the call
    skips, or a family, for which the call makes one.

    A run's positions are fixed before it flies; only its clock depends
    on the field, and the clock only picks the time knots the time stage
    reads.  So every sample is flowfield.time_stage over a window of time
    knots per (sub-step, head) column of P lanes that space_stage
    gathered.  A window opens at the first sub-step, after the last one
    it covers, and wherever a live lane's time stencil leaves it; each
    head's starts at the least knot of its live lanes' stencils, so a
    lane that has failed widens none.  It covers every remaining sub-step
    up to the stencil of departure + |leg| / speed_through_water if no
    live clock has passed that stencil, it spans at most twice the time
    stencil and the call's sub-steps fit in MAX_HOISTED units of series,
    lanes and layers, else the one sub-step's stencils, as sample_batch
    would.  Sums keep sample_batch's order, so a run's time does not
    depend on the rest of the batch.  Entries are seconds or INFEASIBLE,
    as is every run of an INFEASIBLE departure.
    """
    prep = profiles if isinstance(profiles, LegSetup) and profiles.args == (
        grid, vehicle, h, scheme, n_sub) else LegSetup(
            profiles, grid, vehicle, h, scheme, n_sub)
    heads = np.asarray(heads_2d, dtype=np.float64).reshape(-1, 2)
    tails = np.asarray(tails_2d, dtype=np.float64).reshape(-1, 2)
    departs = np.asarray(t_start, dtype=np.float64).reshape(-1)
    shape = n_h, n_p = heads.shape[0], len(prep)
    t = t0 = np.full(shape, departs[:, None])
    alive = np.isfinite(t0)
    if not alive.any():
        return np.full(shape, INFEASIBLE)
    # segment i slants from (ps[i], zc) by (d[i], dz), ps[i] and d[i] (2, H)
    # and zc and dz (P,); its sub-step s starts at xy[g] = ps[i] + s / n_sub
    # * d[i], g = i * n_sub + s, at depths zc + (s + 0.5) / n_sub * dz
    n_col, dz, t_axis = prep.n_col, prep.dz, prep.tables[3]
    span = (heads - tails).T
    ps = tails.T + prep.seg * span
    d = ps[1:] - ps[:-1]
    xy = (ps[:-1, None] + prep.sub * d[:, None]).reshape(n_col, 2, n_h)

    ts = grid.t_steps

    def clamp(q):  # as sample_batch clamps times
        return np.minimum(np.maximum(q, ts[0]), ts[-1])

    if n_col > 1:  # each head's last knot at its still-water arrival
        reach = _axis_knots(t_axis, clamp(departs + np.hypot(*span) /
                                          vehicle.speed_through_water))[-1]
    end = 0  # the open window's sub-steps are g0 .. end - 1
    for i in range(len(d)):
        if not alive.any():
            break
        ddx, ddy = d[i, 0, :, None], d[i, 1, :, None]
        length = np.sqrt(ddx * ddx + ddy * ddy + dz * dz)
        inv = 1.0 / length
        ux, uy = ddx * inv, ddy * inv
        step = length / n_sub
        ok = alive & (length > 0.0)
        t_seg = t
        for s in range(n_sub):
            g = i * n_sub + s
            # the lanes still flying: a clock past the float range can
            # only end INFEASIBLE
            live = (ok & (t < math.inf)).reshape(-1)
            if not live.any():
                break
            st_t = _axis_stencil(t_axis, clamp(t.reshape(-1)))
            knots = st_t[0]
            if g >= end or (live & ((knots[0] < lo) | (
                    knots[-1] >= lo + n_wt))).any():
                first = np.where(live, knots[0], ts.size - 1).reshape(
                    shape).min(axis=1)
                last = np.where(live, knots[-1], 0).reshape(shape).max(axis=1)
                g0, end, n_wt = g, g + 1, int((last - first).max()) + 1
                # every remaining sub-step, if it fits and no clock runs
                # past its head's still-water end, which then bounds none
                if end < n_col and (last <= reach).all():
                    wide = int((reach - first).max()) + 1
                    if wide <= 2 * len(knots) and n_col * n_h * (
                            n_p * (wide + 3) + wide * grid.z_levels.size
                    ) <= MAX_HOISTED:
                        end, n_wt = n_col, wide
                space = space_stage(
                    grid, xy[g:end, 0].reshape(-1), xy[g:end, 1].reshape(-1),
                    (np.arange(g, end).repeat(n_h), prep.depths),
                    first[None].repeat(end - g, axis=0).reshape(-1), n_wt,
                    prep.tables)
                lo = first.repeat(n_p)  # each lane's first window knot
            cu, cv, reason = time_stage(space, st_t, knots - lo, slice(
                (g - g0) * t.size, (g - g0 + 1) * t.size))
            v, feasible = over_ground_speed(vehicle, cu.reshape(shape),
                                            cv.reshape(shape), ux, uy)
            ok &= (reason.reshape(shape) == SAMPLE_OK) & feasible
            t = t + step / v
        # a zero-length segment takes no time and samples nothing
        zero = length == 0.0
        alive &= ok | zero
        t = t_seg + np.where(zero, 0.0, t - t_seg)
    return np.where(alive, t - t0, INFEASIBLE)


def glider_travel_time(p_start_2d, p_end_2d, profile: DiveProfile,
                       t_start: float, grid: FlowGrid, vehicle: VehicleSpec,
                       h: float = 0.25, scheme: InterpScheme = DEFAULT_SCHEME,
                       n_sub: int = 4) -> float:
    """One sawtooth run's time (profile_times): seconds or INFEASIBLE."""
    return float(profile_times(p_start_2d, [p_end_2d], t_start, [profile],
                               grid, vehicle, h, scheme, n_sub)[0, 0])


def _levels(lo: float, hi: float, n: int, single_at_top: bool) -> list[float]:
    # A single level sits at the extreme of its range: the shallowest
    # climb-to, but the deepest dive-to.
    if n == 1:
        return [hi if single_at_top else lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def make_dive_profiles(spec: ProfileFamilySpec) -> list[DiveProfile]:
    """Expand a family spec into its feasible dive profiles.

    Climb-to levels are evenly spaced over [z_min, z_climb_to_max] and
    dive-to levels over [z_min + z_min_range, z_max]; their cross
    product is kept where the band amplitude reaches z_min_range.
    Profiles are ordered climb-to first, then dive-to, duplicates
    removed.  An empty family raises ConfigError.
    """
    climbs = _levels(spec.z_min, spec.z_climb_to_max,
                     spec.n_climb_to_levels, single_at_top=False)
    dives = _levels(spec.z_min + spec.z_min_range, spec.z_max,
                    spec.n_dive_to_levels, single_at_top=True)
    out: dict[DiveProfile, None] = {}
    for c in climbs:
        for d in dives:
            if d - c >= spec.z_min_range - 1e-9:
                out.setdefault(DiveProfile(c, d), None)
    if not out:
        raise ConfigError(
            "profile family is empty: no climb-to/dive-to pair reaches "
            f"z_min_range={spec.z_min_range!r}")
    return list(out)


def check_cost_mode(mode: str, profiles) -> None:
    """Reject an unknown cost mode or an empty profile family."""
    if mode not in ("fastest", "max_amplitude"):
        raise ConfigError(
            f'mode must be "fastest" or "max_amplitude", got {mode!r}')
    if not profiles:
        raise ConfigError("profile family is empty")


def _tie_order(profiles):  # amplitude descending, then family index
    amp = np.array([p.amplitude for p in profiles], dtype=np.float64)
    rank = np.argsort(-amp, kind="stable")
    return rank, amp[rank]


def choose_profile(profiles, times, mode: str = "fastest",
                   slack_factor: float = 1.1):
    """Pick one profile per row of an (R, P) block of family times.

    The rules are optimal_profile_cost's.  Returns (index, seconds),
    arrays of shape (R,); a row whose fastest time is INFEASIBLE gets
    index -1 and INFEASIBLE.  A pick is the first least time in the tie
    order, NaN read as +inf.  Only comparisons decide, so picks are exact.
    """
    rank, amp = (profiles.order if isinstance(profiles, LegSetup)
                 else _tie_order(profiles))
    ranked = np.asarray(times, dtype=np.float64).reshape(-1, amp.size)[:, rank]
    rows = np.arange(ranked.shape[0])
    best = np.fmin(ranked, INFEASIBLE).argmin(axis=1)  # fmin: NaN -> inf
    fastest = ranked[rows, best]
    if mode == "max_amplitude":
        # the first time within the slack has the largest amplitude there
        within = ranked <= (slack_factor * fastest)[:, None]
        top = within.argmax(axis=1)
        alt = np.where(within & (amp == amp[top][:, None]), ranked,
                       INFEASIBLE).argmin(axis=1)
        best = np.where(within[rows, top], alt, best)
    feasible = np.isfinite(fastest)
    return (np.where(feasible, rank[best], -1),
            np.where(feasible, ranked[rows, best], INFEASIBLE))


def optimal_profile_cost(p_start_2d, p_end_2d, t_start: float, profiles,
                         grid: FlowGrid, vehicle: VehicleSpec,
                         h: float = 0.25,
                         scheme: InterpScheme = DEFAULT_SCHEME,
                         n_sub: int = 4, mode: str = "fastest",
                         slack_factor: float = 1.1
                         ) -> tuple[Optional[DiveProfile], float]:
    """Pick the best dive profile for one horizontal leg.

    mode "fastest" returns the minimum-time profile, preferring the
    larger amplitude and then family order on ties.  mode
    "max_amplitude" returns the largest-amplitude profile whose time is
    within slack_factor of the fastest (falling back to the fastest
    when none qualifies), preferring the faster profile on amplitude
    ties.  Returns (profile, time); when every profile in the family is
    infeasible the result is (None, INFEASIBLE).
    """
    profiles = list(profiles)
    check_cost_mode(mode, profiles)
    pick, secs = choose_profile(
        profiles, profile_times(p_start_2d, [p_end_2d], t_start, profiles,
                                grid, vehicle, h, scheme, n_sub),
        mode, slack_factor)
    return (profiles[pick[0]] if pick[0] >= 0 else None), float(secs[0])
