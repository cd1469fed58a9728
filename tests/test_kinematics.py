"""Effective speed, leg travel times, and dive-profile selection."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gliderplan.errors import ConfigError
from gliderplan.flowfield import FlowGrid, InterpScheme, synth_field
from gliderplan.kinematics import (INFEASIBLE, DiveProfile,
                                   ProfileFamilySpec, VehicleSpec,
                                   choose_profile, glider_travel_time,
                                   make_dive_profiles, optimal_profile_cost,
                                   over_ground_speed, profile_times)

from conftest import (make_gyre_grid, make_land_grid, make_tidal_grid,
                      make_uniform_grid, travel_time)
from oracles import (choose_profile_lexsort_reference,
                     choose_profile_reference, effective_speed,
                     effective_speed_reference, glider_travel_time_reference)

V03 = VehicleSpec(speed_through_water=0.3)
EAST = (1.0, 0.0, 0.0)


def two_layer_grid(u_shallow, u_deep, extent=100_000.0, z_deep=100.0):
    """Depth-sheared eastward flow: u_shallow above, u_deep below."""
    x = np.linspace(0.0, extent, 5)
    y = np.linspace(0.0, extent, 5)
    z = np.array([0.0, z_deep])
    t = np.array([0.0, 1e6])
    u = np.zeros((2, 2, 5, 5))
    u[:, 0] = u_shallow
    u[:, 1] = u_deep
    v = np.zeros((2, 2, 5, 5))
    return FlowGrid(x, y, z, t, u, v)


def speed_lane(current, direction):
    """over_ground_speed of one lane, or None where it is infeasible."""
    v, ok = over_ground_speed(V03, *(np.array([c]) for c in (
        current[0], current[1], direction[0], direction[1])))
    return float(v[0]) if ok[0] else None


class TestEffectiveSpeed:
    def test_pure_cross_current(self):
        # sqrt(0.3^2 - 0.18^2) = 0.24
        assert speed_lane((0.0, 0.18), EAST) == pytest.approx(
            0.24, abs=1e-15)

    def test_cross_current_equal_to_speed_is_infeasible(self):
        assert speed_lane((0.0, 0.3), EAST) is None

    def test_cross_current_above_speed_is_infeasible(self):
        assert speed_lane((0.0, 0.30001), EAST) is None

    def test_opposing_current_above_speed_is_infeasible(self):
        assert speed_lane((-0.303, 0.0), EAST) is None

    def test_opposing_current_below_speed_is_feasible(self):
        v = speed_lane((-0.297, 0.0), EAST)
        assert v == pytest.approx(0.003, abs=1e-12)

    def test_still_water_gives_through_water_speed(self):
        assert speed_lane((0.0, 0.0), EAST) == pytest.approx(
            0.3, abs=1e-15)

    def test_following_current_adds(self):
        assert speed_lane((0.1, 0.0), EAST) == pytest.approx(
            0.4, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(lanes=st.lists(st.tuples(st.floats(-0.6, 0.6),
                                    st.floats(-0.6, 0.6),
                                    st.floats(0.0, 2.0 * math.pi),
                                    st.floats(-0.8, 0.8)),
                          min_size=1, max_size=20))
    # cross current exactly equal to the speed, and a lane swept to a
    # standstill: both sit on the feasibility boundary
    @example(lanes=[(0.0, 0.3, 0.0, 0.0), (-0.3, 0.0, 0.0, 0.0)])
    def test_lanes_match_the_scalar_formula(self, lanes):
        # every lane is the scalar formula in its operation order: the
        # same float, and infeasible exactly where it returns None
        dirs = [(math.sqrt(1.0 - dz * dz) * math.cos(ang),
                 math.sqrt(1.0 - dz * dz) * math.sin(ang), dz)
                for _, _, ang, dz in lanes]
        cu, cv = (np.array(c) for c in zip(*[lane[:2] for lane in lanes]))
        ux, uy = (np.array(c) for c in zip(*[d[:2] for d in dirs]))
        v, ok = over_ground_speed(V03, cu, cv, ux, uy)
        for k, (lane, d) in enumerate(zip(lanes, dirs)):
            want = effective_speed(V03, lane[:2], d)
            assert bool(ok[k]) == (want is not None)
            if want is not None:
                assert v[k] == want

    @staticmethod
    def speed_tolerance(cu, cv, hx, hy, speed=0.3):
        """Float error bound of v = c_par + sqrt(D), D = s^2 - c_perp^2.

        Rounding moves D by up to delta = 8 eps (s^2 + |c|^2), and the
        square root turns that into at most min(sqrt(delta),
        delta / (2 sqrt(D))).  Away from the feasibility boundary this
        is far below 1e-12; as D -> 0 the derivative of sqrt is
        unbounded and one ulp of input moves v by ~1e-9, which no float
        formula avoids.
        """
        delta = 8.0 * sys.float_info.epsilon * (speed ** 2 + cu * cu + cv * cv)
        d = max(0.0, speed ** 2 - (cu * cu + cv * cv
                                   - (cu * hx + cv * hy) ** 2))
        sqrt_err = (math.sqrt(delta) if d == 0.0
                    else min(math.sqrt(delta), delta / (2.0 * math.sqrt(d))))
        return 1e-12 + sqrt_err

    @settings(max_examples=200, deadline=None)
    @given(cu=st.floats(-0.6, 0.6), cv=st.floats(-0.6, 0.6),
           ang=st.floats(0.0, 2.0 * math.pi))
    # cross current exactly equal to the speed: v = c_par exactly, while
    # the quadratic oracle is off by ~2e-9
    @example(cu=0.15412315134693266, cv=0.3, ang=0.0)
    @example(cu=0.0, cv=0.3, ang=1e-09)
    # a current as fast as the glider: the exact speed is 0, the library
    # rounds it to 1.4e-17 m/s (feasible) and the oracle to infeasible
    @example(cu=0.3, cv=0.0, ang=2.0)
    def test_matches_quadratic_reference(self, cu, cv, ang):
        hx, hy = math.cos(ang), math.sin(ang)
        got = speed_lane((cu, cv), (hx, hy, 0.0))
        ref = effective_speed_reference(0.3, cu, cv, hx, hy)
        if ref is None or got is None:
            # disagreement is only tolerable where rounding picks a side:
            # at the feasibility boundary D = 0, or where the speed
            # c_par + sqrt(D) is within rounding of zero
            if (ref is None) != (got is None):
                c_par = cu * hx + cv * hy
                d = 0.3 ** 2 - (cu * cu + cv * cv - c_par ** 2)
                root = math.sqrt(max(d, 0.0))
                near_zero = abs(c_par + root) <= (
                    self.speed_tolerance(cu, cv, hx, hy)
                    + 8.0 * sys.float_info.epsilon * (abs(c_par) + root))
                assert abs(d) < 1e-12 or near_zero
            return
        assert got == pytest.approx(
            ref, abs=self.speed_tolerance(cu, cv, hx, hy))

    @settings(max_examples=100, deadline=None)
    @given(cu=st.floats(-0.5, 0.5), cv=st.floats(-0.5, 0.5),
           ang=st.floats(0.0, 2.0 * math.pi),
           rot=st.floats(0.0, 2.0 * math.pi),
           dz=st.floats(-0.8, 0.8))
    # the cross current equals the speed before rotation and is within
    # an ulp of it after, where the two calls differ by 5.3e-9
    @example(cu=0.25, cv=0.3, ang=0.0, rot=1.0, dz=0.0)
    def test_co_rotation_invariance(self, cu, cv, ang, rot, dz):
        # rotating current and heading together must not change the speed
        hr = math.sqrt(max(0.0, 1.0 - dz * dz))
        hx, hy = hr * math.cos(ang), hr * math.sin(ang)
        a = speed_lane((cu, cv), (hx, hy, dz))
        cr, sr = math.cos(rot), math.sin(rot)
        cu2, cv2 = cu * cr - cv * sr, cu * sr + cv * cr
        hx2, hy2 = hx * cr - hy * sr, hx * sr + hy * cr
        b = speed_lane((cu2, cv2), (hx2, hy2, dz))
        # each call lies within its own rounding bound of the exact speed
        tol = (self.speed_tolerance(cu, cv, hx, hy)
               + self.speed_tolerance(cu2, cv2, hx2, hy2))
        if a is None and b is None:
            return
        if a is None or b is None:
            # rounding may put the calls on either side of the feasibility
            # boundary (v = c_par with no cross-current margin left, or
            # v = 0), but the feasible one lies within tol of it
            v, c_par = ((b, cu2 * hx2 + cv2 * hy2) if a is None
                        else (a, cu * hx + cv * hy))
            assert v <= tol or v - c_par <= tol
            return
        assert a == pytest.approx(b, abs=tol)


class TestTravelTime:
    def test_still_water_exact(self, still_grid):
        p0 = (1_000.0, 2_000.0, 0.0)
        p1 = (4_000.0, 6_000.0, 50.0)
        length = math.dist(p0, p1)
        t = travel_time(p0, p1, 0.0, still_grid, V03)
        assert t == pytest.approx(length / 0.3, rel=1e-12)

    def test_uniform_current_independent_of_subdivision(self, east_grid):
        p0 = (10_000.0, 10_000.0, 0.0)
        p1 = (30_000.0, 40_000.0, 80.0)
        times = [travel_time(p0, p1, 0.0, east_grid, V03, n_sub=n)
                 for n in (1, 2, 4, 7)]
        assert all(t == pytest.approx(times[0], rel=1e-12) for t in times)

    def test_uniform_current_matches_effective_speed(self, east_grid):
        p0 = (10_000.0, 10_000.0, 0.0)
        p1 = (30_000.0, 10_000.0, 0.0)
        v = speed_lane((0.1, 0.0), EAST)
        t = travel_time(p0, p1, 0.0, east_grid, V03)
        assert t == pytest.approx(20_000.0 / v, rel=1e-12)

    def test_matches_independent_reimplementation(self, gyre_grid):
        # horizontal leg replayed step by step with the quadratic
        # reference for the speed
        p0 = (8_000.0, 12_000.0, 30.0)
        p1 = (41_000.0, 28_000.0, 30.0)
        n = 8
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        length = math.hypot(dx, dy)
        hx, hy = dx / length, dy / length
        from gliderplan.flowfield import sample
        clock = 0.0
        for i in range(n):
            f = i / n
            cur = sample(gyre_grid, p0[0] + f * dx, p0[1] + f * dy, 30.0,
                         clock)
            v = effective_speed_reference(0.3, cur.u, cur.v, hx, hy)
            clock += (length / n) / v
        got = travel_time(p0, p1, 0.0, gyre_grid, V03, n_sub=n)
        assert got == pytest.approx(clock, rel=1e-12)

    def test_subdivision_converges(self, gyre_grid):
        p0 = (5_000.0, 5_000.0, 0.0)
        p1 = (50_000.0, 45_000.0, 100.0)
        t32 = travel_time(p0, p1, 0.0, gyre_grid, V03, n_sub=32)
        t64 = travel_time(p0, p1, 0.0, gyre_grid, V03, n_sub=64)
        assert t64 == pytest.approx(t32, rel=2e-3)

    def test_zero_length_leg(self, still_grid):
        assert travel_time((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0,
                           still_grid, V03) == 0.0

    def test_infeasible_departure_propagates(self, still_grid):
        assert math.isinf(travel_time((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                      INFEASIBLE, still_grid, V03))

    def test_leg_leaving_domain_is_infeasible(self, still_grid):
        t = travel_time((90_000.0, 0.0, 0.0), (120_000.0, 0.0, 0.0), 0.0,
                        still_grid, V03)
        assert math.isinf(t)

    def test_leg_through_land_is_infeasible(self):
        grid = make_land_grid()
        xs = grid.x_coords
        t = travel_time((float(xs[1]), 100.0, 0.0),
                        (float(xs[4]), 100.0, 0.0), 0.0, grid, V03, n_sub=8)
        assert math.isinf(t)

    def test_overwhelming_opposition_is_infeasible(self):
        grid = make_uniform_grid(u0=-0.31)
        t = travel_time((0.0, 0.0, 0.0), (10_000.0, 0.0, 0.0), 0.0, grid,
                        V03)
        assert math.isinf(t)

    def test_bad_subdivision_rejected(self, still_grid):
        with pytest.raises(ConfigError):
            profile_times((0.0, 0.0), [(1.0, 0.0)], 0.0,
                          [DiveProfile(0.0, 10.0)], still_grid, V03, n_sub=0)


class TestGliderTravelTime:
    def test_still_water_closed_form(self, still_grid):
        # four slant segments of sqrt(300^2 + 100^2) meters at 0.3 m/s
        t = glider_travel_time((0.0, 0.0), (1_200.0, 0.0),
                               DiveProfile(0.0, 100.0), 0.0, still_grid, V03,
                               h=0.25)
        assert t == pytest.approx(4216.37021355784, abs=1e-9)

    def test_one_third_fraction_gives_three_segments(self, still_grid):
        t = glider_travel_time((0.0, 0.0), (1_200.0, 0.0),
                               DiveProfile(0.0, 100.0), 0.0, still_grid, V03,
                               h=1.0 / 3.0)
        assert t == pytest.approx(4123.105625617661, abs=1e-9)

    def test_full_fraction_is_single_slant(self, east_grid):
        profile = DiveProfile(10.0, 90.0)
        a = glider_travel_time((5_000.0, 5_000.0), (9_000.0, 8_000.0),
                               profile, 0.0, east_grid, V03, h=1.0)
        b = travel_time((5_000.0, 5_000.0, 10.0), (9_000.0, 8_000.0, 90.0),
                        0.0, east_grid, V03)
        assert a == b

    def test_fraction_just_above_half_gives_two_segments(self, still_grid):
        a = glider_travel_time((0.0, 0.0), (1_000.0, 0.0),
                               DiveProfile(0.0, 50.0), 0.0, still_grid, V03,
                               h=0.5001)
        b = glider_travel_time((0.0, 0.0), (1_000.0, 0.0),
                               DiveProfile(0.0, 50.0), 0.0, still_grid, V03,
                               h=0.5)
        assert a == b

    def test_departure_time_matters_in_tidal_flow(self, tidal_grid):
        profile = DiveProfile(0.0, 60.0)
        period = 43_200.0
        early = glider_travel_time((10_000.0, 50_000.0), (40_000.0, 50_000.0),
                                   profile, 0.0, tidal_grid, V03)
        helped = glider_travel_time((10_000.0, 50_000.0), (40_000.0, 50_000.0),
                                    profile, period / 4.0, tidal_grid, V03)
        assert helped < early

    def test_infeasible_departure_passes_through(self, still_grid):
        assert math.isinf(glider_travel_time(
            (0.0, 0.0), (1.0, 0.0), DiveProfile(0.0, 10.0), INFEASIBLE,
            still_grid, V03))

    def test_bad_fraction_rejected(self, still_grid):
        for h in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                glider_travel_time((0.0, 0.0), (1.0, 0.0),
                                   DiveProfile(0.0, 10.0), 0.0, still_grid,
                                   V03, h=h)


class TestDiveProfileFamily:
    def test_two_by_two_family(self):
        fam = make_dive_profiles(ProfileFamilySpec(
            z_min=0.0, z_climb_to_max=30.0, z_max=100.0, z_min_range=40.0,
            n_climb_to_levels=2, n_dive_to_levels=2))
        assert [(p.z_climb_to, p.z_dive_to) for p in fam] == [
            (0.0, 40.0), (0.0, 100.0), (30.0, 100.0)]

    def test_single_profile_sits_at_extremes(self):
        fam = make_dive_profiles(ProfileFamilySpec(
            z_min=5.0, z_climb_to_max=20.0, z_max=95.0, z_min_range=10.0))
        assert [(p.z_climb_to, p.z_dive_to) for p in fam] == [(5.0, 95.0)]

    def test_duplicates_removed(self):
        fam = make_dive_profiles(ProfileFamilySpec(
            z_min=0.0, z_climb_to_max=0.0, z_max=100.0, z_min_range=50.0,
            n_climb_to_levels=3, n_dive_to_levels=1))
        assert [(p.z_climb_to, p.z_dive_to) for p in fam] == [(0.0, 100.0)]

    def test_three_by_four_family_counts(self):
        fam = make_dive_profiles(ProfileFamilySpec(
            z_min=0.0, z_climb_to_max=20.0, z_max=100.0, z_min_range=30.0,
            n_climb_to_levels=3, n_dive_to_levels=4))
        assert len(fam) == 10
        assert fam[0] == DiveProfile(0.0, 30.0)
        assert fam[-1] == DiveProfile(20.0, 100.0)
        # climb-major ordering, amplitudes never below the band minimum
        climbs = [p.z_climb_to for p in fam]
        assert climbs == sorted(climbs)
        assert all(p.amplitude >= 30.0 - 1e-9 for p in fam)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_family_respects_band_everywhere(self, data):
        z_min = data.draw(st.floats(0.0, 50.0))
        band = data.draw(st.floats(10.0, 400.0))
        z_max = z_min + band
        z_climb_max = data.draw(st.floats(z_min, z_max))
        # draw against the recomputed difference: z_min + band - z_min
        # can round below band itself
        min_range = data.draw(st.floats(0.5, z_max - z_min))
        nc = data.draw(st.integers(1, 5))
        nd = data.draw(st.integers(1, 5))
        fam = make_dive_profiles(ProfileFamilySpec(
            z_min, z_climb_max, z_max, min_range, nc, nd))
        assert fam
        for p in fam:
            assert p.z_climb_to >= z_min - 1e-9
            assert p.z_dive_to <= z_max + 1e-9
            assert p.amplitude >= min_range - 1e-9
        assert len(set(fam)) == len(fam)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ProfileFamilySpec(0.0, 120.0, 100.0, 10.0)  # climb max too deep
        with pytest.raises(ConfigError):
            ProfileFamilySpec(0.0, 50.0, 100.0, 0.0)    # zero range
        with pytest.raises(ConfigError):
            ProfileFamilySpec(0.0, 50.0, 100.0, 150.0)  # range exceeds band
        with pytest.raises(ConfigError):
            ProfileFamilySpec(0.0, 50.0, 100.0, 10.0, n_climb_to_levels=0)
        with pytest.raises(ConfigError):
            DiveProfile(50.0, 50.0)                     # empty band
        with pytest.raises(ConfigError):
            VehicleSpec(speed_through_water=0.0)


class TestProfileSelection:
    FAM = (DiveProfile(0.0, 40.0), DiveProfile(0.0, 120.0))

    def test_fastest_prefers_shallow_band_in_still_water(self, still_grid):
        profile, t = optimal_profile_cost(
            (0.0, 0.0), (1_200.0, 0.0), 0.0, self.FAM, still_grid, V03,
            h=0.25, mode="fastest")
        assert profile == DiveProfile(0.0, 40.0)
        assert t == pytest.approx(4035.3989201124155, abs=1e-9)

    def test_fastest_exploits_deep_favorable_current(self):
        grid = two_layer_grid(u_shallow=0.0, u_deep=0.25, z_deep=100.0)
        shallow = DiveProfile(0.0, 10.0)
        deep = DiveProfile(90.0, 100.0)
        profile, t = optimal_profile_cost(
            (10_000.0, 50_000.0), (60_000.0, 50_000.0), 0.0,
            (shallow, deep), grid, V03, h=0.5, mode="fastest")
        assert profile == deep
        t_shallow = glider_travel_time((10_000.0, 50_000.0),
                                       (60_000.0, 50_000.0), shallow, 0.0,
                                       grid, V03, h=0.5)
        assert t < t_shallow

    def test_fastest_tie_prefers_larger_amplitude(self, east_grid):
        # equal amplitude bands in a depth-uniform flow tie exactly;
        # the tie then falls to family order
        a = DiveProfile(0.0, 50.0)
        b = DiveProfile(30.0, 80.0)
        profile, _ = optimal_profile_cost(
            (5_000.0, 5_000.0), (20_000.0, 5_000.0), 0.0, (a, b),
            east_grid, V03, mode="fastest")
        assert profile == a

    def test_max_amplitude_takes_deeper_band_within_slack(self, still_grid):
        # time ratio between the bands is about 1.0676
        profile, t = optimal_profile_cost(
            (0.0, 0.0), (1_200.0, 0.0), 0.0, self.FAM, still_grid, V03,
            h=0.25, mode="max_amplitude", slack_factor=1.1)
        assert profile == DiveProfile(0.0, 120.0)
        assert t == pytest.approx(4308.131845707603, abs=1e-9)

    def test_max_amplitude_falls_back_outside_slack(self, still_grid):
        profile, t = optimal_profile_cost(
            (0.0, 0.0), (1_200.0, 0.0), 0.0, self.FAM, still_grid, V03,
            h=0.25, mode="max_amplitude", slack_factor=1.05)
        assert profile == DiveProfile(0.0, 40.0)
        assert t == pytest.approx(4035.3989201124155, abs=1e-9)

    def test_all_infeasible_returns_infinity(self):
        grid = make_uniform_grid(u0=-0.5)
        profile, t = optimal_profile_cost(
            (0.0, 0.0), (10_000.0, 0.0), 0.0, self.FAM, grid, V03)
        assert math.isinf(t)
        assert profile is None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["fastest", "max_amplitude"]))
    def test_row_selection_matches_scalar_pick(self, data, mode):
        # few distinct values, so time and amplitude ties are common;
        # inf entries and whole inf rows are drawn too
        bands = data.draw(st.lists(st.sampled_from(
            [(0.0, 30.0), (10.0, 40.0), (0.0, 60.0), (20.0, 80.0)]),
            min_size=1, max_size=6))
        profiles = [DiveProfile(*b) for b in bands]
        value = st.sampled_from([0.0, 100.0, 104.0, 110.0, 121.0, math.inf])
        times = data.draw(st.lists(
            st.lists(value, min_size=len(profiles), max_size=len(profiles)),
            min_size=1, max_size=5))
        slack = data.draw(st.sampled_from([0.9, 1.0, 1.05, 1.1, 1.25]))
        pick, secs = choose_profile(profiles, np.array(times), mode, slack)
        for r, row in enumerate(times):
            want, want_t = choose_profile_reference(profiles, row, mode,
                                                    slack)
            assert (int(pick[r]), float(secs[r])) == (
                -1 if want is None else want, want_t)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["fastest", "max_amplitude"]))
    def test_argmin_picks_equal_the_lexsort_rule(self, data, mode):
        # (R, P) blocks drawn from few values, so times and amplitudes
        # tie; NaN entries, whole INFEASIBLE rows and negative times too
        bands = data.draw(st.lists(st.sampled_from(
            [(0.0, 30.0), (10.0, 40.0), (0.0, 60.0), (20.0, 80.0),
             (30.0, 60.0)]), min_size=1, max_size=7))
        profiles = [DiveProfile(*b) for b in bands]
        value = st.sampled_from([0.0, -0.0, -5.0, 100.0, 104.0, 110.0,
                                 121.0, 200.0, math.inf, math.nan])
        rows = data.draw(st.lists(st.one_of(
            st.lists(value, min_size=len(profiles), max_size=len(profiles)),
            st.just([math.inf] * len(profiles)),
            st.just([math.nan] * len(profiles))), min_size=1, max_size=8))
        slack = data.draw(st.floats(1.0, 2.0))
        got = choose_profile(profiles, np.array(rows), mode, slack)
        want = choose_profile_lexsort_reference(profiles, rows, mode, slack)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].view(np.int64).tolist() == want[1].view(np.int64).tolist()

    def test_empty_family_rejected(self, still_grid):
        with pytest.raises(ConfigError):
            optimal_profile_cost((0.0, 0.0), (1.0, 0.0), 0.0, (),
                                 still_grid, V03)

    def test_unknown_mode_rejected(self, still_grid):
        with pytest.raises(ConfigError):
            optimal_profile_cost((0.0, 0.0), (1.0, 0.0), 0.0, self.FAM,
                                 still_grid, V03, mode="best")


class TestParallelEvaluation:
    def test_parallel_equals_sequential(self, gyre_grid):
        # the batched lanes of one kernel call against the scalar loop
        fam = make_dive_profiles(ProfileFamilySpec(
            0.0, 30.0, 120.0, 20.0, 3, 4))
        start, end = (12_000.0, 9_000.0), (38_000.0, 30_000.0)
        par = profile_times(start, [end], 500.0, fam, gyre_grid, V03,
                            h=0.5, n_sub=2)[0].tolist()
        seq = [glider_travel_time_reference(start, end, p, 500.0, gyre_grid,
                                            V03, 0.5, InterpScheme(), 2)
               for p in fam]
        assert par == seq
        pick = optimal_profile_cost(start, end, 500.0, fam, gyre_grid, V03,
                                    h=0.5, n_sub=2)
        best = min(range(len(fam)), key=lambda i: (seq[i], -fam[i].amplitude))
        assert pick == (fam[best], seq[best])
