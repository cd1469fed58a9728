"""One-dimensional and planar interpolation kernels.

Akima values are checked against an independently written vectorized
reference (tests/oracles.py) and against values frozen from it.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gliderplan.errors import OutOfDomainError
from gliderplan.flowfield import (XY_METHODS, ZT_METHODS, _axis_knots,
                                  _axis_stencil, _cell_table,
                                  effective_method)

from conftest import interp_1d, interp_xy
from oracles import akima_reference, axis_stencil_reference, bilinear_reference

# classic step-like dataset: long flat run, then a sharp rise
STEP_X = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
STEP_Y = [10, 10, 10, 10, 10, 10, 10.5, 15, 50, 60, 85]

# frozen from the reference implementation
STEP_EXPECTED = {
    5.5: 10.0,
    6.5: 10.179435483870968,
    7.5: 11.732202447163516,
    8.5: 31.308142288745735,
    9.5: 54.85834478021978,
    10.5: 70.859375,
}

IRREG_X = [0.0, 0.7, 1.0, 2.5, 4.0, 4.2, 7.0]
IRREG_Y = [1.0, -1.0, 3.0, 0.5, 2.0, 2.1, -4.0]
IRREG_EXPECTED = {
    0.35: -1.4437022900763352,
    0.85: 1.1909698126301187,
    1.75: 1.6638563049853374,
    3.0: 1.0086000218193625,
    4.1: 2.066797627686995,
    5.0: 1.4971173059914178,
}


def knot_sets(min_size=3, max_size=12):
    """Strictly ascending knots built from bounded positive gaps."""
    return st.lists(
        st.floats(0.05, 50.0), min_size=min_size, max_size=max_size,
    ).map(lambda gaps: list(np.cumsum([0.0] + gaps)))


values_for = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestAkimaAgainstReference:
    @pytest.mark.parametrize("q,expected", sorted(STEP_EXPECTED.items()))
    def test_step_dataset_frozen(self, q, expected):
        got = interp_1d(STEP_X, STEP_Y, q, "akima")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_flat_run_does_not_overshoot(self):
        # inside the flat region the spline is exactly flat
        for q in np.linspace(1.0, 5.0, 41):
            assert interp_1d(STEP_X, STEP_Y, float(q), "akima") == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("q,expected", sorted(IRREG_EXPECTED.items()))
    def test_irregular_dataset_frozen(self, q, expected):
        got = interp_1d(IRREG_X, IRREG_Y, q, "akima")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dense_sweep_matches_reference(self):
        for xs, ys in ((STEP_X, STEP_Y), (IRREG_X, IRREG_Y)):
            for q in np.linspace(xs[0], xs[-1], 257):
                ref = akima_reference(xs, ys, float(q))
                got = interp_1d(xs, ys, float(q), "akima")
                assert got == pytest.approx(ref, abs=1e-9, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(knots=knot_sets(),
           data=st.data())
    def test_random_data_matches_reference(self, knots, data):
        ys = data.draw(st.lists(values_for, min_size=len(knots),
                                max_size=len(knots)))
        q = data.draw(st.floats(knots[0], knots[-1]))
        self.check(knots, ys, q)

    @staticmethod
    def check(knots, ys, q):
        ref = akima_reference(knots, ys, q)
        got = interp_1d(knots, ys, q, "akima")
        # rounding scales with the knots the value is made from, not with
        # the value alone: a spline beside a 3e4 jump can pass through 1.0.
        # Cell i's Akima stencil is knots i-2 .. i+3; a q on a knot
        # borders two cells and takes both stencils.
        last = len(knots) - 2
        lo = min(max(bisect_left(knots, q) - 1, 0), last)
        hi = min(max(bisect_right(knots, q) - 1, 0), last)
        stencil = ys[max(lo - 2, 0):hi + 4]
        scale = max([1.0, abs(ref)] + [abs(y) for y in stencil])
        assert abs(got - ref) <= 1e-9 * scale

    def test_small_value_between_large_jumps(self):
        # 1.68e-9 apart at ref ~1.0, which a tolerance scaled by the
        # interpolated value alone rejected
        knots = list(np.cumsum([0.0, 1.0, 20.588512243989513,
                                49.50850293007497, 49.7251366040547,
                                49.82818592063221, 0.05, 17.558085183455034]))
        self.check([float(k) for k in knots],
                   [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 33585.0, 1.0],
                   188.2584228822064)


class TestKnotReproduction:
    @settings(max_examples=100, deadline=None)
    @given(knots=knot_sets(min_size=1), data=st.data(),
           method=st.sampled_from(["nearest", "linear", "cubic", "akima"]))
    def test_exact_at_knots(self, knots, data, method):
        ys = data.draw(st.lists(values_for, min_size=len(knots),
                                max_size=len(knots)))
        idx = data.draw(st.integers(0, len(knots) - 1))
        got = interp_1d(knots, ys, knots[idx], method)
        scale = max(1.0, abs(ys[idx]))
        assert abs(got - ys[idx]) <= 1e-12 * scale


class TestLinearDataReproduction:
    @settings(max_examples=100, deadline=None)
    @given(knots=knot_sets(), a=st.floats(-100, 100), b=st.floats(-1e4, 1e4),
           data=st.data(),
           method=st.sampled_from(["linear", "cubic", "akima"]))
    def test_straight_line_reproduced(self, knots, a, b, data, method):
        ys = [a * x + b for x in knots]
        q = data.draw(st.floats(knots[0], knots[-1]))
        got = interp_1d(knots, ys, q, method)
        expected = a * q + b
        scale = max(1.0, abs(expected))
        assert abs(got - expected) <= 1e-9 * scale


class TestLocality:
    def test_akima_far_knot_is_invisible(self):
        xs = list(range(14))
        rng = np.random.RandomState(7)
        ys = list(rng.uniform(-5, 5, 14))
        q = 6.4                      # cell j = 6, window knots 4..9
        base = interp_1d(xs, ys, q, "akima")
        for k in (0, 1, 2, 10, 11, 12, 13):   # all at least 4 cells away
            bumped = list(ys)
            bumped[k] += 100.0
            assert interp_1d(xs, bumped, q, "akima") == base

    def test_cubic_far_knot_is_invisible(self):
        xs = list(range(10))
        rng = np.random.RandomState(8)
        ys = list(rng.uniform(-5, 5, 10))
        q = 4.5                      # cell j = 4, stencil knots 3..6
        base = interp_1d(xs, ys, q, "cubic")
        for k in (0, 1, 2, 7, 8, 9):
            bumped = list(ys)
            bumped[k] -= 42.0
            assert interp_1d(xs, bumped, q, "cubic") == base

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_akima_locality_random(self, data):
        n = data.draw(st.integers(12, 20))
        xs = list(np.cumsum([0.0] + data.draw(
            st.lists(st.floats(0.1, 3.0), min_size=n - 1, max_size=n - 1))))
        ys = data.draw(st.lists(values_for, min_size=n, max_size=n))
        j = data.draw(st.integers(0, n - 2))
        q = xs[j] + 0.37 * (xs[j + 1] - xs[j])
        far = [k for k in range(n) if abs(k - j) >= 4]
        if not far:
            return
        k = data.draw(st.sampled_from(far))
        base = interp_1d(xs, ys, q, "akima")
        bumped = list(ys)
        bumped[k] += 1e6
        assert interp_1d(xs, bumped, q, "akima") == base


class TestClampingAndDegradation:
    def test_clamps_to_boundary_values(self):
        xs = [0.0, 1.0, 2.0]
        ys = [5.0, 7.0, -1.0]
        for method in ("nearest", "linear", "cubic", "akima"):
            assert interp_1d(xs, ys, -10.0, method) == 5.0
            assert interp_1d(xs, ys, 99.0, method) == -1.0

    def test_two_knots_degrade_to_linear(self):
        xs = [0.0, 4.0]
        ys = [1.0, 9.0]
        for q in (0.0, 1.0, 2.5, 4.0):
            lin = interp_1d(xs, ys, q, "linear")
            assert interp_1d(xs, ys, q, "cubic") == lin
            assert interp_1d(xs, ys, q, "akima") == lin

    def test_single_knot_degrades_to_nearest(self):
        for method in ("nearest", "linear", "cubic", "akima"):
            assert interp_1d([3.0], [42.0], -5.0, method) == 42.0
            assert interp_1d([3.0], [42.0], 77.0, method) == 42.0

    def test_effective_method_table(self):
        assert effective_method("cubic", 2) == "linear"
        assert effective_method("akima", 2) == "linear"
        assert effective_method("bicubic", 2) == "bilinear"
        assert effective_method("linear", 1) == "nearest"
        assert effective_method("cubic", 3) == "cubic"
        assert effective_method("nearest", 1) == "nearest"

    def test_nearest_midpoint_tie_takes_lower_knot(self):
        assert interp_1d([0.0, 2.0], [1.0, 9.0], 1.0, "nearest") == 1.0


class TestPlanarInterpolation:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bilinear_matches_reference(self, data):
        nx = data.draw(st.integers(2, 7))
        ny = data.draw(st.integers(2, 7))
        xs = list(np.cumsum([0.0] + data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=nx - 1, max_size=nx - 1))))
        ys = list(np.cumsum([0.0] + data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=ny - 1, max_size=ny - 1))))
        layer = np.array(data.draw(st.lists(
            st.lists(values_for, min_size=nx, max_size=nx),
            min_size=ny, max_size=ny)))
        x = data.draw(st.floats(xs[0], xs[-1]))
        y = data.draw(st.floats(ys[0], ys[-1]))
        ref = bilinear_reference(layer, xs, ys, x, y)
        got = interp_xy(layer, xs, ys, x, y, "bilinear")
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           method=st.sampled_from(["bilinear", "bicubic"]))
    def test_plane_reproduced_exactly(self, data, method):
        xs = list(np.cumsum([0.0] + data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=3, max_size=7))))
        ys = list(np.cumsum([0.0] + data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=3, max_size=7))))
        layer = np.array([[2.0 * x + 3.0 * y - 1.0 for x in xs] for y in ys])
        x = data.draw(st.floats(xs[0], xs[-1]))
        y = data.draw(st.floats(ys[0], ys[-1]))
        expected = 2.0 * x + 3.0 * y - 1.0
        got = interp_xy(layer, xs, ys, x, y, method)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_bicubic_exact_at_grid_nodes(self):
        rng = np.random.RandomState(3)
        xs = np.cumsum(rng.uniform(0.5, 2.0, 6))
        ys = np.cumsum(rng.uniform(0.5, 2.0, 5))
        layer = rng.uniform(-10, 10, (5, 6))
        for j, yv in enumerate(ys):
            for i, xv in enumerate(xs):
                got = interp_xy(layer, xs, ys, float(xv), float(yv), "bicubic")
                assert got == pytest.approx(layer[j, i], abs=1e-12)

    def test_bicubic_on_two_by_two_equals_bilinear(self):
        xs = [0.0, 1.0]
        ys = [0.0, 2.0]
        layer = [[1.0, 4.0], [-2.0, 8.0]]
        for (x, y) in ((0.3, 0.7), (0.9, 1.9), (0.0, 0.0)):
            assert (interp_xy(layer, xs, ys, x, y, "bicubic")
                    == interp_xy(layer, xs, ys, x, y, "bilinear"))

    def test_outside_domain_raises(self):
        layer = [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(OutOfDomainError):
            interp_xy(layer, [0, 1], [0, 1], 1.5, 0.5)
        with pytest.raises(OutOfDomainError):
            interp_xy(layer, [0, 1], [0, 1], 0.5, -0.1)


def stencil_parts(stencil):
    """An _axis_stencil result as a flat list of arrays."""
    knots, weights, akima = stencil
    parts = [np.asarray(k) for k in knots] + list(weights or [])
    if akima is not None:
        h, basis, dx, ghost = akima
        parts += [h, *basis, *dx, *ghost]
    return parts


@st.composite
def stencil_queries(draw):
    """An axis of 1-8 uneven knots and queries across it: in every cell,
    on knots, past both ends, and NaN, inf or -0.0."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    coords = np.concatenate(([0.0], np.cumsum(rng.uniform(1.0, 900.0, n - 1))))
    q = rng.uniform(coords[0] - 300.0, coords[-1] + 300.0, 40)
    q[:8] = rng.choice(coords, 8)
    q[8:12] = [math.nan, math.inf, -math.inf, -0.0]
    return coords, q


@settings(max_examples=300, deadline=None)
@given(stencil_queries())
# the first and last two cells, where Akima's ghost slopes and the
# clamped knots of both stencils apply
@example((np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0]),
          np.array([0.0, 0.5, 1.0, 2.0, 3.0, 15.0, 18.0, 21.0, -1.0, 22.0])))
# 2- and 3-knot axes, where effective_method degrades the method
@example((np.array([0.0, 2.0]), np.array([-1.0, 0.0, 0.7, 2.0, 3.0])))
@example((np.array([0.0, 2.0, 5.0]), np.array([0.0, 1.0, 2.0, 4.0, 5.0])))
def test_table_stencil_equals_the_per_query_reference(case):
    # bit for bit, but a NaN equals any NaN: the table's Catmull-Rom
    # weight keeps a NaN query's NaN sign where the reference flips it
    coords, q = case
    for method in XY_METHODS + ZT_METHODS:
        with np.errstate(invalid="ignore"):  # inf queries
            table = _cell_table(coords.tobytes(), method)
            got = _axis_stencil(table, q)
            ref = stencil_parts(axis_stencil_reference(coords, q, method))
        assert np.array_equal(_axis_knots(table, q), got[0])
        got = stencil_parts(got)
        assert len(got) == len(ref), method
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape, method
            if a.dtype.kind == "f":
                assert ((a.view(np.int64) == b.view(np.int64))
                        | (np.isnan(a) & np.isnan(b))).all(), method
            else:
                assert np.array_equal(a, b), method
