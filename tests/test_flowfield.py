"""Flow grid container, synthetic fields, sampling, and archive I/O."""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gliderplan import flowfield
from gliderplan.errors import (ConfigError, FlowFormatError, LandContactError,
                               OutOfDomainError)
from gliderplan.flowfield import (FlowGrid, InterpScheme, effective_scheme,
                                  load_flow_grid, sample, save_flow_grid,
                                  synth_field)

from conftest import interp_xy, make_land_grid, make_uniform_grid, random_grid
from oracles import load_flow_grid_reference, max_speed_reference


def small_grid(**kwargs):
    rng = np.random.RandomState(kwargs.pop("seed", 0))
    x = np.linspace(0.0, 1000.0, 5)
    y = np.linspace(0.0, 800.0, 4)
    z = np.array([0.0, 50.0, 120.0])
    t = np.array([0.0, 3600.0])
    shape = (t.size, z.size, y.size, x.size)
    u = rng.uniform(-0.3, 0.3, shape)
    v = rng.uniform(-0.3, 0.3, shape)
    return FlowGrid(x, y, z, t, u, v, **kwargs)


class TestFlowGridValidation:
    def test_accepts_well_formed_grid(self):
        grid = small_grid()
        assert grid.shape == (2, 3, 4, 5)
        assert grid.horizontal_bounds() == (0.0, 0.0, 1000.0, 800.0)

    def test_rejects_non_ascending_axis(self):
        with pytest.raises(FlowFormatError, match="axes.x"):
            FlowGrid(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0]),
                     np.array([0.0]), np.array([0.0]),
                     np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 2, 3)))

    def test_rejects_duplicate_knots(self):
        with pytest.raises(FlowFormatError, match="axes.y"):
            FlowGrid(np.array([0.0, 1.0]), np.array([5.0, 5.0]),
                     np.array([0.0]), np.array([0.0]),
                     np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(FlowFormatError, match="u"):
            FlowGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                     np.array([0.0]), np.array([0.0]),
                     np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 2, 2)))

    def test_rejects_infinite_values(self):
        u = np.zeros((1, 1, 2, 2))
        u[0, 0, 0, 0] = np.inf
        with pytest.raises(FlowFormatError, match="u"):
            FlowGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                     np.array([0.0]), np.array([0.0]), u,
                     np.zeros((1, 1, 2, 2)))

    def test_nan_counts_as_fill_not_error(self):
        # NaN is accepted as an alias for the fill sentinel, and a node
        # missing either component is invalid
        u = np.zeros((1, 1, 2, 2))
        u[0, 0, 0, 0] = np.nan
        grid = FlowGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([0.0]), np.array([0.0]), u,
                        np.zeros((1, 1, 2, 2)))
        assert grid.land_mask[0, 0]
        assert grid.land_mask.sum() == 1

    def test_land_mask_requires_all_depths_and_times(self):
        grid = small_grid()
        u = grid.u.copy()
        u[0, 0, 1, 2] = grid.fill_sentinel  # one slot only
        partial = FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                           grid.t_steps, u, grid.v)
        assert not partial.land_mask.any()
        u2 = grid.u.copy()
        v2 = grid.v.copy()
        u2[:, :, 1, 2] = grid.fill_sentinel
        v2[:, :, 1, 2] = grid.fill_sentinel
        full = FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                        grid.t_steps, u2, v2)
        assert full.land_mask[1, 2]
        assert full.land_mask.sum() == 1

    def test_land_at_uses_nearest_node(self):
        grid = make_land_grid(extent=50_000.0, n=6)  # column ix=3 is land
        xs = grid.x_coords
        # land is the nearest node's; off the grid is blocked as well
        x = np.array([xs[3], xs[3] + 0.4 * (xs[4] - xs[3]), xs[2], -1.0])
        y = np.array([0.0, 100.0, 0.0, 0.0])
        assert grid.blocked_at(x, y).tolist() == [True, True, False, True]


class TestMaxSpeed:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_hypot_at_every_data_node(self, seed):
        rng = np.random.RandomState(seed)
        # squares from subnormal to near overflow; the -9999 fill nodes
        # outrun every data node at the small scales
        scale = 10.0 ** rng.uniform(-160, 150)
        grid = random_grid(rng, 8, 7, 2, 4, scale=scale)
        # near-ties: one speed at every heading, so the hypots differ
        # only in the last bits; and a NaN fill node
        speed = scale * rng.uniform(0.5, 1.5)
        ang = rng.uniform(0.0, 2.0 * math.pi, grid.u.shape)
        data = ~grid._isfill(grid.u) & ~grid._isfill(grid.v)
        u = np.where(data, speed * np.cos(ang), grid.u)
        v = np.where(data, speed * np.sin(ang), grid.v)
        u[1, 0, 2, 1] = np.nan
        tied = FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                        grid.t_steps, u, v)
        for g in (grid, tied):
            assert g.max_speed() == max_speed_reference(g)

    def test_chunks_keep_the_max(self, monkeypatch):
        # chunks of 7 nodes, some all fill: node 60 has the larger square
        # and node 447 the larger hypot, so both chunks must be read
        monkeypatch.setattr(flowfield, "MAX_SPEED_CHUNK", 7)
        cu = [-0.39742022358603424, 0.24790445547194112]
        cv = [0.30340923829841854, 0.43421582301565237]
        assert cu[0] ** 2 + cv[0] ** 2 > cu[1] ** 2 + cv[1] ** 2
        assert math.hypot(cu[0], cv[0]) < math.hypot(cu[1], cv[1])
        for seed in range(5):
            grid = random_grid(np.random.RandomState(seed), 8, 7, 2, 4)
            land = grid._isfill(grid.u)
            u, v = np.where(land, grid.u, 0.25), np.where(land, grid.v, 0.0)
            u.flat[[60, 447]], v.flat[[60, 447]] = cu, cv
            u[0, 0] = v[0, 0] = -9999.0
            for g in (grid, FlowGrid(grid.x_coords, grid.y_coords,
                                     grid.z_levels, grid.t_steps, u, v)):
                assert g.max_speed() == max_speed_reference(g)

    def test_chunks_below_the_running_max_skip_the_hypot_pass(
            self, monkeypatch):
        # chunks of 7 nodes over 448: the largest speed first, last, tied
        # across two chunks (the same vector, and one speed at two
        # headings), and beside a fill node and a NaN fill node
        monkeypatch.setattr(flowfield, "MAX_SPEED_CHUNK", 7)
        hypot, passes = np.hypot, []
        monkeypatch.setattr(np, "hypot",
                            lambda *a, **k: passes.append(1) or hypot(*a, **k))
        rng = np.random.RandomState(3)
        base = random_grid(rng, 8, 7, 2, 4)
        fill = base._isfill(base.u)
        cases = {"first": {0: (3.0, 4.0)}, "last": {447: (-4.0, 3.0)},
                 "tied": {5: (3.0, 4.0), 400: (3.0, 4.0)},
                 "headings": {30: (1.5, -2.0), 300: (2.0, 1.5)},
                 "beside fill": {13: (0.0, 5.0), 15: (0.0, np.nan)}}
        assert fill.flat[14]
        for name, nodes in cases.items():
            u, v = base.u.copy(), base.v.copy()
            for i, (cu, cv) in nodes.items():
                u.flat[i], v.flat[i] = cu, cv
            grid = FlowGrid(base.x_coords, base.y_coords, base.z_levels,
                            base.t_steps, u, v)
            passes.clear()
            got, n_passes = grid.max_speed(), len(passes)
            assert got == max_speed_reference(grid), name
            if name == "first":  # no later chunk comes near the max
                assert n_passes == 1

    def test_a_square_that_underflows_keeps_the_hypot_max(self):
        # u*u + v*v is subnormal here: the first node has the larger
        # square but the second the larger hypot
        u = np.array([-9.457873011171733e-161, 9.024562591271161e-162])
        v = np.array([3.2478667005511786e-161, -9.959195384184534e-161])
        assert u[0] ** 2 + v[0] ** 2 > u[1] ** 2 + v[1] ** 2
        assert math.hypot(u[0], v[0]) < math.hypot(u[1], v[1])
        grid = FlowGrid(np.array([0.0, 1.0]), np.array([0.0]),
                        np.array([0.0]), np.array([0.0]),
                        u.reshape(1, 1, 1, 2), v.reshape(1, 1, 1, 2))
        assert grid.max_speed() == math.hypot(u[1], v[1])

    def test_all_fill_grid_is_still(self):
        fill = np.full((1, 1, 2, 2), -9999.0)
        grid = FlowGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([0.0]), np.array([0.0]), fill, fill)
        assert grid.max_speed() == max_speed_reference(grid) == 0.0


class TestSyntheticFields:
    def test_uniform_constant_everywhere(self):
        grid = make_uniform_grid(u0=0.12, v0=-0.05)
        assert np.all(grid.u == 0.12)
        assert np.all(grid.v == -0.05)
        vec = sample(grid, 12_345.0, 67_890.0, 55.0, 40_000.0)
        assert vec.u == pytest.approx(0.12, abs=1e-12)
        assert vec.v == pytest.approx(-0.05, abs=1e-12)
        assert vec.magnitude == pytest.approx(math.hypot(0.12, 0.05), abs=1e-12)

    def test_tidal_channel_phase(self):
        period = 43_200.0
        grid = synth_field("tidal_channel", (0.0, 1000.0), (0.0, 1000.0),
                           (0.0,), (0.0, period / 4.0, period / 2.0),
                           params={"amplitude": 0.2, "period": period})
        assert np.all(grid.v == 0.0)
        assert np.all(grid.u[0] == 0.0)
        assert np.all(grid.u[1] == pytest.approx(0.2, abs=1e-12))
        assert np.all(grid.u[2] == pytest.approx(0.0, abs=1e-12))

    def test_gyre_matches_stream_function(self):
        amplitude, eps, period = 0.1, 0.25, 43_200.0
        ext_x, ext_y = 90_000.0, 30_000.0
        xs = np.linspace(0.0, ext_x, 10)
        ys = np.linspace(0.0, ext_y, 7)
        ts = (0.0, 10_000.0)
        grid = synth_field("gyre", xs, ys, (0.0,), ts,
                           params={"amplitude": amplitude, "epsilon": eps,
                                   "period": period})

        def reference(x, y, t):
            xn = 2.0 * x / ext_x
            yn = y / ext_y
            a = eps * math.sin(2.0 * math.pi * t / period)
            b = 1.0 - 2.0 * a
            f = a * xn * xn + b * xn
            df = 2.0 * a * xn + b
            aspect = 2.0 * ext_y / ext_x
            return (-math.pi * amplitude * math.sin(math.pi * f)
                    * math.cos(math.pi * yn),
                    math.pi * amplitude * aspect * math.cos(math.pi * f)
                    * math.sin(math.pi * yn) * df)

        for it, t in enumerate(ts):
            for iy, y in enumerate(ys):
                for ix, x in enumerate(xs):
                    ru, rv = reference(float(x), float(y), float(t))
                    assert grid.u[it, 0, iy, ix] == pytest.approx(ru, abs=1e-12)
                    assert grid.v[it, 0, iy, ix] == pytest.approx(rv, abs=1e-12)

        # no flow through the domain walls
        assert np.all(np.abs(grid.v[:, :, 0, :]) < 1e-12)
        assert np.all(np.abs(grid.v[:, :, -1, :]) < 1e-12)
        assert np.all(np.abs(grid.u[:, :, :, 0]) < 1e-12)
        assert np.all(np.abs(grid.u[:, :, :, -1]) < 1e-12)

        # the stream-function form is divergence-free; verify the
        # reference with tiny central differences at interior points
        d = 1e-3
        for (x, y, t) in ((21_000.0, 9_000.0, 5_000.0),
                          (60_000.0, 22_000.0, 0.0)):
            dudx = (reference(x + d, y, t)[0] - reference(x - d, y, t)[0]) / (2 * d)
            dvdy = (reference(x, y + d, t)[1] - reference(x, y - d, t)[1]) / (2 * d)
            assert abs(dudx + dvdy) < 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            synth_field("vortex", (0.0, 1.0), (0.0, 1.0))

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigError, match="w0"):
            synth_field("uniform", (0.0, 1.0), (0.0, 1.0),
                        params={"w0": 1.0})

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigError):
            synth_field("tidal_channel", (0.0, 1.0), (0.0, 1.0),
                        params={"period": 0.0})


class TestSampling:
    def test_out_of_domain_is_strict_horizontally(self, still_grid):
        x_max = still_grid.horizontal_bounds()[2]
        with pytest.raises(OutOfDomainError):
            sample(still_grid, x_max + 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(OutOfDomainError):
            sample(still_grid, 0.0, -0.5, 0.0, 0.0)

    def test_depth_and_time_clamp_to_boundary(self, gyre_grid):
        t_last = float(gyre_grid.t_steps[-1])
        at_end = sample(gyre_grid, 30_000.0, 30_000.0, 0.0, t_last)
        beyond = sample(gyre_grid, 30_000.0, 30_000.0, 0.0, t_last + 9e9)
        assert beyond == at_end
        below = sample(gyre_grid, 30_000.0, 30_000.0, 5_000.0, 0.0)
        deepest = sample(gyre_grid, 30_000.0, 30_000.0,
                         float(gyre_grid.z_levels[-1]), 0.0)
        assert below == deepest
        above = sample(gyre_grid, 30_000.0, 30_000.0, -50.0, 0.0)
        shallowest = sample(gyre_grid, 30_000.0, 30_000.0,
                            float(gyre_grid.z_levels[0]), 0.0)
        assert above == shallowest

    def test_fill_in_stencil_raises_land_contact(self):
        grid = make_land_grid(extent=50_000.0, n=6)  # column ix=3 filled
        xs = grid.x_coords
        mid_land = 0.5 * (xs[2] + xs[3])
        with pytest.raises(LandContactError):
            sample(grid, float(mid_land), 100.0, 0.0, 0.0)
        mid_water = 0.5 * (xs[1] + xs[2])
        vec = sample(grid, float(mid_water), 100.0, 0.0, 0.0)
        assert vec.u == pytest.approx(0.05, abs=1e-12)

    def test_single_level_grid_matches_planar_interpolation(self):
        rng = np.random.RandomState(11)
        x = np.linspace(0.0, 100.0, 6)
        y = np.linspace(0.0, 80.0, 5)
        u = rng.uniform(-1, 1, (1, 1, 5, 6))
        v = rng.uniform(-1, 1, (1, 1, 5, 6))
        grid = FlowGrid(x, y, np.array([0.0]), np.array([0.0]), u, v)
        for (qx, qy) in ((13.0, 27.5), (99.0, 1.0), (50.0, 40.0)):
            vec = sample(grid, qx, qy, 123.0, 456.0)
            assert vec.u == interp_xy(u[0, 0], x, y, qx, qy, "bilinear")
            assert vec.v == interp_xy(v[0, 0], x, y, qx, qy, "bilinear")

    def test_z_interpolation_linear_between_layers(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        z = np.array([0.0, 100.0])
        t = np.array([0.0])
        u = np.zeros((1, 2, 2, 2))
        u[0, 0] = 0.1   # shallow layer
        u[0, 1] = 0.3   # deep layer
        v = np.zeros((1, 2, 2, 2))
        grid = FlowGrid(x, y, z, t, u, v)
        vec = sample(grid, 0.5, 0.5, 25.0, 0.0)
        assert vec.u == pytest.approx(0.15, abs=1e-12)

    def test_t_interpolation_linear_between_steps(self, tidal_grid):
        t0, t1 = float(tidal_grid.t_steps[0]), float(tidal_grid.t_steps[1])
        u0 = sample(tidal_grid, 50_000.0, 50_000.0, 0.0, t0).u
        u1 = sample(tidal_grid, 50_000.0, 50_000.0, 0.0, t1).u
        mid = sample(tidal_grid, 50_000.0, 50_000.0, 0.0, 0.5 * (t0 + t1)).u
        assert mid == pytest.approx(0.5 * (u0 + u1), abs=1e-12)

    def test_degraded_scheme_reported_and_equivalent(self):
        grid = make_uniform_grid(u0=0.07, nz=2, nt=2)
        wanted = InterpScheme("bilinear", "cubic", "akima")
        eff = effective_scheme(wanted, grid)
        assert eff.z_method == "linear"
        assert eff.t_method == "linear"
        a = sample(grid, 500.0, 500.0, 30.0, 1000.0, wanted)
        b = sample(grid, 500.0, 500.0, 30.0, 1000.0,
                   InterpScheme("bilinear", "linear", "linear"))
        assert a == b

    def test_akima_time_axis_tracks_sine_closer_than_linear(self):
        period = 43_200.0
        grid = synth_field("tidal_channel", (0.0, 1000.0), (0.0, 1000.0),
                           (0.0,), np.linspace(0.0, period, 9),
                           params={"amplitude": 0.2, "period": period})
        q = period * 0.19
        truth = 0.2 * math.sin(2.0 * math.pi * q / period)
        lin = sample(grid, 500.0, 500.0, 0.0, q,
                     InterpScheme("bilinear", "linear", "linear")).u
        aki = sample(grid, 500.0, 500.0, 0.0, q,
                     InterpScheme("bilinear", "linear", "akima")).u
        cub = sample(grid, 500.0, 500.0, 0.0, q,
                     InterpScheme("bilinear", "linear", "cubic")).u
        assert abs(aki - truth) < abs(lin - truth)
        assert abs(cub - truth) < abs(lin - truth)


class TestArchiveRoundTrip:
    def test_inline_roundtrip_is_exact(self, tmp_path):
        grid = small_grid(seed=5)
        path = tmp_path / "field.json"
        save_flow_grid(grid, path, encoding="inline")
        loaded = load_flow_grid(path)
        assert np.array_equal(loaded.x_coords, grid.x_coords)
        assert np.array_equal(loaded.y_coords, grid.y_coords)
        assert np.array_equal(loaded.z_levels, grid.z_levels)
        assert np.array_equal(loaded.t_steps, grid.t_steps)
        assert np.array_equal(loaded.u, grid.u)
        assert np.array_equal(loaded.v, grid.v)
        assert loaded.fill_sentinel == grid.fill_sentinel

    def test_inline_file_is_plain_json(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "field.json"
        save_flow_grid(grid, path, encoding="inline")
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["encoding"] == "inline"
        assert set(doc["axes"]) == {"x", "y", "z", "t"}
        assert len(doc["u"]) == grid.u.size

    def test_binary_roundtrip_within_float32(self, tmp_path):
        grid = small_grid(seed=6)
        path = tmp_path / "field.bin"
        save_flow_grid(grid, path, encoding="binary")
        loaded = load_flow_grid(path)
        assert np.array_equal(loaded.x_coords, grid.x_coords)
        assert np.allclose(loaded.u, grid.u, rtol=1e-6, atol=1e-9)
        assert np.allclose(loaded.v, grid.v, rtol=1e-6, atol=1e-9)

    def test_binary_header_offset_is_consistent(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "field.bin"
        save_flow_grid(grid, path, encoding="binary")
        raw = path.read_bytes()
        line, _, rest = raw.partition(b"\n")
        header = json.loads(line.decode())
        assert header["encoding"] == "binary"
        assert header["data_offset"] == len(line) + 1
        assert len(rest) == 2 * grid.u.size * 4

    def test_binary_preserves_fill_sentinel_exactly(self, tmp_path):
        grid = make_land_grid()
        path = tmp_path / "field.bin"
        save_flow_grid(grid, path, encoding="binary")
        loaded = load_flow_grid(path)
        assert np.array_equal(loaded.land_mask, grid.land_mask)

    @settings(max_examples=60, deadline=None)
    @given(encoding=st.sampled_from(["inline", "binary"]),
           fill=st.just(math.nan) | st.floats(3.0, 3e38).flatmap(
               lambda f: st.sampled_from([f, -f])),
           seed=st.integers(0, 2**32 - 1))
    @example(encoding="binary", fill=-9999.1, seed=0)
    def test_roundtrip_keeps_land_axes_and_values(self, encoding, fill, seed):
        # currents within 2 m/s, so no data node rounds onto the sentinel;
        # one land column and one stray fill node
        rng = np.random.RandomState(seed)
        axes = [np.cumsum(rng.uniform(0.5, 2.0, n)) for n in (4, 5, 2, 3)]
        u, v = rng.uniform(-2.0, 2.0, (2, 3, 2, 5, 4))
        u[:, :, :, 1] = v[:, :, :, 1] = fill
        v[0, 1, 3, 2] = fill
        grid = FlowGrid(*axes, u, v, fill_sentinel=fill)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "field")
            save_flow_grid(grid, path, encoding=encoding)
            loaded = load_flow_grid(path)
        for name in ("x_coords", "y_coords", "z_levels", "t_steps"):
            assert np.array_equal(getattr(loaded, name), getattr(grid, name))
        assert np.array_equal(loaded.land_mask, grid.land_mask)
        assert loaded.land_mask.sum() == 5
        stored = (lambda a: a) if encoding == "inline" else (
            lambda a: a.astype(np.float32).astype(np.float64))
        for got, want in ((loaded.u, u), (loaded.v, v)):
            data = ~(np.isnan(want) | (want == fill))
            assert np.array_equal(got[data], stored(want[data]))
            assert (np.isnan(got[~data]) | (got[~data] ==
                                           loaded.fill_sentinel)).all()
        data = np.isfinite(u) & np.isfinite(v) & (u != fill) & (v != fill)
        assert loaded.max_speed() == np.hypot(stored(u), stored(v))[data].max()

    def test_binary_refuses_a_sentinel_beyond_float32(self, tmp_path):
        grid = make_uniform_grid()
        grid = FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                        grid.t_steps, grid.u, grid.v, fill_sentinel=-1e39)
        with pytest.raises(ConfigError, match="fill_sentinel"):
            save_flow_grid(grid, tmp_path / "field.bin", encoding="binary")
        assert not (tmp_path / "field.bin").exists()

    def test_load_does_not_modify_file(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "field.json"
        save_flow_grid(grid, path, encoding="inline")
        before = path.read_bytes()
        load_flow_grid(path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("chunk", [16, 48, 1 << 20])
    @pytest.mark.parametrize("fill", [math.nan, -9999.0])
    def test_inline_bytes_match_one_json_dump(self, tmp_path, chunk, fill):
        # NaN fill, a fill sentinel, -0.0 and integer-valued nodes, written
        # one value, three values and one piece at a time
        grid = small_grid(seed=7)
        u, v = grid.u.copy(), grid.v.copy()
        u[0, 0, 0, :] = [fill, -0.0, 3.0, -2.0, 0.0]
        v[1, 2, 3, :] = [fill, 1.0, -0.0, 5e-324, 1e300]
        grid = FlowGrid(grid.x_coords, grid.y_coords, grid.z_levels,
                        grid.t_steps, u, v, fill_sentinel=fill)
        header = flowfield._header_dict(grid, "inline")
        header["u"] = grid.u.ravel().tolist()
        header["v"] = grid.v.ravel().tolist()
        expected = io.StringIO()
        json.dump(header, expected, separators=(",", ":"))
        expected.write("\n")
        path = tmp_path / "field.json"
        with mock.patch.object(flowfield, "_CHUNK_BYTES", chunk):
            save_flow_grid(grid, path, encoding="inline")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_unknown_encoding_on_save_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_flow_grid(small_grid(), tmp_path / "x", encoding="zip")


class TestArchiveValidation:
    def good_header(self):
        return {
            "version": 1, "encoding": "inline", "fill_sentinel": -9999.0,
            "axes": {"x": [0.0, 1.0], "y": [0.0, 1.0], "z": [0.0],
                     "t": [0.0]},
            "u": [0.0, 0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0, 0.0],
        }

    def write(self, tmp_path, doc):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        return path

    def test_good_header_loads(self, tmp_path):
        load_flow_grid(self.write(tmp_path, self.good_header()))

    def test_unsupported_version(self, tmp_path):
        doc = self.good_header()
        doc["version"] = 99
        with pytest.raises(FlowFormatError, match="version"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_missing_axis_names_key(self, tmp_path):
        doc = self.good_header()
        del doc["axes"]["y"]
        with pytest.raises(FlowFormatError, match="axes.y"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_non_ascending_axis_names_key(self, tmp_path):
        doc = self.good_header()
        doc["axes"]["t"] = [10.0, 0.0]
        with pytest.raises(FlowFormatError, match="axes.t"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_component_length_mismatch(self, tmp_path):
        doc = self.good_header()
        doc["u"] = [0.0, 0.0]
        with pytest.raises(FlowFormatError, match="u"):
            load_flow_grid(self.write(tmp_path, doc))

    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize("values", [
        "0.0", ["0.0", 0.0, 0.0, 0.0], [[0.0, 0.0], [0.0]], {},
        [0.0, None, 0.0, 0.0], [True, 0.0, 0.0, 0.0], [False] * 4,
        [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0, {}, 0.0], [10 ** 400, 0, 0, 0]])
    def test_component_must_be_flat_numbers(self, tmp_path, name, values):
        doc = self.good_header()
        doc[name] = values
        with pytest.raises(FlowFormatError,
                           match=f"^{name}: must be a flat array of numbers"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_nan_component_value_is_fill(self, tmp_path):
        # save_flow_grid writes NaN fill as a bare NaN token
        doc = self.good_header()
        doc["u"] = [0.0, math.nan, 0.0, 1]
        doc["v"] = [0.0, math.nan, 0.0, 0.0]
        grid = load_flow_grid(self.write(tmp_path, doc))
        assert grid.land_mask.tolist() == [[False, True], [False, False]]
        assert float(grid.u[0, 0, 1, 1]) == 1.0

    def test_missing_fill_sentinel(self, tmp_path):
        doc = self.good_header()
        del doc["fill_sentinel"]
        with pytest.raises(FlowFormatError, match="fill_sentinel"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_unknown_encoding(self, tmp_path):
        doc = self.good_header()
        doc["encoding"] = "gzip"
        with pytest.raises(FlowFormatError, match="encoding"):
            load_flow_grid(self.write(tmp_path, doc))

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02 not json")
        with pytest.raises(FlowFormatError, match="header"):
            load_flow_grid(path)

    def test_truncated_binary_reports_sizes(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "field.bin"
        save_flow_grid(grid, path, encoding="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FlowFormatError, match="data_offset"):
            load_flow_grid(path)


    def test_header_claiming_more_nodes_than_the_file_holds(self, tmp_path):
        # 10**12 nodes at 8 bytes would be 8 TB: the loader must refuse
        # before it allocates, under a 1 GB address-space limit
        doc = self.good_header()
        doc["axes"] = {k: list(range(1000)) for k in "xyzt"}
        path = self.write(tmp_path, doc)
        src = os.path.dirname(os.path.dirname(flowfield.__file__))
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gliderplan import FlowFormatError, load_flow_grid\n"
            "try:\n"
            "    load_flow_grid(sys.argv[1])\n"
            "except FlowFormatError as exc:\n"
            "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "u: expected 1000000000000 values, got 4\n"


NUMBERS = st.one_of(
    st.floats(),  # NaN, infinities, -0.0 and subnormals among them
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.nan]),
    st.integers(-10 ** 6, 10 ** 6))
# integers in [2**63, 2**64) read as numbers (float64) like any other;
# outside [-2**63, 2**64) never
BIG_INTEGERS = st.sampled_from([2 ** 63, 2 ** 64 - 1, -2 ** 63,
                                -2 ** 63 - 1, 2 ** 64])

# (object open, member separator, key-value separator, object close,
#  array open, element separator, array close)
LAYOUTS = {
    "compact": ("{", ",", ":", "}", "[", ",", "]"),
    "indent": ("{\n  ", ",\n  ", ": ", "\n}\n", "[\n    ", ",\n    ",
               "\n  ]"),
    "spaced": (" \r\n{ ", " , ", " :\t", " }  ", "[ ", " ,\t", " ]"),
}


@st.composite
def inline_archives(draw):
    """The bytes of an inline archive, well formed or nearly so."""
    shape = [draw(st.integers(1, 3)) for _ in range(4)]
    count = math.prod(shape)
    (o_open, o_sep, kv, o_close,
     a_open, a_sep, a_close) = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]

    def array(n):
        size = draw(st.sampled_from([n] * 6 + [n - 1, n + 1]))
        pool = draw(st.sampled_from([NUMBERS] * 7 + [NUMBERS | BIG_INTEGERS]))
        items = [json.dumps(x) for x in draw(
            st.lists(pool, min_size=size, max_size=size))]
        flaw = draw(st.sampled_from([None] * 16 + ["", "true", "null"]))
        if flaw is not None and items:  # "" makes "1,,2"
            items[draw(st.integers(0, len(items) - 1))] = flaw
        return a_open + a_sep.join(items) + a_close

    axes = {k: list(range(n)) for k, n in zip("tzyx", shape)}
    if draw(st.booleans()):
        axes["u"] = [1.0, 2.0]
    members = [('"version"', "1"), ('"encoding"', '"inline"'),
               ('"fill_sentinel"', draw(st.sampled_from(
                   ["-9999.0", "NaN", "0", "1e300"]))),
               ('"axes"', json.dumps(axes)),
               (draw(st.sampled_from(['"u"', '"u"', '"\\u0075"'])),
                array(count)),
               ('"v"', array(count))]
    extras = draw(st.lists(st.sampled_from([
        ('"u"', None),  # a duplicate key: JSON keeps the last
        ('"v"', '"0.0"'), ('"u"', "[[0.0], [1.0]]"), ('"u"', "{}"),
        ('"note"', json.dumps('"u":[1,2] and "v":[')),
        (json.dumps('u":['), "[]")]), max_size=2))
    members += [(k, array(count) if v is None else v) for k, v in extras]
    members = draw(st.permutations(members))  # v before u among them
    text = o_open + o_sep.join(k + kv + v for k, v in members) + o_close
    if draw(st.sampled_from([False] * 9 + [True])):
        text = text[:draw(st.integers(0, len(text) - 1))]  # truncated
    return text.encode("utf-8")


def _archive(u: bytes) -> bytes:
    return (b'{"version":1,"encoding":"inline","fill_sentinel":0,'
            b'"axes":{"x":[0,1],"y":[0,1],"z":[0],"t":[0]},'
            b'"v":[0,0,0,0],"u":' + u + b"}")


def _outcome(load, path):
    try:
        grid = load(path)
    except FlowFormatError:
        return "FlowFormatError"
    return [a.tobytes() for a in (grid.x_coords, grid.y_coords,
                                  grid.z_levels, grid.t_steps, grid.u,
                                  grid.v, np.float64(grid.fill_sentinel))]


class TestLoaderParity:
    """The piecewise loader against the whole-document list loader."""

    @settings(max_examples=300, deadline=None)
    @given(doc=inline_archives(), chunk=st.sampled_from([1, 2, 3, 5, 8, 64,
                                                         1 << 20]))
    # a replaced duplicate must still parse; an escaped key can replace u
    @example(doc=_archive(b'[1,,2],"u":[0,0,0,0]'), chunk=1 << 20)
    @example(doc=_archive(b'[1,2,3,4],"\\u0075":[5,6,7,8]'), chunk=1 << 20)
    # uint64 integers load alone, beside int64 ones and in another piece
    @example(doc=_archive(b"[0,0,0,9223372036854775808]"), chunk=1)
    @example(doc=_archive(b"[%s]" % b",".join([b"18446744073709551615"] * 4)),
             chunk=1)
    @example(doc=_archive(b"[%s]" % b",".join([b"9223372036854775808"] * 4)),
             chunk=1 << 20)
    @example(doc=_archive(b"[1,2,3,4,]"), chunk=7)
    def test_same_arrays_or_both_refuse(self, doc, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.json")
            with open(path, "wb") as fh:
                fh.write(doc)
            with mock.patch.object(flowfield, "_CHUNK_BYTES", chunk):
                got = _outcome(load_flow_grid, path)
            assert got == _outcome(load_flow_grid_reference, path)

    @pytest.mark.parametrize("u", [b"[0,0,0,9223372036854775808]",
                                   b"[%s]" % b",".join(
                                       [b"9223372036854775808"] * 4)])
    def test_integers_in_uint64_range_load_whatever_beside_them(self, tmp_path,
                                                                u):
        path = tmp_path / "field.json"
        path.write_bytes(_archive(u))
        assert load_flow_grid(path).u[0, 0, 1, 1] == 2.0 ** 63
