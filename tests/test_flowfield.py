"""Flow grid container, synthetic fields, sampling, and archive I/O."""

import json
import math

import numpy as np
import pytest

from gliderplan.errors import (ConfigError, FlowFormatError, LandContactError,
                               OutOfDomainError)
from gliderplan.flowfield import (FlowGrid, InterpScheme, effective_scheme,
                                  interp_xy, load_flow_grid, sample,
                                  save_flow_grid, synth_field)

from conftest import make_land_grid, make_uniform_grid


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

    def test_load_does_not_modify_file(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "field.json"
        save_flow_grid(grid, path, encoding="inline")
        before = path.read_bytes()
        load_flow_grid(path)
        assert path.read_bytes() == before

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
