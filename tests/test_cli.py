"""Command-line interface tests, run in process through main(argv)."""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from gliderplan.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from gliderplan.flowfield import load_flow_grid, save_flow_grid

from conftest import make_land_grid, make_uniform_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    """Parse "key: value" stdout lines into a dict."""
    out = {}
    for line in text.splitlines():
        if ": " in line:
            key, val = line.split(": ", 1)
            out[key] = val
    return out


def write_mission(tmp_path, grid, overrides=None, name="mission.json"):
    save_flow_grid(grid, tmp_path / "flow.json")
    doc = {
        "flow": "flow.json",
        "start": {"x": 10000.0, "y": 25000.0},
        "goal": {"x": 40000.0, "y": 25000.0},
        "profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                           "z_max": 100.0, "z_min_range": 40.0},
        "grid_spacing": 10000.0,
        "neighbor_set": 8,
        "h": 0.5,
        "n_sub": 1,
    }
    if overrides:
        doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def mission_file(tmp_path):
    return write_mission(tmp_path, make_uniform_grid(0.1, 0.0, extent=50000.0,
                                                     depth=200.0))


class TestSynth:
    def test_uniform_archive(self, capsys, tmp_path):
        out = tmp_path / "field.json"
        code, stdout, _ = run_cli(
            capsys, "synth", "uniform", "--out", str(out),
            "--nx", "6", "--ny", "5", "--nz", "2", "--nt", "3",
            "--u0", "0.12", "--v0", "-0.05")
        assert code == EXIT_OK
        vals = parse_kv(stdout)
        assert vals["file"] == str(out)
        assert vals["kind"] == "uniform"
        assert vals["shape"] == "t=3 z=2 y=5 x=6"
        assert vals["encoding"] == "inline"
        grid = load_flow_grid(out)
        assert grid.shape == (3, 2, 5, 6)
        assert float(grid.u[0, 0, 0, 0]) == 0.12
        assert float(grid.v[-1, -1, -1, -1]) == -0.05

    def test_gyre_binary_archive(self, capsys, tmp_path):
        out = tmp_path / "gyre.bin"
        code, stdout, _ = run_cli(
            capsys, "synth", "gyre", "--out", str(out),
            "--nx", "9", "--ny", "7", "--width", "60000",
            "--height", "30000", "--amplitude", "0.05",
            "--encoding", "binary")
        assert code == EXIT_OK
        assert parse_kv(stdout)["encoding"] == "binary"
        grid = load_flow_grid(out)
        assert grid.shape[3] == 9 and grid.shape[2] == 7
        # walls carry no normal flow
        assert abs(float(grid.v[0, 0, 0, 4])) < 1e-6

    def test_tidal_channel_with_period(self, capsys, tmp_path):
        out = tmp_path / "tide.json"
        code, _, _ = run_cli(
            capsys, "synth", "tidal_channel", "--out", str(out),
            "--nt", "9", "--amplitude", "0.2", "--period", "21600")
        assert code == EXIT_OK
        grid = load_flow_grid(out)
        # t axis steps every 5400 s, so index 1 is the quarter period
        assert float(grid.u[1, 0, 0, 0]) == pytest.approx(0.2, abs=1e-12)

    def test_unknown_kind_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "vortex",
                               "--out", str(tmp_path / "x.json"))
        assert code == EXIT_ERROR
        assert "invalid choice" in err

    def test_wrong_param_for_kind(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "uniform", "--out", str(tmp_path / "x.json"),
            "--epsilon", "0.3")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "uniform",
            "--out", str(tmp_path / "no-such-dir" / "x.json"))
        assert code == EXIT_ERROR
        assert err.startswith("error:")


class TestSample:
    @pytest.fixture
    def flow_file(self, tmp_path):
        grid = make_uniform_grid(0.12, -0.05, extent=50000.0)
        path = tmp_path / "flow.json"
        save_flow_grid(grid, path)
        return path

    def test_ok_sample(self, capsys, flow_file):
        code, stdout, _ = run_cli(
            capsys, "sample", str(flow_file),
            "--x", "25000", "--y", "25000", "--z", "50", "--t", "3600")
        assert code == EXIT_OK
        vals = parse_kv(stdout)
        assert vals["status"] == "ok"
        assert float(vals["u"]) == pytest.approx(0.12)
        assert float(vals["v"]) == pytest.approx(-0.05)
        assert float(vals["magnitude"]) == pytest.approx(math.hypot(0.12, 0.05))
        assert vals["scheme"] == "bilinear,linear,linear"
        assert vals["scheme_effective"] == "bilinear,linear,linear"

    def test_scheme_degradation_reported(self, capsys, tmp_path):
        # one depth level and two time steps cannot support cubic stages
        grid = make_uniform_grid(0.1, 0.0, nz=1, nt=2)
        path = tmp_path / "thin.json"
        save_flow_grid(grid, path)
        code, stdout, _ = run_cli(
            capsys, "sample", str(path), "--x", "50000", "--y", "50000",
            "--scheme", "bicubic,akima,akima")
        assert code == EXIT_OK
        vals = parse_kv(stdout)
        assert vals["scheme"] == "bicubic,akima,akima"
        assert vals["scheme_effective"] == "bicubic,nearest,linear"

    def test_out_of_domain(self, capsys, flow_file):
        code, stdout, err = run_cli(
            capsys, "sample", str(flow_file), "--x", "-5000", "--y", "0")
        assert code == EXIT_INFEASIBLE
        assert parse_kv(stdout)["status"] == "out_of_domain"
        assert "message" in parse_kv(err)

    def test_land_contact(self, capsys, tmp_path):
        path = tmp_path / "land.json"
        save_flow_grid(make_land_grid(), path)
        code, stdout, _ = run_cli(
            capsys, "sample", str(path), "--x", "29000", "--y", "25000")
        assert code == EXIT_INFEASIBLE
        assert parse_kv(stdout)["status"] == "land_contact"

    def test_malformed_scheme_flag(self, capsys, flow_file):
        code, _, err = run_cli(
            capsys, "sample", str(flow_file), "--x", "0", "--y", "0",
            "--scheme", "bilinear,linear")
        assert code == EXIT_ERROR
        assert "--scheme" in err

    def test_unknown_method_name(self, capsys, flow_file):
        code, _, err = run_cli(
            capsys, "sample", str(flow_file), "--x", "0", "--y", "0",
            "--scheme", "bilinear,quintic,linear")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_missing_archive(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sample", str(tmp_path / "nope.json"),
            "--x", "0", "--y", "0")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_corrupt_archive(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("hello world\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "sample", str(bad), "--x", "0", "--y", "0")
        assert code == EXIT_ERROR
        assert err.startswith("error:")


class TestPlan:
    def test_successful_plan_writes_outputs(self, capsys, tmp_path,
                                            mission_file):
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "plan", str(mission_file),
                                  "--out", str(out_dir))
        assert code == EXIT_OK
        vals = parse_kv(stdout)
        assert vals["status"] == "ok"
        assert "smoothing_iterations" in vals

        wp = out_dir / "waypoints.json"
        svg = out_dir / "plan.svg"
        txt = out_dir / "summary.txt"
        assert vals["waypoints_file"] == str(wp)
        assert vals["svg_file"] == str(svg)
        assert vals["summary_file"] == str(txt)
        doc = json.loads(wp.read_text(encoding="utf-8"))
        assert doc["version"] == 1
        assert doc["totals"]["status"] == "ok"
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        # the summary file holds exactly the printed summary lines
        summary = txt.read_text(encoding="utf-8").splitlines()
        printed = stdout.splitlines()[:len(summary)]
        assert summary == printed

    def test_archive_with_non_numeric_values_exits_1(self, capsys, tmp_path,
                                                     mission_file):
        doc = json.loads((tmp_path / "flow.json").read_text(encoding="utf-8"))
        doc["u"][3] = "0.1"
        (tmp_path / "flow.json").write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "plan", str(mission_file),
                               "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert err.startswith("error: u: must be a flat array of numbers")

    def test_no_smooth_flag(self, capsys, tmp_path, mission_file):
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "plan", str(mission_file),
                                  "--out", str(out_dir), "--no-smooth")
        assert code == EXIT_OK
        vals = parse_kv(stdout)
        assert "smoothing_iterations" not in vals
        assert vals["waypoints_initial"] == vals["waypoints_smoothed"]

    def test_infeasible_mission_exits_2(self, capsys, tmp_path):
        mission = write_mission(tmp_path, make_land_grid())
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "plan", str(mission),
                                  "--out", str(out_dir))
        assert code == EXIT_INFEASIBLE
        vals = parse_kv(stdout)
        assert vals["status"] == "infeasible"
        # outputs are still written for inspection
        assert (out_dir / "waypoints.json").exists()
        assert (out_dir / "plan.svg").exists()
        assert (out_dir / "summary.txt").exists()

    def test_bad_mission_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"flow": "flow.json"}), encoding="utf-8")
        save_flow_grid(make_uniform_grid(), tmp_path / "flow.json")
        code, _, err = run_cli(capsys, "plan", str(bad))
        assert code == EXIT_ERROR
        assert "missing required key" in err

    @pytest.mark.parametrize("overrides,key", [
        ({"grid_spacing": math.nan}, "grid_spacing"),
        ({"slack_factor": math.nan}, "slack_factor"),
        ({"h": math.inf}, "h"),
        ({"start": {"x": math.nan, "y": 25000.0}}, "start.x"),
        ({"n_sub": 2.7}, "n_sub"),
        ({"neighbor_set": 16.5}, "neighbor_set"),
        ({"profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                             "z_max": 100.0, "z_min_range": 40.0,
                             "n_climb_to_levels": 1.5}},
         "profile_family.n_climb_to_levels"),
        ({"profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                             "z_max": 100.0, "z_min_range": 40.0,
                             "n_dive_to_levels": 2.5}},
         "profile_family.n_dive_to_levels"),
    ])
    def test_bad_value_exits_1_naming_the_key(self, capsys, tmp_path,
                                              overrides, key):
        path = write_mission(tmp_path, make_uniform_grid(
            0.1, 0.0, extent=50000.0, depth=200.0), overrides)
        code, out, err = run_cli(capsys, "plan", str(path), "--out",
                                 str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and f"{key}: must be" in err

    @pytest.mark.parametrize("overrides,message", [
        ({"profile_family": {"z_min": 0.0, "z_climb_to_max": 0.0,
                             "z_max": 100.0, "z_min_range": 40.0,
                             "n_dive_levels": 3}},
         "profile_family.n_dive_levels: unknown key"),
        ({"scheme": {"xy": "bilinear", "zz": "linear"}},
         "scheme.zz: unknown key"),
        ({"projection_origin": {"lat": 44.0, "lon": -63.0},
          "start": {"x": 10000.0, "y": 25000.0, "lat": 44.1}},
         "start: give either x/y or lat/lon, not both"),
    ])
    def test_ignored_key_exits_1_naming_the_key(self, capsys, tmp_path,
                                                overrides, message):
        path = write_mission(tmp_path, make_uniform_grid(
            0.1, 0.0, extent=50000.0, depth=200.0), overrides)
        code, out, err = run_cli(capsys, "plan", str(path), "--out",
                                 str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        ("plan", "--out", "{out}"),
        ("sweep", "--vary", "vehicle_speed", "--values", "0.3,0.4"),
    ])
    def test_archive_is_loaded_once(self, capsys, tmp_path, mission_file,
                                    monkeypatch, argv):
        import gliderplan.cli as cli_mod
        import gliderplan.mission as mission_mod
        real = load_flow_grid
        loads = []

        def counting_load(path):
            loads.append(path)
            return real(path)

        for mod in (cli_mod, mission_mod):
            monkeypatch.setattr(mod, "load_flow_grid", counting_load)
        cmd, *rest = (a.format(out=tmp_path / "out") for a in argv)
        assert run_cli(capsys, cmd, str(mission_file), *rest)[0] == EXIT_OK
        assert len(loads) == 1

    def test_thread_count_is_immaterial(self, capsys, tmp_path, mission_file,
                                        monkeypatch):
        # planning is single-threaded: the old thread-count variable is
        # ignored and the --threads flag is gone
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.setenv("GLIDERPLAN_THREADS", "1")
        assert run_cli(capsys, "plan", str(mission_file), "--out",
                       str(a))[0] == EXIT_OK
        monkeypatch.setenv("GLIDERPLAN_THREADS", "4")
        assert run_cli(capsys, "plan", str(mission_file), "--out",
                       str(b))[0] == EXIT_OK
        assert run_cli(capsys, "plan", str(mission_file), "--out", str(b),
                       "--threads", "4")[0] == EXIT_ERROR
        assert ((a / "waypoints.json").read_bytes()
                == (b / "waypoints.json").read_bytes())
        assert (a / "plan.svg").read_bytes() == (b / "plan.svg").read_bytes()

    def test_svg_layer_flags(self, capsys, tmp_path, mission_file):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "plan", str(mission_file),
                             "--out", str(out_dir),
                             "--svg-depth", "100", "--svg-time", "3600")
        assert code == EXIT_OK
        assert (out_dir / "plan.svg").exists()


class TestSweep:
    def data_rows(self, stdout):
        lines = stdout.splitlines()
        assert lines[0].startswith("vary: ")
        assert lines[1].lstrip().startswith("value")
        return [ln.split() for ln in lines[2:] if ln.strip()]

    def test_vehicle_speed_sweep(self, capsys, mission_file):
        code, stdout, _ = run_cli(
            capsys, "sweep", str(mission_file),
            "--vary", "vehicle_speed", "--values", "0.25,0.35")
        assert code == EXIT_OK
        rows = self.data_rows(stdout)
        assert [r[0] for r in rows] == ["0.25", "0.35"]
        assert all(r[1] == "ok" for r in rows)
        # faster vehicle arrives sooner
        assert float(rows[0][3]) > float(rows[1][3])

    def test_grid_spacing_sweep(self, capsys, mission_file):
        code, stdout, _ = run_cli(
            capsys, "sweep", str(mission_file),
            "--vary", "grid_spacing", "--values", "10000, 12500")
        assert code == EXIT_OK
        assert len(self.data_rows(stdout)) == 2

    def test_method_sweeps(self, capsys, mission_file):
        code, stdout, _ = run_cli(
            capsys, "sweep", str(mission_file),
            "--vary", "xy_method", "--values", "nearest,bilinear,bicubic")
        assert code == EXIT_OK
        assert len(self.data_rows(stdout)) == 3
        code, stdout, _ = run_cli(
            capsys, "sweep", str(mission_file),
            "--vary", "zt_method", "--values", "nearest,linear")
        assert code == EXIT_OK
        assert all(r[1] == "ok" for r in self.data_rows(stdout))

    def test_infeasible_case_marks_row_and_exit(self, capsys, tmp_path):
        # against a 0.06 m/s headwind a 0.05 m/s vehicle cannot make way
        mission = write_mission(
            tmp_path, make_uniform_grid(-0.06, 0.0, extent=50000.0))
        code, stdout, _ = run_cli(
            capsys, "sweep", str(mission),
            "--vary", "vehicle_speed", "--values", "0.3,0.05")
        assert code == EXIT_INFEASIBLE
        rows = self.data_rows(stdout)
        assert rows[0][1] == "ok"
        assert rows[1][1] == "infeasible"
        assert rows[1][2] == "-"

    @pytest.mark.parametrize("vary,values,key", [
        ("grid_spacing", "abc", "grid_spacing: must be a number"),
        ("grid_spacing", "nan", "grid_spacing: must be a number"),
        ("grid_spacing", "NaN", "grid_spacing: must be a finite number"),
        ("grid_spacing", "-5", "grid_spacing: must be positive"),
        ("vehicle_speed", "abc",
         "vehicle.speed_through_water: must be a number"),
        ("vehicle_speed", "0.3,0", "vehicle.speed_through_water: must lie"),
        ("xy_method", "quintic", "scheme.xy: must be"),
        ("zt_method", "linear,5", "scheme.z: must be a string"),
    ])
    def test_bad_value_exits_1_before_planning(self, capsys, mission_file,
                                               vary, values, key):
        # each value is read as the mission file's own would be, and all
        # of them before the first plan, so no table row is printed
        code, out, err = run_cli(capsys, "sweep", str(mission_file),
                                 "--vary", vary, "--values", values)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"error: {key}")

    def test_lattice_too_large_fails_fast(self, capsys, mission_file):
        # 0.001 m over 50 km would be ~4e16 edges: refused by estimate
        code, _, err = run_cli(capsys, "sweep", str(mission_file),
                               "--vary", "grid_spacing", "--values", "0.001")
        assert code == EXIT_ERROR
        assert err.startswith("error: grid_spacing: ")

    def test_lattice_budget_is_checked_when_its_case_plans(self, capsys,
                                                           mission_file):
        # the budget needs the lattice, so only the key checks run before
        # the first plan: the rows before the refused spacing are printed
        code, out, err = run_cli(capsys, "sweep", str(mission_file),
                                 "--vary", "grid_spacing",
                                 "--values", "10000,0.001")
        assert code == EXIT_ERROR
        assert [r[1] for r in self.data_rows(out)] == ["ok"]
        assert err.startswith("error: grid_spacing: ")

    def test_empty_values(self, capsys, mission_file):
        code, _, err = run_cli(capsys, "sweep", str(mission_file),
                               "--vary", "vehicle_speed", "--values", " , ")
        assert code == EXIT_ERROR
        assert "--values" in err

    def test_unknown_vary_choice(self, capsys, mission_file):
        code, _, err = run_cli(capsys, "sweep", str(mission_file),
                               "--vary", "h", "--values", "0.5")
        assert code == EXIT_ERROR
        assert "invalid choice" in err


class TestEntryPoint:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == EXIT_ERROR

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK
        assert "plan" in stdout and "sample" in stdout

    def test_missing_required_argument(self, capsys):
        assert run_cli(capsys, "plan")[0] == EXIT_ERROR

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "fly")[0] == EXIT_ERROR

    def test_module_is_executable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gliderplan.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gliderplan" in proc.stdout
