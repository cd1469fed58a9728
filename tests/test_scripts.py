"""Smoke tests of the scripts the README documents."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_gyre_mission_plans(tmp_path, capsys):
    demo = load_script("demo_gyre_mission")
    assert demo.main(["--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    for name in ("waypoints.json", "plan.svg", "summary.txt"):
        assert (tmp_path / name).stat().st_size > 0
    assert "status: ok" in stdout.splitlines()
    assert "status: ok" in (tmp_path / "summary.txt").read_text(
        encoding="utf-8").splitlines()


def test_compare_outputs_finds_a_tree_equal_to_itself(tmp_path, capsys):
    compare = load_script("compare_outputs")
    src = str(SCRIPTS.parent / "src")
    assert compare.main(["--parent", src, "--change", src, "--workload",
                         "drift-lattice:1", "--work", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("exit", "waypoints.json", "plan.svg", "summary.txt"):
        assert f"drift-lattice:1/{name}: same" in lines
    assert lines[-1] == "differences: 0"
