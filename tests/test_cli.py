import json
from pathlib import Path

import yaml

from subsim import cli, currents, meshtools, scenario
from subsim.bathymetry import save_heightmap

from conftest import flat_heightmap

REPO = Path(__file__).resolve().parents[1]


def test_validate_ok(capsys):
    rc = cli.main(["validate", str(REPO / "scenarios" / "demo.yaml")])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_problems(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"schema_version": 1, "duration": 5.0, "dt": 0.0}))
    rc = cli.main(["validate", str(bad)])
    assert rc == 1
    assert "dt must be positive" in capsys.readouterr().out


def test_run_with_overrides(tmp_path, capsys):
    doc = {"schema_version": 1, "seed": 3, "duration": 5.0, "dt": 0.1}
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = cli.main(["run", str(path), "--out", str(out), "--seed", "9", "--duration", "1.0"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["duration"] == 1.0


def test_run_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({"schema_version": 1, "duration": 5.0, "dt": 0.0}))
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_tiles_subcommand(tmp_path, capsys):
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), tmp_path / "dem.asc")
    out = tmp_path / "tiles"
    rc = cli.main(
        ["tiles", str(tmp_path / "dem.asc"), "--tile-size", "50", "--overlap", "5",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "tiles.csv").exists()
    assert len(list(out.glob("*.obj"))) == 4


def test_distort_subcommand(tmp_path):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    out = tmp_path / "distorted.obj"
    rc = cli.main(
        ["distort", str(src), "--extent", "0.5", "--seed", "7", "--subdivide", "1",
         "--out", str(out)]
    )
    assert rc == 0
    mesh = meshtools.load_obj(out)
    assert mesh.num_triangles == 16
    # Deterministic: a second run produces identical bytes.
    out2 = tmp_path / "d2.obj"
    cli.main(["distort", str(src), "--extent", "0.5", "--seed", "7", "--subdivide", "1",
              "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_missing_scenario_file_fails_cleanly(capsys):
    rc = cli.main(["validate", "/nonexistent/path.yaml"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_tide_series_ending_early_fails_validate_and_run(tmp_path, capsys):
    (tmp_path / "tide.csv").write_text("epoch_seconds,speed_mps\n0,0.2\n5,0.2\n")
    doc = {
        "schema_version": 1, "duration": 10.0, "dt": 0.1,
        "currents": {"tide": {"series": "tide.csv"}},
        "vehicles": [{"id": "v1", "trajectory": [{"time": 0.0, "x": 0.0, "y": 0.0, "depth": 5.0}],
                      "sensors": [{"type": "dvl", "rate": 5.0}]}],
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", str(path)]) == 1
    assert "(5.0, 10.0]" in capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(5.0, 10.0]" in err
    assert not out.exists()


def test_run_reports_current_errors_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_run(cfg, out_dir):
        raise currents.CurrentError("time 5.2 outside tide series span [0.0, 5.0]")

    monkeypatch.setattr(scenario, "run", failing_run)
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({"schema_version": 1, "duration": 1.0, "dt": 0.1}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: time 5.2 outside tide series span [0.0, 5.0]\n"
