import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from subsim import cli, currents, meshtools, scenario, sonar
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


def test_nonpositive_load_radius_fails_validate_and_run(tmp_path, capsys):
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), tmp_path / "w.asc")
    doc = {
        "schema_version": 1, "duration": 1.0, "dt": 0.1,
        "world": {"heightmap": "w.asc", "tile_size": 50.0, "overlap": 5.0,
                  "load_radius": 0.0, "unload_radius": 100.0},
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", str(path)]) == 1
    assert "world.load_radius must be positive" in capsys.readouterr().out
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subsim.cli", "run", str(path), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: world.load_radius must be positive\n"
    assert not out.exists()


def test_tiles_reports_non_ascii_dem_without_traceback(tmp_path, capsys):
    dem = tmp_path / "dem.asc"
    dem.write_bytes(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4µ\n".encode("utf-8")
    )
    assert cli.main(["tiles", str(dem), "--out", str(tmp_path / "tiles")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(dem) in err and "non-ASCII" in err


COPLANAR_BEAMS = [[0.0, -0.479425538604203, -0.8775825618903728], [0.0, 0.0, -1.0],
                  [0.0, 0.479425538604203, -0.8775825618903728],
                  [0.479425538604203, 0.0, -0.8775825618903728]]


@pytest.mark.parametrize(
    "beams, problem",
    [([[0.0, 0.0, -1.0]] * 4, "beams 1, 2, 3, 4 span rank 1, need 3"),
     (COPLANAR_BEAMS, "beams 1, 2, 3 span rank 2, need 3")],
    ids=["all-equal", "three-coplanar"],
)
def test_rank_deficient_dvl_beams_fail_validate_and_run(tmp_path, capsys, beams, problem):
    doc = {
        "schema_version": 1, "duration": 1.0, "dt": 0.1,
        "vehicles": [{"id": "auv", "trajectory": [{"time": 0.0, "x": 0.0, "y": 0.0, "depth": 5.0}],
                      "sensors": [{"type": "dvl", "name": "dvl", "rate": 5.0, "beams": beams}]}],
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"error: vehicle 'auv' sensor 'dvl': {problem}\n"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subsim.cli", "run", str(path), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: vehicle 'auv' sensor 'dvl': {problem}\n"
    assert not out.exists()


DEMO = REPO / "scenarios" / "demo.yaml"


def _demo_doc() -> dict:
    doc = yaml.safe_load(DEMO.read_text())
    doc["world"]["heightmap"] = str(REPO / "scenarios" / "demo_seafloor.asc")
    return doc


def _run_subprocess(path, out, *extra):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "subsim.cli", "run", str(path),
         "--out", str(out), *extra],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


SONAR_FIELDS = ["n_beams", "rays_per_beam", "vertical_rays", "spectral_bins",
                "horizontal_fov_rad", "vertical_fov_rad", "center_freq_hz", "bandwidth_hz",
                "sound_speed", "source_level", "beamwidth_rad", "reflectivity", "max_range"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0],
                         ids=["nan", "inf", "zero", "minus-one"])
@pytest.mark.parametrize("field", SONAR_FIELDS)
def test_sonar_field_mutation_fails_validate_or_runs_clean(tmp_path, capsys, field, value):
    doc = _demo_doc()
    fls = next(s for s in doc["vehicles"][0]["sensors"] if s["type"] == "sonar")
    fls[field] = value
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    rc = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    if rc == 1:
        assert f"error: vehicle 'rov1' sensor 'fls': {field} must be" in out
        return
    assert rc == 0 and out == "ok\n"
    proc = _run_subprocess(path, tmp_path / "out", "--duration", "4.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pings = sorted((tmp_path / "out" / "rov1" / "fls").glob("ping_*.csv"))
    assert len(pings) == 2
    for ping in pings:
        assert np.all(np.isfinite(sonar.load_aplot_csv(ping).intensities))


@pytest.mark.parametrize("field", ["amplitude", "phase", "heading"])
def test_non_finite_tide_value_fails_validate_and_run(tmp_path, capsys, field):
    doc = _demo_doc()
    tide = doc["currents"]["tide"]
    if field == "heading":
        tide["heading"] = float("nan")
    else:
        tide["constituents"][0][field] = float("nan")
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be finite, got nan" in err
    out = tmp_path / "out"
    proc = _run_subprocess(path, out, "--duration", "1.0")
    assert proc.returncode == 1
    assert proc.stderr == err
    assert not out.exists()
