import collections
import copy
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from subsim import bathymetry, cli, currents, dvl, lidar, meshtools, output, scenario, sonar, tiling
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
    assert "dt must be positive" in capsys.readouterr().err


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


@pytest.mark.parametrize("writer", ["write_g17", "write_ints"])
@pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()], ids=repr)
def test_distort_failing_mid_write_leaves_no_out_and_no_partial_file(tmp_path, capsys, monkeypatch,
                                                                     writer, failure):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    real = getattr(meshtools, writer)

    def write_then_fail(fh, *args, **kwargs):
        real(fh, *args, **kwargs)
        raise failure

    monkeypatch.setattr(meshtools, writer, write_then_fail)
    argv = ["distort", str(src), "--extent", "0.5", "--subdivide", "2", "--out", str(tmp_path / "out.obj")]
    # Ctrl-C is one error line and exit 1, as any other failure
    problem = "interrupted" if isinstance(failure, KeyboardInterrupt) else "disk full"
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["tet.obj"]


def test_distort_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    out = tmp_path / "missing" / "out.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: output directory {out.parent} does not exist\n")
    assert [p.name for p in tmp_path.iterdir()] == ["tet.obj"]


def test_missing_scenario_file_fails_cleanly(capsys):
    rc = cli.main(["validate", "/nonexistent/path.yaml"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_yaml_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: [1, 2\n")
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid YAML: ") and err.count("\n") == 1


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
    assert "(5.0, 10.0]" in capsys.readouterr().err
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
    assert "world.load_radius must be positive" in capsys.readouterr().err
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


def test_tiles_into_a_non_empty_out_fails_and_leaves_it_untouched(tmp_path, capsys):
    dem = tmp_path / "dem.asc"
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), dem)
    out = tmp_path / "tiles"
    assert cli.main(["tiles", str(dem), "--tile-size", "50", "--overlap", "5", "--out", str(out)]) == 0
    before = _tree(out)
    assert len(before) == 5  # tiles.csv and 4 tiles
    capsys.readouterr()
    # A second export with larger tiles would leave the first export's
    # tiles next to a manifest that does not list them.
    assert cli.main(["tiles", str(dem), "--tile-size", "100", "--overlap", "5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: output directory {out} is not empty\n")
    assert _tree(out) == before


def test_tiles_into_an_empty_existing_out(tmp_path):
    dem = tmp_path / "dem.asc"
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), dem)
    out = tmp_path / "tiles"
    out.mkdir()
    assert cli.main(["tiles", str(dem), "--tile-size", "50", "--overlap", "5", "--out", str(out)]) == 0
    assert len(list(out.glob("*.obj"))) == 4


# (header, problem): grids that reach beyond the Pseudo-Mercator domain.
OFF_MERCATOR_DEMS = {
    "north-of-85": ("xllcorner 0\nyllcorner 86\n", "latitude beyond +/-85.051129 deg cannot be projected"),
    "rows-cross-85": ("xllcorner 0\nyllcorner 85\n", "latitude beyond +/-85.051129 deg cannot be projected"),
    "east-of-180": ("xllcorner 200\nyllcorner 0\n", "longitude 200.0 outside [-180, 180]"),
}


@pytest.mark.parametrize("corner, problem", OFF_MERCATOR_DEMS.values(), ids=OFF_MERCATOR_DEMS.keys())
def test_dem_outside_the_mercator_domain_fails_tiles_and_run(tmp_path, capsys, corner, problem):
    dem = tmp_path / "w.asc"
    dem.write_text(f"ncols 2\nnrows 2\n{corner}cellsize 0.1\n40 41\n42 43\n")
    _assert_dem_fails_tiles_and_run(tmp_path, capsys, dem, problem)


# (header and values, problem): grids the Heightmap constructor refuses.
REFUSED_DEMS = {
    "cellsize-0": ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0\n40 41\n42 43\n",
                   "cell_size must be finite and positive"),
    "cellsize-nan": ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize nan\n40 41\n42 43\n",
                     "cell_size must be finite and positive"),
    "one-row": ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n40 41\n",
                "depth grid must be at least 2x2, got (1, 2)"),
    "inf-depth": ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n40 inf\n42 43\n",
                  "non-nodata depths must be finite"),
}


@pytest.mark.parametrize("text, problem", REFUSED_DEMS.values(), ids=REFUSED_DEMS.keys())
def test_dem_the_heightmap_refuses_fails_tiles_and_run_naming_the_file(tmp_path, capsys, text, problem):
    dem = tmp_path / "w.asc"
    dem.write_text(text)
    _assert_dem_fails_tiles_and_run(tmp_path, capsys, dem, problem)


@pytest.mark.parametrize("ncols, nrows", [("-2", "-2"), ("2", "0")])
def test_dem_with_a_non_positive_shape_fails_tiles_and_run(tmp_path, capsys, ncols, nrows):
    dem = tmp_path / "w.asc"
    dem.write_text(f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n40 41\n42 43\n")
    _assert_dem_fails_tiles_and_run(tmp_path, capsys, dem,
                                    f"ncols/nrows must be positive, got {ncols} and {nrows}")


def _assert_dem_fails_tiles_and_run(tmp_path, capsys, dem, problem):
    """`tiles` on the DEM and `run` on a scenario over it each end with
    one error line naming the file, and write no output."""
    out = tmp_path / "out"
    assert cli.main(["tiles", str(dem), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {dem}: {problem}\n")
    assert not out.exists()
    doc = {"schema_version": 1, "duration": 1.0, "dt": 0.1,
           "world": {"heightmap": dem.name, "tile_size": 50.0, "overlap": 5.0}}
    assert cli.main(["run", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {dem}: {problem}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, problem", [
    ("--tile-size", "nan", "tile_size must be finite, got nan"),
    ("--tile-size", "inf", "tile_size must be finite, got inf"),
    ("--overlap", "-5", "overlap must be finite and >= 0, got -5.0"),
    ("--overlap", "nan", "overlap must be finite and >= 0, got nan"),
])
def test_tiles_rejects_bad_tile_geometry(tmp_path, capsys, flag, value, problem):
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), tmp_path / "dem.asc")
    out = tmp_path / "tiles"
    assert cli.main(["tiles", str(tmp_path / "dem.asc"), flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_a_tile_size_too_small_to_count_fails_tiles_and_run(tmp_path, capsys):
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), tmp_path / "dem.asc")
    problem = "tile_size 1e-320 m cuts the 100 x 100 m extent into more than 1000000 tiles"
    out = tmp_path / "out"
    argv = ["tiles", str(tmp_path / "dem.asc"), "--tile-size", "1e-320", "--overlap", "0", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert not out.exists()
    doc = {"schema_version": 1, "duration": 1.0, "dt": 0.1,
           "world": {"heightmap": "dem.asc", "tile_size": 1e-320, "overlap": 0.0}}
    assert cli.main(["run", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert not out.exists()


def test_distort_rejects_a_negative_seed(tmp_path, capsys):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
    assert not out.exists()


def test_distort_reports_a_non_utf8_obj_without_traceback(tmp_path, capsys):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    src.write_bytes(src.read_bytes() + b"# made by \xff\n")
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {src}: not a UTF-8 OBJ file: byte b'\\xff'\n")
    assert not out.exists()


def test_distort_at_extent_zero_writes_the_tile_back_byte_for_byte(tmp_path):
    save_heightmap(flat_heightmap(30.0, n=21, cell_m=5.0), tmp_path / "dem.asc")
    tiles = tmp_path / "tiles"
    assert cli.main(["tiles", str(tmp_path / "dem.asc"), "--tile-size", "50", "--overlap", "5",
                     "--out", str(tiles)]) == 0
    for tile in sorted(tiles.glob("*.obj")):
        out = tmp_path / f"again_{tile.name}"
        assert cli.main(["distort", str(tile), "--extent", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == tile.read_bytes()


def test_distort_reports_a_bad_face_in_a_crlf_obj_by_line(tmp_path, capsys):
    src = tmp_path / "bad.obj"
    src.write_bytes(b"v 0 0 0\r\nv 1 0 0\r\nf 1 2 x\r\nv 0 1 0\r\n")
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {src}:3: bad face index 'x'\n")
    assert not out.exists()


def test_distort_refuses_too_many_subdivision_levels(tmp_path, capsys, monkeypatch):
    # Should the bound regress, fail here rather than try to allocate.
    monkeypatch.setattr(meshtools, "subdivide", lambda mesh: pytest.fail("subdivided past the bound"))
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--subdivide", "30", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: 30 subdivision levels make 4611686018427387904 triangles from 4; "
            f"distort makes at most {meshtools.MAX_TRIANGLES}\n")
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_distort_rejects_non_finite_scale(tmp_path, capsys, scale):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--scale", scale, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: scale must be finite and >= 0, got {scale}\n"
    assert not out.exists()


# (OBJ text, its bounding-box diagonal): meshes whose jitter has no finite bound.
NON_FINITE_OBJS = {
    "nan-vertex": (b"v 0 0 0\nv 1 0 0\nv 0 nan 0\nf 1 2 3\n", "nan"),
    "inf-vertex": (b"v 0 0 0\nv 1 0 0\nv 0 inf 0\nf 1 2 3\n", "inf"),
    "diagonal-past-the-float-range": (b"v -1e308 0 0\nv 1e308 0 0\nv 0 1 0\nf 1 2 3\n", "inf"),
}


@pytest.mark.parametrize("text, diagonal", NON_FINITE_OBJS.values(), ids=NON_FINITE_OBJS.keys())
def test_distort_refuses_a_mesh_without_a_finite_bound_before_subdividing(tmp_path, capsys, monkeypatch,
                                                                           text, diagonal):
    monkeypatch.setattr(meshtools, "subdivide", lambda mesh: pytest.fail("subdivided a refused mesh"))
    src = tmp_path / "m.obj"
    src.write_bytes(text)
    out = tmp_path / "distorted.obj"
    assert cli.main(["distort", str(src), "--extent", "0.5", "--subdivide", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: no finite displacement bound: extent 0.5 x 2% of the bounding-box diagonal {diagonal}\n")
    assert not out.exists()


def test_distort_subdivides_coordinates_near_the_float_limit(tmp_path):
    """Midpoints of coordinates past about 8.9e307 halve each end before the
    sum, which then cannot overflow to inf."""
    src = tmp_path / "m.obj"
    src.write_bytes(b"v 1e308 0 0\nv 1.5e308 0 0\nv 1e308 1 0\nf 1 2 3\n")
    out = tmp_path / "subdivided.obj"
    assert cli.main(["distort", str(src), "--extent", "0", "--subdivide", "1", "--out", str(out)]) == 0
    vertices = meshtools.load_obj(out).vertices
    assert len(vertices) == 6 and np.isfinite(vertices).all()
    assert vertices[3:, 0].tolist() == [1.25e308, 1.25e308, 1e308]


def test_distort_at_extent_zero_writes_a_nan_vertex_back_byte_for_byte(tmp_path):
    src = tmp_path / "m.obj"
    src.write_bytes(NON_FINITE_OBJS["nan-vertex"][0])
    out = tmp_path / "again.obj"
    assert cli.main(["distort", str(src), "--extent", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


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
    assert capsys.readouterr().err == f"error: vehicle 'auv' sensor 'dvl': {problem}\n"
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
    captured = capsys.readouterr()
    if rc == 1:
        assert f"error: vehicle 'rov1' sensor 'fls': {field} must be" in captured.err
        return
    assert rc == 0 and captured.out == "ok\n"
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


# Every scalar of the demo (ids, names, types and the heightmap path
# aside) replaced in turn by each value below: the scenario must either
# fail `validate` with `error:` lines on stderr, or run cleanly.
MUTATIONS = {"nan": float("nan"), "inf": float("inf"), "minus-one": -1, "zero": 0, "abc": "abc",
             "pair": [1, 2], "subnormal": 5e-324, "1e300": 1e300, "minus-1e300": -1e300, "1e308": 1e308}
_NOT_MUTATED = {"id", "name", "type", "heightmap", "station", "plug_vehicle"}


def _leaves(node, path=()):
    """Paths to the scalars of a YAML tree; a list of numbers is one leaf."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and all(isinstance(item, dict) for item in node):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items if key not in _NOT_MUTATED for leaf in _leaves(value, path + (key,))]


_DEMO_DOC = _demo_doc()
# libyaml's emitter where PyYAML has it: the same text, faster.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_mutated(tmp_path, path, value):
    doc = copy.deepcopy(_DEMO_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario_path = tmp_path / "s.yaml"
    scenario_path.write_text(yaml.dump(doc, Dumper=_DUMPER))
    return scenario_path


# The probes that passed `validate` and then failed, or hung, in `run`.
REPORTED = {
    "waypoint-x-nan": (("vehicles", 0, "trajectory", 0, "x"), float("nan")),
    "waypoint-y-nan": (("vehicles", 0, "trajectory", 0, "y"), float("nan")),
    "waypoint-depth-nan": (("vehicles", 0, "trajectory", 0, "depth"), float("nan")),
    "waypoint-pitch-nan": (("vehicles", 0, "trajectory", 0, "pitch"), float("nan")),
    "waypoint-yaw-nan": (("vehicles", 0, "trajectory", 0, "yaw"), float("nan")),
    "dt-nan": (("dt",), float("nan")),
    "seed-minus-one": (("seed",), -1),
    "world-tile-size-nan": (("world", "tile_size"), float("nan")),
    "lidar-rays-h-inf": (("vehicles", 0, "sensors", 2, "rays_h"), float("inf")),
    "gauss-markov-bound-minus-one": (("currents", "gauss_markov", "bound"), -1),
    "duration-typo": (("duratoin",), 60.0),
    "teleport-half-step": (("vehicles", 0, "teleports", 0, "time"), 0.05),
    "gauss-markov-sigma-1e300": (("currents", "gauss_markov", "sigma"), 1e300),
    "tide-period-subnormal": (("currents", "tide", "constituents", 0, "period"), 5e-324),
    "waypoint-x-1e308": (("vehicles", 0, "trajectory", 0, "x"), 1e308),
    "waypoint-time-subnormal": (("vehicles", 0, "trajectory", 1, "time"), 5e-324),
    "sonar-bandwidth-subnormal": (("vehicles", 0, "sensors", 1, "bandwidth_hz"), 5e-324),
    "dvl-noise-sigma-1e308": (("vehicles", 0, "sensors", 0, "noise_sigma"), 1e308),
    "lidar-range-noise-sigma-1e308": (("vehicles", 0, "sensors", 2, "range_noise_sigma"), 1e308),
}
# The start of the one line of the finite extremes: each names its field.
REPORTED_FIELDS = {
    "teleport-half-step": "vehicle 'rov1' teleports[0]: time 0.05 is half a step of dt 0.1",
    "gauss-markov-sigma-1e300": "currents gauss_markov: mu 0.05 and sigma 1e+300 give no finite step",
    "tide-period-subnormal": "currents tide constituents[0]: period 5e-324 s gives no finite phase",
    "waypoint-x-1e308": "vehicle 'rov1' trajectory[0]: x 1e+308 m is outside the Mercator square",
    "waypoint-time-subnormal": "vehicle 'rov1' trajectory[1]: time 5e-324 s after 0.0 s gives no finite "
                               "segment velocity",
    "sonar-bandwidth-subnormal": "vehicle 'rov1' sensor 'fls': sound_speed 1500.0 and bandwidth_hz 5e-324 give "
                                 "no finite range bins",
    "dvl-noise-sigma-1e308": "vehicle 'rov1' sensor 'dvl': noise_sigma must be in [0, 1e+300], got 1e+308",
    "lidar-range-noise-sigma-1e308": "vehicle 'rov1' sensor 'lidar': range_noise_sigma must be in [0, 1e+300], "
                                     "got 1e+308",
}
_REPORTED_PAIRS = {(path, repr(value)) for path, value in REPORTED.values()}
DEMO_MUTATIONS = [
    pytest.param(path, value, id=".".join(map(str, path)) + "-" + value_id)
    for path in _leaves(_DEMO_DOC)
    for value_id, value in MUTATIONS.items()
    if (path, repr(value)) not in _REPORTED_PAIRS
]


@pytest.mark.parametrize("path, value", DEMO_MUTATIONS)
def test_demo_mutation_fails_validate_or_runs_clean(tmp_path, capsys, path, value):
    scenario_path = _write_mutated(tmp_path, path, value)
    rc = cli.main(["validate", str(scenario_path)])
    captured = capsys.readouterr()
    if rc == 1:
        assert captured.out == "" and captured.err
        assert all(line.startswith("error: ") for line in captured.err.splitlines())
        return
    assert rc == 0 and captured.out == "ok\n" and captured.err == ""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(scenario_path), "--out", str(out), "--duration", "1"]) == 0
    _assert_products_finite(out)


def _assert_products_finite(out: Path) -> None:
    """A clean demo run's products are finite: every sonar intensity, every
    run-log cell (``nan`` stays, for a value a tick did not have) and every
    PLY coordinate."""
    pings = sorted((out / "rov1" / "fls").glob("ping_*.csv"))
    assert pings
    for ping in pings:
        assert np.all(np.isfinite(sonar.load_aplot_csv(ping).intensities))
    for log in [*out.glob("*.csv"), *out.glob("*/*.csv")]:
        cells = set(log.read_bytes().replace(b"\n", b",").split(b","))
        assert not cells & {b"inf", b"-inf"}, log
    plys = sorted(out.glob("*/*/scan_*.ply"))
    assert plys
    for ply in plys:
        rows = lidar.read_ply(ply)
        assert all(np.isfinite(rows[axis]).all() for axis in "xyz"), ply


@pytest.mark.parametrize("path, value", REPORTED.values(), ids=REPORTED.keys())
def test_reported_mutation_fails_validate_and_run(tmp_path, capsys, path, value):
    scenario_path = _write_mutated(tmp_path, path, value)
    assert cli.main(["validate", str(scenario_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    out = tmp_path / "out"
    # A subprocess under a timeout: the waypoint-y-nan run once never ended.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "subsim.cli", "run", str(scenario_path),
         "--out", str(out), "--duration", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == err
    assert not out.exists()


@pytest.mark.parametrize("key", REPORTED_FIELDS)
def test_reported_finite_extreme_names_its_field(tmp_path, capsys, key):
    assert cli.main(["validate", str(_write_mutated(tmp_path, *REPORTED[key]))]) == 1
    assert capsys.readouterr().err.startswith(f"error: {REPORTED_FIELDS[key]}")


# Finite extremes that pass `validate`: each must run clean, with
# RuntimeWarnings as errors.
FINITE_EXTREMES_THAT_RUN = {
    # A ray cast from 1e308 m down overflows its gap over every cell: a miss.
    "waypoint-depth-1e308": (("vehicles", 0, "trajectory", 0, "depth"), 1e308),
}


@pytest.mark.parametrize("path, value", FINITE_EXTREMES_THAT_RUN.values(), ids=FINITE_EXTREMES_THAT_RUN.keys())
def test_finite_extreme_validates_and_runs_clean(tmp_path, capsys, path, value):
    scenario_path = _write_mutated(tmp_path, path, value)
    assert cli.main(["validate", str(scenario_path)]) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "subsim.cli", "run", str(scenario_path),
         "--out", str(out), "--duration", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    _assert_products_finite(out)


def _count_calls(monkeypatch, targets) -> collections.Counter:
    calls = collections.Counter()
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_run_validates_once_and_reads_the_dem_header_once(tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, [(scenario, "validate"), (bathymetry, "grid_extent")])
    assert cli.main(["run", str(DEMO), "--out", str(tmp_path / "out"), "--duration", "1"]) == 0
    assert calls == {"validate": 1, "grid_extent": 1}
    assert capsys.readouterr().err == ""


def test_an_invalid_run_validates_once_and_prints_each_problem(tmp_path, monkeypatch, capsys):
    cfg = dataclasses.replace(scenario.load_scenario(DEMO), seed=-1, dt=0.3)
    problems = scenario.validate(cfg)
    assert len(problems) >= 2
    calls = _count_calls(monkeypatch, [(scenario, "validate"), (bathymetry, "grid_extent")])
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMO), "--out", str(out), "--seed", "-1", "--dt", "0.3"]) == 1
    assert calls == {"validate": 1, "grid_extent": 1}
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "".join(f"error: {problem}\n" for problem in problems)
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, problem",
    [("--dt", "nan", "dt must be positive and finite, got nan"),
     ("--seed", "-1", "seed must be >= 0, got -1"),
     ("--duration", "inf", "duration must be >= 0 and finite, got inf"),
     ("--duration", "nan", "duration must be >= 0 and finite, got nan")],
    ids=["dt-nan", "seed-minus-one", "duration-inf", "duration-nan"],
)
def test_run_override_fails_validate(tmp_path, capsys, flag, value, problem):
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMO), "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {problem}\n"
    assert not out.exists()


def test_each_sensor_config_is_built_once_per_run(tmp_path, monkeypatch):
    built = collections.Counter()
    for cls in (dvl.DvlConfig, sonar.SonarConfig, lidar.LidarConfig):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert cli.main(["run", str(DEMO), "--out", str(tmp_path / "out"), "--duration", "1"]) == 0
    assert built == {"DvlConfig": 1, "SonarConfig": 1, "LidarConfig": 1}


def _assert_fails_validate_and_run(tmp_path, capsys, scenario_path, problem):
    assert cli.main(["validate", str(scenario_path)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_path), "--out", str(out), "--duration", "1"]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_a_demo_dem_with_a_nan_cellsize_fails_validate_and_run(tmp_path, capsys):
    dem = tmp_path / "demo_seafloor.asc"
    text = (REPO / "scenarios" / "demo_seafloor.asc").read_text()
    assert "\ncellsize 0.00027\n" in text
    dem.write_text(text.replace("\ncellsize 0.00027\n", "\ncellsize nan\n"))
    doc = copy.deepcopy(_DEMO_DOC)
    doc["world"]["heightmap"] = str(dem)
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"{dem}: cell_size must be finite and positive")


def test_a_demo_dem_with_an_inf_depth_fails_validate_and_run(tmp_path, capsys):
    """`validate` reads the DEM's values as a run does: a depth the
    heightmap refuses is the run's one error line there too."""
    dem = tmp_path / "demo_seafloor.asc"
    lines = (REPO / "scenarios" / "demo_seafloor.asc").read_text().split("\n")
    assert lines[5].startswith("nodata_value")  # the header's last line
    lines[6] = "inf " + lines[6].split(" ", 1)[1]
    dem.write_text("\n".join(lines))
    doc = copy.deepcopy(_DEMO_DOC)
    doc["world"]["heightmap"] = str(dem)
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"{dem}: non-nodata depths must be finite")


@pytest.mark.parametrize("sensor, name, field", [(0, "dvl", "pan_deg"), (0, "dvl", "tilt_deg"),
                                                 (1, "fls", "pan_deg"), (1, "fls", "tilt_deg")])
def test_mount_field_on_a_sensor_without_mount_fails_validate(tmp_path, capsys, sensor, name, field):
    scenario_path = _write_mutated(tmp_path, ("vehicles", 0, "sensors", sensor, field), 45.0)
    _assert_fails_validate_and_run(tmp_path, capsys, scenario_path,
                                   f"vehicle 'rov1' sensor {name!r}: unknown field {field!r}")


@pytest.mark.parametrize("field, limit", [("pan_deg", 175.0), ("tilt_deg", 30.0)])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_lidar_mount_beyond_its_limit_fails_validate(tmp_path, capsys, field, limit, sign):
    path = ("vehicles", 0, "sensors", 2, field)
    assert cli.main(["validate", str(_write_mutated(tmp_path, path, sign * limit))]) == 0
    assert capsys.readouterr().out == "ok\n"
    beyond = sign * (limit + 0.5)
    _assert_fails_validate_and_run(tmp_path, capsys, _write_mutated(tmp_path, path, beyond),
                                   f"vehicle 'rov1' sensor 'lidar': {field} {beyond} is outside "
                                   f"the mount limit +/-{limit}")


# A vehicle id, sensor name or coupling id names a file or directory under
# --out; "<abs>" stands for an absolute path inside the test's directory.
UNSAFE_NAMES = {"empty": "", "dot": ".", "dotdot": "..", "escape": "../../escaped", "absolute": "<abs>",
                "slash": "a/b", "backslash": "a\\b", "nul": "a\0b"}
NAMED = {
    "vehicle": (("vehicles", 0, "id"), "vehicle id {name!r}"),
    "sensor": (("vehicles", 0, "sensors", 2, "name"), "vehicle 'rov1' sensor name {name!r}"),
    "coupling": (("couplings", 0, "id"), "coupling id {name!r}"),
}


@pytest.mark.parametrize("name", UNSAFE_NAMES.values(), ids=UNSAFE_NAMES.keys())
@pytest.mark.parametrize("path, label", NAMED.values(), ids=NAMED.keys())
def test_ids_and_names_must_stay_inside_out(tmp_path, capsys, path, label, name):
    name = str(tmp_path / "abs") if name == "<abs>" else name
    scenario_path = _write_mutated(tmp_path, path, name)
    problem = f"error: {label.format(name=name)} must be a plain file name"
    assert cli.main(["validate", str(scenario_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(problem) and err.count("\n") == 1
    out = tmp_path / "a" / "b" / "out"
    assert cli.main(["run", str(scenario_path), "--out", str(out), "--duration", "1"]) == 1
    assert capsys.readouterr().err == err
    assert [p.name for p in tmp_path.iterdir()] == ["s.yaml"]


def _write_doc(tmp_path, doc):
    scenario_path = tmp_path / "s.yaml"
    scenario_path.write_text(yaml.dump(doc, Dumper=_DUMPER))
    return scenario_path


def test_duplicate_sensor_names_fail_validate(tmp_path, capsys):
    doc = copy.deepcopy(_DEMO_DOC)
    sensors = doc["vehicles"][0]["sensors"]
    sensors.append(dict(sensors[2], tilt_deg=0.0))  # a second lidar named "lidar"
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   "duplicate vehicle 'rov1' sensor name 'lidar'")


def test_duplicate_coupling_ids_fail_validate(tmp_path, capsys):
    doc = copy.deepcopy(_DEMO_DOC)
    doc["couplings"].append(copy.deepcopy(doc["couplings"][0]))
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc), "duplicate coupling id 'lead1'")


# Each kind of path that two owners can claim: a sensor log on the pose log,
# an ADCP log on another DVL's log, and a vehicle directory on the manifest.
def _dvl_named_pose(doc):
    doc["vehicles"][0]["sensors"][0]["name"] = "pose"


def _dvl_next_to_its_adcp_name(doc):
    sensors = doc["vehicles"][0]["sensors"]
    sensors[0]["name"] = "a"  # the demo DVL has ADCP bins, so it writes a.csv and a_adcp.csv
    sensors.append({"type": "dvl", "name": "a_adcp", "rate": 5.0})


def _vehicle_named_manifest(doc):
    doc["vehicles"][0]["id"] = "manifest.json"


PATH_CLASHES = {
    "dvl-pose": (_dvl_named_pose, "output path 'rov1/pose.csv' is written by both vehicle 'rov1' pose log "
                                  "and vehicle 'rov1' sensor 'pose'"),
    "adcp-log": (_dvl_next_to_its_adcp_name, "output path 'rov1/a_adcp.csv' is written by both "
                                             "vehicle 'rov1' sensor 'a' and vehicle 'rov1' sensor 'a_adcp'"),
    "vehicle-manifest": (_vehicle_named_manifest, "output path 'manifest.json' is written by both "
                                                  "the run manifest and vehicle 'manifest.json' pose log"),
}


@pytest.mark.parametrize("mutate, problem", PATH_CLASHES.values(), ids=PATH_CLASHES.keys())
def test_two_owners_of_one_output_path_fail_validate(tmp_path, capsys, mutate, problem):
    doc = copy.deepcopy(_DEMO_DOC)
    mutate(doc)
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc), problem)


def test_run_paths_lists_every_file_of_a_demo_run(tmp_path):
    cfg = scenario.load_scenario(DEMO)
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "4"]) == 0
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    declared = dict(scenario.run_paths(cfg))
    files = {p for p in declared if not p.endswith("/")}
    assert files <= written
    assert all(any(p.startswith(d) for d in declared if d.endswith("/")) for p in written - files)
    assert sorted(declared) == ["coupling_lead1.csv", "manifest.json", "rov1/dvl.csv", "rov1/dvl_adcp.csv",
                                "rov1/fls/", "rov1/lidar/", "rov1/pose.csv", "rov2/pose.csv",
                                "tile_events.csv"]


@pytest.mark.parametrize("dt, duration", [("1e-6", "60"), ("5e-324", "60")], ids=["tiny-dt", "subnormal-dt"])
def test_step_count_beyond_the_limit_fails_validate_and_run(tmp_path, capsys, dt, duration):
    steps = float(duration) / float(dt)
    problem = f"error: duration / dt is {steps:.6g} steps; a run takes at most {scenario.MAX_STEPS}\n"
    doc = copy.deepcopy(_DEMO_DOC)
    doc["dt"], doc["duration"] = float(dt), float(duration)
    assert cli.main(["validate", str(_write_doc(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == problem
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMO), "--out", str(out), "--dt", dt, "--duration", duration]) == 1
    assert capsys.readouterr().err == problem
    assert not out.exists()


def test_subnormal_dt_with_zero_duration_reports_sensor_periods(tmp_path, capsys):
    # period / dt overflows; each sensor's period is then no multiple of dt
    assert cli.main(["run", str(DEMO), "--out", str(tmp_path / "out"), "--dt", "5e-324", "--duration", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "".join(f"error: vehicle 'rov1' sensor {name!r}: period {1.0 / rate} is not an integer "
                          "multiple of dt 5e-324\n" for name, rate in (("dvl", 5.0), ("fls", 0.25), ("lidar", 1.0)))
    assert not (tmp_path / "out").exists()


def test_step_count_at_the_limit_passes_the_step_check():
    cfg = scenario.load_scenario(DEMO)
    at_limit = dataclasses.replace(cfg, dt=60.0 / scenario.MAX_STEPS, duration=60.0)
    beyond = dataclasses.replace(at_limit, duration=60.0 * (1.0 + 1.0 / scenario.MAX_STEPS))
    assert [p for p in scenario.validate(at_limit) if "steps" in p] == []
    assert [p for p in scenario.validate(beyond) if "steps" in p] == [
        f"duration / dt is 1e+06 steps; a run takes at most {scenario.MAX_STEPS}"]


@pytest.mark.parametrize("row, problem", [("5", "expected 2 fields (time, speed), got ['5']"),
                                          ("5,0.2,1", "expected 2 fields (time, speed), got ['5', '0.2', '1']"),
                                          ("5,abc", "bad tide series row: ['5', 'abc']")],
                         ids=["one-field", "three-fields", "bad-value"])
def test_malformed_tide_series_row_fails_validate_and_run(tmp_path, capsys, row, problem):
    (tmp_path / "tide.csv").write_text(f"epoch_seconds,speed_mps\n0,0.2\n{row}\n10,0.2\n")
    doc = {
        "schema_version": 1, "duration": 1.0, "dt": 0.1,
        "currents": {"tide": {"series": "tide.csv"}},
        "vehicles": [{"id": "v1", "trajectory": [{"time": 0.0, "x": 0.0, "y": 0.0, "depth": 5.0}],
                      "sensors": [{"type": "dvl", "rate": 5.0}]}],
    }
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"currents tide: {tmp_path / 'tide.csv'}:3: {problem}")


def test_non_utf8_tide_series_fails_validate_and_run_naming_the_file(tmp_path, capsys):
    (tmp_path / "tide.csv").write_bytes(b"epoch_seconds,speed_mps\n0,0.2\n5,0.\xff\n")
    doc = {
        "schema_version": 1, "duration": 1.0, "dt": 0.1,
        "currents": {"tide": {"series": "tide.csv"}},
        "vehicles": [{"id": "v1", "trajectory": [{"time": 0.0, "x": 0.0, "y": 0.0, "depth": 5.0}],
                      "sensors": [{"type": "dvl", "rate": 5.0}]}],
    }
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"currents tide: {tmp_path / 'tide.csv'}: not a UTF-8 CSV file: byte b'\\xff'")


def test_bad_dem_token_leaves_no_output_directory(tmp_path, capsys):
    dem = tmp_path / "w.asc"
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), dem)
    lines = dem.read_text().split("\n")
    lines[6] = "x" + lines[6][lines[6].index(" "):]  # the first depth value of line 7
    dem.write_text("\n".join(lines))
    doc = {"schema_version": 1, "duration": 1.0, "dt": 0.1,
           "world": {"heightmap": "w.asc", "tile_size": 50.0, "overlap": 5.0}}
    scenario_path = _write_doc(tmp_path, doc)
    assert cli.main(["validate", str(scenario_path)]) == 1  # validate reads the depths as the run does
    assert capsys.readouterr().err == f"error: {dem}:7: bad depth value 'x'\n"
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {dem}:7: bad depth value 'x'\n"
    assert not out.exists()


def test_failed_open_closes_the_logs_opened_before_it(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    root = tmp_path / f".out.partial-{os.getpid()}"  # where the run is staged
    handles = []

    def blocked_sonar_open(self, stack, vehicle_dir, real_open=scenario.SonarSensor.open):
        (vehicle_dir / "fls").write_text("")  # a file where the sonar's directory goes
        real_open(self, stack, vehicle_dir)

    def recording_open(*args, real_open=open, **kwargs):
        handles.append(real_open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(scenario.SonarSensor, "open", blocked_sonar_open)
    monkeypatch.setattr("builtins.open", recording_open)
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists:")
    written = {Path(fh.name).relative_to(root).as_posix() for fh in handles if Path(fh.name).is_relative_to(root)}
    assert {"tile_events.csv", "rov1/pose.csv", "rov1/dvl.csv"} <= written
    assert all(fh.closed for fh in handles)
    assert list(tmp_path.iterdir()) == []


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_run_into_a_non_empty_out_fails_and_leaves_it_untouched(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "6"]) == 0
    before = _tree(out)
    assert {"rov1/fls/ping_00001.csv", "rov1/lidar/scan_00006.ply"} <= before.keys()
    capsys.readouterr()
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "2"]) == 1
    assert capsys.readouterr() == ("", f"error: output directory {out} is not empty\n")
    assert _tree(out) == before


def test_run_into_an_out_holding_only_an_empty_directory_fails(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "rov1").mkdir(parents=True)
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: output directory {out} is not empty\n")
    assert _tree(out) == {"rov1": None}


def test_run_into_an_empty_existing_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["duration"] == 1.0


def test_sigint_mid_run_is_one_error_line_and_leaves_nothing(tmp_path):
    out = tmp_path / "new" / "out"  # its parent is created, then removed again
    proc = subprocess.Popen(
        [sys.executable, "-m", "subsim.cli", "run", str(DEMO), "--duration", "600", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    try:
        deadline = time.monotonic() + 60.0
        while not list(out.parent.glob(".out.partial-*")):  # the run has begun writing
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert (stdout, stderr) == ("", "error: interrupted\n")
    assert list(tmp_path.iterdir()) == []


def _fail_on_call(monkeypatch, module, name, call):
    """Make ``module.name`` raise OSError on its ``call``-th call; the calls
    before it run as they would."""
    real, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    return calls


@pytest.mark.parametrize("existing", [False, True, None], ids=["new-out", "empty-out", "new-parents"])
def test_run_failing_after_the_first_sonar_product_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, existing):
    out = tmp_path / "out" if existing is not None else tmp_path / "new" / "runs" / "out"
    if existing:
        out.mkdir()
        before = os.stat(out)
    calls = _fail_on_call(monkeypatch, sonar, "write_aplot_pgm", 2)
    assert cli.main(["run", str(DEMO), "--out", str(out), "--duration", "6"]) == 1
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert len(calls) == 2
    if existing:
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []
        assert os.stat(out).st_ino == before.st_ino
    else:
        assert list(tmp_path.iterdir()) == []


def test_tiles_failing_on_the_third_tile_leaves_nothing(tmp_path, capsys, monkeypatch):
    dem = tmp_path / "dem.asc"
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), dem)
    calls = _fail_on_call(monkeypatch, tiling, "_write_obj", 3)
    out = tmp_path / "mesh" / "tiles"
    assert cli.main(["tiles", str(dem), "--tile-size", "50", "--overlap", "5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert len(calls) == 3
    assert not (tmp_path / "mesh").exists()  # the parent the export created goes too


def test_a_failed_output_removes_only_the_empty_parents_it_created(tmp_path):
    (tmp_path / "a").mkdir()
    with pytest.raises(OSError, match="disk full"):
        with output.staged(tmp_path / "a" / "b" / "c" / "out", directory=True) as root:
            (root / "written").write_bytes(b"1")
            (tmp_path / "a" / "b" / "other").write_bytes(b"2")  # not the output's to remove
            raise OSError("disk full")
    assert _tree(tmp_path) == {"a": None, "a/b": None, "a/b/other": b"2"}


def test_a_whole_output_keeps_the_parents_it_created(tmp_path):
    with output.staged(tmp_path / "a" / "b" / "out", directory=True) as root:
        (root / "written").write_bytes(b"1")
    assert _tree(tmp_path) == {"a": None, "a/b": None, "a/b/out": None, "a/b/out/written": b"1"}


def _no_work(monkeypatch):
    """Fail the test if a run or a tile export reads its DEM, builds a tile,
    steps or writes a tile."""
    def refused(*args, **kwargs):
        raise AssertionError("the output should have been refused before this")

    monkeypatch.setattr(bathymetry, "load_heightmap", refused)
    monkeypatch.setattr(tiling, "generate_tiles", refused)
    monkeypatch.setattr(scenario.Simulation, "_advance_vehicles", refused)
    monkeypatch.setattr(tiling, "_write_obj", refused)


def _output_argv(command, tmp_path, out):
    dem = tmp_path / "dem.asc"
    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), dem)
    return {"run": ["run", str(DEMO), "--duration", "1", "--out", out],
            "tiles": ["tiles", str(dem), "--tile-size", "50", "--overlap", "5", "--out", out]}[command]


@pytest.mark.parametrize("command", ["run", "tiles"])
def test_out_that_is_the_working_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    argv = _output_argv(command, tmp_path, ".")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # empty: only the working-directory rule refuses it
    _no_work(monkeypatch)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: output . is the working directory\n")
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("out, problem", [(".", "output . is the working directory"),
                                          ("meshes", "output meshes exists and is not a file")])
def test_distort_into_a_directory_is_refused_before_distorting(tmp_path, capsys, monkeypatch, out, problem):
    src = tmp_path / "tet.obj"
    meshtools.save_obj(meshtools.unit_tetrahedron(), src)
    (tmp_path / "meshes").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(meshtools, "load_obj", lambda *args: pytest.fail("the mesh was read"))
    monkeypatch.setattr(meshtools, "distort", lambda *args: pytest.fail("the mesh was distorted"))
    assert cli.main(["distort", str(src), "--extent", "0.5", "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["meshes", "tet.obj"]


@pytest.mark.parametrize("command", ["run", "tiles"])
def test_out_that_is_an_existing_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    out.write_bytes(b"an earlier file\n")
    argv = _output_argv(command, tmp_path, str(out))
    _no_work(monkeypatch)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: output {out} exists and is not a directory\n")
    assert out.read_bytes() == b"an earlier file\n"
    assert not list(tmp_path.glob(".out.partial-*"))


@pytest.mark.parametrize("command", ["run", "tiles"])
def test_non_empty_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    (out / "earlier").mkdir(parents=True)
    argv = _output_argv(command, tmp_path, str(out))
    _no_work(monkeypatch)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: output directory {out} is not empty\n")
    assert _tree(out) == {"earlier": None}


def test_validate_reports_the_tile_count_from_the_dem_header_alone(tmp_path, capsys, monkeypatch):
    doc = copy.deepcopy(_DEMO_DOC)
    doc["world"]["tile_size"], doc["world"]["overlap"] = 1e-320, 0.0
    scenario_path = _write_doc(tmp_path, doc)
    problem = "error: tile_size 1e-320 m cuts the 3005.63 x 3005.63 m extent into more than 1000000 tiles\n"
    with monkeypatch.context() as m:
        m.setattr(bathymetry, "_read_values", lambda *args: pytest.fail("validate read a depth value"))
        assert cli.main(["validate", str(scenario_path)]) == 1
    assert capsys.readouterr() == ("", problem)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", problem)
    assert not out.exists()


def test_validate_reports_a_bad_dem_header_as_run_does(tmp_path, capsys):
    dem = tmp_path / "w.asc"
    dem.write_text("ncols -2\nnrows -2\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n40 41\n42 43\n")
    doc = {"schema_version": 1, "duration": 1.0, "dt": 0.1,
           "world": {"heightmap": "w.asc", "tile_size": 50.0, "overlap": 5.0}}
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"{dem}: ncols/nrows must be positive, got -2 and -2")


@pytest.mark.parametrize("sensor, fields, problem", [
    (2, {"rays_h": 200_000, "rays_v": 200_000, "supersample": 10},
     "rays_h * rays_v * supersample^2 is 4000000000000, more than 4194304"),
    (1, {"n_beams": 4096, "rays_per_beam": 4, "vertical_rays": 9},
     "rays * (spectral_bins + n_beams) is 754974720, more than 67108864"),
    (0, {"bins": 20_000, "bin_size": 0.001}, "bins must be <= 10000, got 20000"),
], ids=["lidar-rays", "sonar-entries", "adcp-bins"])
def test_a_sensor_too_large_to_evaluate_fails_validate_and_run(tmp_path, capsys, sensor, fields, problem):
    doc = copy.deepcopy(_DEMO_DOC)
    doc["vehicles"][0]["sensors"][sensor].update(fields)
    name = doc["vehicles"][0]["sensors"][sensor]["name"]
    _assert_fails_validate_and_run(tmp_path, capsys, _write_doc(tmp_path, doc),
                                   f"vehicle 'rov1' sensor {name!r}: {problem}")


def test_run_into_a_symlink_to_an_empty_directory_writes_where_it_points(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real")
    assert cli.main(["run", str(DEMO), "--out", str(tmp_path / "link"), "--duration", "1"]) == 0
    assert (tmp_path / "link").is_symlink()
    assert json.loads((tmp_path / "real" / "manifest.json").read_text())["duration"] == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
