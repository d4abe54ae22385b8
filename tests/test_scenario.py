import filecmp
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from subsim import scenario

REPO_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, doc, name="s.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def minimal_doc(**overrides):
    doc = {"schema_version": 1, "seed": 1, "duration": 1.0, "dt": 0.1}
    doc.update(overrides)
    return doc


def small_world_doc(tmp_path, **overrides):
    """A small flat world plus one vehicle with a DVL."""
    from subsim.bathymetry import save_heightmap
    from conftest import flat_heightmap

    save_heightmap(flat_heightmap(40.0, n=21, cell_m=10.0), tmp_path / "w.asc")
    doc = minimal_doc(
        world={
            "heightmap": "w.asc",
            "tile_size": 60.0,
            "overlap": 5.0,
            "load_radius": 80.0,
            "unload_radius": 120.0,
        },
        vehicles=[
            {
                "id": "v1",
                "trajectory": [{"time": 0.0, "x": 100.0, "y": 100.0, "depth": 10.0}],
                "sensors": [{"type": "dvl", "rate": 5.0, "noise_sigma": 0.0}],
            }
        ],
    )
    doc.update(overrides)
    return doc


# --- validation -----------------------------------------------------------------


def test_validate_rejects_zero_dt(tmp_path):
    cfg = scenario.load_scenario(write_scenario(tmp_path, minimal_doc(dt=0.0)))
    assert any("dt must be positive" in d for d in scenario.validate(cfg))


def test_validate_reports_missing_heightmap(tmp_path):
    doc = minimal_doc(world={"heightmap": "nope.asc"})
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    diags = scenario.validate(cfg)
    assert any("nope.asc" in d for d in diags)


def test_validate_rejects_non_multiple_sensor_period(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["sensors"][0]["rate"] = 3.0  # period 1/3 s vs dt 0.1
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert any("integer multiple" in d for d in scenario.validate(cfg))


def test_validate_reports_uncovered_tide_span(tmp_path):
    (tmp_path / "tide.csv").write_text("epoch_seconds,speed_mps\n100,0.5\n105,0.5\n")
    doc = minimal_doc(duration=10.0, epoch_utc=98.0)
    doc["currents"] = {"tide": {"series": "tide.csv"}}
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    diags = [d for d in scenario.validate(cfg) if "tide" in d]
    assert len(diags) == 1
    assert "[98.0, 100.0)" in diags[0] and "(105.0, 108.0]" in diags[0]
    covered = scenario.load_scenario(write_scenario(tmp_path, dict(doc, epoch_utc=100.0, duration=5.0)))
    assert scenario.validate(covered) == []


def test_validate_rejects_unknown_station(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["teleports"] = [{"time": 0.5, "station": "ghost"}]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert any("ghost" in d for d in scenario.validate(cfg))


def test_validate_rejects_bad_sensor_params(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["sensors"][0]["min_range"] = 500.0
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert any("min_range" in d for d in scenario.validate(cfg))


def test_validate_rejects_decreasing_trajectory(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["trajectory"] = [
        {"time": 1.0, "x": 0.0, "y": 0.0},
        {"time": 0.5, "x": 1.0, "y": 0.0},
    ]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert any("strictly increasing" in d for d in scenario.validate(cfg))


def test_shipped_demo_validates_clean():
    cfg = scenario.load_scenario(REPO_SCENARIOS / "demo.yaml")
    assert scenario.validate(cfg) == []


# --- trajectory interpolation -----------------------------------------------------


def test_trajectory_interpolation_midpoint():
    wps = (
        scenario.Waypoint(0.0, 0.0, 0.0, 10.0),
        scenario.Waypoint(10.0, 100.0, 50.0, 20.0, yaw=1.0),
    )
    pose, vel = scenario.interpolate_trajectory(wps, 5.0)
    assert pose.position.x == pytest.approx(50.0)
    assert pose.position.y == pytest.approx(25.0)
    assert pose.position.depth == pytest.approx(15.0)
    assert np.allclose(vel, [5.0, 10.0, 1.0])  # NED: north, east, down


def test_trajectory_holds_outside_span():
    wps = (scenario.Waypoint(1.0, 5.0, 5.0, 5.0), scenario.Waypoint(2.0, 9.0, 5.0, 5.0))
    pose, vel = scenario.interpolate_trajectory(wps, 0.0)
    assert pose.position.x == 5.0 and np.allclose(vel, 0.0)
    pose, vel = scenario.interpolate_trajectory(wps, 3.0)
    assert pose.position.x == 9.0 and np.allclose(vel, 0.0)


def test_trajectory_explicit_velocity_override():
    wps = (
        scenario.Waypoint(0.0, 0.0, 0.0, 0.0, velocity=(0.0, 1.0, 0.0)),
        scenario.Waypoint(10.0, 0.0, 0.0, 0.0, velocity=(0.0, 2.0, 0.0)),
    )
    _, vel = scenario.interpolate_trajectory(wps, 5.0)
    assert np.allclose(vel, [0.0, 1.5, 0.0])


# --- running -------------------------------------------------------------------


def test_empty_scenario_writes_only_manifest(tmp_path):
    cfg = scenario.load_scenario(write_scenario(tmp_path, minimal_doc(duration=10.0)))
    out = tmp_path / "out"
    manifest = scenario.run(cfg, out)
    assert (out / "manifest.json").exists()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert manifest["seed"] == 1


def test_stationary_dvl_logs_constant_zero_velocity(tmp_path):
    cfg = scenario.load_scenario(write_scenario(tmp_path, small_world_doc(tmp_path)))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    rows = (out / "v1" / "dvl.csv").read_text().strip().splitlines()
    assert rows[0].startswith("time,mode")
    data = [r.split(",") for r in rows[1:]]
    assert len(data) == 6  # 1 s at 5 Hz inclusive of t=0
    assert all(r[1] == "bottom_track" for r in data)
    assert all(abs(float(r[2])) < 1e-12 and abs(float(r[4])) < 1e-12 for r in data)
    altitudes = {r[5] for r in data}
    assert len(altitudes) == 1  # constant rows


def test_run_twice_is_byte_identical(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["sensors"][0]["noise_sigma"] = 0.01
    doc["currents"] = {"gauss_markov": {"mu": 0.1, "sigma": 0.05}}
    path = write_scenario(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    scenario.run(scenario.load_scenario(path), out1)
    scenario.run(scenario.load_scenario(path), out2)
    cmp = filecmp.dircmp(out1, out2)

    def assert_same(d):
        assert not d.diff_files and not d.left_only and not d.right_only
        for sub in d.subdirs.values():
            assert_same(sub)

    assert_same(cmp)


def test_different_seed_changes_noisy_outputs(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["sensors"][0]["noise_sigma"] = 0.01
    path = write_scenario(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    import dataclasses

    cfg = scenario.load_scenario(path)
    scenario.run(cfg, out1)
    scenario.run(dataclasses.replace(cfg, seed=99), out2)
    assert (out1 / "v1" / "dvl.csv").read_text() != (out2 / "v1" / "dvl.csv").read_text()


def test_teleport_moves_vehicle_and_tiles(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["stations"] = {"far": {"x": 190.0, "y": 190.0, "depth": 10.0}}
    doc["vehicles"][0]["teleports"] = [{"time": 0.5, "station": "far"}]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    pose_rows = [r.split(",") for r in (out / "v1" / "pose.csv").read_text().splitlines()[1:]]
    xs = [float(r[1]) for r in pose_rows]
    assert xs[0] == 100.0 and xs[-1] == 190.0
    events = (out / "tile_events.csv").read_text().splitlines()[1:]
    times = {r.split(",")[0] for r in events}
    assert "0.5" in times  # tile churn in the same step as the teleport


def test_teleport_to_current_pose_is_quiet(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["stations"] = {"here": {"x": 100.0, "y": 100.0, "depth": 10.0}}
    doc["vehicles"][0]["teleports"] = [{"time": 0.5, "station": "here"}]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    events = [r for r in (out / "tile_events.csv").read_text().splitlines()[1:] if r]
    assert all(r.split(",")[0] == "0" for r in events)  # only initial loads


def test_unknown_station_teleport_raises_and_preserves_state(tmp_path):
    cfg = scenario.load_scenario(write_scenario(tmp_path, small_world_doc(tmp_path)))
    sim = scenario.Simulation(cfg, tmp_path / "out")
    with pytest.raises(KeyError):
        sim.teleport("v1", "ghost")
    with pytest.raises(KeyError):
        sim.teleport("ghost", "far")
    assert sim._vehicles["v1"]["hold"] is None


def test_sensor_ticks_have_no_drift(tmp_path):
    doc = small_world_doc(tmp_path, duration=2.0)
    doc["vehicles"][0]["sensors"][0]["rate"] = 2.5  # period 0.4 s = 4 steps
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    rows = (out / "v1" / "dvl.csv").read_text().strip().splitlines()[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])


def test_manifest_contents(tmp_path):
    path = write_scenario(tmp_path, minimal_doc())
    out = tmp_path / "out"
    scenario.run(scenario.load_scenario(path), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dt"] == 0.1
    assert len(manifest["config_sha256"]) == 64
    assert "subsim" in manifest["versions"]


def test_water_track_fallback_in_deep_water(tmp_path):
    # Vehicle far above the bottom: DVL beams out of range, water track on.
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["sensors"][0]["max_range"] = 20.0
    doc["vehicles"][0]["trajectory"] = [{"time": 0.0, "x": 100.0, "y": 100.0, "depth": 2.0}]
    doc["currents"] = {"strata": [{"depth": 0.0, "velocity": [0.5, 0.0, 0.0]}]}
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    rows = [r.split(",") for r in (out / "v1" / "dvl.csv").read_text().splitlines()[1:]]
    assert all(r[1] == "water_track" for r in rows)
    assert all(abs(float(r[2]) + 0.5) < 1e-9 for r in rows)  # reads -current


def test_tide_series_csv_drives_the_field(tmp_path):
    (tmp_path / "tide.csv").write_text("epoch_seconds,speed_mps\n0,1.0\n1000,1.0\n")
    doc = small_world_doc(tmp_path)
    doc["currents"] = {"tide": {"heading": 0.0, "series": "tide.csv"}}
    doc["vehicles"][0]["sensors"][0]["max_range"] = 20.0  # force water track
    doc["vehicles"][0]["trajectory"] = [{"time": 0.0, "x": 100.0, "y": 100.0, "depth": 2.0}]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert scenario.validate(cfg) == []
    out = tmp_path / "out"
    scenario.run(cfg, out)
    rows = [r.split(",") for r in (out / "v1" / "dvl.csv").read_text().splitlines()[1:]]
    # Constant 1 m/s north flood: the stationary sensor reads -1 on x.
    assert all(r[1] == "water_track" for r in rows)
    assert all(abs(float(r[2]) + 1.0) < 1e-9 for r in rows)


def test_load_scenario_wraps_missing_keys(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nvehicles:\n  - trajectory: []\n")
    with pytest.raises(scenario.ScenarioError, match="missing required field"):
        scenario.load_scenario(bad)


def test_explicit_velocity_waypoints_feed_the_dvl(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["trajectory"] = [
        {"time": 0.0, "x": 100.0, "y": 100.0, "depth": 10.0, "velocity": [0.5, 0.0, 0.0]},
        {"time": 2.0, "x": 100.0, "y": 100.0, "depth": 10.0, "velocity": [0.5, 0.0, 0.0]},
    ]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    out = tmp_path / "out"
    scenario.run(cfg, out)
    rows = [r.split(",") for r in (out / "v1" / "dvl.csv").read_text().splitlines()[1:]]
    # Level pose: sensor x = north; scripted velocity shows up directly.
    assert all(abs(float(r[2]) - 0.5) < 1e-9 for r in rows[:-1])
