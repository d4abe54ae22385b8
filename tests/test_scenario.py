import filecmp
import json
import math
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
    with pytest.raises(scenario.ScenarioError, match="min_range"):
        scenario.load_scenario(write_scenario(tmp_path, doc))


def test_validate_rejects_decreasing_trajectory(tmp_path):
    doc = small_world_doc(tmp_path)
    doc["vehicles"][0]["trajectory"] = [
        {"time": 1.0, "x": 0.0, "y": 0.0},
        {"time": 0.5, "x": 1.0, "y": 0.0},
    ]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert any("strictly increasing" in d for d in scenario.validate(cfg))


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d.update(duratoin=1.0), "unknown field 'duratoin'"),
     (lambda d: d["vehicles"][0]["trajectory"][0].update(x=True),
      "vehicle 'v1' trajectory[0]: x must be a number, got True"),
     (lambda d: d["vehicles"][0]["trajectory"][0].update(velocity=[1.0, 2.0]),
      "vehicle 'v1' trajectory[0]: velocity must be a list of 3 numbers, got [1.0, 2.0]"),
     (lambda d: d["vehicles"][0]["sensors"][0].update(bins=4.0),
      "vehicle 'v1' sensor 'dvl': bins must be an integer, got 4.0"),
     (lambda d: d["vehicles"][0]["sensors"][0].update(pan=1.0),
      "vehicle 'v1' sensor 'dvl': unknown field 'pan'"),
     (lambda d: d["world"].pop("heightmap"), "world: missing required field 'heightmap'"),
     (lambda d: d.update(currents={"gauss_markov": {"bound": -1.0}}),
      "currents gauss_markov: bound must be >= 0, got -1.0")],
    ids=["unknown-top-level-key", "bool-as-float", "short-velocity", "float-as-int",
         "unknown-sensor-key", "missing-heightmap", "negative-gm-bound"],
)
def test_load_rejects_field_with_its_place(tmp_path, edit, message):
    doc = small_world_doc(tmp_path)
    edit(doc)
    with pytest.raises(scenario.ScenarioError) as err:
        scenario.load_scenario(write_scenario(tmp_path, doc))
    assert str(err.value) == message


def test_yaml_exponent_without_dot_is_a_number(tmp_path):
    # YAML 1.1 reads `5e-3` as a string; float fields take what float() reads.
    path = write_scenario(tmp_path, small_world_doc(tmp_path))
    path.write_text(path.read_text().replace("noise_sigma: 0.0", "noise_sigma: 5e-3"))
    cfg = scenario.load_scenario(path)
    assert cfg.vehicles[0].sensors[0].config.noise_sigma == 0.005


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


def _interpolate_by_linear_scan(waypoints, t):
    """Reference: the segment found by a linear scan, a new rotation per call."""
    first, last = waypoints[0], waypoints[-1]
    if t >= last.time:
        return last.pose(), np.zeros(3)
    if t < first.time:
        return first.pose(), np.zeros(3)
    hi = 0
    while waypoints[hi].time <= t:
        hi += 1
    a, b = waypoints[hi - 1], waypoints[hi]
    span = b.time - a.time
    alpha = (t - a.time) / span
    pose = scenario.Pose.from_rpy(*(getattr(a, f) + alpha * (getattr(b, f) - getattr(a, f))
                                    for f in ("x", "y", "depth", "roll", "pitch", "yaw")))
    if a.velocity is not None and b.velocity is not None:
        va, vb = np.asarray(a.velocity, dtype=float), np.asarray(b.velocity, dtype=float)
        return pose, va + alpha * (vb - va)
    if a.velocity is not None:
        return pose, np.asarray(a.velocity, dtype=float)
    return pose, np.array([(b.y - a.y) / span, (b.x - a.x) / span, (b.depth - a.depth) / span])


def _pose_bytes(pose, vel) -> bytes:
    p = pose.position
    return np.array([p.x, p.y, p.depth]).tobytes() + pose.rotation.tobytes() + np.asarray(vel).tobytes()


def _random_trajectory(rng, n):
    """n waypoints: some segments hold their attitude, some angles are -0.0
    next to 0.0, and some waypoints carry an explicit velocity."""
    times = np.cumsum(rng.uniform(0.05, 3.0, n)) - 7.0
    wps, rpy = [], (0.0, 0.0, 0.0)
    for k, t in enumerate(times.tolist()):
        pick = k % 5
        if pick == 1:
            rpy = tuple(rng.uniform(-0.5, 0.5, 3).tolist())
        elif pick == 3:
            rpy = tuple(math.copysign(0.0, -a) if a == 0.0 else a for a in (0.0, rpy[1], -0.0))
        velocity = tuple(rng.uniform(-1.0, 1.0, 3).tolist()) if k % 7 in (2, 3) else None
        wps.append(scenario.Waypoint(t, *rng.uniform(-500.0, 500.0, 2).tolist(), float(rng.uniform(0.0, 60.0)),
                                     *rpy, velocity=velocity))
    return wps


@pytest.mark.parametrize("n", [1, 2, 3, 60])
def test_trajectory_matches_linear_scan_at_and_between_waypoints(n):
    rng = np.random.default_rng(n)
    wps = _random_trajectory(rng, n)
    times = [w.time for w in wps]
    queries = [times[0] - 1.0, times[-1] + 1.0]
    for a, b in zip(times, times[1:] + [times[-1] + 2.0]):
        queries += [a, np.nextafter(a, -math.inf), np.nextafter(a, math.inf), (a + b) / 2.0,
                    a + (b - a) / 3.0]
    queries = [float(q) for q in queries]
    trajectory = scenario.Trajectory(wps)
    for t in queries + queries[::-1] + [queries[i] for i in rng.permutation(len(queries))]:
        expected = _pose_bytes(*_interpolate_by_linear_scan(wps, t))
        assert _pose_bytes(*scenario.interpolate_trajectory(trajectory, t)) == expected, t
        assert _pose_bytes(*scenario.interpolate_trajectory(wps, t)) == expected, t


def test_trajectory_reuses_a_rotation_only_for_bit_equal_angles():
    wps = [scenario.Waypoint(0.0, 0.0, 0.0, 10.0, pitch=0.1, yaw=0.0),
           scenario.Waypoint(1.0, 5.0, 0.0, 10.0, pitch=0.1, yaw=-0.0)]
    trajectory = scenario.Trajectory(wps)
    level, _ = scenario.interpolate_trajectory(trajectory, 0.25)  # yaw 0.0 + 0.25 * -0.0 is 0.0
    again, _ = scenario.interpolate_trajectory(trajectory, 0.75)
    assert again.rotation is level.rotation and not level.rotation.flags.writeable
    held, _ = scenario.interpolate_trajectory(trajectory, 2.0)  # the last waypoint: yaw -0.0
    assert held.rotation is not level.rotation
    assert held.rotation.tobytes() == scenario.body_to_ned_rotation(0.0, 0.1, -0.0).tobytes()


def test_trajectory_returns_one_pose_while_all_six_values_repeat():
    wps = [scenario.Waypoint(0.0, 5.0, 0.0, 10.0, pitch=0.1),
           scenario.Waypoint(1.0, 5.0, 0.0, 10.0, pitch=0.1),  # a hover segment
           scenario.Waypoint(2.0, 8.0, 0.0, 10.0, pitch=0.1)]
    trajectory = scenario.Trajectory(wps)
    before, _ = scenario.interpolate_trajectory(trajectory, -1.0)
    assert all(scenario.interpolate_trajectory(trajectory, t)[0] is before for t in (-0.5, 0.0, 0.25, 0.99))
    moving = [scenario.interpolate_trajectory(trajectory, t)[0] for t in (1.25, 1.5)]
    assert moving[0] is not before and moving[1] is not moving[0]
    assert moving[0].rotation is moving[1].rotation is before.rotation
    after = [scenario.interpolate_trajectory(trajectory, t)[0] for t in (2.0, 3.0, 60.0)]
    assert after[0] is after[1] is after[2] and after[0] is not moving[1]


@pytest.mark.parametrize("index", range(6))
def test_trajectory_pose_is_new_when_one_value_changes_its_bits(index):
    trajectory = scenario.Trajectory([scenario.Waypoint(0.0, 0.0, 0.0)])
    values = [0.0] * 6
    first = trajectory.pose(*values)
    assert trajectory.pose(*values) is first
    values[index] = -0.0  # equal to 0.0, other bits
    flipped = trajectory.pose(*values)
    assert flipped is not first and trajectory.pose(*values) is flipped
    assert (flipped.rotation is first.rotation) == (index < 3)  # x, y and depth leave the attitude
    assert flipped.rotation.tobytes() == scenario.body_to_ned_rotation(*values[3:]).tobytes()
    assert (flipped.position.x, flipped.position.y, flipped.position.depth) == tuple(values[:3])


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
def test_a_sensor_spec_refuses_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="^rate must be positive$"):
        scenario.SensorSpec("lidar", "l", rate, None)


def test_geometry_is_kept_from_the_second_evaluation_at_one_pose():
    built = []

    def build(pose, heightmap, config):
        built.append(pose)
        return object()

    sensor = scenario.Sensor(scenario.SensorSpec("lidar", "l", 1.0, None), None, 1, None)
    a, b = scenario.Pose.level(0.0, 0.0, 1.0), scenario.Pose.level(0.0, 0.0, 1.0)
    first = sensor.geometry(a, build)  # a first evaluation: built, not kept
    assert first is not None and built == [a] and sensor._held == (a, None)
    kept = sensor.geometry(a, build)
    assert kept is not first and built == [a, a] and sensor._held == (a, kept)
    assert sensor.geometry(a, build) is kept and sensor.geometry(a, build) is kept and built == [a, a]
    moved = sensor.geometry(b, build)  # an equal pose, but another object: moving
    assert moved is not kept and built == [a, a, b]
    assert sensor._held == (b, None)
    assert sensor.geometry(a, build) is not sensor.geometry(b, build)
    assert built == [a, a, b, a, b] and sensor._held == (b, None)  # a moving vehicle keeps no geometry


HELD_DOC = {
    "schema_version": 1, "seed": 4, "duration": 1.5, "dt": 0.1,
    "world": {"heightmap": "w.asc", "tile_size": 60.0, "overlap": 5.0, "load_radius": 80.0,
              "unload_radius": 120.0},
    "stations": {"dock": {"x": 150.0, "y": 120.0, "depth": 25.0, "pitch": -0.5}},
    "vehicles": [
        {"id": "tele", "teleports": [{"time": 0.5, "station": "dock"}],
         "trajectory": [{"time": 0.0, "x": 60.0, "y": 60.0, "depth": 25.0, "pitch": -0.5},
                        {"time": 1.5, "x": 90.0, "y": 70.0, "depth": 25.0, "pitch": -0.5}]},
        {"id": "park",
         "trajectory": [{"time": 0.0, "x": 120.0, "y": 60.0, "depth": 25.0, "pitch": -0.5},
                        {"time": 0.5, "x": 125.0, "y": 70.0, "depth": 25.0, "pitch": -0.4}]},
    ],
}
HELD_SENSORS = [
    {"type": "dvl", "name": "dvl", "rate": 10.0, "noise_sigma": 0.01, "bins": 2, "bin_size": 4.0},
    {"type": "sonar", "name": "fls", "rate": 5.0, "n_beams": 8, "rays_per_beam": 2, "vertical_rays": 3,
     "spectral_bins": 64, "bandwidth_hz": 2000.0},
    {"type": "lidar", "name": "lidar", "rate": 5.0, "rays_h": 4, "rays_v": 3, "supersample": 2,
     "range_noise_sigma": 0.01, "tilt_deg": -20.0},
]


def test_a_held_stretch_casts_rays_for_its_first_two_evaluations_only(tmp_path, monkeypatch):
    from subsim import bathymetry, dvl, lidar, sonar

    doc = small_world_doc(tmp_path, **HELD_DOC)
    for vehicle in doc["vehicles"]:
        vehicle["sensors"] = HELD_SENSORS
    casts, now = {}, [None]

    def counting(module, name):
        cast = getattr(bathymetry, name)
        assert getattr(module, name) is cast

        def wrapper(*args, **kwargs):
            casts[now[0]] = casts.get(now[0], 0) + 1
            return cast(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((dvl, "raycast"), (sonar, "cast_fan"), (lidar, "cast_fan")):
        counting(module, name)
    for cls in scenario.SENSORS.values():
        def timed(self, t, time_utc, vehicle, evaluate=cls.evaluate):
            now[0] = (self, round(t, 9))
            evaluate(self, t, time_utc, vehicle)
            now[0] = None

        monkeypatch.setattr(cls, "evaluate", timed)
    sim = scenario.Simulation(scenario.load_scenario(write_scenario(tmp_path, doc)), tmp_path / "out")
    sim.run()
    assert None not in casts
    for vehicle in sim._vehicles.values():
        for sensor in vehicle.sensors:
            period = 1.0 / sensor.spec.rate
            times = [round(k * period, 9) for k in range(round(1.5 / period) + 1)]
            counts = [casts.get((sensor, t), 0) for t in times]
            moving = [c for t, c in zip(times, counts) if t < 0.5]
            held = [c for t, c in zip(times, counts) if t >= 0.5]
            per_evaluation = 4 if sensor.spec.kind == "dvl" else 1
            assert moving == [per_evaluation] * len(moving), sensor.spec.name
            assert len(held) >= 4
            assert held == [per_evaluation] * 2 + [0] * (len(held) - 2), sensor.spec.name


def test_a_held_noise_free_lidar_builds_its_ply_rows_once(tmp_path, monkeypatch):
    from subsim import lidar

    doc = small_world_doc(tmp_path, **HELD_DOC)
    for vehicle in doc["vehicles"]:
        vehicle["sensors"] = [{**HELD_SENSORS[2], "range_noise_sigma": 0.0}]
    built = []

    def records(scan_result, build=lidar._ply_records):
        built.append(scan_result)
        return build(scan_result)

    monkeypatch.setattr(lidar, "_ply_records", records)
    scenario.Simulation(scenario.load_scenario(write_scenario(tmp_path, doc)), tmp_path / "out").run()
    # Per vehicle: a scan at 0, 0.2 and 0.4 s while moving, then a held
    # stretch from 0.5 s: the first evaluation at the pose and the kept
    # geometry's noise-free scan build rows; the later ones reuse them.
    assert len(built) == 2 * (3 + 2) == len({id(scan) for scan in built})
    for vehicle in ("tele", "park"):
        files = sorted((tmp_path / "out" / vehicle / "lidar").glob("scan_*.ply"))
        assert len(files) == 8
        rows = lidar.read_ply(files[-1])
        assert len(rows) > 0
        expected = lidar._PLY_HEADER % len(rows) + rows.tobytes()
        assert [f.read_bytes() == expected for f in files] == [False] * 3 + [True] * 5


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


def _scanned_teleport_steps(time, dt, steps):
    """The steps a per-step scan fires a teleport on: each k with |time - k * dt| < dt / 2."""
    return [k for k in range(steps + 1) if abs(time - k * dt) < dt / 2.0]


@pytest.mark.parametrize("dt, steps", [(0.1, 600), (0.25, 40), (0.05, 100), (1.0 / 3.0, 30)])
def test_teleport_steps_match_the_per_step_scan(dt, steps):
    edges = [k * dt + h for k in (-2, -1, 0, 1, 2, 3, steps - 1, steps, steps + 1) for h in (0.0, dt / 2.0, -dt / 2.0)]
    times = [0.0, -0.0, 0.05, 0.15, 0.25, 30.0, -1.0, 1e300, -1e300, 5e-324]
    times += edges + [math.nextafter(t, d) for t in edges for d in (math.inf, -math.inf)]
    times += np.random.default_rng(5).uniform(-2.0 * dt, (steps + 2) * dt, 300).tolist()
    for time in times:
        assert scenario.teleport_steps(time, dt, steps) == _scanned_teleport_steps(time, dt, steps), time


@pytest.mark.parametrize("time, step", [(0.15, 1), (0.25, 2), (0.5, 5), (0.96, 10)])
def test_teleport_fires_at_the_step_the_per_step_scan_fires_it(tmp_path, time, step):
    assert _scanned_teleport_steps(time, 0.1, 10) == [step]
    doc = small_world_doc(tmp_path, stations={"far": {"x": 190.0, "y": 190.0, "depth": 10.0}})
    doc["vehicles"][0]["teleports"] = [{"time": time, "station": "far"}]
    out = tmp_path / "out"
    scenario.run(scenario.load_scenario(write_scenario(tmp_path, doc)), out)
    xs = [float(r.split(",")[1]) for r in (out / "v1" / "pose.csv").read_text().splitlines()[1:]]
    assert xs == [100.0] * step + [190.0] * (11 - step)


def test_demo_teleport_fires_at_step_300(tmp_path):
    import dataclasses

    cfg = scenario.load_scenario(REPO_SCENARIOS / "demo.yaml")
    assert scenario.teleport_steps(30.0, cfg.dt, 600) == _scanned_teleport_steps(30.0, cfg.dt, 600) == [300]
    scenario.run(dataclasses.replace(cfg, duration=30.2), tmp_path / "out")
    xs = [float(r.split(",")[1]) for r in (tmp_path / "out" / "rov1" / "pose.csv").read_text().splitlines()[1:]]
    assert xs.index(2500.0) == 300 and xs[299] != 2500.0


def test_validate_rejects_a_teleport_halfway_between_steps_inside_the_run(tmp_path):
    import dataclasses

    doc = small_world_doc(tmp_path, stations={"far": {"x": 190.0, "y": 190.0, "depth": 10.0}})
    doc["vehicles"][0]["teleports"] = [{"time": 0.5, "station": "far"}, {"time": 0.05, "station": "far"}]
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert scenario.validate(cfg) == [
        "vehicle 'v1' teleports[1]: time 0.05 is half a step of dt 0.1 from the nearest steps, so no step fires it"]
    # A time outside the run never fires, and a shorter run may leave it out.
    assert scenario.validate(dataclasses.replace(cfg, duration=0.0)) == []


def _scanned_force(forces, t):
    """The force a scan of the timeline applies at t: the last entry at or before t + 1e-12."""
    current = [0.0, 0.0, 0.0]
    for entry in forces:
        if entry["time"] <= t + 1e-12:
            current = [entry.get("fx", 0.0), entry.get("fy", 0.0), entry.get("fz", 0.0)]
    return current


def test_force_entries_apply_at_their_step_within_the_tolerance(tmp_path, monkeypatch):
    from subsim import coupling

    forces = [{"time": 0.3, "fx": 1.0},  # 3 * 0.1 is 0.30000000000000004
              {"time": 0.5 + 5e-13, "fx": 2.0, "fz": -1.0},  # within 1e-12 of step 5
              {"time": 0.7 + 2e-12, "fy": 3.0}]  # beyond it: step 8
    doc = small_world_doc(tmp_path)
    doc["couplings"] = [{"id": "c1", "plug_vehicle": "v1", "receptacle": {"x": 100.0, "y": 100.0, "depth": 10.0},
                         "config": {"linear_tol": 0.05, "angular_tol": 0.1, "insertion_force": 60.0,
                                    "extraction_force": 80.0, "travel_max": 0.3},
                         "forces": forces}]
    applied, log_row = [], coupling.log_row
    monkeypatch.setattr(coupling, "log_row", lambda t, state, force, events: (
        applied.append((t, force.tolist())), log_row(t, state, force, events))[1])
    scenario.run(scenario.load_scenario(write_scenario(tmp_path, doc)), tmp_path / "out")
    assert applied == [(k * 0.1, _scanned_force(forces, k * 0.1)) for k in range(11)]
    assert [f for _, f in applied][2:9] == [[0.0, 0.0, 0.0]] + [[1.0, 0.0, 0.0]] * 2 + [[2.0, 0.0, -1.0]] * 3 + [
        [0.0, 3.0, 0.0]]


def test_a_force_entry_past_16384_s_applies_on_its_step(tmp_path, monkeypatch):
    # At dt 1260.8 s, step 13 is t = 16390.399999999998, 3.6e-12 s before
    # an entry at 16390.4 s, the run's last step; the entry applies there.
    from subsim import coupling

    doc = small_world_doc(tmp_path, dt=1260.8, duration=16390.4)
    doc["vehicles"][0]["sensors"] = []
    doc["couplings"] = [{"id": "c1", "plug_vehicle": "v1", "receptacle": {"x": 100.0, "y": 100.0, "depth": 10.0},
                         "config": {"linear_tol": 0.05, "angular_tol": 0.1, "insertion_force": 60.0,
                                    "extraction_force": 80.0, "travel_max": 0.3},
                         "forces": [{"time": 16390.4, "fx": 1.0}]}]
    applied, log_row = [], coupling.log_row
    monkeypatch.setattr(coupling, "log_row", lambda t, state, force, events: (
        applied.append((t, force.tolist())), log_row(t, state, force, events))[1])
    cfg = scenario.load_scenario(write_scenario(tmp_path, doc))
    assert scenario.validate(cfg) == []
    scenario.run(cfg, tmp_path / "out")
    assert 13 * 1260.8 < 16390.4 - 1e-12
    assert applied[-2:] == [(12 * 1260.8, [0.0, 0.0, 0.0]), (13 * 1260.8, [1.0, 0.0, 0.0])]
    # At dt 0.3, an entry at 16385.4 s applies from step 54,618, the step a
    # teleport then fires on. The demo's entries at dt 0.1 keep their steps,
    # and a time outside the run is clamped to one step beside it.
    assert scenario.force_step(16385.4, 0.3, 60000) == 54618
    assert scenario.teleport_steps(16385.4, 0.3, 60000) == [54618]
    assert [scenario.force_step(t, 0.1, 600) for t in (0.0, 10.0, 12.0, 20.0, 21.0)] == [0, 100, 120, 200, 210]
    assert [scenario.force_step(t, dt, 600) for t, dt in ((-3.0, 0.1), (1e300, 0.1), (1.0, 5e-324))] == [-1, 601, 601]


def test_unknown_station_teleport_raises_and_preserves_state(tmp_path):
    cfg = scenario.load_scenario(write_scenario(tmp_path, small_world_doc(tmp_path)))
    sim = scenario.Simulation(cfg, tmp_path / "out")
    with pytest.raises(KeyError):
        sim.teleport("v1", "ghost")
    with pytest.raises(KeyError):
        sim.teleport("ghost", "far")
    assert sim._vehicles["v1"].hold is None


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
