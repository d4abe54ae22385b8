"""Scenario engine: declarative YAML configs driven through every sensor.

A scenario steps scripted vehicle trajectories on a fixed clock,
evaluates each configured sensor at its own rate, steps coupling state
machines from scripted force timelines, manages terrain tiles around the
vehicles, and writes all logs. Runs are deterministic: the same config
and seed produce byte-identical output directories.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bathymetry, coupling, currents, dvl, lidar, sonar, tiling
from .geodesy import ProjectedCoord
from .geometry import Pose, body_to_ned_rotation, rpy_from_rotation

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Structurally unusable scenario document."""


@dataclass(frozen=True)
class Waypoint:
    time: float
    x: float
    y: float
    depth: float
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0
    velocity: tuple[float, float, float] | None = None  # NED override

    def pose(self) -> Pose:
        return Pose.from_rpy(self.x, self.y, self.depth, self.roll, self.pitch, self.yaw)


@dataclass(frozen=True)
class SensorSpec:
    kind: str  # dvl | sonar | lidar
    rate_hz: float
    name: str
    params: dict = field(default_factory=dict)
    pan_deg: float = 0.0  # lidar mount command
    tilt_deg: float = 0.0


@dataclass(frozen=True)
class TeleportAction:
    time: float
    station: str


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    waypoints: tuple[Waypoint, ...]
    sensors: tuple[SensorSpec, ...] = ()
    teleports: tuple[TeleportAction, ...] = ()


@dataclass(frozen=True)
class WorldSpec:
    heightmap_path: Path
    tile_size: float = tiling.DEFAULT_TILE_SIZE_M
    overlap: float = tiling.DEFAULT_OVERLAP_M
    load_radius: float = tiling.DEFAULT_LOAD_RADIUS_M
    unload_radius: float = tiling.DEFAULT_UNLOAD_RADIUS_M


@dataclass(frozen=True)
class CouplingSpec:
    coupling_id: str
    plug_vehicle: str
    receptacle: Pose
    config: coupling.CouplingConfig
    forces: tuple[tuple[float, float, float, float], ...]  # (time, fx, fy, fz)


@dataclass
class ScenarioConfig:
    duration: float
    dt: float
    seed: int = 0
    schema_version: int = SCHEMA_VERSION
    epoch_utc: float = 0.0
    world: WorldSpec | None = None
    current_strata: tuple[currents.Stratum, ...] = (currents.Stratum(0.0, (0.0, 0.0, 0.0)),)
    tide: currents.TidalModel | None = None
    gauss_markov: currents.GaussMarkovParams = currents.GaussMarkovParams()
    stations: dict[str, Pose] = field(default_factory=dict)
    vehicles: tuple[VehicleSpec, ...] = ()
    couplings: tuple[CouplingSpec, ...] = ()
    source_path: Path | None = None
    source_bytes: bytes | None = None


def _pose_from_mapping(node: dict) -> Pose:
    return Pose.from_rpy(
        float(node["x"]),
        float(node["y"]),
        float(node.get("depth", 0.0)),
        float(node.get("roll", 0.0)),
        float(node.get("pitch", 0.0)),
        float(node.get("yaw", 0.0)),
    )


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario YAML file. Structural problems raise
    ScenarioError; value-level problems are left for validate()."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as err:
        raise ScenarioError(f"{path}: not valid YAML: {err}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario document must be a mapping")
    version = int(doc.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"{path}: unsupported schema_version {version}")
    try:
        return _parse_document(path, raw, doc, version)
    except KeyError as err:
        raise ScenarioError(f"{path}: missing required field {err}") from None
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"{path}: {err}") from None


def _parse_document(path: Path, raw: bytes, doc: dict, version: int) -> ScenarioConfig:

    world = None
    if "world" in doc:
        w = doc["world"]
        world = WorldSpec(
            heightmap_path=(path.parent / w["heightmap"]).resolve(),
            tile_size=float(w.get("tile_size", tiling.DEFAULT_TILE_SIZE_M)),
            overlap=float(w.get("overlap", tiling.DEFAULT_OVERLAP_M)),
            load_radius=float(w.get("load_radius", tiling.DEFAULT_LOAD_RADIUS_M)),
            unload_radius=float(w.get("unload_radius", tiling.DEFAULT_UNLOAD_RADIUS_M)),
        )

    strata = (currents.Stratum(0.0, (0.0, 0.0, 0.0)),)
    tide = None
    gm = currents.GaussMarkovParams()
    if "currents" in doc:
        c = doc["currents"]
        if "strata" in c:
            strata = tuple(
                currents.Stratum(float(s["depth"]), tuple(float(v) for v in s["velocity"]))
                for s in c["strata"]
            )
        if "tide" in c:
            t = c["tide"]
            heading = float(t.get("heading", 0.0))
            if "constituents" in t:
                cons = [
                    currents.TidalConstituent(
                        float(k["amplitude"]), float(k["period"]), float(k.get("phase", 0.0))
                    )
                    for k in t["constituents"]
                ]
                tide = currents.TidalModel.from_constituents(cons, heading=heading)
            elif "series" in t:
                times, speeds = currents.load_tide_series_csv(path.parent / t["series"])
                tide = currents.TidalModel.from_series(times, speeds, heading=heading)
        if "gauss_markov" in c:
            g = c["gauss_markov"]
            gm = currents.GaussMarkovParams(
                mu=float(g.get("mu", 0.0)),
                sigma=float(g.get("sigma", 0.0)),
                bound=float(g.get("bound", 1.0)),
            )

    stations = {
        str(name): _pose_from_mapping(node) for name, node in (doc.get("stations") or {}).items()
    }

    vehicles = []
    for v in doc.get("vehicles") or []:
        waypoints = tuple(
            Waypoint(
                time=float(w["time"]),
                x=float(w["x"]),
                y=float(w["y"]),
                depth=float(w.get("depth", 0.0)),
                roll=float(w.get("roll", 0.0)),
                pitch=float(w.get("pitch", 0.0)),
                yaw=float(w.get("yaw", 0.0)),
                velocity=tuple(float(a) for a in w["velocity"]) if "velocity" in w else None,
            )
            for w in v.get("trajectory") or []
        )
        sensors = []
        for s in v.get("sensors") or []:
            s = dict(s)
            kind = str(s.pop("type"))
            rate = float(s.pop("rate"))
            name = str(s.pop("name", kind))
            pan = float(s.pop("pan_deg", 0.0))
            tilt = float(s.pop("tilt_deg", 0.0))
            sensors.append(SensorSpec(kind, rate, name, params=s, pan_deg=pan, tilt_deg=tilt))
        teleports = tuple(
            TeleportAction(float(a["time"]), str(a["station"])) for a in v.get("teleports") or []
        )
        vehicles.append(
            VehicleSpec(str(v["id"]), waypoints, tuple(sensors), teleports)
        )

    couplings_spec = []
    for c in doc.get("couplings") or []:
        cfg_node = dict(c["config"])
        ccfg = coupling.CouplingConfig(
            linear_tol=float(cfg_node["linear_tol"]),
            angular_tol=float(cfg_node["angular_tol"]),
            insertion_force=float(cfg_node["insertion_force"]),
            extraction_force=float(cfg_node["extraction_force"]),
            travel_max=float(cfg_node["travel_max"]),
            align_duration=float(cfg_node.get("align_duration", 2.0)),
            cooldown=float(cfg_node.get("cooldown", 2.0)),
        )
        forces = tuple(
            (
                float(f["time"]),
                float(f.get("fx", 0.0)),
                float(f.get("fy", 0.0)),
                float(f.get("fz", 0.0)),
            )
            for f in c.get("forces") or []
        )
        couplings_spec.append(
            CouplingSpec(
                coupling_id=str(c["id"]),
                plug_vehicle=str(c["plug_vehicle"]),
                receptacle=_pose_from_mapping(c["receptacle"]),
                config=ccfg,
                forces=forces,
            )
        )

    return ScenarioConfig(
        duration=float(doc.get("duration", 0.0)),
        dt=float(doc.get("dt", 0.0)),
        seed=int(doc.get("seed", 0)),
        schema_version=version,
        epoch_utc=float(doc.get("epoch_utc", 0.0)),
        world=world,
        current_strata=strata,
        tide=tide,
        gauss_markov=gm,
        stations=stations,
        vehicles=tuple(vehicles),
        couplings=tuple(couplings_spec),
        source_path=path,
        source_bytes=raw,
    )


_SENSOR_BUILDERS = {
    "dvl": lambda params: dvl.DvlConfig(**params),
    "sonar": lambda params: sonar.SonarConfig(**params),
    "lidar": lambda params: lidar.LidarConfig(**params),
}


def validate(cfg: ScenarioConfig) -> list[str]:
    """Check every scenario invariant; an empty list means runnable."""
    diags: list[str] = []
    if cfg.dt <= 0.0:
        diags.append("dt must be positive")
    if cfg.duration < 0.0:
        diags.append("duration must be >= 0")
    if cfg.world is not None:
        if not cfg.world.heightmap_path.exists():
            diags.append(f"heightmap file not found: {cfg.world.heightmap_path}")
        if cfg.world.tile_size <= 2.0 * cfg.world.overlap:
            diags.append("world.tile_size must exceed twice world.overlap")
        if cfg.world.load_radius <= 0.0:
            diags.append("world.load_radius must be positive")
        if cfg.world.unload_radius <= cfg.world.load_radius:
            diags.append("world.unload_radius must exceed world.load_radius")
    try:
        currents.StratifiedCurrentDB(list(cfg.current_strata))
    except currents.CurrentError as err:
        diags.append(f"currents: {err}")
    if cfg.gauss_markov.mu < 0.0 or cfg.gauss_markov.sigma < 0.0:
        diags.append("gauss_markov parameters must be >= 0")
    if cfg.tide is not None and cfg.tide.series_times is not None and cfg.dt > 0.0:
        # The run queries the tide at epoch_utc + k * dt for every step k.
        start, end = cfg.epoch_utc, cfg.epoch_utc + _step_count(cfg) * cfg.dt
        first, last = float(cfg.tide.series_times[0]), float(cfg.tide.series_times[-1])
        uncovered = [f"[{start}, {first})"] if start < first else []
        uncovered += [f"({last}, {end}]"] if end > last else []
        if uncovered:
            diags.append(
                f"currents: tide series spans [{first}, {last}] s UTC; "
                f"run times {' and '.join(uncovered)} are not covered"
            )

    seen_ids = set()
    for vehicle in cfg.vehicles:
        vid = vehicle.vehicle_id
        if vid in seen_ids:
            diags.append(f"duplicate vehicle id {vid!r}")
        seen_ids.add(vid)
        times = [w.time for w in vehicle.waypoints]
        if not times:
            diags.append(f"vehicle {vid!r} needs at least one trajectory waypoint")
        elif any(b <= a for a, b in zip(times, times[1:])):
            diags.append(f"vehicle {vid!r} trajectory times must be strictly increasing")
        for sensor in vehicle.sensors:
            label = f"vehicle {vid!r} sensor {sensor.name!r}"
            if sensor.kind not in _SENSOR_BUILDERS:
                diags.append(f"{label}: unknown type {sensor.kind!r}")
                continue
            if sensor.rate_hz <= 0.0:
                diags.append(f"{label}: rate must be positive")
            elif cfg.dt > 0.0:
                period = 1.0 / sensor.rate_hz
                steps = round(period / cfg.dt)
                if steps < 1 or abs(period - steps * cfg.dt) > 1e-9 * max(1.0, period):
                    diags.append(
                        f"{label}: period {period} is not an integer multiple of dt {cfg.dt}"
                    )
            try:
                _SENSOR_BUILDERS[sensor.kind](sensor.params)
            except (TypeError, ValueError) as err:
                diags.append(f"{label}: {err}")
            if sensor.kind in ("sonar", "lidar") and cfg.world is None:
                diags.append(f"{label}: requires a world heightmap")
        for action in vehicle.teleports:
            if action.station not in cfg.stations:
                diags.append(f"vehicle {vid!r}: unknown teleport station {action.station!r}")

    for spec in cfg.couplings:
        if spec.plug_vehicle not in seen_ids:
            diags.append(f"coupling {spec.coupling_id!r}: unknown plug vehicle {spec.plug_vehicle!r}")
        ftimes = [f[0] for f in spec.forces]
        if any(b <= a for a, b in zip(ftimes, ftimes[1:])):
            diags.append(f"coupling {spec.coupling_id!r}: force times must be strictly increasing")
    return diags


def interpolate_trajectory(waypoints, t: float) -> tuple[Pose, np.ndarray]:
    """Pose and NED velocity along a timed waypoint list.

    Pose components interpolate linearly inside each segment. Segment
    velocity is an explicit waypoint velocity when given, otherwise the
    segment displacement rate; the vehicle holds pose with zero velocity
    before the first and after the last waypoint.
    """
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
    pose = Pose.from_rpy(
        a.x + alpha * (b.x - a.x),
        a.y + alpha * (b.y - a.y),
        a.depth + alpha * (b.depth - a.depth),
        a.roll + alpha * (b.roll - a.roll),
        a.pitch + alpha * (b.pitch - a.pitch),
        a.yaw + alpha * (b.yaw - a.yaw),
    )
    if a.velocity is not None and b.velocity is not None:
        va, vb = np.asarray(a.velocity, dtype=float), np.asarray(b.velocity, dtype=float)
        vel = va + alpha * (vb - va)
    elif a.velocity is not None:
        vel = np.asarray(a.velocity, dtype=float)
    else:
        vel = np.array(
            [(b.y - a.y) / span, (b.x - a.x) / span, (b.depth - a.depth) / span]
        )
    return pose, vel


def _fmt(v: float) -> str:
    return f"{v:.9g}"


class _CsvLog:
    def __init__(self, path: Path, header: list[str], preamble: str | None = None):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w", encoding="ascii", newline="\n")
        if preamble is not None:
            self._fh.write(preamble + "\n")
        self._fh.write(",".join(header) + "\n")

    def row(self, fields) -> None:
        self._fh.write(",".join(str(f) for f in fields) + "\n")

    def close(self) -> None:
        self._fh.close()


class Simulation:
    """One configured scenario run; create, then call run()."""

    def __init__(self, cfg: ScenarioConfig, out_dir):
        problems = validate(cfg)
        if problems:
            raise ScenarioError("invalid scenario: " + "; ".join(problems))
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

        self.heightmap = None
        self.tile_manager = None
        if cfg.world is not None:
            self.heightmap = bathymetry.load_heightmap(cfg.world.heightmap_path)
            specs = tiling.grid_tile_specs(self.heightmap, cfg.world.tile_size, cfg.world.overlap)
            self.tile_manager = tiling.TileManager(
                specs, cfg.world.load_radius, cfg.world.unload_radius
            )

        self.field = currents.CurrentField(
            currents.StratifiedCurrentDB(list(cfg.current_strata)),
            tide=cfg.tide,
            gm=cfg.gauss_markov,
        )

        # Deterministic seed tree: for each vehicle in config order, one
        # child for its current sampler, then one per sensor in order.
        # Couplings draw no randomness.
        seed_seq = np.random.SeedSequence(cfg.seed)
        self._seed_iter = iter(seed_seq.spawn(_rng_slots(cfg)))

        self._vehicles: dict[str, dict] = {}
        for vspec in cfg.vehicles:
            sampler = self.field.sampler(next(self._seed_iter))
            sensors = []
            for sspec in vspec.sensors:
                sensors.append(
                    {
                        "spec": sspec,
                        "config": _SENSOR_BUILDERS[sspec.kind](sspec.params),
                        "rng": np.random.default_rng(next(self._seed_iter)),
                        "steps": round((1.0 / sspec.rate_hz) / cfg.dt),
                        "count": 0,
                    }
                )
            self._vehicles[vspec.vehicle_id] = {
                "spec": vspec,
                "sampler": sampler,
                "sensors": sensors,
                "hold": None,  # station Pose after a teleport
                "pose": None,
                "velocity": np.zeros(3),
            }

        self._couplings = [
            {"spec": cspec, "state": coupling.CouplingState()} for cspec in cfg.couplings
        ]

    # -- public API ---------------------------------------------------------

    def teleport(self, vehicle_id: str, station_name: str) -> None:
        """Snap a vehicle to a named station; velocity zeroes and the
        vehicle holds there until the scenario ends."""
        if vehicle_id not in self._vehicles:
            raise KeyError(f"unknown vehicle {vehicle_id!r}")
        if station_name not in self.cfg.stations:
            raise KeyError(f"unknown station {station_name!r}")
        self._vehicles[vehicle_id]["hold"] = self.cfg.stations[station_name]

    def run(self) -> dict:
        """Execute the fixed-step loop and write all outputs. Returns the
        manifest dictionary."""
        cfg = self.cfg
        steps = _step_count(cfg)

        tile_log = None
        if self.tile_manager is not None:
            tile_log = _CsvLog(self.out_dir / "tile_events.csv", ["time", "action", "row", "col"])
        logs: dict[tuple[str, str], _CsvLog] = {}
        pose_logs: dict[str, _CsvLog] = {}
        for vid in self._vehicles:
            pose_logs[vid] = _CsvLog(
                self.out_dir / vid / "pose.csv",
                ["time", "x", "y", "depth", "roll", "pitch", "yaw", "vn", "ve", "vd"],
            )
        coupling_logs = {
            c["spec"].coupling_id: _CsvLog(
                self.out_dir / f"coupling_{c['spec'].coupling_id}.csv", coupling.LOG_HEADER
            )
            for c in self._couplings
        }

        try:
            for k in range(steps + 1):
                t = k * cfg.dt
                self._apply_teleports(t)
                self._advance_vehicles(t)
                if self.tile_manager is not None:
                    events = self.tile_manager.update_tiles(
                        [
                            ProjectedCoord(v["pose"].position.x, v["pose"].position.y)
                            for v in self._vehicles.values()
                        ]
                    )
                    for ev in events:
                        tile_log.row([_fmt(t), ev.action, ev.index[0], ev.index[1]])
                for vid, v in self._vehicles.items():
                    pose_logs[vid].row(self._pose_row(t, v))
                    for sensor in v["sensors"]:
                        if k % sensor["steps"] == 0:
                            self._evaluate_sensor(t, vid, v, sensor, logs)
                for c in self._couplings:
                    # The step at t advances over the preceding interval,
                    # so the logged row holds the state valid at t.
                    self._step_coupling(t, c, coupling_logs[c["spec"].coupling_id], advance=k > 0)
                if k < steps:
                    for v in self._vehicles.values():
                        v["sampler"].step(cfg.dt)
        finally:
            for log in logs.values():
                log.close()
            for log in pose_logs.values():
                log.close()
            for log in coupling_logs.values():
                log.close()
            if tile_log is not None:
                tile_log.close()

        manifest = self._write_manifest()
        return manifest

    # -- internals ----------------------------------------------------------

    def _apply_teleports(self, t: float) -> None:
        for vid, v in self._vehicles.items():
            for action in v["spec"].teleports:
                if abs(action.time - t) < self.cfg.dt / 2.0:
                    self.teleport(vid, action.station)

    def _advance_vehicles(self, t: float) -> None:
        for v in self._vehicles.values():
            if v["hold"] is not None:
                v["pose"], v["velocity"] = v["hold"], np.zeros(3)
            else:
                v["pose"], v["velocity"] = interpolate_trajectory(v["spec"].waypoints, t)

    def _pose_row(self, t: float, v: dict) -> list[str]:
        p = v["pose"].position
        # Report the body attitude relative to the level FLU pose.
        rel = v["pose"].rotation @ body_to_ned_rotation().T
        roll, pitch, yaw = rpy_from_rotation(rel)
        vel = v["velocity"]
        return [
            _fmt(t), _fmt(p.x), _fmt(p.y), _fmt(p.depth),
            _fmt(roll), _fmt(pitch), _fmt(yaw),
            _fmt(vel[0]), _fmt(vel[1]), _fmt(vel[2]),
        ]

    def _evaluate_sensor(self, t: float, vid: str, v: dict, sensor: dict, logs: dict) -> None:
        spec: SensorSpec = sensor["spec"]
        pose: Pose = v["pose"]
        time_utc = self.cfg.epoch_utc + t
        key = (vid, spec.name)
        if spec.kind == "dvl":
            sampler: currents.CurrentSampler = v["sampler"]
            current_fn = lambda depth: sampler.velocity(depth, time_utc)
            sol = dvl.measure(
                pose, v["velocity"], self.heightmap, current_fn, sensor["config"], sensor["rng"]
            )
            if key not in logs:
                logs[key] = _CsvLog(self.out_dir / vid / f"{spec.name}.csv", dvl.LOG_HEADER)
            logs[key].row(dvl.log_row(t, sol))
            if sensor["config"].bins > 0:
                akey = (vid, spec.name + "_adcp")
                if akey not in logs:
                    logs[akey] = _CsvLog(
                        self.out_dir / vid / f"{spec.name}_adcp.csv",
                        dvl.ADCP_HEADER,
                        preamble=dvl.adcp_metadata_row(sensor["config"]),
                    )
                profile = dvl.current_profile(
                    pose, v["velocity"], current_fn, sensor["config"], sensor["rng"]
                )
                for row in dvl.adcp_rows(t, profile):
                    logs[akey].row(row)
        elif spec.kind == "sonar":
            aplot = sonar.ping(pose, self.heightmap, sensor["config"], sensor["rng"])
            out = self.out_dir / vid / spec.name
            out.mkdir(parents=True, exist_ok=True)
            stem = f"ping_{sensor['count']:05d}"
            sonar.export_aplot(aplot, out / f"{stem}.pgm", out / f"{stem}.csv")
            sensor["count"] += 1
        elif spec.kind == "lidar":
            mount, _ = lidar.command_mount(lidar.PanTiltState(), spec.pan_deg, spec.tilt_deg)
            cloud = lidar.scan(pose, mount, self.heightmap, sensor["config"], sensor["rng"])
            out = self.out_dir / vid / spec.name
            out.mkdir(parents=True, exist_ok=True)
            lidar.write_ply(cloud, out / f"scan_{sensor['count']:05d}.ply")
            sensor["count"] += 1

    def _step_coupling(self, t: float, c: dict, log: _CsvLog, advance: bool) -> None:
        spec: CouplingSpec = c["spec"]
        vehicle = self._vehicles.get(spec.plug_vehicle)
        plug_pose: Pose = vehicle["pose"]
        recep: Pose = spec.receptacle
        r_rel = recep.rotation.T @ plug_pose.rotation
        delta_ned = np.array(
            [
                plug_pose.position.y - recep.position.y,
                plug_pose.position.x - recep.position.x,
                plug_pose.position.depth - recep.position.depth,
            ]
        )
        offset = recep.rotation.T @ delta_ned
        rel_pose = coupling.RelativePose(offset, r_rel)
        force = _force_at(spec.forces, t)
        events: list[str] = []
        if advance:
            c["state"], events = coupling.step(
                c["state"], rel_pose, force[0], self.cfg.dt, spec.config
            )
        log.row(coupling.log_row(t, c["state"], force, events))

    def _write_manifest(self) -> dict:
        cfg = self.cfg
        config_hash = (
            hashlib.sha256(cfg.source_bytes).hexdigest() if cfg.source_bytes is not None else None
        )
        manifest = {
            "schema_version": cfg.schema_version,
            "seed": cfg.seed,
            "duration": cfg.duration,
            "dt": cfg.dt,
            "config_sha256": config_hash,
            "versions": {
                "subsim": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
        }
        with open(self.out_dir / "manifest.json", "w", encoding="ascii", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def _step_count(cfg: ScenarioConfig) -> int:
    """Steps after t = 0; the run visits t = k * dt for k = 0..steps."""
    return int(round(cfg.duration / cfg.dt)) if cfg.duration > 0 else 0


def _rng_slots(cfg: ScenarioConfig) -> int:
    n = 0
    for v in cfg.vehicles:
        n += 1 + len(v.sensors)
    return max(n, 1)


def _force_at(forces, t: float) -> np.ndarray:
    """Piecewise-constant force timeline: the last entry at or before t."""
    current = np.zeros(3)
    for entry in forces:
        if entry[0] <= t + 1e-12:
            current = np.array(entry[1:])
        else:
            break
    return current


def run(cfg: ScenarioConfig, out_dir) -> dict:
    """Validate and execute a scenario; returns the manifest."""
    return Simulation(cfg, out_dir).run()
