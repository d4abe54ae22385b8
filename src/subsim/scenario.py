"""Scenario engine: declarative YAML configs driven through every sensor.

A scenario steps scripted vehicle trajectories on a fixed clock,
evaluates each configured sensor at its own rate, steps coupling state
machines from scripted force timelines, manages terrain tiles around the
vehicles, and writes all logs. Runs are deterministic: the same config
and seed produce byte-identical output directories.

`load_scenario` parses a document in one pass: each YAML mapping becomes
a config dataclass through `_build`, which rejects unknown keys, converts
every value by the field's declared type and runs the class's own
checks. The sensors a run evaluates are the classes in `SENSORS`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import struct
import sys
import types
import typing
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bathymetry, coupling, currents, dvl, geodesy, lidar, sonar, tiling
from .geodesy import ProjectedCoord
from .geometry import Pose, WorldPoint, body_to_ned_rotation, rpy_from_rotation
from .output import CsvLog, check_out, staged

SCHEMA_VERSION = 1
STILL_WATER = (currents.Stratum(0.0, (0.0, 0.0, 0.0)),)  # strata when a scenario gives none
POSE_HEADER = ["time", "x", "y", "depth", "roll", "pitch", "yaw", "vn", "ve", "vd"]
# A pose rotation times this is the body attitude relative to the level
# FLU pose, which the pose log reports.
_LEVEL_NED_TO_BODY = body_to_ned_rotation().T
# Most steps (duration / dt) a run may take: about 1,700 times the demo's 600.
MAX_STEPS = 1_000_000
# Files every run writes under --out; coupling and vehicle files are named by id.
MANIFEST = "manifest.json"
TILE_LOG = "tile_events.csv"


class ScenarioError(ValueError):
    """Unusable scenario document; the message names the offending place."""


class InvalidScenario(ScenarioError):
    """A scenario `validate` refuses; ``problems`` holds its list."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class Waypoint:
    time: float
    x: float
    y: float
    depth: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0
    velocity: tuple[float, float, float] | None = None  # NED override

    def pose(self) -> Pose:
        return Pose.from_rpy(self.x, self.y, self.depth, self.roll, self.pitch, self.yaw)


@dataclass(frozen=True)
class SensorSpec:
    kind: str  # a key of SENSORS
    name: str
    rate: float  # Hz
    config: object  # SENSORS[kind].config_type, built and checked

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class TeleportAction:
    time: float
    station: str


@dataclass(frozen=True)
class Force:
    """One entry of a force timeline; it holds until the next entry."""

    time: float
    fx: float = 0.0
    fy: float = 0.0
    fz: float = 0.0


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    waypoints: tuple[Waypoint, ...]
    sensors: tuple[SensorSpec, ...] = ()
    teleports: tuple[TeleportAction, ...] = ()


@dataclass(frozen=True)
class WorldSpec:
    heightmap: str  # relative to base_dir, the scenario file's directory
    base_dir: Path = Path(".")
    tile_size: float = tiling.DEFAULT_TILE_SIZE_M
    overlap: float = tiling.DEFAULT_OVERLAP_M
    load_radius: float = tiling.DEFAULT_LOAD_RADIUS_M
    unload_radius: float = tiling.DEFAULT_UNLOAD_RADIUS_M

    @property
    def heightmap_path(self) -> Path:
        return (self.base_dir / self.heightmap).resolve()


@dataclass(frozen=True)
class CouplingSpec:
    coupling_id: str
    plug_vehicle: str
    receptacle: Pose
    config: coupling.CouplingConfig
    forces: tuple[Force, ...]


@dataclass
class ScenarioConfig:
    duration: float
    dt: float
    seed: int = 0
    schema_version: int = SCHEMA_VERSION
    epoch_utc: float = 0.0
    world: WorldSpec | None = None
    current_field: currents.CurrentField = field(
        default_factory=lambda: currents.CurrentField(currents.StratifiedCurrentDB(STILL_WATER))
    )
    stations: dict[str, Pose] = field(default_factory=dict)
    vehicles: tuple[VehicleSpec, ...] = ()
    couplings: tuple[CouplingSpec, ...] = ()
    source_bytes: bytes | None = None


# -- parsing -------------------------------------------------------------------

_KINDS = {int: "an integer", bool: "true or false", str: "a string"}
# libyaml's scanner when PyYAML has it; it builds the same objects.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _error(where: str, problem) -> ScenarioError:
    return ScenarioError(f"{where}: {problem}" if where else str(problem))


@functools.cache
def _schema(cls) -> tuple[dict, frozenset]:
    """Field types of a dataclass, and the fields without a default."""
    required = frozenset(
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return typing.get_type_hints(cls), required


def _convert(tp, value, name: str):
    """One YAML value as the declared type `tp`; ValueError names the field.

    A float takes what float() takes, except bool, and must be finite; an
    int must be an int and not a bool; a tuple needs one item per type."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if tp is float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = None
        if number is None or isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(number):
            raise ValueError(f"{name} must be finite, got {number}")
        return number
    if typing.get_origin(tp) is tuple:
        items = typing.get_args(tp)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ValueError(f"{name} must be a list of {len(items)} numbers, got {value!r}")
        return tuple(_convert(t, v, name) for t, v in zip(items, value))
    if tp is np.ndarray:
        try:
            array = np.array(value, dtype=float)
        except (TypeError, ValueError):
            array = np.array(math.nan)
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite numbers, got {value!r}")
        return array
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise ValueError(f"{name} must be {_KINDS[tp]}, got {value!r}")
    return value


def _mapping(node, where: str, keys=None, required=()) -> dict:
    if not isinstance(node, dict):
        raise _error(where, f"must be a mapping, got {node!r}")
    for key in node:
        if keys is not None and key not in keys:
            raise _error(where, f"unknown field {key!r}")
    for key in sorted(required):
        if key not in node:
            raise _error(where, f"missing required field {key!r}")
    return node


def _items(node, where: str) -> list:
    if node is None:
        return []
    if not isinstance(node, list):
        raise _error(where, f"must be a list, got {node!r}")
    return node


def _build(cls, mapping, where: str, **fixed):
    """A `cls` from a YAML mapping: every key a field of `cls`, every value
    converted by the field's type, then `cls`'s own checks. Fields in
    `fixed` are given by the caller and may not appear in the mapping."""
    hints, required = _schema(cls)
    node = _mapping(mapping, where, hints.keys() - fixed.keys(), required - fixed.keys())
    try:
        return cls(**{key: _convert(hints[key], value, key) for key, value in node.items()}, **fixed)
    except ValueError as err:
        raise _error(where, err) from None


def _built(cls, node, where: str) -> tuple:
    return tuple(_build(cls, item, f"{where}[{i}]") for i, item in enumerate(_items(node, where)))


def _pose(node, where: str) -> Pose:
    """A station or receptacle: a waypoint's pose fields, without time or velocity."""
    return _build(Waypoint, node, where, time=0.0, velocity=None).pose()


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario YAML file into checked, built configs.

    A problem with any one field raises ScenarioError naming its place;
    checks that span sections, or that a run override can change, are
    left for validate()."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        doc = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as err:
        raise ScenarioError(f"{path}: not valid YAML: {' '.join(str(err).split())}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario document must be a mapping")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ScenarioError(f"{path}: unsupported schema_version {doc['schema_version']}")
    sections = ("world", "currents", "stations", "vehicles", "couplings")
    stations = _mapping(doc.get("stations") or {}, "stations")
    return _build(
        ScenarioConfig,
        {key: value for key, value in doc.items() if key not in sections},
        "",
        world=_build(WorldSpec, doc["world"], "world", base_dir=path.parent) if "world" in doc else None,
        current_field=_current_field(doc.get("currents") or {}, path.parent),
        stations={str(name): _pose(node, f"station {name!r}") for name, node in stations.items()},
        vehicles=tuple(_vehicle(node, i) for i, node in enumerate(_items(doc.get("vehicles"), "vehicles"))),
        couplings=tuple(_coupling(node, i) for i, node in enumerate(_items(doc.get("couplings"), "couplings"))),
        source_bytes=raw,
    )


def _current_field(node, base_dir: Path) -> currents.CurrentField:
    node = _mapping(node, "currents", ("strata", "tide", "gauss_markov"))
    strata = _built(currents.Stratum, node["strata"], "currents strata") if "strata" in node else STILL_WATER
    gm = _build(currents.GaussMarkovParams, node.get("gauss_markov") or {}, "currents gauss_markov")
    tide = _tide(node["tide"], base_dir) if "tide" in node else None
    try:
        return currents.CurrentField(currents.StratifiedCurrentDB(strata), tide=tide, gm=gm)
    except currents.CurrentError as err:
        raise _error("currents", err) from None


def _tide(node, base_dir: Path) -> currents.TidalModel | None:
    where = "currents tide"
    node = _mapping(node, where, ("heading", "constituents", "series"))
    if "constituents" not in node and "series" not in node:
        return None
    constituents = None
    if "constituents" in node:
        constituents = _built(currents.TidalConstituent, node["constituents"], f"{where} constituents")
    try:
        heading = _convert(float, node.get("heading", 0.0), "heading")
        series = (None, None)
        if "series" in node:
            series = currents.load_tide_series_csv(base_dir / _convert(str, node["series"], "series"))
        return currents.TidalModel(heading, constituents, *series)
    except ValueError as err:
        raise _error(where, err) from None


def _vehicle(node, index: int) -> VehicleSpec:
    node = _mapping(node, f"vehicles[{index}]", ("id", "trajectory", "sensors", "teleports"), ("id",))
    vid = str(node["id"])
    where = f"vehicle {vid!r}"
    return VehicleSpec(
        vid,
        _built(Waypoint, node.get("trajectory"), f"{where} trajectory"),
        tuple(_sensor(s, where) for s in _items(node.get("sensors"), f"{where} sensors")),
        _built(TeleportAction, node.get("teleports"), f"{where} teleports"),
    )


def _sensor(node, where: str) -> SensorSpec:
    """The SensorSpec fields of a sensor entry build the spec; `type`
    picks the kind, and every other key belongs to the kind's config."""
    node = _mapping(node, f"{where} sensors")
    kind = str(node.get("type"))
    label = f"{where} sensor {str(node.get('name', kind))!r}"
    if kind not in SENSORS:
        raise _error(label, f"unknown type {kind!r}")
    spec_fields = _schema(SensorSpec)[0]
    config = {key: value for key, value in node.items() if key not in spec_fields and key != "type"}
    spec = {key: value for key, value in node.items() if key in spec_fields}
    return _build(SensorSpec, {"name": kind, **spec}, label, kind=kind,
                  config=_build(SENSORS[kind].config_type, config, label))


def _coupling(node, index: int) -> CouplingSpec:
    keys = ("id", "plug_vehicle", "receptacle", "config", "forces")
    node = _mapping(node, f"couplings[{index}]", keys, keys[:4])
    where = f"coupling {str(node['id'])!r}"
    return CouplingSpec(
        coupling_id=str(node["id"]),
        plug_vehicle=str(node["plug_vehicle"]),
        receptacle=_pose(node["receptacle"], f"{where} receptacle"),
        config=_build(coupling.CouplingConfig, node["config"], f"{where} config"),
        forces=_built(Force, node.get("forces"), f"{where} forces"),
    )


def _name_problems(cfg: ScenarioConfig) -> list[str]:
    """Problems with vehicle ids, sensor names and coupling ids: each names a
    file or directory under the output directory, so it must be one path
    component, and unique among the names of its kind."""
    problems = []

    def check(what: str, names) -> None:
        seen = set()
        for name in names:
            if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                problems.append(f"{what} {name!r} must be a plain file name: not empty, '.' or '..', "
                                "and without '/', '\\' or NUL")
            if name in seen:
                problems.append(f"duplicate {what} {name!r}")
            seen.add(name)

    check("vehicle id", [v.vehicle_id for v in cfg.vehicles])
    for vehicle in cfg.vehicles:
        check(f"vehicle {vehicle.vehicle_id!r} sensor name", [s.name for s in vehicle.sensors])
    check("coupling id", [c.coupling_id for c in cfg.couplings])
    return problems


def validate(cfg: ScenarioConfig) -> list[str]:
    """Checks that span fields or sections, and checks on what a run can
    override (seed, dt, duration); load_scenario checked every single
    field. An empty list means runnable."""
    diags: list[str] = []
    dt_ok = math.isfinite(cfg.dt) and cfg.dt > 0.0
    duration_ok = math.isfinite(cfg.duration) and cfg.duration >= 0.0
    if not dt_ok:
        diags.append(f"dt must be positive and finite, got {cfg.dt}")
    if not duration_ok:
        diags.append(f"duration must be >= 0 and finite, got {cfg.duration}")
    steps = _step_count(cfg) if dt_ok and duration_ok and cfg.duration / cfg.dt <= MAX_STEPS + 0.5 else None
    if dt_ok and duration_ok and steps is None:
        diags.append(f"duration / dt is {cfg.duration / cfg.dt:.6g} steps; a run takes at most {MAX_STEPS}")
    if cfg.seed < 0:
        diags.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.world is not None:
        world = cfg.world
        try:  # the DEM header and the tiling, as a run checks them; no depth value is read
            tiling.tile_counts(bathymetry.grid_extent(world.heightmap_path), world.tile_size, world.overlap)
        except (bathymetry.HeightmapError, OSError) as err:
            diags.append(str(err))
        diags += [f"world.{problem}" for problem in tiling.radius_problems(world.load_radius, world.unload_radius)]
    tide, gm = cfg.current_field.tide, cfg.current_field.gm
    if tide is not None and steps is not None:
        # The run queries the tide at epoch_utc + k * dt for every step k.
        start, end = cfg.epoch_utc, cfg.epoch_utc + steps * cfg.dt
        if tide.series_times is not None:
            first, last = float(tide.series_times[0]), float(tide.series_times[-1])
            uncovered = [f"[{start}, {first})"] if start < first else []
            uncovered += [f"({last}, {end}]"] if end > last else []
            if uncovered:
                diags.append(f"currents: tide series spans [{first}, {last}] s UTC; "
                             f"run times {' and '.join(uncovered)} are not covered")
        for i, constituent in enumerate(tide.constituents or ()):
            try:  # the phase grows with |t|, so the first and last times cover the run
                constituent.speed(start), constituent.speed(end)
            except ValueError:
                diags.append(f"currents tide constituents[{i}]: period {constituent.period} s gives no "
                             "finite phase over the run's times")
    try:  # the Gauss-Markov step a run of one step or more takes
        gm_ok = not steps or all(map(math.isfinite, gm.step_terms(cfg.dt)))
    except OverflowError:
        gm_ok = False
    if not gm_ok:
        diags.append(f"currents gauss_markov: mu {gm.mu} and sigma {gm.sigma} give no finite step at dt {cfg.dt}")

    name_problems = _name_problems(cfg)
    diags += name_problems
    for name, station in cfg.stations.items():
        diags += _position_problems(f"station {name!r}", station.position)
    for vehicle in cfg.vehicles:
        vid = vehicle.vehicle_id
        times = [w.time for w in vehicle.waypoints]
        if not times:
            diags.append(f"vehicle {vid!r} needs at least one trajectory waypoint")
        elif any(b <= a for a, b in zip(times, times[1:])):
            diags.append(f"vehicle {vid!r} trajectory times must be strictly increasing")
        else:
            for i, (a, b) in enumerate(zip(vehicle.waypoints, vehicle.waypoints[1:]), 1):
                if not all(map(math.isfinite, _segment_velocity(a, b, 0.0))):
                    diags.append(f"vehicle {vid!r} trajectory[{i}]: time {b.time} s after {a.time} s "
                                 "gives no finite segment velocity")
        for i, w in enumerate(vehicle.waypoints):
            diags += _position_problems(f"vehicle {vid!r} trajectory[{i}]", w)
        for sensor in vehicle.sensors:
            label = f"vehicle {vid!r} sensor {sensor.name!r}"
            if steps is not None and not sensor_steps(sensor.rate, cfg.dt):
                diags.append(f"{label}: period {1.0 / sensor.rate} is not an integer multiple of dt {cfg.dt}")
            if SENSORS[sensor.kind].needs_world and cfg.world is None:
                diags.append(f"{label}: requires a world heightmap")
        for i, action in enumerate(vehicle.teleports):
            if action.station not in cfg.stations:
                diags.append(f"vehicle {vid!r}: unknown teleport station {action.station!r}")
            inside = steps is not None and 0.0 <= action.time <= steps * cfg.dt
            if inside and not teleport_steps(action.time, cfg.dt, steps):  # outside, it never fires
                diags.append(f"vehicle {vid!r} teleports[{i}]: time {action.time} is half a step of dt "
                             f"{cfg.dt} from the nearest steps, so no step fires it")

    vehicle_ids = {v.vehicle_id for v in cfg.vehicles}
    for spec in cfg.couplings:
        if spec.plug_vehicle not in vehicle_ids:
            diags.append(f"coupling {spec.coupling_id!r}: unknown plug vehicle {spec.plug_vehicle!r}")
        diags += _position_problems(f"coupling {spec.coupling_id!r} receptacle", spec.receptacle.position)
        ftimes = [f.time for f in spec.forces]
        if any(b <= a for a, b in zip(ftimes, ftimes[1:])):
            diags.append(f"coupling {spec.coupling_id!r}: force times must be strictly increasing")
    if not name_problems:  # plain, unique names; now no two may name one path
        diags += _path_clashes(run_paths(cfg))
    return diags


def _position_problems(where: str, point) -> list[str]:
    """A problem for each of the x and y of ``point`` (a waypoint or a world
    point) that lies outside the Mercator square, which holds every grid."""
    return [f"{where}: {name} {value} m is outside the Mercator square (+/-{geodesy.MERCATOR_LIMIT_M:.3f} m)"
            for name, value in (("x", point.x), ("y", point.y)) if geodesy.beyond_mercator_square(value)]


def sensor_steps(rate: float, dt: float) -> int:
    """Steps between evaluations of a sensor at ``rate`` Hz: its period
    1 / rate as a whole number of steps of dt, or 0 when it is none."""
    period = 1.0 / rate
    ratio = period / dt  # inf for a subnormal dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    return steps if steps >= 1 and abs(period - steps * dt) <= 1e-9 * max(1.0, period) else 0


def teleport_steps(time: float, dt: float, steps: int) -> list[int]:
    """The steps k = 0..steps at which a teleport at ``time`` fires: each with
    |time - k * dt| < dt / 2. Only round(time / dt) and its neighbours can; a
    ratio beyond the run (inf for a subnormal dt) is clamped to one step past it."""
    k = round(min(max(time / dt, -1.0), steps + 1.0))
    return [n for n in (k - 1, k, k + 1) if 0 <= n <= steps and abs(time - n * dt) < dt / 2.0]


def run_paths(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    """Every path a run of ``cfg`` writes, relative to its output directory,
    with the owner that writes it. A directory of products ends in "/"."""
    paths = [(MANIFEST, "the run manifest")]
    if cfg.world is not None:
        paths.append((TILE_LOG, "the tile event log"))
    paths += [(_coupling_log(c.coupling_id), f"coupling {c.coupling_id!r}") for c in cfg.couplings]
    for vehicle in cfg.vehicles:
        vid = vehicle.vehicle_id
        paths.append((_pose_log(vid), f"vehicle {vid!r} pose log"))
        for sensor in vehicle.sensors:
            owner = f"vehicle {vid!r} sensor {sensor.name!r}"
            paths += [(f"{vid}/{name}", owner) for name in SENSORS[sensor.kind].files(sensor)]
    return paths


def _path_clashes(paths) -> list[str]:
    """One problem per path with two owners, where a file is also the
    directory of another path."""
    owners: dict[str, list[str]] = {}
    for path, owner in paths:
        owners.setdefault(path.rstrip("/"), []).append(owner)
    files = {path: owner for path, owner in paths if not path.endswith("/")}
    for path, owner in paths:
        parts = path.rstrip("/").split("/")
        for depth in range(1, len(parts)):
            parent = "/".join(parts[:depth])
            if parent in files and owner not in owners[parent]:
                owners[parent].append(owner)
    return [f"output path {path!r} is written by both {who[0]} and {who[1]}"
            for path, who in owners.items() if len(who) > 1]


_POSE_BITS = struct.Struct("<6d")  # x, y, depth, roll, pitch, yaw
_ATTITUDE = slice(24, 48)  # the bits of roll, pitch and yaw in a _POSE_BITS key


class Trajectory(tuple):
    """A timed waypoint tuple with what `interpolate_trajectory` looks up
    on every step: the waypoint times, searched with `bisect`, and the
    last pose it built, keyed by the bits of its six values (so -0.0 is
    not 0.0). A hold or a hover repeats them, and gets the same `Pose`
    object; a segment of constant attitude shares its rotation."""

    def __new__(cls, waypoints):
        self = super().__new__(cls, waypoints)
        self.times = [w.time for w in self]
        self._last = (b"", None)  # (_POSE_BITS key, Pose)
        return self

    def pose(self, x: float, y: float, depth: float, roll: float, pitch: float, yaw: float) -> Pose:
        """`Pose.from_rpy`, with the pose shared while all six values repeat
        and its read-only rotation while the angles do."""
        key = _POSE_BITS.pack(x, y, depth, roll, pitch, yaw)
        last_key, last = self._last
        if key == last_key:
            return last
        if key[_ATTITUDE] == last_key[_ATTITUDE]:
            rotation = last.rotation
        else:
            rotation = body_to_ned_rotation(roll, pitch, yaw)
            rotation.setflags(write=False)
        pose = Pose(WorldPoint(x, y, depth), rotation)
        self._last = (key, pose)
        return pose


def interpolate_trajectory(waypoints, t: float) -> tuple[Pose, np.ndarray]:
    """Pose and NED velocity along a timed waypoint list.

    Pose components interpolate linearly inside each segment. Segment
    velocity is an explicit waypoint velocity when given, otherwise the
    segment displacement rate; the vehicle holds pose with zero velocity
    before the first and after the last waypoint. Times must increase
    strictly, as `validate` requires. A run passes a `Trajectory`; any
    other sequence is wrapped in one per call.
    """
    traj = waypoints if isinstance(waypoints, Trajectory) else Trajectory(waypoints)
    first, last = traj[0], traj[-1]
    if t >= last.time or t < first.time:
        w = last if t >= last.time else first
        return traj.pose(w.x, w.y, w.depth, w.roll, w.pitch, w.yaw), np.zeros(3)
    hi = bisect_right(traj.times, t)
    a, b = traj[hi - 1], traj[hi]
    alpha = (t - a.time) / (b.time - a.time)
    pose = traj.pose(
        a.x + alpha * (b.x - a.x),
        a.y + alpha * (b.y - a.y),
        a.depth + alpha * (b.depth - a.depth),
        a.roll + alpha * (b.roll - a.roll),
        a.pitch + alpha * (b.pitch - a.pitch),
        a.yaw + alpha * (b.yaw - a.yaw),
    )
    return pose, _segment_velocity(a, b, alpha)


def _segment_velocity(a: Waypoint, b: Waypoint, alpha: float) -> np.ndarray:
    """NED velocity at fraction ``alpha`` of the segment from ``a`` to ``b``:
    interpolated between explicit waypoint velocities when both give one,
    ``a``'s when only it does, else the displacement rate."""
    if a.velocity is not None and b.velocity is not None:
        va, vb = np.asarray(a.velocity, dtype=float), np.asarray(b.velocity, dtype=float)
        return va + alpha * (vb - va)
    if a.velocity is not None:
        return np.asarray(a.velocity, dtype=float)
    span = b.time - a.time
    return np.array([(b.y - a.y) / span, (b.x - a.x) / span, (b.depth - a.depth) / span])


# -- sensors -------------------------------------------------------------------


class Sensor:
    """One configured sensor on one vehicle, evaluated every `steps` steps.

    A subclass per kind names its config type and whether it needs the
    world heightmap, opens its logs under its vehicle's output directory
    into the run's ExitStack, and turns one evaluation into products there.
    What an evaluation's pose alone decides (its rays) is its geometry,
    which `held_geometry` keeps while the vehicle holds that pose."""

    config_type: type
    needs_world = True

    def __init__(self, spec: SensorSpec, rng: np.random.Generator, steps: int, heightmap):
        self.spec, self.config, self.rng, self.steps = spec, spec.config, rng, steps
        self.heightmap = heightmap
        self.count = 0  # products written
        # The pose of the last evaluation, and its geometry once a second evaluation held it.
        self._held: tuple[Pose | None, object] = (None, None)

    def held_geometry(self, pose: Pose, build):
        """The geometry of ``pose`` to reuse, or None for the first evaluation
        at it: a pose that repeats is held, so the second evaluation at one
        `Pose` object builds ``build(pose, heightmap, config)`` and keeps it
        for the evaluations after, until the pose changes. A moving vehicle
        keeps no geometry."""
        last, geometry = self._held
        if pose is not last:
            self._held = (pose, None)
            return None
        if geometry is None:
            geometry = build(pose, self.heightmap, self.config)
            self._held = (pose, geometry)
        return geometry

    @staticmethod
    def files(spec: SensorSpec) -> list[str]:
        """The paths the sensor writes under its vehicle's directory: here one
        directory of numbered products."""
        return [f"{spec.name}/"]

    def open(self, stack: contextlib.ExitStack, vehicle_dir: Path) -> None:
        self.out = vehicle_dir / self.files(self.spec)[0]
        self.out.mkdir(parents=True, exist_ok=True)


class DvlSensor(Sensor):
    """Velocity log rows, plus ADCP profile rows when the config has bins."""

    config_type = dvl.DvlConfig
    needs_world = False

    @staticmethod
    def files(spec: SensorSpec) -> list[str]:
        """The velocity log, then the ADCP log when the config has bins."""
        return [f"{spec.name}.csv"] + ([f"{spec.name}_adcp.csv"] if spec.config.bins > 0 else [])

    def open(self, stack: contextlib.ExitStack, vehicle_dir: Path) -> None:
        log, *adcp = self.files(self.spec)
        self.log = stack.enter_context(CsvLog(vehicle_dir / log, dvl.LOG_HEADER))
        self.adcp_log = None
        if adcp:
            self.adcp_log = stack.enter_context(CsvLog(vehicle_dir / adcp[0], dvl.ADCP_HEADER,
                                                       dvl.adcp_metadata_row(self.config)))

    def evaluate(self, t: float, time_utc: float, vehicle: _Vehicle) -> None:
        sampler, pose = vehicle.sampler, vehicle.pose
        current_fn = lambda depth: sampler.velocity(depth, time_utc)
        # Built here when not held, so the tick and its profile share it.
        geometry = self.held_geometry(pose, dvl.beam_geometry) or dvl.beam_geometry(pose, self.heightmap, self.config)
        sol = dvl.measure(pose, vehicle.velocity, self.heightmap, current_fn, self.config, self.rng, geometry)
        self.log.row(dvl.log_row(t, sol))
        if self.adcp_log is not None:
            profile = dvl.current_profile(pose, vehicle.velocity, current_fn, self.config, self.rng, geometry)
            self.adcp_log.rows(dvl.adcp_rows(t, profile))


class SonarSensor(Sensor):
    """One PGM + CSV A-plot per ping."""

    config_type = sonar.SonarConfig

    def evaluate(self, t: float, time_utc: float, vehicle: _Vehicle) -> None:
        geometry = self.held_geometry(vehicle.pose, sonar.ping_geometry)
        aplot = sonar.ping(vehicle.pose, self.heightmap, self.config, self.rng, geometry)
        stem = f"ping_{self.count:05d}"
        sonar.write_aplot_pgm(aplot, self.out / f"{stem}.pgm")
        sonar.write_aplot_csv(aplot, self.out / f"{stem}.csv")
        self.count += 1


class LidarSensor(Sensor):
    """One PLY point cloud per scan, from the mount angles of its config."""

    config_type = lidar.LidarConfig

    def evaluate(self, t: float, time_utc: float, vehicle: _Vehicle) -> None:
        geometry = self.held_geometry(vehicle.pose, lidar.scan_geometry)
        cloud = lidar.scan(vehicle.pose, self.heightmap, self.config, self.rng, geometry)
        lidar.write_ply(cloud, self.out / f"scan_{self.count:05d}.ply")
        self.count += 1


SENSORS: dict[str, type[Sensor]] = {"dvl": DvlSensor, "sonar": SonarSensor, "lidar": LidarSensor}


class _Vehicle:
    """Run state of one vehicle: its current sampler, sensors and pose."""

    def __init__(self, spec: VehicleSpec, sampler: currents.CurrentSampler, sensors: list[Sensor]):
        self.sampler, self.sensors = sampler, sensors
        self.trajectory = Trajectory(spec.waypoints)
        self.hold: Pose | None = None  # station pose after a teleport
        self.pose: Pose | None = None
        self.velocity = np.zeros(3)
        # The pose log's roll, pitch and yaw of the last rotation logged; a
        # trajectory hands out one rotation object while its angles repeat.
        self.logged_attitude: tuple[np.ndarray | None, tuple[float, float, float]] = (None, (0.0, 0.0, 0.0))


class Simulation:
    """One configured scenario run; create, then call run()."""

    def __init__(self, cfg: ScenarioConfig, out_dir):
        problems = validate(cfg)
        if problems:
            raise InvalidScenario(problems)
        check_out(out_dir, directory=True)  # before the heightmap is read
        self.cfg, self.out_dir, self._steps = cfg, out_dir, _step_count(cfg)
        self.heightmap = self.tile_manager = None
        if cfg.world is not None:
            self.heightmap = bathymetry.load_heightmap(cfg.world.heightmap_path)
            specs = tiling.grid_tile_specs(self.heightmap, cfg.world.tile_size, cfg.world.overlap)
            self.tile_manager = tiling.TileManager(specs, cfg.world.load_radius, cfg.world.unload_radius)

        # Deterministic seed tree: for each vehicle in config order, one
        # child for its current sampler, then one per sensor in order.
        # Couplings draw no randomness.
        seeds = np.random.SeedSequence(cfg.seed)
        self._vehicles: dict[str, _Vehicle] = {}
        # (vehicle id, station) of each teleport by the step it fires on,
        # in vehicle and then script order; the last one a step applies wins.
        self._teleports: dict[int, list[tuple[str, str]]] = {}
        for vspec in cfg.vehicles:
            sampler = cfg.current_field.sampler(seeds.spawn(1)[0])
            sensors = []
            for s in vspec.sensors:
                rng = np.random.default_rng(seeds.spawn(1)[0])
                sensors.append(SENSORS[s.kind](s, rng, sensor_steps(s.rate, cfg.dt), self.heightmap))
            self._vehicles[vspec.vehicle_id] = _Vehicle(vspec, sampler, sensors)
            for action in vspec.teleports:
                for k in teleport_steps(action.time, cfg.dt, self._steps):
                    self._teleports.setdefault(k, []).append((vspec.vehicle_id, action.station))
        self._coupling_states = {c.coupling_id: coupling.CouplingState() for c in cfg.couplings}
        # Each coupling's force entry times, and one read-only force row per entry after a
        # zero row: the count of entries at or before a time indexes the force then.
        self._forces: dict[str, tuple[list[float], np.ndarray]] = {}
        for c in cfg.couplings:
            forces = np.array([[0.0, 0.0, 0.0]] + [[f.fx, f.fy, f.fz] for f in c.forces])
            forces.setflags(write=False)
            self._forces[c.coupling_id] = ([f.time for f in c.forces], forces)

    # -- public API ---------------------------------------------------------

    def teleport(self, vehicle_id: str, station_name: str) -> None:
        """Snap a vehicle to a named station; velocity zeroes and the
        vehicle holds there until the scenario ends."""
        if vehicle_id not in self._vehicles:
            raise KeyError(f"unknown vehicle {vehicle_id!r}")
        if station_name not in self.cfg.stations:
            raise KeyError(f"unknown station {station_name!r}")
        self._vehicles[vehicle_id].hold = self.cfg.stations[station_name]

    def run(self) -> dict:
        """Execute the fixed-step loop and write all outputs, the manifest
        last, into the output directory through ``output.staged``: a new or
        empty directory that holds the whole run or, on any failure, is
        left as it was. Returns the manifest dictionary."""
        cfg, steps = self.cfg, self._steps

        with staged(self.out_dir, directory=True) as root, contextlib.ExitStack() as stack:
            def log(path: str, header: list[str]) -> CsvLog:
                return stack.enter_context(CsvLog(root / path, header))

            if self.tile_manager is not None:
                tile_log = log(TILE_LOG, ["time", "action", "row", "col"])
            pose_logs = {vid: log(_pose_log(vid), POSE_HEADER) for vid in self._vehicles}
            coupling_logs = {cid: log(_coupling_log(cid), coupling.LOG_HEADER) for cid in self._coupling_states}
            for vid, v in self._vehicles.items():
                for sensor in v.sensors:
                    sensor.open(stack, root / vid)

            for k in range(steps + 1):
                t = k * cfg.dt
                for vid, station in self._teleports.get(k, ()):
                    self.teleport(vid, station)
                self._advance_vehicles(t)
                if self.tile_manager is not None:
                    events = self.tile_manager.update_tiles(
                        [ProjectedCoord(v.pose.position.x, v.pose.position.y) for v in self._vehicles.values()]
                    )
                    for ev in events:
                        tile_log.row([t, ev.action, *ev.index])
                time_utc = cfg.epoch_utc + t
                for vid, v in self._vehicles.items():
                    pose_logs[vid].row(self._pose_row(t, v))
                    for sensor in v.sensors:
                        if k % sensor.steps == 0:
                            sensor.evaluate(t, time_utc, v)
                for spec in cfg.couplings:
                    # The step at t advances over the preceding interval,
                    # so the logged row holds the state valid at t.
                    self._step_coupling(t, spec, coupling_logs[spec.coupling_id], advance=k > 0)
                if k < steps:
                    for v in self._vehicles.values():
                        v.sampler.step(cfg.dt)
            return self._write_manifest(root)

    # -- internals ----------------------------------------------------------

    def _advance_vehicles(self, t: float) -> None:
        for v in self._vehicles.values():
            if v.hold is not None:
                v.pose, v.velocity = v.hold, np.zeros(3)
            else:
                v.pose, v.velocity = interpolate_trajectory(v.trajectory, t)

    def _pose_row(self, t: float, v: _Vehicle) -> list[float]:
        p, rotation = v.pose.position, v.pose.rotation
        logged, attitude = v.logged_attitude
        if rotation is not logged:
            attitude = rpy_from_rotation(rotation @ _LEVEL_NED_TO_BODY)
            v.logged_attitude = (rotation, attitude)
        return [t, p.x, p.y, p.depth, *attitude, *v.velocity.tolist()]

    def _step_coupling(self, t: float, spec: CouplingSpec, log: CsvLog, advance: bool) -> None:
        plug_pose: Pose = self._vehicles[spec.plug_vehicle].pose
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
        times, forces = self._forces[spec.coupling_id]
        force = forces[bisect_right(times, t + 1e-12)]  # the last entry at or before t
        events: list[str] = []
        state = self._coupling_states[spec.coupling_id]
        if advance:
            state, events = coupling.step(state, rel_pose, force[0], self.cfg.dt, spec.config)
            self._coupling_states[spec.coupling_id] = state
        log.row(coupling.log_row(t, state, force, events))

    def _write_manifest(self, root: Path) -> dict:
        cfg = self.cfg
        manifest = {
            "schema_version": cfg.schema_version, "seed": cfg.seed, "duration": cfg.duration, "dt": cfg.dt,
            "config_sha256": None if cfg.source_bytes is None else hashlib.sha256(cfg.source_bytes).hexdigest(),
            "versions": {"subsim": __version__, "numpy": np.__version__,
                         "python": ".".join(str(v) for v in sys.version_info[:3])},
        }
        with open(root / MANIFEST, "w", encoding="ascii", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def _pose_log(vehicle_id: str) -> str:
    return f"{vehicle_id}/pose.csv"


def _coupling_log(coupling_id: str) -> str:
    return f"coupling_{coupling_id}.csv"


def _step_count(cfg: ScenarioConfig) -> int:
    """Steps after t = 0; the run visits t = k * dt for k = 0..steps."""
    return int(round(cfg.duration / cfg.dt)) if cfg.duration > 0 else 0


def run(cfg: ScenarioConfig, out_dir) -> dict:
    """Validate and execute a scenario; returns the manifest."""
    return Simulation(cfg, out_dir).run()
