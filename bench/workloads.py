"""Deterministic inputs for the benchmark workloads.

Each builder writes the files one workload needs into a work directory
and returns a `Workload`: the subsim command lines of one repetition
plus what the benchmark checks in their outputs. The same seed gives
byte-identical inputs. Terrain is built in the style of
`scenarios/make_demo_dem.py`: rippled seafloor around 44 m depth with a
few mounds; the seed sets the ripple phases.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6378137.0  # WGS 84, as in subsim.geodesy
CELL_DEG = 0.00027  # ~30 m per cell near the equator, as in the demo DEM


@dataclass
class Workload:
    """One repetition: subsim argv lists run one after another.

    `outputs` names each command's output (a directory or one file),
    relative to the repetition directory; `{outN}` in an argument is
    replaced by the path of output N.
    `phases` gives each command's kind, which picks the function calls
    that count as set-up and as run time (see child.PHASES).
    `expect_layers` are the spans a traced run must record calls for.
    `pin` is true when every command runs on one thread (no sonar, whose
    pings use a thread pool), so a repetition can be held to one CPU
    without changing what it does.
    """

    commands: list[list[str]]
    outputs: list[str]
    phases: list[str]
    expect_layers: tuple[str, ...]
    pin: bool
    checks: dict = field(default_factory=dict)


def _terrain(n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """Depth grid (row 0 = south): ripples with seeded phases plus three
    mounds at fixed places, so every seed has the same relief."""
    x = np.arange(n_cols) * 30.06
    y = np.arange(n_rows) * 30.06
    gx, gy = np.meshgrid(x, y)
    px, py = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2)
    depth = 44.0 + 3.0 * np.sin(2.0 * np.pi * gx / 700.0 + px) * np.cos(2.0 * np.pi * gy / 900.0 + py)
    for fx, fy in ((0.25, 0.3), (0.6, 0.7), (0.8, 0.2)):
        cx, cy = fx * x[-1], fy * y[-1]
        depth -= 8.0 * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / 700.0**2)
    return depth


def write_dem(path: Path, depth: np.ndarray) -> None:
    """ESRI ASCII grid, north row first, three decimals."""
    n_rows, n_cols = depth.shape
    row_fmt = " ".join(["%.3f"] * n_cols) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"ncols {n_cols}\nnrows {n_rows}\n")
        fh.write("xllcorner 0.0\nyllcorner 0.0\n")
        fh.write(f"cellsize {CELL_DEG}\nnodata_value -9999\n")
        for row in depth[::-1].tolist():
            fh.write(row_fmt % tuple(row))


def _extent_m(n_rows: int, n_cols: int) -> tuple[float, float]:
    """Mercator width and height of a DEM anchored at (0, 0)."""
    lon = math.radians((n_cols - 1) * CELL_DEG)
    lat = math.radians((n_rows - 1) * CELL_DEG)
    return EARTH_RADIUS_M * lon, EARTH_RADIUS_M * math.log(math.tan(math.pi / 4.0 + lat / 2.0))


def _tile_count(n_rows: int, n_cols: int, tile_size: float) -> int:
    width, height = _extent_m(n_rows, n_cols)
    return math.ceil(width / tile_size - 1e-6) * math.ceil(height / tile_size - 1e-6)


def _yaml_value(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_yaml_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_yaml_value(x) for x in v) + "]"
    if isinstance(v, (float, np.floating)):
        return repr(round(float(v), 6))
    return str(v)


def _write_yaml(path: Path, doc: dict) -> None:
    """Block-style mapping with flow-style leaves; enough for scenarios."""
    lines = []

    def emit(node, indent: str) -> None:
        for key, value in node.items():
            if isinstance(value, dict):
                lines.append(f"{indent}{key}:")
                emit(value, indent + "  ")
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{indent}{key}:")
                for item in value:
                    lines.append(f"{indent}  - {_yaml_value(item)}")
            else:
                lines.append(f"{indent}{key}: {_yaml_value(value)}")

    emit(doc, "")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


_CURRENTS = {
    "strata": [
        {"depth": 0.0, "velocity": [0.3, 0.1, 0.0]},
        {"depth": 60.0, "velocity": [0.05, 0.0, 0.0]},
    ],
    "tide": {"heading": 0.3, "constituents": [{"amplitude": 0.2, "period": 44712.0, "phase": 0.0}]},
    "gauss_markov": {"mu": 0.05, "sigma": 0.01, "bound": 1.0},
}

_RUN_LAYERS = ("cli.main", "scenario.load_scenario", "scenario.validate", "scenario.Simulation.init",
               "scenario.Simulation.run", "scenario.interpolate_trajectory",
               "bathymetry.load_heightmap", "tiling.grid_tile_specs", "tiling.update_tiles")


def demo(work: Path, seed: int, repo: Path) -> Workload:
    """The shipped demo scenario, with the seed passed on the command line."""
    return Workload(
        commands=[["run", str(repo / "scenarios" / "demo.yaml"), "--out", "{out0}", "--seed", str(seed)]],
        outputs=["run"],
        phases=["run"],
        expect_layers=_RUN_LAYERS + (
            "bathymetry.raycast", "bathymetry.raycast_batch", "currents.CurrentSampler.step",
            "currents.CurrentSampler.velocity", "dvl.measure", "dvl.current_profile",
            "sonar.gather_scatterers", "sonar.ping", "sonar.write_aplot_csv",
            "sonar.write_aplot_pgm", "lidar.scan", "lidar.write_ply", "coupling.step"),
        pin=False,
        checks={"steps": 601, "vehicles": ["rov1", "rov2"], "sensor_files": {"rov1/fls": 16, "rov1/lidar": 61}},
    )


def large_world(work: Path, seed: int, repo: Path) -> Workload:
    """2000x2000 DEM, 1 km tiles, 12 DVL+ADCP vehicles crossing tiles.

    The vehicle layout is the same for every seed, so every seed loads and
    unloads the same tiles; the seed sets the ripple phases and the
    scenario seed (DVL noise, currents)."""
    n = 2000
    write_dem(work / "large.asc", _terrain(n, n, seed))
    width, height = _extent_m(n, n)
    duration, speed = 4.0, 25.0
    rng = np.random.default_rng(1)  # fixed layout, not the workload seed
    vehicles = []
    for k in range(12):
        # Start near a tile corner so the load ring is crossed mid-run.
        cx = 1000.0 * rng.integers(2, int(width // 1000) - 2) + rng.uniform(-350.0, 350.0)
        cy = 1000.0 * rng.integers(2, int(height // 1000) - 2) + rng.uniform(-350.0, 350.0)
        yaw = float(rng.uniform(-np.pi, np.pi))
        # Vehicles near the surface are beyond the DVL's max_range and fall
        # back to water track; the rest bottom-track.
        depth = 2.0 if k % 3 == 0 else 30.0
        end = (cx + speed * duration * math.sin(yaw), cy + speed * duration * math.cos(yaw))
        vehicles.append({
            "id": f"auv{k:02d}",
            "trajectory": [
                {"time": 0.0, "x": cx, "y": cy, "depth": depth, "yaw": yaw},
                {"time": duration, "x": end[0], "y": end[1], "depth": depth, "yaw": yaw},
            ],
            "sensors": [{"type": "dvl", "name": "dvl", "rate": 5.0, "noise_sigma": 0.005,
                         "min_range": 0.5, "max_range": 40.0, "bins": 4, "bin_size": 8.0,
                         "profile_mode": "combined"}],
        })
    _write_yaml(work / "large_world.yaml", {
        "schema_version": 1, "seed": seed, "duration": duration, "dt": 0.1,
        "world": {"heightmap": "large.asc", "tile_size": 1000.0, "overlap": 20.0,
                  "load_radius": 300.0, "unload_radius": 500.0},
        "currents": _CURRENTS,
        "vehicles": vehicles,
    })
    return Workload(
        commands=[["run", str(work / "large_world.yaml"), "--out", "{out0}"]],
        outputs=["run"],
        phases=["run"],
        expect_layers=_RUN_LAYERS + (
            "bathymetry.raycast", "currents.CurrentSampler.step", "currents.CurrentSampler.velocity",
            "dvl.measure", "dvl.current_profile"),
        pin=True,
        checks={"steps": 41, "vehicles": [v["id"] for v in vehicles], "sensor_files": {}},
    )


def dense_scan(work: Path, seed: int, repo: Path) -> Workload:
    """Demo DEM, one vehicle with a 102,400-ray lidar and a 128-beam sonar."""
    rng = np.random.default_rng([seed, 2])
    dem = work / "demo_seafloor.asc"
    shutil.copyfile(repo / "scenarios" / "demo_seafloor.asc", dem)
    # The seed moves the start a little; the vehicle keeps 6 m above the
    # node below it, so the share of lidar rays that hit stays near 60%.
    x0, y0 = 750.0 + rng.uniform(-30.0, 30.0, 2)
    yaw = 1.5708 + float(rng.uniform(-0.05, 0.05))
    grid = np.loadtxt(dem, skiprows=6)[::-1]
    depth = float(grid[round(y0 / 30.06), round(x0 / 30.06)]) - 6.0
    _write_yaml(work / "dense_scan.yaml", {
        "schema_version": 1, "seed": seed, "duration": 3.0, "dt": 0.1,
        "world": {"heightmap": "demo_seafloor.asc", "tile_size": 400.0, "overlap": 20.0,
                  "load_radius": 500.0, "unload_radius": 700.0},
        "currents": _CURRENTS,
        "vehicles": [{
            "id": "rov1",
            "trajectory": [
                {"time": 0.0, "x": x0, "y": y0, "depth": depth, "pitch": -0.3, "yaw": yaw},
                {"time": 3.0, "x": x0 + 6.0, "y": y0, "depth": depth, "pitch": -0.3, "yaw": yaw},
            ],
            "sensors": [
                {"type": "sonar", "name": "fls", "rate": 1.0, "n_beams": 128, "rays_per_beam": 3,
                 "vertical_rays": 5, "spectral_bins": 1024, "bandwidth_hz": 40000.0,
                 "max_range": 19.0},
                {"type": "lidar", "name": "lidar", "rate": 1.0, "rays_h": 80, "rays_v": 80,
                 "supersample": 4, "max_range": 20.0, "tilt_deg": -5.0},
            ],
        }],
    })
    return Workload(
        commands=[["run", str(work / "dense_scan.yaml"), "--out", "{out0}"]],
        outputs=["run"],
        phases=["run"],
        expect_layers=_RUN_LAYERS + (
            "bathymetry.raycast_batch", "currents.CurrentSampler.step", "sonar.gather_scatterers",
            "sonar.ping", "sonar.write_aplot_csv", "sonar.write_aplot_pgm", "lidar.scan",
            "lidar.write_ply"),
        pin=False,
        checks={"steps": 31, "vehicles": ["rov1"], "sensor_files": {"rov1/fls": 4, "rov1/lidar": 4}},
    )


def mesh_export(work: Path, seed: int, repo: Path) -> Workload:
    """`subsim tiles` on a 301x301 DEM (25 tiles of 2 km), then
    `subsim distort --subdivide 2` on one of the exported interior tiles."""
    n_dem, tile_size = 301, 2000.0
    write_dem(work / "mesh.asc", _terrain(n_dem, n_dem, seed))
    tile = "tile_002_002.obj"  # named by tiling.write_tiles
    return Workload(
        commands=[
            ["tiles", str(work / "mesh.asc"), "--tile-size", str(tile_size), "--overlap", "20",
             "--out", "{out0}"],
            ["distort", f"{{out0}}/{tile}", "--extent", "0.5", "--subdivide", "2",
             "--seed", str(seed), "--out", "{out1}"],
        ],
        outputs=["tiles", "distorted.obj"],
        phases=["tiles", "distort"],
        expect_layers=("cli.main", "bathymetry.load_heightmap", "tiling.grid_tile_specs",
                       "tiling.generate_tiles", "tiling.write_tiles", "meshtools.load_obj",
                       "meshtools.subdivide", "meshtools.distort", "meshtools.save_obj"),
        pin=True,
        checks={"tiles": _tile_count(n_dem, n_dem, tile_size), "distorted_from": tile,
                "subdivide": 2},
    )


BUILDERS = {"demo": demo, "large_world": large_world, "dense_scan": dense_scan,
            "mesh_export": mesh_export}


def build(name: str, work: Path, seed: int, repo: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](work, seed, repo)

