"""One benchmark repetition step: run a subsim command under span timers.

    PYTHONPATH=src python3 bench/child.py RESULT.json KIND TRACE REP_ID -- <subsim argv>

KIND is `run`, `tiles` or `distort` and picks which spans make up set-up
and run time. With TRACE 0 only the few functions those phases need are
wrapped; with TRACE 1 every layer function in `TARGETS` is. Spans stay
in memory and are written to RESULT.json when the command ends, together
with the phase times and the run environment. The wrappers live here, in
the benchmark, and change nothing inside subsim: each replaces every
binding of its target in every loaded subsim module, so a module that
imported a function by name is timed too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

LAYERS = ("bathymetry", "cli", "coupling", "currents", "dvl", "geodesy", "geometry", "lidar",
          "meshtools", "scenario", "sonar", "tiling")


def _arg(fn, name):
    """Annotation helper: the named argument of a call, by signature."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _size(path) -> int:
    return os.path.getsize(path)


def _tree_size(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _annotators(mods):
    """Counters recorded per call, keyed by span name: f(args, kwargs, result) -> dict."""
    b, lid, son, mesh, til = (mods[m] for m in ("bathymetry", "lidar", "sonar", "meshtools", "tiling"))
    batch_dirs = _arg(b.raycast_batch, "directions")
    scan_cfg = _arg(lid.scan, "cfg")
    ply_scan, ply_path = _arg(lid.write_ply, "scan_result"), _arg(lid.write_ply, "path")
    csv_path, pgm_path = _arg(son.write_aplot_csv, "path"), _arg(son.write_aplot_pgm, "path")
    obj_mesh, obj_path = _arg(mesh.save_obj, "mesh"), _arg(mesh.save_obj, "path")
    tiles_dir = _arg(til.write_tiles, "out_dir")

    def lidar_rays(a, k):
        cfg = scan_cfg(a, k)
        return cfg.rays_h * cfg.rays_v * cfg.supersample**2

    return {
        "bathymetry.load_heightmap": lambda a, k, r: {"values": int(r.depth.size)},
        "bathymetry.raycast": lambda a, k, r: {"rays": 1, "hits": int(r is not None)},
        "bathymetry.raycast_batch": lambda a, k, r: {"rays": len(batch_dirs(a, k)),
                                                     "hits": int(r.hit.sum())},
        "tiling.grid_tile_specs": lambda a, k, r: {"tiles": len(r)},
        "tiling.update_tiles": lambda a, k, r: {"events": len(r)},
        "tiling.write_tiles": lambda a, k, r: {"bytes": _tree_size(tiles_dir(a, k))},
        "dvl.measure": lambda a, k, r: {"bottom": int(r.mode.name == "BOTTOM_TRACK")},
        "sonar.gather_scatterers": lambda a, k, r: {"scatterers": len(r)},
        "sonar.write_aplot_csv": lambda a, k, r: {"bytes": _size(csv_path(a, k))},
        "sonar.write_aplot_pgm": lambda a, k, r: {"bytes": _size(pgm_path(a, k))},
        "lidar.scan": lambda a, k, r: {"rays": lidar_rays(a, k), "points": len(r.points)},
        "lidar.write_ply": lambda a, k, r: {"bytes": _size(ply_path(a, k)),
                                            "points": len(ply_scan(a, k).points)},
        "meshtools.save_obj": lambda a, k, r: {"bytes": _size(obj_path(a, k)),
                                               "vertices": len(obj_mesh(a, k).vertices)},
    }


# (span name, module, attribute path). The span name is the metric prefix.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("scenario.load_scenario", "scenario", "load_scenario"),
    ("scenario.validate", "scenario", "validate"),
    ("scenario.Simulation.init", "scenario", "Simulation.__init__"),
    ("scenario.Simulation.run", "scenario", "Simulation.run"),
    ("scenario.interpolate_trajectory", "scenario", "interpolate_trajectory"),
    ("bathymetry.load_heightmap", "bathymetry", "load_heightmap"),
    ("bathymetry.raycast", "bathymetry", "raycast"),
    ("bathymetry.raycast_batch", "bathymetry", "raycast_batch"),
    ("tiling.grid_tile_specs", "tiling", "grid_tile_specs"),
    ("tiling.update_tiles", "tiling", "TileManager.update_tiles"),
    ("tiling.generate_tiles", "tiling", "generate_tiles"),
    ("tiling.write_tiles", "tiling", "write_tiles"),
    ("currents.CurrentSampler.step", "currents", "CurrentSampler.step"),
    ("currents.CurrentSampler.velocity", "currents", "CurrentSampler.velocity"),
    ("dvl.measure", "dvl", "measure"),
    ("dvl.current_profile", "dvl", "current_profile"),
    ("sonar.gather_scatterers", "sonar", "gather_scatterers"),
    ("sonar.ping", "sonar", "ping"),
    ("sonar.write_aplot_csv", "sonar", "write_aplot_csv"),
    ("sonar.write_aplot_pgm", "sonar", "write_aplot_pgm"),
    ("lidar.scan", "lidar", "scan"),
    ("lidar.write_ply", "lidar", "write_ply"),
    ("coupling.step", "coupling", "step"),
    ("meshtools.load_obj", "meshtools", "load_obj"),
    ("meshtools.subdivide", "meshtools", "subdivide"),
    ("meshtools.distort", "meshtools", "distort"),
    ("meshtools.save_obj", "meshtools", "save_obj"),
)

# Per command kind: (set-up spans, run spans), both direct children of
# cli.main. A `None` set-up is the gap from entry into cli.main to entry
# into the first run span.
PHASES = {
    "run": (None, ("scenario.Simulation.run",)),
    "tiles": (("bathymetry.load_heightmap",), ("tiling.generate_tiles", "tiling.write_tiles")),
    "distort": (("meshtools.load_obj",), ("meshtools.distort", "meshtools.save_obj")),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn, annotate=None):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return wrapper


def install(tracer: Tracer, names) -> dict[str, int]:
    """Wrap each named target; returns how many bindings were replaced."""
    mods = {m: importlib.import_module(f"subsim.{m}") for m in LAYERS}
    annotators = _annotators(mods)
    patched = {}
    for name, mod_name, attr in TARGETS:
        if name not in names:
            continue
        owner = mods[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        wrapper = tracer.wrap(name, orig, annotators.get(name))
        if path:  # a method: the class attribute is the one binding
            setattr(owner, leaf, wrapper)
            patched[name] = 1
            continue
        count = 0
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    count += 1
        patched[name] = count
    return patched


def phase_times(spans, kind: str) -> tuple[float, float]:
    setup_names, run_names = PHASES[kind]
    top = [s for s in spans if s[3] == 0]
    run = sum(s[2] - s[1] for s in top if s[0] in run_names)
    if setup_names is None:
        first = min((s[1] for s in top if s[0] in run_names), default=spans[0][2])
        setup = first - spans[0][1]
    else:
        setup = sum(s[2] - s[1] for s in top if s[0] in setup_names)
    return setup, run


def environment(mods) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "sonar_threads": getattr(mods["scenario"], "SONAR_THREADS", None),
    }


def main(argv: list[str]) -> int:
    result_path, kind, trace, rep_id = argv[:4]
    subsim_argv = argv[argv.index("--") + 1:]
    tracer = Tracer()
    names = {t[0] for t in TARGETS} if trace == "1" else {"cli.main", *PHASES[kind][1],
                                                          *(PHASES[kind][0] or ())}
    patched = install(tracer, names)
    cli = importlib.import_module("subsim.cli")
    code = 1
    try:
        code = cli.main(subsim_argv)
    finally:
        setup, run = phase_times(tracer.spans, kind) if tracer.spans else (0.0, 0.0)
        mods = {m: sys.modules[f"subsim.{m}"] for m in LAYERS}
        record = {
            "rep": rep_id,
            "exit_code": code,
            "setup_s": setup,
            "run_s": run,
            "patched": patched,
            "env": environment(mods),
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "rep": rep_id,
                 "counts": s[4]}
                for s in tracer.spans
            ],
        }
        Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
