"""Command line interface.

Subcommands: run (execute a scenario), validate (check a scenario),
tiles (export terrain mesh tiles from a DEM), distort (subdivide and
jitter an OBJ mesh).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import bathymetry, currents, meshtools, scenario, tiling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its outputs")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--duration", type=float, default=None, help="override duration (s)")
    p_run.add_argument("--dt", type=float, default=None, help="override time step (s)")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario YAML file")

    p_tiles = sub.add_parser("tiles", help="export colorized OBJ terrain tiles")
    p_tiles.add_argument("dem", help="ESRI ASCII grid (.asc)")
    p_tiles.add_argument("--tile-size", type=float, default=tiling.DEFAULT_TILE_SIZE_M,
                         help="tile core size in meters")
    p_tiles.add_argument("--overlap", type=float, default=tiling.DEFAULT_OVERLAP_M,
                         help="overlap margin in meters")
    p_tiles.add_argument("--out", required=True, help="output directory")

    p_dist = sub.add_parser("distort", help="subdivide and jitter an OBJ mesh")
    p_dist.add_argument("mesh", help="input OBJ file")
    p_dist.add_argument("--extent", type=float, required=True, help="distortion extent in [0, 1]")
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--subdivide", type=int, default=0, help="subdivision levels before jitter")
    p_dist.add_argument("--scale", type=float, default=None,
                        help="displacement bound at extent 1 (default: 2%% of bbox diagonal)")
    p_dist.add_argument("--out", required=True, help="output OBJ file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (
        scenario.ScenarioError,
        bathymetry.HeightmapError,
        currents.CurrentError,
        meshtools.MeshError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "validate":
        cfg = scenario.load_scenario(args.scenario)
        problems = scenario.validate(cfg)
        for p in problems:
            print(f"error: {p}")
        if not problems:
            print("ok")
        return 0 if not problems else 1

    if args.command == "run":
        cfg = scenario.load_scenario(args.scenario)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.duration is not None:
            cfg = dataclasses.replace(cfg, duration=args.duration)
        if args.dt is not None:
            cfg = dataclasses.replace(cfg, dt=args.dt)
        problems = scenario.validate(cfg)
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return 1
        scenario.run(cfg, args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "tiles":
        heightmap = bathymetry.load_heightmap(args.dem)
        tiles = tiling.generate_tiles(heightmap, args.tile_size, args.overlap)
        manifest = tiling.write_tiles(tiles, args.out)
        print(f"wrote {len(tiles)} tiles, manifest {manifest}")
        return 0

    if args.command == "distort":
        mesh = meshtools.load_obj(args.mesh)
        params = meshtools.DistortionParams(
            extent=args.extent,
            scale=args.scale,
            seed=args.seed,
            subdivision_levels=args.subdivide,
        )
        meshtools.save_obj(meshtools.distort(mesh, params), args.out)
        print(f"wrote {args.out}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
