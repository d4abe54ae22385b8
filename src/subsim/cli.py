"""Command line interface.

Subcommands: run (execute a scenario), validate (check a scenario),
tiles (export terrain mesh tiles from a DEM), distort (subdivide and
jitter an OBJ mesh).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import bathymetry, meshtools, output, scenario, tiling


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
        problems = _dispatch(args)
    except (ValueError, OSError) as err:  # every subsim error class is a ValueError
        problems = [str(err)]
    except KeyboardInterrupt:
        problems = ["interrupted"]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _dispatch(args) -> list[str]:
    """Run one subcommand; returns the problems that stopped it."""
    if args.command in ("validate", "run"):
        overrides = {key: getattr(args, key, None) for key in ("seed", "duration", "dt")}
        cfg = dataclasses.replace(scenario.load_scenario(args.scenario),
                                  **{key: value for key, value in overrides.items() if value is not None})
        if args.command == "validate":
            problems = scenario.validate(cfg)
            if not problems:
                if cfg.world is not None:  # the DEM's values, read as a run reads them
                    bathymetry.load_heightmap(cfg.world.heightmap_path)
                print("ok")
            return problems
        try:  # the run validates first, before it touches --out
            scenario.run(cfg, args.out)
        except scenario.InvalidScenario as err:
            return err.problems
        print(f"wrote {args.out}")
        return []

    if args.command == "tiles":
        output.check_out(args.out, directory=True)
        heightmap = bathymetry.load_heightmap(args.dem)
        tiles = tiling.generate_tiles(heightmap, args.tile_size, args.overlap)
        manifest = tiling.write_tiles(tiles, args.out)
        print(f"wrote {len(tiles)} tiles, manifest {manifest}")

    if args.command == "distort":
        output.check_out(args.out, directory=False)
        mesh = meshtools.load_obj(args.mesh)
        params = meshtools.DistortionParams(args.extent, args.scale, args.seed, args.subdivide)
        with output.staged(args.out, directory=False) as partial:
            meshtools.save_obj(meshtools.distort(mesh, params), partial)
        print(f"wrote {args.out}")
    return []


if __name__ == "__main__":
    sys.exit(main())
