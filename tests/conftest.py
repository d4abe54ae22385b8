import math

import numpy as np
import pytest

from subsim import dvl, sonar
from subsim.bathymetry import Heightmap
from subsim.geodesy import GeodeticCoord

# Meters of Mercator easting per degree of longitude (exact); near the
# equator a degree of latitude spans almost exactly the same northing.
METERS_PER_DEG = 111319.49079327358


def make_heightmap(depth_grid, cell_m=10.0, lat0=0.0, lon0=0.0) -> Heightmap:
    """Heightmap whose node spacing is ~cell_m meters near (lat0, lon0).

    The latitude cell is shrunk by 1e-9 relative so the northing extent
    never overshoots rows*cell_m through Mercator stretching.
    """
    cell_lon = cell_m / METERS_PER_DEG
    cell_lat = cell_lon * (1.0 - 1e-9)
    return Heightmap(GeodeticCoord(lat0, lon0), (cell_lat, cell_lon), np.asarray(depth_grid))


def flat_heightmap(depth=50.0, n=11, cell_m=10.0) -> Heightmap:
    return make_heightmap(np.full((n, n), float(depth)), cell_m=cell_m)


def smooth_random_grid(rng, shape, base=40.0, relief=8.0, passes=4):
    """Random but spatially correlated depth grid (seafloor-like relief)."""
    g = rng.uniform(-1.0, 1.0, shape)
    for _ in range(passes):
        g = (g + np.roll(g, 1, 0) + np.roll(g, -1, 0) + np.roll(g, 1, 1) + np.roll(g, -1, 1)) / 5.0
    return base + relief * g / np.max(np.abs(g))


def ranges_geometry(pose, cfg, ranges):
    """The `dvl.beam_geometry` of ``pose`` with these beam ranges in place
    of its casts."""
    uncast = dvl.beam_geometry(pose, None, cfg)  # the world beams, and no raycast
    return dvl.BeamGeometry(np.array(ranges, dtype=float), uncast.world_beams)


def beam_spectra(scat, cfg, micro_phases=None):
    """Coherent spectra of every beam over the scatterers ``scat``, shape
    (n_beams, M), with these micro phases (zeros by default). No
    scatterers give zero spectra."""
    return sonar._coherent_sum(scat, np.zeros(len(scat)) if micro_phases is None else micro_phases, cfg)


def normal_at(h, x, y):
    """Reference bilinear-surface normal at one point, on Python floats:
    the depth gradient of the cell holding (x, y), as an upward NED unit
    vector."""
    j = min(max(int(h.xs.searchsorted(x, side="right")) - 1, 0), h.cols - 2)
    i = min(max(int(h.ys.searchsorted(y, side="right")) - 1, 0), h.rows - 2)
    xs, ys, depth = h.xs, h.ys, h.depth
    wx = xs.item(j + 1) - xs.item(j)
    wy = ys.item(i + 1) - ys.item(i)
    u = (x - xs.item(j)) / wx
    v = (y - ys.item(i)) / wy
    d00, d01 = depth.item(i, j), depth.item(i, j + 1)
    d10, d11 = depth.item(i + 1, j), depth.item(i + 1, j + 1)
    cross = d00 - d01 - d10 + d11
    gx = (d01 - d00 + cross * v) / wx
    gy = (d10 - d00 + cross * u) / wy
    norm = math.sqrt(gy * gy + gx * gx + 1.0)
    return np.array([gy / norm, gx / norm, -1.0 / norm])


@pytest.fixture
def flat50():
    """Flat 100 m x 100 m map, 50 m deep, 10 m cells around (0, 0)."""
    return flat_heightmap(50.0, n=11, cell_m=10.0)
