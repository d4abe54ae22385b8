"""WGS 84 <-> spherical Pseudo-Mercator (EPSG 3857) conversions.

Every Cartesian world position in this package is a Pseudo-Mercator
easting/northing in meters plus a depth in meters, positive down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6378137.0  # WGS 84 semi-major axis
MERCATOR_LIMIT_M = math.pi * EARTH_RADIUS_M
# Latitude whose projection lands exactly on |y| = pi*R (the Mercator square).
MAX_LATITUDE_DEG = math.degrees(2.0 * math.atan(math.exp(math.pi)) - math.pi / 2.0)

_BOUNDS_SLACK_M = 1e-6


class ProjectionError(ValueError):
    """Coordinate outside the projectable domain."""


@dataclass(frozen=True)
class GeodeticCoord:
    """WGS 84 latitude/longitude, degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ProjectionError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ProjectionError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class ProjectedCoord:
    """Planar Pseudo-Mercator position, meters east (x) / north (y)."""

    x: float
    y: float


def mercator_xy(lat_deg, lon_deg):
    """Project latitude/longitude (degrees, scalar or array) to meters.

    x = R*lon_rad, y = R*ln(tan(pi/4 + lat_rad/2)), the latter evaluated
    as R*asinh(tan(lat_rad)) which is the same function but exact at 0.
    Raises ProjectionError for |lat| beyond the Mercator square latitude
    (~85.0511 deg) where y would exceed pi*R.
    """
    lat = np.asarray(lat_deg, dtype=float)
    lon = np.asarray(lon_deg, dtype=float)
    if np.any(np.abs(lat) > MAX_LATITUDE_DEG):
        raise ProjectionError(
            f"latitude beyond +/-{MAX_LATITUDE_DEG:.6f} deg cannot be projected"
        )
    if np.any(np.abs(lon) > 180.0):
        raise ProjectionError("longitude outside [-180, 180]")
    x = EARTH_RADIUS_M * np.radians(lon)
    y = EARTH_RADIUS_M * np.arcsinh(np.tan(np.radians(lat)))
    return x, y


def beyond_mercator_square(coord_m):
    """Whether a Pseudo-Mercator easting or northing (scalar or array) lies
    outside the Mercator square, |coord| <= pi*R, by more than 1e-6 m."""
    return np.abs(coord_m) > MERCATOR_LIMIT_M + _BOUNDS_SLACK_M


def latlon_from_xy(x_m, y_m):
    """Inverse projection, meters to degrees (scalar or array).

    Raises ProjectionError for points outside the Mercator square.
    """
    x = np.asarray(x_m, dtype=float)
    y = np.asarray(y_m, dtype=float)
    if np.any(beyond_mercator_square(x)) or np.any(beyond_mercator_square(y)):
        raise ProjectionError(
            f"coordinates outside the Mercator square (+/-{MERCATOR_LIMIT_M:.3f} m)"
        )
    # Clipping strips 1-ulp overshoot at the square boundary.
    lon = np.clip(np.degrees(x / EARTH_RADIUS_M), -180.0, 180.0)
    lat = np.clip(np.degrees(np.arctan(np.sinh(y / EARTH_RADIUS_M))), -90.0, 90.0)
    return lat, lon


def geodetic_to_mercator(g: GeodeticCoord) -> ProjectedCoord:
    """Project a geodetic coordinate to the Pseudo-Mercator plane."""
    x, y = mercator_xy(g.lat, g.lon)
    return ProjectedCoord(float(x), float(y))


def mercator_to_geodetic(p: ProjectedCoord) -> GeodeticCoord:
    """Unproject a Pseudo-Mercator coordinate back to latitude/longitude."""
    lat, lon = latlon_from_xy(p.x, p.y)
    return GeodeticCoord(float(lat), float(lon))
