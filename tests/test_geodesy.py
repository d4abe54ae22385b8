import math

import numpy as np
import pytest

from subsim import geodesy


def test_origin_projects_to_zero():
    p = geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(0.0, 0.0))
    assert p.x == 0.0
    assert p.y == 0.0


def test_lon_180_lands_on_mercator_limit():
    p = geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(0.0, 180.0))
    assert p.x == pytest.approx(math.pi * 6378137.0, abs=1e-3)
    assert p.y == pytest.approx(0.0, abs=1e-9)


def test_lat_45_matches_closed_form():
    # Independent evaluation of y = R * ln(tan(pi/4 + phi/2)) at 45 deg.
    expected = 6378137.0 * math.log(math.tan(3.0 * math.pi / 8.0))
    assert expected == pytest.approx(5621521.486192066, abs=1e-6)
    p = geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(45.0, 0.0))
    assert p.x == 0.0
    assert p.y == pytest.approx(expected, abs=1e-6)


def test_inverse_anchors():
    g = geodesy.mercator_to_geodetic(geodesy.ProjectedCoord(0.0, 0.0))
    assert g.lat == pytest.approx(0.0, abs=1e-12)
    assert g.lon == pytest.approx(0.0, abs=1e-12)
    g = geodesy.mercator_to_geodetic(geodesy.ProjectedCoord(20037508.342789244, 0.0))
    assert g.lon == pytest.approx(180.0, abs=1e-9)
    assert g.lat == pytest.approx(0.0, abs=1e-12)


def test_round_trip_meters():
    rng = np.random.default_rng(13)
    lat = rng.uniform(-85.0, 85.0, 1000)
    lon = rng.uniform(-180.0, 180.0, 1000)
    x, y = geodesy.mercator_xy(lat, lon)
    lat2, lon2 = geodesy.latlon_from_xy(x, y)
    x2, y2 = geodesy.mercator_xy(lat2, lon2)
    assert np.max(np.abs(x2 - x)) < 1e-6
    assert np.max(np.abs(y2 - y)) < 1e-6


def test_round_trip_degrees():
    rng = np.random.default_rng(14)
    lat = rng.uniform(-85.0, 85.0, 1000)
    lon = rng.uniform(-180.0, 180.0, 1000)
    lat2, lon2 = geodesy.latlon_from_xy(*geodesy.mercator_xy(lat, lon))
    assert np.max(np.abs(lat2 - lat)) < 1e-9
    assert np.max(np.abs(lon2 - lon)) < 1e-9


def test_x_linear_in_lon_and_y_monotone_in_lat():
    rng = np.random.default_rng(15)
    lon = np.sort(rng.uniform(-180.0, 180.0, 100))
    x, _ = geodesy.mercator_xy(0.0, lon)
    assert np.allclose(x, 6378137.0 * np.radians(lon))
    lat = np.sort(rng.uniform(-85.0, 85.0, 100))
    _, y = geodesy.mercator_xy(lat, 0.0)
    assert np.all(np.diff(y) > 0.0)


def test_outputs_stay_inside_square():
    rng = np.random.default_rng(16)
    lat = rng.uniform(-geodesy.MAX_LATITUDE_DEG, geodesy.MAX_LATITUDE_DEG, 2000)
    lon = rng.uniform(-180.0, 180.0, 2000)
    x, y = geodesy.mercator_xy(lat, lon)
    limit = math.pi * 6378137.0 * (1.0 + 1e-12)
    assert np.max(np.abs(x)) <= limit
    assert np.max(np.abs(y)) <= limit


def test_latitude_guard():
    with pytest.raises(geodesy.ProjectionError):
        geodesy.mercator_xy(86.0, 0.0)
    with pytest.raises(geodesy.ProjectionError):
        geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(85.055, 0.0))


def test_out_of_square_rejected():
    with pytest.raises(geodesy.ProjectionError):
        geodesy.latlon_from_xy(2.1e7, 0.0)
    with pytest.raises(geodesy.ProjectionError):
        geodesy.mercator_to_geodetic(geodesy.ProjectedCoord(0.0, -2.1e7))


def test_coordinate_bounds_validated():
    with pytest.raises(geodesy.ProjectionError):
        geodesy.GeodeticCoord(91.0, 0.0)
    with pytest.raises(geodesy.ProjectionError):
        geodesy.GeodeticCoord(0.0, 181.0)


def test_beyond_mercator_square_is_the_rule_of_latlon_from_xy():
    limit = geodesy.MERCATOR_LIMIT_M
    inside = [0.0, -0.0, limit, -limit, limit + 1e-6, np.nextafter(-limit - 1e-6, 0.0)]
    outside = [limit + 2e-6, -limit - 2e-6, 1e308, -1e308, math.inf]
    assert not np.any(geodesy.beyond_mercator_square(np.array(inside)))
    assert np.all(geodesy.beyond_mercator_square(np.array(outside)))
    for value in inside:
        geodesy.latlon_from_xy(value, 0.0)
        geodesy.latlon_from_xy(0.0, value)
    for value in outside:
        assert geodesy.beyond_mercator_square(value)
        with pytest.raises(geodesy.ProjectionError):
            geodesy.latlon_from_xy(value, 0.0)
        with pytest.raises(geodesy.ProjectionError):
            geodesy.latlon_from_xy(0.0, value)
