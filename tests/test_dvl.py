import dataclasses
import itertools
import math

import numpy as np
import pytest

from subsim import currents as cur
from subsim import dvl
from subsim.geometry import Pose, ned
from subsim.output import CsvLog

from conftest import make_heightmap, flat_heightmap, ranges_geometry


def level_pose(h, depth=0.0):
    """Sensor centered over the map at the given depth, facing north."""
    return Pose.level(float(h.xs[len(h.xs) // 2]), float(h.ys[len(h.ys) // 2]), depth)


def measure0(pose, vel, scene, cfg, current_at=None):
    """`measure` of the beams cast from ``pose`` into ``scene``, at the
    config's noise_sigma, 0 by default: numpy then draws exact zeros, so
    the solution is the noise-free one."""
    return dvl.measure(dvl.beam_geometry(pose, scene, cfg), pose, vel, current_at, cfg, np.random.default_rng(0))


def measure_ranges(ranges, pose, vel, cfg, current_at=None):
    """`measure0` with these beam ranges in place of the casts."""
    return dvl.measure(ranges_geometry(pose, cfg, ranges), pose, vel, current_at, cfg, np.random.default_rng(0))


def profile_of(pose, vel, current_at, cfg, rng):
    """`current_profile` from the `beam_geometry` of ``pose``."""
    return dvl.current_profile(dvl.beam_geometry(pose, None, cfg), pose, vel, current_at, cfg, rng)


@pytest.fixture
def flat100():
    """Flat 50 m deep map large enough for full beam footprints."""
    return flat_heightmap(50.0, n=21, cell_m=10.0)


def test_janus_beams_are_unit_and_tilted():
    beams = dvl.janus_beams()
    assert np.allclose(np.linalg.norm(beams, axis=1), 1.0)
    assert np.all(beams[:, 2] < 0.0)
    assert np.allclose(np.degrees(np.arccos(-beams[:, 2])), 30.0)


def test_beam_ranges_level_over_flat_bottom(flat100):
    cfg = dvl.DvlConfig()
    ranges = dvl.beam_geometry(level_pose(flat100), flat100, cfg).ranges
    # 50 m altitude and 30 deg beams: slant range 50/cos(30 deg).
    assert np.allclose(ranges, 50.0 / math.cos(math.radians(30.0)), atol=1e-3)


def test_beam_ranges_below_min_range():
    h = flat_heightmap(10.0, n=21, cell_m=10.0)
    cfg = dvl.DvlConfig(min_range=20.0)
    ranges = dvl.beam_geometry(level_pose(h), h, cfg).ranges
    assert np.all(np.isnan(ranges))


def test_beam_ranges_over_cliff_edge():
    # West half 30 m deep, east half far beyond max_range.
    grid = np.full((21, 21), 30.0)
    grid[:, 11:] = 500.0
    h = make_heightmap(grid, cell_m=10.0)
    cfg = dvl.DvlConfig(max_range=60.0)
    ranges = dvl.beam_geometry(level_pose(h), h, cfg).ranges
    hits = np.isfinite(ranges)
    assert 0 < hits.sum() < 4  # east-side beams miss, west-side beams hit


def test_solve_velocity_zeros():
    v = dvl.solve_velocity(dvl.janus_beams(), np.zeros(4))
    assert np.allclose(v, 0.0, atol=1e-12)


def test_solve_velocity_recovers_forward_generated():
    beams = dvl.janus_beams()
    rng = np.random.default_rng(61)
    for _ in range(50):
        truth = rng.uniform(-2.0, 2.0, 3)
        scalars = beams @ truth
        assert np.allclose(dvl.solve_velocity(beams, scalars), truth, atol=1e-9)


def test_three_beam_solve_matches_exact_oracle():
    beams = dvl.janus_beams()
    truth = np.array([1.0, 0.5, -0.2])
    scalars = beams @ truth
    valid = np.array([True, True, True, False])
    got = dvl.solve_velocity(beams, np.where(valid, scalars, np.nan), valid=valid)
    oracle = np.linalg.solve(beams[:3], scalars[:3])  # exact 3x3 solve
    assert np.allclose(got, oracle, atol=1e-9)
    assert np.allclose(got, truth, atol=1e-9)


def test_solve_velocity_subset_invariance():
    beams = dvl.janus_beams()
    truth = np.array([-0.4, 1.2, 0.3])
    scalars = beams @ truth
    for subset in itertools.combinations(range(4), 3):
        valid = np.zeros(4, dtype=bool)
        valid[list(subset)] = True
        got = dvl.solve_velocity(beams, np.where(valid, scalars, np.nan), valid=valid)
        assert np.allclose(got, truth, atol=1e-9)


def test_degenerate_geometry_raises():
    beams = dvl.janus_beams()
    with pytest.raises(dvl.DegenerateBeamGeometryError):
        dvl.solve_velocity(beams, np.array([0.1, 0.2, np.nan, np.nan]))
    parallel = np.tile([0.0, 0.0, -1.0], (4, 1))
    with pytest.raises(dvl.DegenerateBeamGeometryError):
        dvl.solve_velocity(parallel, np.zeros(4))


def test_bottom_track_stationary(flat100):
    cfg = dvl.DvlConfig()
    sol = measure0(level_pose(flat100), ned(0, 0, 0), flat100, cfg)
    assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
    assert np.allclose(sol.velocity, 0.0, atol=1e-12)
    assert sol.altitude == pytest.approx(50.0, abs=1e-3)


def test_bottom_track_recovers_world_velocity(flat100):
    cfg = dvl.DvlConfig()
    pose = level_pose(flat100)
    sol = measure0(pose, ned(1.0, 0.0, 0.0), flat100, cfg)
    # Level pose: sensor x is north, so the sensor-frame solution is (1,0,0).
    assert np.allclose(sol.velocity, [1.0, 0.0, 0.0], atol=1e-9)


def test_bottom_track_random_attitudes(flat100):
    cfg = dvl.DvlConfig()
    rng = np.random.default_rng(62)
    for _ in range(25):
        pose = Pose.from_rpy(
            float(flat100.xs[10]),
            float(flat100.ys[10]),
            rng.uniform(0.0, 20.0),
            roll=rng.uniform(-0.15, 0.15),
            pitch=rng.uniform(-0.15, 0.15),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        vel = rng.uniform(-1.5, 1.5, 3)
        sol = measure0(pose, vel, flat100, cfg)
        assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
        assert np.allclose(sol.velocity, pose.to_body(vel), atol=1e-9)


def test_two_beam_hit_is_not_bottom_track():
    pose = Pose.level(0.0, 0.0, 0.0)
    cfg = dvl.DvlConfig()
    sol = measure_ranges([40.0, 40.0, np.nan, np.nan], pose, ned(1, 0, 0), cfg)
    assert sol.mode is not dvl.TrackingMode.BOTTOM_TRACK


def test_mode_priority_all_16_patterns():
    pose = Pose.level(0.0, 0.0, 0.0)
    vel = ned(0.5, -0.2, 0.1)
    for pattern in itertools.product([True, False], repeat=4):
        ranges = np.where(pattern, 45.0, np.nan)
        n_hits = sum(pattern)
        for enabled in (True, False):
            cfg = dvl.DvlConfig(water_track_enabled=enabled)
            sol = measure_ranges(ranges, pose, vel, cfg)  # no current: no water track
            with_current = measure_ranges(ranges, pose, vel, cfg, lambda depth: np.zeros(3))
            if n_hits >= 3:
                assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
                assert with_current.mode is dvl.TrackingMode.BOTTOM_TRACK
            else:
                assert sol.mode is dvl.TrackingMode.NONE
                expected = dvl.TrackingMode.WATER_TRACK if enabled else dvl.TrackingMode.NONE
                assert with_current.mode is expected
                fallback = measure0(pose, vel, None, cfg, lambda depth: np.zeros(3))
                expected = dvl.TrackingMode.WATER_TRACK if enabled else dvl.TrackingMode.NONE
                assert fallback.mode is expected


def test_water_track_drifting_with_current_reads_zero():
    cfg = dvl.DvlConfig()
    current = ned(0.3, -0.1, 0.0)
    sol = measure0(Pose.level(0, 0, 10.0), current, None, cfg, lambda depth: current)
    assert sol.mode is dvl.TrackingMode.WATER_TRACK
    assert np.allclose(sol.velocity, 0.0, atol=1e-12)


def test_water_track_stationary_in_current():
    cfg = dvl.DvlConfig()
    sol = measure0(Pose.level(0, 0, 10.0), ned(0, 0, 0), None, cfg, lambda depth: ned(0.3, 0.0, 0.0))
    # Level pose: sensor x axis is north, so -0.3 on x.
    assert np.allclose(sol.velocity, [-0.3, 0.0, 0.0], atol=1e-12)


def test_water_track_samples_sensor_depth():
    cfg = dvl.DvlConfig()
    seen = []

    def current(depth):
        seen.append(depth)
        return ned(0, 0, 0)

    measure0(Pose.level(0, 0, 23.5), ned(0, 0, 0), None, cfg, current)
    assert seen == [23.5]


def test_measure_none_when_water_track_disabled():
    cfg = dvl.DvlConfig(water_track_enabled=False)
    sol = measure0(Pose.level(0, 0, 0), ned(1, 0, 0), None, cfg, lambda d: np.zeros(3))
    assert sol.mode is dvl.TrackingMode.NONE
    assert sol.velocity is None


def test_zero_noise_is_identity(flat100):
    cfg = dvl.DvlConfig()
    pose = level_pose(flat100)
    vel = ned(0.7, 0.2, 0.0)
    rng = np.random.default_rng(3)
    sol = dvl.measure(dvl.beam_geometry(pose, flat100, cfg), pose, vel, None, cfg, rng)
    clean = cfg.beams @ pose.to_body(vel)
    assert np.array_equal(sol.beam_velocities, clean)
    assert np.array_equal(sol.velocity, dvl.solve_velocity(cfg.beams, clean))
    ref = np.random.default_rng(3)
    ref.normal(0.0, 0.0, 4)
    assert rng.bit_generator.state == ref.bit_generator.state  # the 4 draws are still made


def test_noise_deterministic_under_seed(flat100):
    cfg = dvl.DvlConfig(noise_sigma=0.01)
    pose = level_pose(flat100)
    a = dvl.measure(dvl.beam_geometry(pose, flat100, cfg), pose, ned(0.7, 0.2, 0.0), None, cfg,
                    np.random.default_rng(42))
    b = dvl.measure(dvl.beam_geometry(pose, flat100, cfg), pose, ned(0.7, 0.2, 0.0), None, cfg,
                    np.random.default_rng(42))
    assert np.array_equal(a.velocity, b.velocity)


def test_noise_covariance_matches_linear_propagation():
    # Velocity noise should follow (B^T B)^-1 sigma^2 through the solve.
    sigma = 0.01
    cfg = dvl.DvlConfig(noise_sigma=sigma)
    pose = Pose.level(0.0, 0.0, 0.0)
    geometry = ranges_geometry(pose, cfg, np.full(4, 40.0))
    rng = np.random.default_rng(63)
    trials = 10_000
    vs = np.empty((trials, 3))
    for k in range(trials):
        vs[k] = dvl.measure(geometry, pose, ned(0, 0, 0), None, cfg, rng).velocity
    b = np.asarray(cfg.beams)
    cov_expected = np.linalg.inv(b.T @ b) * sigma**2
    assert np.allclose(np.abs(vs.mean(axis=0)), 0.0, atol=5e-4)
    assert np.allclose(vs.std(axis=0), np.sqrt(np.diag(cov_expected)), rtol=0.1)


# --- ADCP profiling -----------------------------------------------------------


def test_profile_uniform_current_combined():
    cfg = dvl.DvlConfig(bins=4, bin_size=10.0, noise_sigma=0.0)
    current = ned(0.25, -0.1, 0.0)
    profile = profile_of(
        Pose.level(0, 0, 5.0), ned(0, 0, 0), lambda d: current, cfg, np.random.default_rng(0)
    )
    # Stationary level sensor in uniform current: every bin reads the
    # negated current expressed in the sensor frame (x north, y west).
    expected = np.array([-0.25, -0.1, 0.0])
    for k in range(cfg.bins):
        assert np.allclose(profile.combined[k], expected, atol=1e-9)


def test_profile_two_strata_matches_interpolation_oracle():
    from subsim import currents as cur

    db = cur.StratifiedCurrentDB(
        [cur.Stratum(0.0, (0.4, 0.0, 0.0)), cur.Stratum(60.0, (0.0, 0.2, 0.0))]
    )
    cfg = dvl.DvlConfig(bins=5, bin_size=12.0, min_range=0.0)
    pose = Pose.level(0, 0, 8.0)
    profile = profile_of(
        pose, ned(0, 0, 0), db.interpolate, cfg, np.random.default_rng(0)
    )
    world_beams = (pose.rotation @ np.asarray(cfg.beams).T).T
    for k, r_k in enumerate(profile.bin_ranges):
        assert r_k == pytest.approx((k + 0.5) * 12.0)
        # Oracle: solve the noise-free system built straight from the
        # stratified interpolation at each beam's bin depth.
        scalars = np.empty(4)
        for b in range(4):
            depth = 8.0 + r_k * world_beams[b, 2]
            rel = pose.to_body(-db.interpolate(depth))
            scalars[b] = np.asarray(cfg.beams)[b] @ rel
        expected = np.linalg.lstsq(np.asarray(cfg.beams), scalars, rcond=None)[0]
        assert np.allclose(profile.combined[k], expected, atol=1e-9)


def test_profile_per_beam_parallel_to_beams():
    cfg = dvl.DvlConfig(bins=3, bin_size=8.0, profile_mode=dvl.PROFILE_PER_BEAM,
                        noise_sigma=0.02)
    profile = profile_of(
        Pose.level(0, 0, 5.0), ned(0.4, 0.0, 0.0), lambda d: ned(0.1, 0.0, 0.0),
        cfg, np.random.default_rng(7),
    )
    beams = np.asarray(cfg.beams)
    for k in range(cfg.bins):
        for b in range(4):
            v = profile.per_beam[k, b]
            cross = np.cross(v, beams[b])
            assert np.allclose(cross, 0.0, atol=1e-12)  # parallel to the beam


def test_profile_per_beam_zero_when_no_relative_motion():
    cfg = dvl.DvlConfig(bins=3, bin_size=8.0, profile_mode=dvl.PROFILE_PER_BEAM)
    current = ned(0.2, 0.1, 0.0)
    profile = profile_of(
        Pose.level(0, 0, 5.0), current, lambda d: current, cfg, np.random.default_rng(0)
    )
    assert np.allclose(profile.per_beam, 0.0, atol=1e-12)


def test_profile_bin_depths_increase_for_down_beams():
    cfg = dvl.DvlConfig(bins=6, bin_size=5.0)
    pose = Pose.level(0, 0, 2.0)
    world_beams = (pose.rotation @ np.asarray(cfg.beams).T).T
    centers = cfg.min_range + (np.arange(cfg.bins) + 0.5) * cfg.bin_size
    for b in range(4):
        depths = 2.0 + centers * world_beams[b, 2]
        assert np.all(np.diff(depths) > 0.0)


def test_profile_metadata_echoes_config():
    cfg = dvl.DvlConfig(bins=4, bin_size=10.0)
    profile = profile_of(
        Pose.level(0, 0, 5.0), ned(0, 0, 0), lambda d: np.zeros(3), cfg,
        np.random.default_rng(0),
    )
    assert profile.bins == 4
    assert profile.bin_size == 10.0
    assert np.array_equal(profile.beams, np.asarray(cfg.beams))
    assert len(profile.bin_ranges) == 4


def test_bin_centers_are_built_once_per_config():
    cfg = dvl.DvlConfig(bins=7, bin_size=3.3, min_range=0.7)
    centers = cfg.bin_centers
    assert centers.tolist() == [0.7 + (k + 0.5) * 3.3 for k in range(7)]
    assert not centers.flags.writeable
    for _ in range(2):
        profile = profile_of(Pose.level(0, 0, 5.0), ned(0, 0, 0), lambda d: np.zeros(3), cfg,
                             np.random.default_rng(0))
        assert profile.bin_ranges is centers
    assert dvl.DvlConfig().bin_centers.shape == (0,)


@pytest.mark.parametrize("mode", [dvl.PROFILE_COMBINED, dvl.PROFILE_PER_BEAM])
def test_adcp_rows_are_one_row_per_bin_and_beam(mode):
    cfg = dvl.DvlConfig(bins=3, bin_size=5.0, noise_sigma=0.01, profile_mode=mode)
    profile = profile_of(Pose.from_rpy(0.0, 0.0, 5.0, yaw=0.4), ned(0.3, -0.1, 0.0),
                         lambda d: np.zeros(3), cfg, np.random.default_rng(4))
    expected = []
    for k, r_k in enumerate(profile.bin_ranges.tolist()):
        if mode == dvl.PROFILE_COMBINED:
            expected.append([2.5, k, "all", r_k, *profile.combined[k].tolist()])
        else:
            expected += [[2.5, k, b, r_k, *profile.per_beam[k, b].tolist()] for b in range(4)]
    rows = dvl.adcp_rows(2.5, profile)
    assert rows == expected
    assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in expected]


def test_config_validation():
    with pytest.raises(ValueError):
        dvl.DvlConfig(min_range=10.0, max_range=5.0)
    with pytest.raises(ValueError):
        dvl.DvlConfig(bins=30, bin_size=10.0, max_range=100.0)
    for bin_size in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="bin_size positive"):
            dvl.DvlConfig(bins=2, bin_size=bin_size)
    up = dvl.janus_beams()
    up[0, 2] = abs(up[0, 2])
    up[0] /= np.linalg.norm(up[0])
    with pytest.raises(ValueError):
        dvl.DvlConfig(beams=up)


def test_log_row_format(flat100, tmp_path):
    cfg = dvl.DvlConfig()
    pose = level_pose(flat100)
    sol = measure0(pose, ned(0, 0, 0), flat100, cfg)
    untracked = measure0(pose, ned(0, 0, 0), None, cfg)
    with CsvLog(tmp_path / "dvl.csv", dvl.LOG_HEADER) as log:
        log.row(dvl.log_row(12.5, sol))
        log.row(dvl.log_row(13.0, untracked))
    header, row, none_row, end = (tmp_path / "dvl.csv").read_bytes().split(b"\n")
    assert header == ",".join(dvl.LOG_HEADER).encode()
    cells = row.split(b",")
    assert len(cells) == len(dvl.LOG_HEADER)
    assert cells[:2] == [b"12.5", b"bottom_track"]
    assert cells[2:] == [b"%.9g" % v for v in (*sol.velocity, sol.altitude, *sol.beam_ranges,
                                                *sol.beam_velocities)]
    assert none_row == b"13,none," + b",".join([b"nan"] * 12)  # None and missing values print nan
    assert end == b""


def test_measure_full_chain_bottom_with_noise(flat100):
    cfg = dvl.DvlConfig(noise_sigma=0.01, bins=2, bin_size=10.0)
    pose = level_pose(flat100)
    sol = dvl.measure(
        dvl.beam_geometry(pose, flat100, cfg), pose, ned(0.5, 0.0, 0.0), lambda d: np.zeros(3),
        cfg, np.random.default_rng(12),
    )
    assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
    assert np.all(np.isfinite(sol.velocity))
    assert abs(sol.velocity[0] - 0.5) < 0.05  # noise-scale deviation only


# --- Beam-set rank and the one-pass chain ---------------------------------------


def _coplanar_beams():
    """Beams 1-3 lie in the sensor y-z plane (rank 2); beam 4 leaves it,
    so the four-beam set alone has full rank."""
    beams = [[0.0, math.sin(a), -math.cos(a)] for a in (-0.5, 0.0, 0.5)]
    beams.append([math.sin(0.5), 0.0, -math.cos(0.5)])
    return np.array(beams)


@pytest.mark.parametrize(
    "beams, message",
    [
        (np.tile([0.0, 0.0, -1.0], (4, 1)), "beams 1, 2, 3, 4 span rank 1"),
        (_coplanar_beams(), "beams 1, 2, 3 span rank 2"),
    ],
    ids=["all-equal", "three-coplanar"],
)
def test_config_rejects_rank_deficient_beam_sets(beams, message):
    with pytest.raises(dvl.DegenerateBeamGeometryError, match=message):
        dvl.DvlConfig(beams=beams)


def test_degenerate_message_uses_the_check_tolerance():
    # Singular values near 1e-12: rank 3 by numpy's default tolerance,
    # rank 2 by RANK_TOL, which is what decides.
    tilted = np.array([1e-12, 0.0, -1.0]) / math.hypot(1e-12, 1.0)
    beams = np.vstack([_coplanar_beams()[[0, 2]], tilted])
    assert np.linalg.matrix_rank(beams) == 3
    with pytest.raises(dvl.DegenerateBeamGeometryError, match="3 valid beams with rank 2"):
        dvl.solve_velocity(beams, np.zeros(3))


def _random_pose(rng):
    return Pose.from_rpy(
        0.0, 0.0, rng.uniform(0.0, 40.0),
        roll=rng.uniform(-0.6, 0.6), pitch=rng.uniform(-0.6, 0.6), yaw=rng.uniform(-math.pi, math.pi),
    )


def _profile_reference(pose, vel_world, current_at, cfg, rng):
    """The per-bin, per-beam ADCP loop that `current_profile` replaces: one
    scalar current query per sampling depth and one 4-draw per bin. Its
    three BLAS products take `current_profile`'s call shapes (one rotation
    of every relative velocity, the stacked beam dot, one solve with a
    column per bin), whose bits depend on the BLAS kernel; so the per-bin
    depths, currents and noise are checked bit for bit on every kernel."""
    world_beams = (pose.rotation @ cfg.beams.T).T
    down = world_beams[:, 2]
    vel_world = np.asarray(vel_world, dtype=float)
    centers = cfg.min_range + (np.arange(cfg.bins) + 0.5) * cfg.bin_size
    rel_world = np.zeros((cfg.bins, 4, 3))
    noise = np.zeros((cfg.bins, 4))
    for k, r_k in enumerate(centers):
        for b in range(4):
            bin_depth = pose.position.depth + r_k * down[b]
            rel_world[k, b] = vel_world - np.asarray(current_at(bin_depth), dtype=float)
        noise[k] = rng.normal(0.0, cfg.noise_sigma, 4)
    rel_sensor = np.ascontiguousarray((pose.rotation.T @ rel_world.reshape(-1, 3).T).T).reshape(cfg.bins, 4, 3, 1)
    noisy = np.matmul(cfg.beams[:, None, :], rel_sensor).reshape(cfg.bins, 4) + noise
    combined = np.linalg.lstsq(cfg.beams, noisy.T, rcond=None)[0].T
    per_beam = noisy[:, :, None] * cfg.beams
    return centers, combined, per_beam


def _full_field_sampler(seed):
    """Three strata, a two-constituent tide and a Gauss-Markov part."""
    field = cur.CurrentField(
        cur.StratifiedCurrentDB([
            cur.Stratum(5.0, (0.3, 0.1, 0.0)),
            cur.Stratum(20.0, (0.1, -0.2, 0.01)),
            cur.Stratum(60.0, (0.05, 0.0, -0.02)),
        ]),
        tide=cur.TidalModel(
            heading=0.3,
            constituents=[cur.TidalConstituent(0.2, 44712.0), cur.TidalConstituent(0.05, 86164.0, 0.7)],
        ),
        gm=cur.GaussMarkovParams(mu=0.05, sigma=0.02, bound=1.0),
    )
    sampler = field.sampler(seed)
    for _ in range(5):
        sampler.step(0.1)
    return sampler


@pytest.mark.parametrize("mode", [dvl.PROFILE_COMBINED, dvl.PROFILE_PER_BEAM])
@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_profile_matches_per_bin_reference(mode, sigma):
    rng = np.random.default_rng(64)
    for trial in range(120):
        bins = int(rng.integers(1, 9))
        cfg = dvl.DvlConfig(bins=bins, bin_size=float(rng.uniform(1.0, 12.0)), min_range=0.5,
                            noise_sigma=sigma, profile_mode=mode)
        pose = _random_pose(rng)
        vel = rng.uniform(-2.0, 2.0, 3)
        if trial % 4:
            sampler, t = _full_field_sampler(trial), float(rng.uniform(0.0, 1e5))
            current_at = lambda d: sampler.velocity(d, t)
        else:
            constant = rng.uniform(-0.5, 0.5, 3)
            current_at = lambda d: constant  # (3,) for any query
        seed = int(rng.integers(1 << 30))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = profile_of(pose, vel, current_at, cfg, got_rng)
        centers, combined, per_beam = _profile_reference(pose, vel, current_at, cfg, ref_rng)
        assert np.array_equal(got.bin_ranges, centers)
        if mode == dvl.PROFILE_COMBINED:
            assert got.per_beam is None and np.array_equal(got.combined, combined)
        else:
            assert got.combined is None and np.array_equal(got.per_beam, per_beam)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _measure_reference(pose, vel_world, ranges, current_at, cfg, rng):
    """The two-solve chain `measure` replaced: solve the noise-free beam
    scalars, then draw four noise values in every mode and solve the
    noisy scalars of the valid beams."""
    hits = np.isfinite(ranges)
    if hits.sum() >= 3:
        scalars = np.where(hits, cfg.beams @ pose.to_body(vel_world), np.nan)
        clean = dvl.DvlSolution(
            velocity=np.linalg.lstsq(cfg.beams[hits], scalars[hits], rcond=None)[0],
            altitude=float(np.mean(ranges[hits] * (pose.rotation @ cfg.beams.T).T[hits, 2])),
            mode=dvl.TrackingMode.BOTTOM_TRACK, beam_ranges=ranges, beam_velocities=scalars,
        )
    elif cfg.water_track_enabled:
        scalars = cfg.beams @ pose.to_body(vel_world - current_at(pose.position.depth))
        clean = dvl.DvlSolution(
            velocity=np.linalg.lstsq(cfg.beams, scalars, rcond=None)[0], altitude=None,
            mode=dvl.TrackingMode.WATER_TRACK, beam_ranges=ranges, beam_velocities=scalars,
        )
    else:
        clean = dvl.DvlSolution(
            velocity=None, altitude=None, mode=dvl.TrackingMode.NONE,
            beam_ranges=ranges, beam_velocities=np.full(4, np.nan),
        )
    noise = rng.normal(0.0, cfg.noise_sigma, 4)
    if clean.mode is dvl.TrackingMode.NONE:
        return clean
    valid = np.isfinite(clean.beam_velocities)
    noisy = np.where(valid, clean.beam_velocities + noise, np.nan)
    return dataclasses.replace(clean, velocity=np.linalg.lstsq(cfg.beams[valid], noisy[valid], rcond=None)[0],
                               beam_velocities=noisy)


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_measure_matches_two_solve_reference(sigma):
    rng = np.random.default_rng(65)
    sampler = _full_field_sampler(1)
    for pattern in itertools.product([True, False], repeat=4):
        for enabled in (True, False):
            cfg = dvl.DvlConfig(noise_sigma=sigma, water_track_enabled=enabled)
            ranges = np.where(pattern, rng.uniform(5.0, 60.0, 4), np.nan)
            pose = _random_pose(rng)
            vel = rng.uniform(-2.0, 2.0, 3)
            current_at = lambda d: sampler.velocity(d, 100.0)
            got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
            got = dvl.measure(ranges_geometry(pose, cfg, ranges), pose, vel, current_at, cfg, got_rng)
            ref = _measure_reference(pose, vel, ranges, current_at, cfg, ref_rng)
            assert got.mode is ref.mode
            assert (got.velocity is None) == (ref.velocity is None)
            if ref.velocity is not None:
                assert np.array_equal(got.velocity, ref.velocity)
            assert got.altitude == ref.altitude
            assert np.array_equal(got.beam_ranges, ref.beam_ranges, equal_nan=True)
            assert np.array_equal(got.beam_velocities, ref.beam_velocities, equal_nan=True)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_adcp_bins_are_bounded_at_max_adcp_bins():
    assert dvl.MAX_ADCP_BINS == 10_000
    assert dvl.DvlConfig(bins=10_000, bin_size=0.005, max_range=100.0).bins == 10_000
    with pytest.raises(ValueError, match="^bins must be <= 10000, got 10001$"):
        dvl.DvlConfig(bins=10_001, bin_size=0.005, max_range=100.0)


@pytest.mark.parametrize("depth, mode", [(10.0, "bottom_track"), (-200.0, "water_track")])
def test_measure_from_a_geometry_is_the_measure_that_casts_its_beams(depth, mode):
    h = make_heightmap(40.0 + np.add.outer(np.arange(11.0), 0.5 * np.arange(11.0)), cell_m=10.0)
    cfg = dvl.DvlConfig(noise_sigma=0.01, bins=3, bin_size=5.0)
    pose = Pose.from_rpy(float(h.xs[5]), float(h.ys[5]), depth, roll=0.05, pitch=-0.1, yaw=0.7)
    vel = ned(0.4, -0.2, 0.05)
    current_at = lambda d: np.broadcast_to(np.array([0.1, 0.05, 0.0]), np.shape(d) + (3,))
    geometry = dvl.beam_geometry(pose, h, cfg)
    assert not geometry.ranges.flags.writeable and not geometry.world_beams.flags.writeable
    rng_fresh, rng_held = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        fresh = dvl.measure(dvl.beam_geometry(pose, h, cfg), pose, vel, current_at, cfg, rng_fresh)
        held = dvl.measure(geometry, pose, vel, current_at, cfg, rng_held)
        assert held.mode.value == fresh.mode.value == mode
        assert repr(dvl.log_row(0.0, held)) == repr(dvl.log_row(0.0, fresh))  # repr round-trips each float
        fresh_profile = dvl.current_profile(dvl.beam_geometry(pose, h, cfg), pose, vel, current_at, cfg,
                                            rng_fresh)
        held_profile = dvl.current_profile(geometry, pose, vel, current_at, cfg, rng_held)
        assert held_profile.combined.tobytes() == fresh_profile.combined.tobytes()
    assert rng_fresh.random() == rng_held.random()


def test_beam_geometry_without_a_scene_has_no_returns():
    geometry = dvl.beam_geometry(Pose.level(0.0, 0.0, 10.0), None, dvl.DvlConfig())
    assert np.isnan(geometry.ranges).all() and geometry.world_beams.shape == (4, 3)
