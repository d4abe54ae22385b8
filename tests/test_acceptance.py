"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them)."""

import filecmp
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from subsim import coupling as cpl
from subsim import currents as cur
from subsim import dvl, geodesy, lidar, meshtools, scenario, sonar, tiling
from subsim import bathymetry as bat
from subsim.geodesy import ProjectedCoord
from subsim.geometry import Pose, WorldPoint, ned

from conftest import beam_spectra, flat_heightmap, make_heightmap, ranges_geometry

REPO = Path(__file__).resolve().parents[1]


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS - {text}")


def test_criterion_1_geodesy_round_trip():
    rng = np.random.default_rng(101)
    lat = rng.uniform(-85.0, 85.0, 100_000)
    lon = rng.uniform(-180.0, 180.0, 100_000)
    t0 = time.perf_counter()
    x, y = geodesy.mercator_xy(lat, lon)
    lat2, lon2 = geodesy.latlon_from_xy(x, y)
    x2, y2 = geodesy.mercator_xy(lat2, lon2)
    elapsed = time.perf_counter() - t0
    err = max(np.max(np.abs(x2 - x)), np.max(np.abs(y2 - y)))
    assert err < 1e-6
    assert elapsed < 1.0

    p = geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(0.0, 0.0))
    assert p.x == 0.0 and p.y == 0.0
    p = geodesy.geodetic_to_mercator(geodesy.GeodeticCoord(0.0, 180.0))
    assert abs(p.x - math.pi * 6378137.0) < 1e-3
    report(1, f"1e5 round trips, max error {err:.2e} m in {elapsed:.2f} s")


def test_criterion_2_raycast_matches_brute_force_oracle():
    from conftest import smooth_random_grid

    rng = np.random.default_rng(102)
    grid = smooth_random_grid(rng, (64, 64))
    h = make_heightmap(grid, cell_m=10.0)
    x_min, y_min, x_max, y_max = h.extent
    step = 0.1  # cell_size / 100
    max_range = 150.0
    ts = np.arange(0.0, max_range + step, step)

    def oracle(origin, d):
        x = origin.x + d[1] * ts
        y = origin.y + d[0] * ts
        z = origin.depth + d[2] * ts
        f = z - bat.depth_at_xy(h, x, y)
        ok = np.isfinite(f)
        cross = ok[:-1] & ok[1:] & ((f[:-1] < 0) != (f[1:] < 0))
        idx = np.flatnonzero(cross)
        if not len(idx):
            return None
        k = idx[0]
        lo, hi, flo = ts[k], ts[k + 1], f[k]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            fm = float(
                origin.depth + d[2] * mid
                - bat.depth_at_xy(h, origin.x + d[1] * mid, origin.y + d[0] * mid)
            )
            if (flo < 0) != (fm < 0):
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for _ in range(1000):
        origin = WorldPoint(
            rng.uniform(x_min, x_max), rng.uniform(y_min, y_max), rng.uniform(0.0, 12.0)
        )
        d = rng.normal(size=3)
        d[2] = abs(d[2]) + 0.15
        d /= np.linalg.norm(d)
        got = bat.raycast(h, origin, d, max_range)
        expected = oracle(origin, d)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) < 1e-3
            hits += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert hits > 500
    report(2, f"1000 rays ({hits} hits), worst disagreement {worst:.2e} m in {elapsed:.1f} s")


def test_criterion_3_tile_hysteresis_vs_naive_oracle():
    specs = []
    tile = 100.0
    for r in range(6):
        for c in range(6):
            bounds = tiling.Bounds(c * tile, r * tile, (c + 1) * tile, (r + 1) * tile)
            specs.append(tiling.TileSpec((r, c), bounds))
    mgr = tiling.TileManager(specs, load_radius=400.0, unload_radius=420.0)
    positions = [ProjectedCoord(99.0, 50.0), ProjectedCoord(101.0, 50.0)]
    mgr.update_tiles([positions[0]])
    mgr.update_tiles([positions[1]])
    managed_events = []
    naive_loaded = None
    naive_events = 0
    for k in range(60):
        p = positions[k % 2]
        managed_events.extend(mgr.update_tiles([p]))
        within = {s.index for s in specs if s.core_bounds.distance_to(p.x, p.y) <= 400.0}
        if naive_loaded is not None:
            naive_events += len(within ^ naive_loaded)
        naive_loaded = within
    assert managed_events == []
    assert naive_events > 10
    report(3, f"0 events with hysteresis vs {naive_events} with the naive single radius")


def test_criterion_4_ou_current_statistics():
    mu, sigma, dt = 0.5, 0.2, 0.1
    state = cur.GaussMarkovState(mu=mu, sigma=sigma, bound=10.0, seed=104)
    n = 100_000
    series = np.empty(n)
    for k in range(n):
        series[k] = state.step(dt)[0]
    stationary = series[5000:]
    var_expected = sigma**2 / (2.0 * mu)
    var_got = float(np.var(stationary))
    assert abs(var_got - var_expected) / var_expected < 0.10

    lag_steps = 10  # tau = 1 s
    x = stationary - stationary.mean()
    rho = float(np.dot(x[:-lag_steps], x[lag_steps:]) / np.dot(x, x))
    rho_expected = math.exp(-mu * lag_steps * dt)
    assert abs(rho - rho_expected) < 0.05

    decay = cur.GaussMarkovState(mu=0.1, sigma=0.0, delta_v=(1.0, 0.0, 0.0))
    worst = 0.0
    for k in range(1, 101):
        decay.step(1.0)
        worst = max(worst, abs(decay.delta_v[0] - math.exp(-0.1 * k)))
    assert worst < 1e-9
    report(
        4,
        f"stationary var {var_got:.4f} vs {var_expected:.4f}, "
        f"autocorr {rho:.3f} vs {rho_expected:.3f}, decay error {worst:.1e}",
    )


def test_criterion_5_dvl_round_trip_and_mode_rule():
    h = flat_heightmap(50.0, n=21, cell_m=10.0)
    cfg = dvl.DvlConfig()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        pose = Pose.from_rpy(
            float(h.xs[10]), float(h.ys[10]), rng.uniform(0.0, 25.0),
            roll=rng.uniform(-0.2, 0.2), pitch=rng.uniform(-0.2, 0.2),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        vel = rng.uniform(-2.0, 2.0, 3)
        sol = dvl.measure(dvl.beam_geometry(pose, h, cfg), pose, vel, None, cfg,
                          np.random.default_rng(0))  # noise_sigma 0
        assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
        worst = max(worst, float(np.max(np.abs(sol.velocity - pose.to_body(vel)))))
    assert worst < 1e-9

    pose = Pose.level(0.0, 0.0, 0.0)
    vel = ned(0.4, -0.1, 0.05)
    for pattern in itertools.product([True, False], repeat=4):
        ranges = np.where(pattern, 45.0, np.nan)
        for enabled in (True, False):
            c = dvl.DvlConfig(water_track_enabled=enabled)
            sol = dvl.measure(ranges_geometry(pose, c, ranges), pose, vel, None, c, np.random.default_rng(0))
            if sum(pattern) >= 3:
                assert sol.mode is dvl.TrackingMode.BOTTOM_TRACK
            else:
                assert sol.mode is dvl.TrackingMode.NONE
                fallback = dvl.measure(
                    dvl.beam_geometry(pose, None, c), pose, vel, lambda depth: np.zeros(3), c,
                    np.random.default_rng(0),
                )
                assert fallback.mode is (
                    dvl.TrackingMode.WATER_TRACK if enabled else dvl.TrackingMode.NONE
                )
    report(5, f"100 random round trips, worst error {worst:.1e} m/s; 16/16 mode patterns")


def test_criterion_6_adcp_two_strata_fixture():
    db = cur.StratifiedCurrentDB(
        [cur.Stratum(0.0, (0.4, -0.1, 0.0)), cur.Stratum(60.0, (0.0, 0.2, 0.05))]
    )
    cfg = dvl.DvlConfig(bins=5, bin_size=12.0, min_range=0.0, noise_sigma=0.0)
    pose = Pose.from_rpy(0.0, 0.0, 8.0, yaw=0.7)
    profile = dvl.current_profile(
        dvl.beam_geometry(pose, None, cfg), pose, ned(0, 0, 0), db.interpolate, cfg, np.random.default_rng(0)
    )
    beams = np.asarray(cfg.beams)
    world_beams = (pose.rotation @ beams.T).T
    worst = 0.0
    for k, r_k in enumerate(profile.bin_ranges):
        scalars = np.empty(4)
        for b in range(4):
            depth = 8.0 + r_k * world_beams[b, 2]
            scalars[b] = beams[b] @ pose.to_body(-db.interpolate(depth))
        expected = np.linalg.lstsq(beams, scalars, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(profile.combined[k] - expected))))
    assert worst < 1e-12

    per_cfg = dvl.DvlConfig(bins=5, bin_size=12.0, min_range=0.0,
                            profile_mode=dvl.PROFILE_PER_BEAM, noise_sigma=0.01)
    per = dvl.current_profile(
        dvl.beam_geometry(pose, None, per_cfg), pose, ned(0.3, 0.0, 0.0), db.interpolate, per_cfg,
        np.random.default_rng(6),
    )
    for k in range(per_cfg.bins):
        for b in range(4):
            cross = np.cross(per.per_beam[k, b], beams[b])
            assert np.allclose(cross, 0.0, atol=1e-12)
    report(6, f"combined bins match stratified interpolation (worst {worst:.1e}); "
              "per-beam outputs parallel to beams")


def test_criterion_7_sonar_range_law_speckle_leakage_performance():
    # Range-bin law at the desk configuration.
    # Each target sits on beam 64's axis; row 64 of the spectra is its echo.
    cfg = sonar.SonarConfig()  # 128 beams, M=512, B_w=60 kHz
    axis = float(cfg.beam_angles()[64])
    rng = np.random.default_rng(107)
    for _ in range(50):
        r = rng.uniform(0.2, cfg.max_range * 0.95)
        scat = sonar.ScattererSet([r], [axis], [1.0], cfg)
        intensity = sonar.beam_intensity(beam_spectra(scat, cfg)[64], cfg)
        expected_bin = round(2.0 * r * cfg.bandwidth_hz / cfg.sound_speed)
        assert abs(int(np.argmax(intensity)) - expected_bin) <= 1

    # Fully developed speckle over 500 Monte-Carlo pings.
    scfg = sonar.SonarConfig(n_beams=1, spectral_bins=64, bandwidth_hz=10e3)
    n_scat = 150
    r0 = 2.0
    peaks = np.empty(500)
    for trial in range(500):
        ranges = r0 + rng.uniform(0.0, scfg.range_bin_width * 0.25, n_scat)
        scat = sonar.ScattererSet(ranges, np.full(n_scat, scfg.beam_angles()[0]), np.ones(n_scat), scfg)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_scat)
        intensity = sonar.beam_intensity(beam_spectra(scat, scfg, phases)[0], scfg)
        peaks[trial] = intensity[round(2.0 * r0 * scfg.bandwidth_hz / scfg.sound_speed)]
    cov = float(peaks.std() / peaks.mean())
    assert 0.85 <= cov <= 1.15

    # Adjacent-beam leakage follows the beam pattern.
    lcfg = sonar.SonarConfig(n_beams=32, spectral_bins=256, speckle_enabled=False)
    angles = lcfg.beam_angles()
    target = sonar.ScattererSet([2.0], [float(angles[16])], [1.0], lcfg)
    peak = sonar.beam_intensity(beam_spectra(target, lcfg)[16:18], lcfg).max(axis=1)
    ratio = math.sqrt(peak[1] / peak[0])
    expected = float(sonar.beam_pattern(angles[17] - angles[16], lcfg.beamwidth_rad))
    assert abs(ratio - expected) / expected < 0.05

    # Desk-config ping: under 2 s, identical when repeated with the same seed.
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 24.5, pitch=-math.radians(60.0))
    t0 = time.perf_counter()
    one = sonar.ping(sonar.gather_scatterers(pose, h, cfg), cfg, np.random.default_rng(9))
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    assert one.intensities.max() > 0.0
    again = sonar.ping(sonar.gather_scatterers(pose, h, cfg), cfg, np.random.default_rng(9))
    assert np.array_equal(one.intensities, again.intensities)
    report(7, f"range law 50/50, speckle CoV {cov:.3f}, leakage ratio {ratio:.3f} "
              f"(expected {expected:.3f}), desk ping {elapsed:.2f} s, repeatable under seed")


def test_criterion_8_coupling_trace_and_fuzz():
    cfg = cpl.CouplingConfig(
        linear_tol=0.02, angular_tol=0.1, insertion_force=50.0, extraction_force=60.0,
        travel_max=0.3, align_duration=2.0, cooldown=2.0,
    )
    aligned = cpl.RelativePose.from_offset_rpy(0.1, 0.0, 0.0)

    # 1.9 s of alignment is not enough; 2.0 s joins.
    state = cpl.CouplingState()
    for _ in range(19):
        state, ev = cpl.step(state, aligned, 0.0, 0.1, cfg)
        assert state.phase is cpl.Phase.FREE and ev == []
    state, ev = cpl.step(state, aligned, 0.0, 0.1, cfg)
    assert state.phase is cpl.Phase.JOINED and ev == ["joined"]

    # Scripted full cycle: insertion force locks, extraction force frees.
    trace = ["joined"]
    state, ev = cpl.step(state, aligned, cfg.insertion_force, 0.1, cfg)
    trace += ev
    state, ev = cpl.step(state, aligned, cfg.extraction_force, 0.1, cfg)
    trace += ev
    assert trace == ["joined", "fixed", "freed"]
    assert state.phase is cpl.Phase.FREE

    # Cooldown blocks re-joining: 2 s cooldown + 2 s alignment = 40 steps.
    for k in range(39):
        state, ev = cpl.step(state, aligned, 0.0, 0.1, cfg)
        assert state.phase is cpl.Phase.FREE and ev == []
    state, ev = cpl.step(state, aligned, 0.0, 0.1, cfg)
    assert state.phase is cpl.Phase.JOINED

    legal = {
        (cpl.Phase.FREE, cpl.Phase.FREE), (cpl.Phase.FREE, cpl.Phase.JOINED),
        (cpl.Phase.JOINED, cpl.Phase.JOINED), (cpl.Phase.JOINED, cpl.Phase.FIXED),
        (cpl.Phase.FIXED, cpl.Phase.FIXED), (cpl.Phase.FIXED, cpl.Phase.FREE),
    }
    rng = np.random.default_rng(108)
    poses = [aligned, cpl.RelativePose.from_offset_rpy(0.1, 0.5, 0.0)]
    picks = rng.integers(0, 2, 1_000_000)
    forces = rng.uniform(-20.0, 120.0, 1_000_000)
    dts = rng.uniform(0.01, 0.5, 1_000_000)
    state = cpl.CouplingState()
    transitions = 0
    for k in range(1_000_000):
        new_state, ev = cpl.step(state, poses[picks[k]], forces[k], dts[k], cfg)
        assert (state.phase, new_state.phase) in legal
        transitions += len(ev)
        state = new_state
    report(8, f"gate/cooldown trace exact; 1e6-step fuzz legal ({transitions} transitions)")


def test_criterion_9_lidar_defaults_and_mount_limits():
    h = flat_heightmap(40.0, n=41, cell_m=10.0)
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 30.0, pitch=-math.pi / 2.0)
    cfg = lidar.LidarConfig()  # 145x145 rays, 30x30 deg, 20 m, supersample 10
    cloud = lidar.scan(lidar.scan_geometry(pose, h, cfg), cfg)
    assert len(cloud.points) <= 1450 * 1450
    assert len(cloud.points) > 0
    assert np.all(cloud.ranges <= 20.0)
    surface = bat.depth_at_xy(h, cloud.points[:, 0], cloud.points[:, 1])
    residual = float(np.nanmax(np.abs(surface - cloud.points[:, 2])))
    assert residual <= 10.0 * bat.RAYCAST_TOL_M

    # The mount accepts exactly the angles inside +/-175 (pan) and +/-30 (tilt).
    rng = np.random.default_rng(109)
    for pan, tilt in zip(rng.uniform(-250.0, 250.0, 2000).tolist(), rng.uniform(-50.0, 50.0, 2000).tolist()):
        try:
            lidar.LidarConfig(pan_deg=pan, tilt_deg=tilt)
        except ValueError:
            assert abs(pan) > 175.0 or abs(tilt) > 30.0
        else:
            assert abs(pan) <= 175.0 and abs(tilt) <= 30.0
    corner = lidar.LidarConfig(pan_deg=175.0, tilt_deg=-30.0)
    assert (corner.pan_deg, corner.tilt_deg) == (175.0, -30.0)
    for pan, tilt in ((1e9, 0.0), (0.0, -1e9), (math.nextafter(175.0, 180.0), 0.0),
                      (0.0, math.nextafter(-30.0, -31.0))):
        with pytest.raises(ValueError, match="outside the mount limit"):
            lidar.LidarConfig(pan_deg=pan, tilt_deg=tilt)
    report(9, f"default scan: {len(cloud.points)} points (max {1450 * 1450}), "
              f"on-surface residual {residual:.1e} m; mount limited to +/-175/+/-30")


def test_criterion_10_mesh_distortion():
    tet = meshtools.unit_tetrahedron()
    out = meshtools.jitter_vertices(tet, meshtools.DistortionParams(extent=0.0, scale=1.0, seed=1))
    assert np.array_equal(out.vertices, tet.vertices)

    rng = np.random.default_rng(110)
    base = meshtools.TriMesh(rng.normal(size=(50, 3)), [[0, 1, 2]])
    worst_margin = 0.0
    for trial in range(1000):
        extent = rng.uniform(0.0, 1.0)
        scale = rng.uniform(0.01, 0.5)
        jit = meshtools.jitter_vertices(
            base, meshtools.DistortionParams(extent=extent, scale=scale, seed=trial)
        )
        disp = np.abs(jit.vertices - base.vertices).max()
        assert disp <= extent * scale + 1e-15
        worst_margin = max(worst_margin, disp - extent * scale)

    sub = meshtools.subdivide(tet)
    assert sub.num_vertices == 10 and sub.num_triangles == 16

    import tempfile

    params = meshtools.DistortionParams(extent=0.6, scale=0.2, seed=3, subdivision_levels=2)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.obj", Path(tmp) / "b.obj"
        meshtools.save_obj(meshtools.distort(tet, params), p1)
        meshtools.save_obj(meshtools.distort(tet, params), p2)
        assert p1.read_bytes() == p2.read_bytes()
    report(10, "extent-0 identity, 1000 bounded jitters, tetrahedron 10/16, "
               "byte-identical output under fixed seed")


def test_criterion_11_end_to_end_determinism_and_speed(tmp_path):
    cfg = scenario.load_scenario(REPO / "scenarios" / "demo.yaml")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    t0 = time.perf_counter()
    scenario.run(cfg, out1)
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    scenario.run(scenario.load_scenario(REPO / "scenarios" / "demo.yaml"), out2)
    second = time.perf_counter() - t0
    assert first < 60.0 and second < 60.0  # 60 s simulated, faster than real time

    mismatches = []

    def walk(d):
        if d.diff_files or d.left_only or d.right_only or d.funny_files:
            mismatches.extend(d.diff_files + d.left_only + d.right_only + d.funny_files)
        for sub in d.subdirs.values():
            walk(sub)

    walk(filecmp.dircmp(out1, out2, ignore=[]))
    # dircmp's shallow compare is not enough; hash every file.
    import hashlib

    def tree_hash(root):
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    h1, h2 = tree_hash(out1), tree_hash(out2)
    assert not mismatches
    assert h1 == h2
    report(11, f"demo byte-identical (sha256 {h1[:12]}...), runs {first:.1f} s / "
               f"{second:.1f} s for 60 s simulated")
