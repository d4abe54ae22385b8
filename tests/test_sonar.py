import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subsim import bathymetry, sonar
from subsim.geometry import Pose, fan_directions

from conftest import beam_spectra, flat_heightmap, make_heightmap, normal_at, smooth_random_grid

REPO = Path(__file__).resolve().parents[1]


def on_beam(cfg, k, ranges, amplitudes=None):
    """Scatterers at beam k's steering angle, whose spectrum is row k of
    beam_spectra: each weighted by its amplitude alone."""
    n = len(ranges)
    return sonar.ScattererSet(ranges, np.full(n, cfg.beam_angles()[k]),
                              np.ones(n) if amplitudes is None else amplitudes, cfg)


def cast_ping(pose, h, cfg, rng=None):
    """The ping of the scatterers gathered from ``pose``, as a run's sonar
    evaluates it."""
    return sonar.ping(sonar.gather_scatterers(pose, h, cfg), cfg, rng)


def brute_force_intensity(spectrum):
    """Independent O(M^2) inverse DFT oracle (matches np.fft.ifft's 1/M)."""
    m = len(spectrum)
    k = np.arange(m)
    ts = np.array([np.sum(spectrum * np.exp(2j * np.pi * k * n / m)) / m for n in range(m)])
    return np.abs(ts) ** 2


SMALL = sonar.SonarConfig(n_beams=8, rays_per_beam=2, vertical_rays=2, spectral_bins=256,
                          speckle_enabled=False)


# --- beam pattern & spectrum -----------------------------------------------------


def test_beam_pattern_peak_and_null():
    bw = math.radians(2.0)
    assert sonar.beam_pattern(0.0, bw) == pytest.approx(1.0)
    assert sonar.beam_pattern(bw, bw) == pytest.approx(0.0, abs=1e-12)


def test_zero_scatterers_zero_spectrum():
    s = beam_spectra(sonar.ScattererSet(*[np.zeros(0)] * 3, SMALL), SMALL)
    assert s.shape == (SMALL.n_beams, SMALL.spectral_bins)
    assert np.all(s == 0.0)


def test_single_on_axis_scatterer_flat_magnitude():
    amp = 0.7
    s = beam_spectra(on_beam(SMALL, 3, [3.0], [amp]), SMALL)[3]
    assert np.allclose(np.abs(s), amp, atol=1e-12)


def test_two_phasor_cancellation_at_center_freq():
    # Ranges differing by c/(4 f_c) put the echoes in antiphase at f_c.
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=512, speckle_enabled=False)
    r1 = 3.0
    r2 = r1 + cfg.sound_speed / (4.0 * cfg.center_freq_hz)
    s = beam_spectra(on_beam(cfg, 1, [r1, r2]), cfg)[1]
    m_center = cfg.spectral_bins // 2  # f_c is exactly on the grid
    assert abs(cfg.frequencies()[m_center] - cfg.center_freq_hz) < 1e-6
    # Hand-evaluated two-phasor sum: 1 + exp(-j pi) = 0.
    assert np.abs(s[m_center]) < 1e-9
    assert np.all(np.abs(s) <= 2.0 + 1e-12)


def test_flat_spectrum_concentrates_at_bin_zero():
    intensity = sonar.beam_intensity(np.ones(SMALL.spectral_bins, dtype=complex), SMALL)
    assert np.argmax(intensity) == 0
    assert intensity[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(intensity[1:] < 1e-20)


def test_range_bin_law_against_dft_oracle():
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=512, speckle_enabled=False)
    rng = np.random.default_rng(81)
    for _ in range(20):
        r = rng.uniform(0.3, cfg.max_range * 0.95)
        spectrum = beam_spectra(on_beam(cfg, 2, [r]), cfg)[2]
        intensity = sonar.beam_intensity(spectrum, cfg)
        expected_bin = round(2.0 * r * cfg.bandwidth_hz / cfg.sound_speed)
        assert abs(int(np.argmax(intensity)) - expected_bin) <= 1
        assert np.allclose(intensity, brute_force_intensity(spectrum), atol=1e-12)


def test_two_targets_at_twice_range_resolution_resolve():
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=512, speckle_enabled=False)
    r1 = 2.0
    r2 = r1 + 2.0 * cfg.range_bin_width
    intensity = sonar.beam_intensity(beam_spectra(on_beam(cfg, 0, [r1, r2]), cfg)[0], cfg)
    b1 = round(2.0 * r1 * cfg.bandwidth_hz / cfg.sound_speed)
    b2 = round(2.0 * r2 * cfg.bandwidth_hz / cfg.sound_speed)
    top_two = set(np.argsort(intensity)[-2:])
    assert any(abs(b - b1) <= 1 for b in top_two)
    assert any(abs(b - b2) <= 1 for b in top_two)


def test_intensity_linearity():
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=256, speckle_enabled=False)
    one = sonar.beam_intensity(beam_spectra(on_beam(cfg, 3, [2.5]), cfg), cfg)
    double = sonar.beam_intensity(beam_spectra(on_beam(cfg, 3, [2.5], [2.0]), cfg), cfg)
    assert one[3].max() > 0.0
    assert np.allclose(double, 4.0 * one, rtol=1e-12)


def test_adjacent_beam_leakage_matches_pattern():
    cfg = sonar.SonarConfig(n_beams=16, spectral_bins=256, speckle_enabled=False)
    angles = cfg.beam_angles()
    intensity = sonar.beam_intensity(beam_spectra(on_beam(cfg, 8, [2.0]), cfg), cfg)
    peak = intensity[8:10].max(axis=1)
    ratio = math.sqrt(peak[1] / peak[0])
    expected = float(
        sonar.beam_pattern(angles[9] - angles[8], cfg.beamwidth_rad)
        / sonar.beam_pattern(0.0, cfg.beamwidth_rad)
    )
    assert expected > 0.0
    assert ratio == pytest.approx(expected, rel=0.05)


def test_speckle_intensity_statistics():
    # >= 100 equal-amplitude random-phase scatterers inside one resolution
    # cell: fully developed speckle, intensity CoV -> 1.
    cfg = sonar.SonarConfig(n_beams=1, spectral_bins=64, bandwidth_hz=10e3,
                            speckle_enabled=True)
    rng = np.random.default_rng(82)
    r0 = 2.0
    n_scat = 120
    peaks = np.empty(400)
    for trial in range(len(peaks)):
        ranges = r0 + rng.uniform(0.0, cfg.range_bin_width * 0.2, n_scat)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_scat)
        intensity = sonar.beam_intensity(beam_spectra(on_beam(cfg, 0, ranges), cfg, phases)[0], cfg)
        peaks[trial] = intensity[round(2.0 * r0 * cfg.bandwidth_hz / cfg.sound_speed)]
    cov = peaks.std() / peaks.mean()
    assert 0.85 <= cov <= 1.15


# --- factored phase vs the exact reference --------------------------------------


def _phase_reference(scat, micro_phases, cfg):
    """The direct form: one complex exp per (bin, scatterer), shape (M, n)."""
    tau = 2.0 * scat.ranges / cfg.sound_speed
    phase = -2.0 * np.pi * np.outer(cfg.frequencies(), tau) + micro_phases[None, :]
    return np.exp(1j * phase)


def _reference_spectra(scat, micro_phases, cfg):
    """Beam spectra (beams, M) from the exact phase, one plain product over
    all scatterers."""
    angles = cfg.beam_angles()
    weights = scat.amplitudes[:, None] * sonar.beam_pattern(
        scat.azimuths[:, None] - angles[None, :], cfg.beamwidth_rad
    )
    return (_phase_reference(scat, micro_phases, cfg) @ weights).T


def _reference_intensities(scat, micro_phases, cfg):
    """Ping intensities (beams, M): the reference spectra through a per-beam
    inverse DFT."""
    spectra = _reference_spectra(scat, micro_phases, cfg)
    if cfg.window == "hann":
        spectra = spectra * np.hanning(cfg.spectral_bins)
    return np.abs(np.fft.ifft(spectra, axis=1)) ** 2


def _random_scatterers(n, cfg, seed, speckle=True):
    """n scatterers 0.5-20 m out (the demo sonar's ranges) across the fan,
    and their micro phases."""
    rng = np.random.default_rng(seed)
    half = cfg.horizontal_fov_rad / 2.0
    ranges, azimuths = rng.uniform(0.5, 20.0, n), rng.uniform(-half, half, n)
    rng.uniform(0.0, 1.2, n)  # an unused draw, which fixes each seed's amplitudes and phases
    scat = sonar.ScattererSet(ranges, azimuths, rng.uniform(1e-4, 1e-2, n), cfg)
    return scat, rng.uniform(0.0, 2.0 * np.pi, n) if speckle else np.zeros(n)


def _drawn_phases(scat, cfg, rng):
    """The micro phases a ping of ``scat`` draws from ``rng``: U[0, 2pi),
    one per scatterer, when speckle is enabled, else zeros."""
    n = len(scat)
    return rng.uniform(0.0, 2.0 * np.pi, n) if cfg.speckle_enabled else np.zeros(n)


def _pgm_pixels(aplot, path):
    sonar.write_aplot_pgm(aplot, path)
    data = path.read_bytes()
    return np.frombuffer(data[data.index(b"255\n") + 4 :], dtype=np.uint8).astype(int)


BIN_COUNTS = [2, 31, 32, 33, 1000, 1024]
SCATTERER_COUNTS = [0, 1, 127, 128, 129, 1000]


@pytest.mark.parametrize("n", SCATTERER_COUNTS)
@pytest.mark.parametrize("m", BIN_COUNTS)
def test_factored_phase_matches_exact_reference(m, n):
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=m, bandwidth_hz=40e3)
    scat, micro = _random_scatterers(n, cfg, seed=m * 7919 + n)
    phases = sonar._phase_matrix(scat, micro, cfg)
    assert phases.shape == (n, m)
    if n:
        assert np.max(np.abs(phases - _phase_reference(scat, micro, cfg).T)) <= 1e-10


@pytest.mark.parametrize("n", SCATTERER_COUNTS)
@pytest.mark.parametrize("m", BIN_COUNTS)
def test_blockwise_phases_give_the_whole_matrix_blocked_sum(m, n):
    """`_coherent_sum` builds the phases one _SCATTER_BLOCK at a time into
    reused scratch; its spectra are the blocked sum over the whole
    `_phase_matrix`, bit for bit."""
    cfg = sonar.SonarConfig(n_beams=16, spectral_bins=m, bandwidth_hz=40e3)
    scat, micro = _random_scatterers(n, cfg, seed=m * 7919 + n)
    weights = scat.beam_weights
    flat, b = sonar._phase_matrix(scat, micro, cfg).view(np.float64), sonar._SCATTER_BLOCK
    expected = weights[:b].T @ flat[:b]
    for k in range(b, n, b):
        expected += weights[k : k + b].T @ flat[k : k + b]
    spectra = sonar._coherent_sum(scat, micro, cfg)
    assert spectra.shape == (cfg.n_beams, m)
    assert spectra.tobytes() == expected.view(np.complex128).tobytes()


def test_ping_memory_is_bounded_by_one_block_of_phases():
    """A ping's traced peak grows with its weights, not with a phase per
    scatterer and bin: a whole phase matrix here would be 30 MiB."""
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = sonar.SonarConfig(n_beams=128, rays_per_beam=3, vertical_rays=5, spectral_bins=1024,
                            horizontal_fov_rad=math.radians(60.0), bandwidth_hz=40e3)
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 18.0, pitch=-math.radians(60.0))
    n = len(sonar.gather_scatterers(pose, h, cfg))
    assert n >= 1900
    tracemalloc.start()
    try:
        cast_ping(pose, h, cfg, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beams, m, b = cfg.n_beams, cfg.spectral_bins, sonar._SCATTER_BLOCK
    cols = -(-m // sonar._PHASE_STEP) * sonar._PHASE_STEP
    # float64s: the weights; the spectra, one block's product and its
    # complex phases; and the intensities. Plus 1 MiB for the fan's
    # raycast, the scatterers and each block's exponentials.
    bound = 8 * (n * beams + 4 * beams * m + 2 * b * cols + beams * m) + 2**20
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("window, speckle", [("none", True), ("hann", False)])
@pytest.mark.parametrize("n", SCATTERER_COUNTS)
@pytest.mark.parametrize("m", BIN_COUNTS)
def test_ping_matches_exact_reference(tmp_path, m, n, window, speckle):
    cfg = sonar.SonarConfig(n_beams=16, spectral_bins=m, bandwidth_hz=40e3, window=window,
                            speckle_enabled=speckle)
    scat, _ = _random_scatterers(n, cfg, seed=m * 7919 + n, speckle=False)
    aplot = sonar.ping(scat, cfg, np.random.default_rng(0))
    expected = _reference_intensities(scat, _drawn_phases(scat, cfg, np.random.default_rng(0)), cfg)
    assert aplot.intensities.shape == expected.shape == (cfg.n_beams, m)
    assert np.max(np.abs(aplot.intensities - expected)) <= 1e-10 * expected.max()
    reference = sonar.APlot(expected, aplot.range_axis, aplot.beam_axis)
    pixels = _pgm_pixels(aplot, tmp_path / "fast.pgm")
    assert np.max(np.abs(pixels - _pgm_pixels(reference, tmp_path / "exact.pgm"))) <= 1


@pytest.mark.parametrize("window", ["none", "hann"])
@pytest.mark.parametrize("speckle", [True, False])
def test_terrain_ping_matches_exact_reference(tmp_path, window, speckle):
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = sonar.SonarConfig(
        n_beams=64, rays_per_beam=3, vertical_rays=5, spectral_bins=1000,
        horizontal_fov_rad=math.radians(60.0), bandwidth_hz=40e3, window=window,
        speckle_enabled=speckle,
    )
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 18.0, pitch=-math.radians(60.0))
    aplot = cast_ping(pose, h, cfg, np.random.default_rng(5))
    scat = sonar.gather_scatterers(pose, h, cfg)
    assert len(scat) > 900
    expected = _reference_intensities(scat, _drawn_phases(scat, cfg, np.random.default_rng(5)), cfg)
    assert np.max(np.abs(aplot.intensities - expected)) <= 1e-10 * expected.max()
    reference = sonar.APlot(expected, aplot.range_axis, aplot.beam_axis)
    pixels = _pgm_pixels(aplot, tmp_path / "fast.pgm")
    assert np.max(np.abs(pixels - _pgm_pixels(reference, tmp_path / "exact.pgm"))) <= 1


def test_beam_spectra_match_exact_reference():
    cfg = sonar.SonarConfig(n_beams=8, spectral_bins=1000, bandwidth_hz=40e3)
    scat, micro = _random_scatterers(300, cfg, seed=84)
    expected = _reference_spectra(scat, micro, cfg)
    spectra = beam_spectra(scat, cfg, micro)
    assert spectra.shape == expected.shape == (cfg.n_beams, cfg.spectral_bins)
    assert np.max(np.abs(spectra - expected)) <= 1e-10 * np.max(np.abs(expected))


# --- gathering -----------------------------------------------------------------


def down_pose(h, depth):
    mid = len(h.xs) // 2
    return Pose.from_rpy(float(h.xs[mid]), float(h.ys[mid]), depth, pitch=-math.pi / 2.0)


def test_gather_open_water_is_empty():
    h = flat_heightmap(500.0, n=11, cell_m=10.0)
    cfg = sonar.SonarConfig(n_beams=8, rays_per_beam=2, vertical_rays=3, spectral_bins=256,
                            speckle_enabled=False)
    pose = Pose.level(float(h.xs[5]), float(h.ys[5]), 10.0)
    scat = sonar.gather_scatterers(pose, h, cfg)
    assert len(scat) == 0
    # No hits take the same path as any other fan: size-0 arrays, and a
    # ping's speckle draw of size 0 leaves the rng where it was.
    for a in (scat.ranges, scat.azimuths, scat.amplitudes):
        assert a.shape == (0,) and a.dtype == np.float64
    assert scat.beam_weights.shape == (0, cfg.n_beams) and scat.beam_weights.dtype == np.float64
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    aplot = sonar.ping(scat, dataclasses.replace(cfg, speckle_enabled=True), rng)
    assert not aplot.intensities.any()
    assert rng.bit_generator.state == state


def test_gather_normal_plate_at_10m():
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = sonar.SonarConfig(
        n_beams=8, rays_per_beam=2, vertical_rays=3, spectral_bins=512,
        horizontal_fov_rad=math.radians(10.0), vertical_fov_rad=math.radians(10.0),
        bandwidth_hz=30e3, source_level=2.0, reflectivity=0.5, speckle_enabled=False,
    )
    scat = sonar.gather_scatterers(down_pose(h, 20.0), h, cfg)
    assert len(scat) == cfg.n_beams * cfg.rays_per_beam * cfg.vertical_rays
    assert np.all((scat.ranges >= 10.0 - 1e-3) & (scat.ranges <= 10.08))
    cos_incidence = scat.amplitudes * scat.ranges**2 / (cfg.source_level * cfg.reflectivity)
    assert np.all(cos_incidence >= math.cos(math.radians(7.2)))
    # amplitude = SL * G * cos(i) / r^2 ~ 2 * 0.5 / 100 within a few %.
    assert np.allclose(scat.amplitudes, 2.0 * 0.5 / 100.0, rtol=0.03)


def test_gather_amplitude_formula_and_grazing():
    h = flat_heightmap(30.0, n=61, cell_m=10.0)
    cfg = sonar.SonarConfig(
        n_beams=8, rays_per_beam=2, vertical_rays=3, spectral_bins=4096,
        vertical_fov_rad=math.radians(6.0), bandwidth_hz=10e3, speckle_enabled=False,
    )
    # Slightly pitched down: rays graze the flat bottom far away.
    pose = Pose.from_rpy(float(h.xs[30]), float(h.ys[30]), 28.0, pitch=-math.radians(8.0))
    scat = sonar.gather_scatterers(pose, h, cfg)
    assert len(scat) > 0
    d, r = _hit_directions_and_ranges(pose, h, cfg)
    assert np.array_equal(scat.ranges, r)
    normals = np.array([normal_at(h, x, y) for x, y in zip(pose.position.x + d[:, 1] * r,
                                                            pose.position.y + d[:, 0] * r)])
    cos_incidence = np.abs(np.sum(d * normals, axis=1))
    expected = cfg.source_level * cfg.reflectivity * cos_incidence / r**2
    assert np.allclose(scat.amplitudes, expected, rtol=1e-9)
    assert np.all(cos_incidence < 0.25)  # near-grazing geometry


def _hit_directions_and_ranges(pose, h, cfg):
    """The world directions and exact `raycast` ranges of the fan's rays
    that hit, in fan order."""
    dirs = fan_directions(cfg.ray_azimuths(), cfg.ray_elevations()) @ pose.rotation.T
    ranges = np.array([bathymetry.raycast(h, pose.position, d, cfg.max_range) for d in dirs], dtype=float)
    hit = ~np.isnan(ranges)
    assert 0 < hit.sum() <= len(dirs)
    return dirs[hit], ranges[hit]


def test_gather_incidence_uses_the_surface_normal_at_each_hit():
    """Ranges are the exact raycast's and each amplitude's incidence comes
    from the bilinear surface normal at the scatterer's own hit point, bit
    for bit."""
    h = make_heightmap(smooth_random_grid(np.random.default_rng(8), (21, 21), base=35.0, relief=9.0))
    cfg = sonar.SonarConfig(n_beams=16, rays_per_beam=3, vertical_rays=5, spectral_bins=4096,
                            horizontal_fov_rad=math.radians(120.0), vertical_fov_rad=math.radians(40.0),
                            speckle_enabled=False)
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 12.0, pitch=-math.radians(30.0))
    scat = sonar.gather_scatterers(pose, h, cfg)
    d, r = _hit_directions_and_ranges(pose, h, cfg)
    assert len(r) < cfg.n_beams * cfg.rays_per_beam * cfg.vertical_rays
    assert np.array_equal(scat.ranges, r)
    normals = np.array([normal_at(h, x, y) for x, y in zip(pose.position.x + d[:, 1] * r,
                                                            pose.position.y + d[:, 0] * r)])
    cos_incidence = np.clip(np.abs(np.sum(d * normals, axis=1)), 0.0, 1.0)
    assert np.array_equal(scat.amplitudes, cfg.source_level * cfg.reflectivity * cos_incidence / r**2)


@pytest.mark.parametrize("chunk", [25, 127])  # 255 rays: 127 leaves one ray over
def test_chunked_fan_gives_the_whole_fans_scatterers_and_ping(monkeypatch, chunk):
    """The fan is cast bathymetry.RAY_CHUNK rays at a time; the scatterers
    and the ping equal those of the whole fan rotated and cast at once, bit
    for bit."""
    h = make_heightmap(smooth_random_grid(np.random.default_rng(8), (21, 21), base=35.0, relief=9.0))
    cfg = sonar.SonarConfig(n_beams=17, rays_per_beam=3, vertical_rays=5, spectral_bins=4096,
                            horizontal_fov_rad=math.radians(120.0), vertical_fov_rad=math.radians(40.0))
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 12.0, roll=0.1, pitch=-math.radians(30.0), yaw=0.4)
    az, el = cfg.ray_azimuths(), cfg.ray_elevations()
    assert len(az) * len(el) == 255
    whole = bathymetry.raycast_batch(h, pose.position, fan_directions(az, el) @ pose.rotation.T,
                                     cfg.max_range).ranges
    hit = ~np.isnan(whole)
    assert 0 < hit.sum() < len(whole)
    reference = sonar.gather_scatterers(pose, h, cfg)
    assert reference.ranges.tobytes() == whole[hit].tobytes()
    assert reference.azimuths.tobytes() == np.repeat(az, len(el))[hit].tobytes()
    reference_ping = sonar.ping(reference, cfg, np.random.default_rng(3))
    monkeypatch.setattr(bathymetry, "RAY_CHUNK", chunk)
    chunked = sonar.gather_scatterers(pose, h, cfg)
    for name in ("ranges", "azimuths", "amplitudes", "beam_weights"):
        assert getattr(chunked, name).tobytes() == getattr(reference, name).tobytes(), name
    chunked_ping = sonar.ping(chunked, cfg, np.random.default_rng(3))
    assert chunked_ping.intensities.tobytes() == reference_ping.intensities.tobytes()


def test_fan_memory_is_bounded_by_the_chunk_and_the_hits():
    """A 131,072-ray fan pointed away from the seafloor is cast a chunk at a
    time: its memory does not grow with its ray count."""
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = sonar.SonarConfig(n_beams=64, rays_per_beam=64, vertical_rays=32, spectral_bins=256)
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 5.0, pitch=math.radians(60.0))
    tracemalloc.start()
    try:
        hits = len(sonar.gather_scatterers(pose, h, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 0
    # Per ray of a chunk in flight: the walk's per-ray arrays and the
    # chunk's fan (under 400 bytes). Per hit, what the fan keeps: its ray
    # index, direction and range, then its scatterer (88 bytes). Plus 1 MiB.
    bound = 400 * bathymetry.RAY_CHUNK + 88 * hits + 2**20
    assert peak <= bound, (peak, bound)


def test_gather_speckle_phases_seeded():
    """Gathering draws no speckle, even with speckle enabled: it takes no
    rng, and a ping's one draw of U[0, 2pi) phases, one per scatterer, is
    all it takes from its rng."""
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = sonar.SonarConfig(n_beams=4, rays_per_beam=2, vertical_rays=2, spectral_bins=256,
                            bandwidth_hz=15e3)
    pose = down_pose(h, 20.0)  # 10 m above the bottom, inside the 12.8 m max_range
    scat = sonar.gather_scatterers(pose, h, cfg)
    assert len(scat) > 0
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    sonar.ping(scat, cfg, rng)
    reference.uniform(0.0, 2.0 * np.pi, len(scat))
    assert rng.bit_generator.state == reference.bit_generator.state


# --- ping ----------------------------------------------------------------------


def test_ping_empty_scene_all_zero():
    h = flat_heightmap(500.0, n=11, cell_m=10.0)
    aplot = cast_ping(Pose.level(float(h.xs[5]), float(h.ys[5]), 10.0), h, SMALL)
    assert np.all(aplot.intensities == 0.0)
    assert aplot.intensities.shape == (SMALL.n_beams, SMALL.spectral_bins)


def test_ping_flat_bottom_arc():
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = sonar.SonarConfig(
        n_beams=16, rays_per_beam=3, vertical_rays=5, spectral_bins=1024,
        horizontal_fov_rad=math.radians(40.0), vertical_fov_rad=math.radians(20.0),
        bandwidth_hz=40e3, speckle_enabled=False,
    )
    pose = down_pose(h, 18.0)  # 12 m above the bottom, looking straight down
    aplot = cast_ping(pose, h, cfg)
    # Each beam's peak must land between the shortest slant range of its
    # rays (12/cos az at zero elevation) and the longest (half the
    # vertical fov off axis), forming an arc consistent across beams.
    el_max = cfg.vertical_fov_rad / 2.0
    for b, angle in enumerate(aplot.beam_axis):
        peak_range = aplot.range_axis[int(np.argmax(aplot.intensities[b]))]
        lo = 12.0 / math.cos(angle) - 3.0 * cfg.range_bin_width
        hi = 12.0 / (math.cos(angle) * math.cos(el_max)) + 3.0 * cfg.range_bin_width
        assert lo <= peak_range <= hi


# Demo sonar pings at rov1's poses at t = 0 and 12 s, with the demo's 48
# beams, with 128, and with 128 beams of 10 vertical rays (371, 990, 2000,
# 366, 978 and 1924 scatterers: up to 16 blocks of _SCATTER_BLOCK). A
# single contraction over all scatterers gave different A-plot bytes for
# these with one and with two OpenBLAS threads.
_BLAS_PROBE = """
import hashlib, sys
import numpy as np
import yaml
from subsim import bathymetry, scenario, sonar
cfg = scenario.load_scenario(sys.argv[1])
heightmap = bathymetry.load_heightmap(cfg.world.heightmap_path)
rov = cfg.vehicles[0]
with open(sys.argv[1]) as fh:
    entry = next(s for s in yaml.safe_load(fh)["vehicles"][0]["sensors"] if s["type"] == "sonar")
params = {k: v for k, v in entry.items() if k not in ("type", "name", "rate")}
for t in (0.0, 12.0):
    pose, _ = scenario.interpolate_trajectory(rov.waypoints, t)
    for n_beams, vertical_rays in ((48, 5), (128, 5), (128, 10)):
        scfg = sonar.SonarConfig(**{**params, "n_beams": n_beams, "vertical_rays": vertical_rays})
        scat = sonar.gather_scatterers(pose, heightmap, scfg)
        aplot = sonar.ping(scat, scfg, np.random.default_rng(3))
        print(t, n_beams, len(scat), hashlib.sha256(aplot.intensities.tobytes()).hexdigest())
"""


def test_ping_bit_identical_across_blas_thread_counts():
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(REPO / "scenarios" / "demo.yaml")],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 6
    assert [line.split()[2] for line in outputs[0]] == ["371", "990", "2000", "366", "978", "1924"]
    assert outputs[0] == outputs[1]


def test_ping_deterministic_under_seed():
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = sonar.SonarConfig(n_beams=8, rays_per_beam=2, vertical_rays=2, spectral_bins=256,
                            bandwidth_hz=15e3)
    pose = down_pose(h, 20.0)  # 10 m above the bottom, inside the 12.8 m max_range
    a = cast_ping(pose, h, cfg, np.random.default_rng(11))
    b = cast_ping(pose, h, cfg, np.random.default_rng(11))
    assert np.array_equal(a.intensities, b.intensities) and a.intensities.any()


def test_config_range_ambiguity_guard():
    with pytest.raises(ValueError):
        sonar.SonarConfig(spectral_bins=64, bandwidth_hz=60e3, max_range=50.0)


@pytest.mark.parametrize("field", ["n_beams", "rays_per_beam", "vertical_rays", "spectral_bins"])
@pytest.mark.parametrize("value", [48.0, 2.5, True, float("nan")])
def test_config_counts_must_be_integers(field, value):
    # A float count used to pass and then fail in np.linspace/np.arange mid-run.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        sonar.SonarConfig(**{field: value})
    assert getattr(sonar.SonarConfig(**{field: np.int64(48)}), field) == 48


# --- export --------------------------------------------------------------------


def test_pgm_all_zero_is_black(tmp_path):
    aplot = sonar.APlot(np.zeros((4, 8)), np.arange(8.0), np.zeros(4))
    path = tmp_path / "z.pgm"
    sonar.write_aplot_pgm(aplot, path)
    data = path.read_bytes()
    header_end = data.index(b"255\n") + 4
    assert data[:3] == b"P5\n"
    assert set(data[header_end:]) == {0}


def test_pgm_single_saturating_bin(tmp_path):
    inten = np.zeros((4, 8))
    inten[2, 5] = 1.0
    aplot = sonar.APlot(inten, np.arange(8.0), np.zeros(4))
    path = tmp_path / "s.pgm"
    sonar.write_aplot_pgm(aplot, path)
    data = path.read_bytes()
    pixels = data[data.index(b"255\n") + 4 :]
    assert pixels[2 * 8 + 5] == 255
    assert sum(1 for p in pixels if p == 255) == 1


def test_pgm_levels_are_computed_in_one_float_array(tmp_path):
    """A 128 x 1,024 A-plot's PGM holds the pixels of the level formula,
    zeros (-inf dB) at 0, and writing it takes one float array of levels."""
    rng = np.random.default_rng(4)
    inten = rng.exponential(1.0, (128, 1024)) ** 4
    inten[:, :100] = 0.0
    with np.errstate(divide="ignore"):
        level = 255.0 * (1.0 + 10.0 * np.log10(inten / inten.max()) / sonar.PGM_DYNAMIC_RANGE_DB)
    expected = np.clip(np.nan_to_num(level, nan=0.0, neginf=0.0), 0.0, 255.0).astype(np.uint8)
    assert 0 < np.count_nonzero(expected == 0) < np.count_nonzero(expected < 255) < inten.size
    aplot = sonar.APlot(inten, np.arange(1024.0), np.arange(128.0))
    path = tmp_path / "a.pgm"
    tracemalloc.start()
    try:
        sonar.write_aplot_pgm(aplot, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == b"P5\n1024 128\n255\n" + expected.tobytes()
    # One float64 level per pixel, the uint8 pixels, and 64 KiB.
    bound = 8 * inten.size + inten.size + 2**16
    assert peak <= bound, (peak, bound)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(83)
    aplot = sonar.APlot(rng.uniform(0, 1, (6, 12)), np.arange(12.0) * 0.0125,
                        np.linspace(-0.5, 0.5, 6))
    path = tmp_path / "a.csv"
    sonar.write_aplot_csv(aplot, path)
    back = sonar.load_aplot_csv(path)
    assert np.array_equal(back.intensities, aplot.intensities)
    assert np.array_equal(back.range_axis, aplot.range_axis)
    assert np.array_equal(back.beam_axis, aplot.beam_axis)


@pytest.mark.parametrize("damage", ["cut-at-row", "cut-mid-row", "cut-in-last-value", "extra-row",
                                    "no-header", "short-beam-axis", "long-range-axis", "short-row",
                                    "not-a-number"])
def test_load_aplot_csv_rejects_damaged_files(tmp_path, damage):
    aplot = sonar.APlot(np.arange(72.0).reshape(6, 12) / 7.0, np.arange(12.0) * 0.0125,
                        np.linspace(-0.5, 0.5, 6))
    sonar.write_aplot_csv(aplot, tmp_path / "good.csv")
    good = (tmp_path / "good.csv").read_bytes()
    lines = good.split(b"\n")  # header, beam_axis, range_axis, 6 rows, ""
    bad = {
        "cut-at-row": b"\n".join(lines[:3 + 3]) + b"\n",
        "cut-mid-row": good[:good.index(lines[5]) + len(lines[5]) // 2],
        "cut-in-last-value": good[:-3],
        "extra-row": good + lines[4] + b"\n",
        "no-header": b"\n".join(lines[1:]),
        "short-beam-axis": good.replace(lines[1], lines[1].rpartition(b",")[0]),
        "long-range-axis": good.replace(lines[2], lines[2] + b",0.5"),
        "short-row": good.replace(lines[7], lines[7].rpartition(b",")[0]),
        "not-a-number": good.replace(lines[7], lines[7].replace(b",", b",x", 1)),
    }[damage]
    path = tmp_path / f"{damage}.csv"
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=f"{damage}.csv"):
        sonar.load_aplot_csv(path)


def test_range_axis_spacing_is_half_wavelength_per_bandwidth():
    cfg = sonar.SonarConfig(n_beams=4, spectral_bins=128, bandwidth_hz=50e3)
    h = flat_heightmap(500.0, n=11, cell_m=10.0)
    aplot = cast_ping(Pose.level(float(h.xs[5]), float(h.ys[5]), 10.0), h, cfg, np.random.default_rng(0))
    spacing = np.diff(aplot.range_axis)
    assert np.allclose(spacing, cfg.sound_speed / (2.0 * cfg.bandwidth_hz))


def test_ping_matrix_entries_are_bounded_at_max_ping_entries():
    assert sonar.MAX_PING_ENTRIES == 2**26
    sonar.SonarConfig()  # 1,920 rays x (512 bins + 128 beams)
    at_bound = sonar.SonarConfig(n_beams=64, rays_per_beam=1, vertical_rays=1, spectral_bins=2**20 - 64)
    assert 64 * (at_bound.spectral_bins + 64) == sonar.MAX_PING_ENTRIES
    with pytest.raises(ValueError, match="rays \\* \\(spectral_bins \\+ n_beams\\) is 67108928, more than 67108864"):
        sonar.SonarConfig(n_beams=64, rays_per_beam=1, vertical_rays=1, spectral_bins=2**20 - 63)
    with pytest.raises(ValueError, match="more than 67108864"):  # beams alone: the weight matrix
        sonar.SonarConfig(n_beams=8193, rays_per_beam=1, vertical_rays=1, spectral_bins=2)
    with pytest.raises(ValueError, match="is 42535295904731389190053994725743001600, more than"):  # no int64 wrap
        sonar.SonarConfig(n_beams=np.int64(2**31), rays_per_beam=np.int64(2**31), vertical_rays=2**32, spectral_bins=2)


@pytest.mark.parametrize("speckle", [True, False])
def test_ping_from_a_geometry_is_the_ping_that_casts_its_rays(speckle):
    h = make_heightmap(smooth_random_grid(np.random.default_rng(4), (21, 21), base=30.0), cell_m=5.0)
    cfg = sonar.SonarConfig(n_beams=16, rays_per_beam=3, vertical_rays=3, spectral_bins=128,
                            bandwidth_hz=5e3, speckle_enabled=speckle)
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 22.0, pitch=-0.6, yaw=0.2)
    geometry = sonar.gather_scatterers(pose, h, cfg)
    assert len(geometry) > 50
    assert geometry.beam_weights.shape == (len(geometry), cfg.n_beams)
    rng_fresh, rng_held = np.random.default_rng(8), np.random.default_rng(8)
    pings = []
    for _ in range(3):
        fresh = cast_ping(pose, h, cfg, rng_fresh)
        held = sonar.ping(geometry, cfg, rng_held)
        assert held.intensities.tobytes() == fresh.intensities.tobytes()
        assert held.range_axis.tobytes() == fresh.range_axis.tobytes()
        pings.append(held.intensities.tobytes())
    assert rng_fresh.random() == rng_held.random()
    assert (len(set(pings)) == 3) == speckle  # speckle draws new micro phases each ping


def test_sonar_config_refuses_range_bins_that_are_not_finite():
    with pytest.raises(ValueError, match="bandwidth_hz 5e-324 give no finite range bins"):
        sonar.SonarConfig(bandwidth_hz=5e-324)
    with pytest.raises(ValueError, match="sound_speed 1e\\+308 and bandwidth_hz"):
        sonar.SonarConfig(sound_speed=1e308, max_range=19.0)
