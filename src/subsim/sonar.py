"""Multibeam forward-looking sonar: coherent point-scattering A-plots.

Every terrain hit of a dense ray fan becomes a point scatterer with a
Lambertian-like amplitude and (optionally) a uniform random micro phase.
Each beam's spectrum is the coherent sum over *all* scatterers weighted
by the beam pattern at the scatterer's bearing, so off-axis targets leak
into neighbouring beams through the sidelobes exactly as beam
interference and angle ambiguity require. Range profiles come from the
inverse DFT of the spectrum; spectral sampling makes ranges beyond
c*M/(2*B_w) alias.

Beams are computed in fixed-size blocks; worker threads only distribute
blocks, so the output is bit-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bathymetry import Heightmap, raycast_batch
from .geometry import Pose

_BEAM_BLOCK = 16  # beams per spectrum block; fixed so results never depend on threading


@dataclass(frozen=True, eq=False)
class SonarConfig:
    n_beams: int = 128
    horizontal_fov_rad: float = math.radians(90.0)
    rays_per_beam: int = 3
    vertical_fov_rad: float = math.radians(20.0)
    vertical_rays: int = 5
    center_freq_hz: float = 900e3
    bandwidth_hz: float = 60e3
    spectral_bins: int = 512
    sound_speed: float = 1500.0
    source_level: float = 1.0
    beamwidth_rad: float | None = None  # None: 2 * horizontal_fov / n_beams
    reflectivity: float = 1.0
    max_range: float | None = None  # None: the unambiguous range c*M/(2*B_w)
    speckle_enabled: bool = True
    window: str = "none"  # or "hann"

    def __post_init__(self) -> None:
        if self.n_beams < 1 or self.rays_per_beam < 1 or self.vertical_rays < 1:
            raise ValueError("beam/ray counts must be >= 1")
        if self.bandwidth_hz <= 0.0 or self.spectral_bins < 2:
            raise ValueError("need bandwidth > 0 and at least 2 spectral bins")
        if self.horizontal_fov_rad <= 0.0 or self.vertical_fov_rad <= 0.0:
            raise ValueError("fov must be positive")
        if self.window not in ("none", "hann"):
            raise ValueError(f"unknown window {self.window!r}")
        if self.beamwidth_rad is None:
            object.__setattr__(self, "beamwidth_rad", 2.0 * self.horizontal_fov_rad / self.n_beams)
        if self.max_range is None:
            object.__setattr__(self, "max_range", self.unambiguous_range)
        if not 0.0 < self.max_range <= self.unambiguous_range + 1e-9:
            raise ValueError(
                f"max_range {self.max_range} exceeds the unambiguous range "
                f"{self.unambiguous_range:.3f} for M={self.spectral_bins}, "
                f"B_w={self.bandwidth_hz}"
            )

    @property
    def unambiguous_range(self) -> float:
        return self.sound_speed * self.spectral_bins / (2.0 * self.bandwidth_hz)

    @property
    def range_bin_width(self) -> float:
        return self.sound_speed / (2.0 * self.bandwidth_hz)

    def frequencies(self) -> np.ndarray:
        m = np.arange(self.spectral_bins)
        return self.center_freq_hz - self.bandwidth_hz / 2.0 + m * self.bandwidth_hz / self.spectral_bins

    def beam_angles(self) -> np.ndarray:
        return np.linspace(-self.horizontal_fov_rad / 2.0, self.horizontal_fov_rad / 2.0, self.n_beams)

    def ray_azimuths(self) -> np.ndarray:
        n = self.n_beams * self.rays_per_beam
        return np.linspace(-self.horizontal_fov_rad / 2.0, self.horizontal_fov_rad / 2.0, n)

    def ray_elevations(self) -> np.ndarray:
        if self.vertical_rays == 1:
            return np.zeros(1)
        return np.linspace(-self.vertical_fov_rad / 2.0, self.vertical_fov_rad / 2.0, self.vertical_rays)


class ScattererSet:
    """Parallel arrays describing point scatterers in the sonar frame."""

    def __init__(self, ranges, azimuths, incidences, amplitudes, micro_phases):
        self.ranges = np.asarray(ranges, dtype=float)
        self.azimuths = np.asarray(azimuths, dtype=float)
        self.incidences = np.asarray(incidences, dtype=float)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.micro_phases = np.asarray(micro_phases, dtype=float)

    def __len__(self) -> int:
        return len(self.ranges)

    @classmethod
    def empty(cls) -> "ScattererSet":
        z = np.zeros(0)
        return cls(z, z, z, z, z)


def beam_pattern(delta_rad, beamwidth_rad: float) -> np.ndarray:
    """One-way amplitude response |sinc(pi * delta / beamwidth)| with the
    first null at one beamwidth off axis."""
    x = np.pi * np.asarray(delta_rad, dtype=float) / beamwidth_rad
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.abs(np.sin(x[nz]) / x[nz])
    return out


def gather_scatterers(
    pose: Pose,
    scene: Heightmap,
    cfg: SonarConfig,
    rng: np.random.Generator | None = None,
) -> ScattererSet:
    """Raycast the full (azimuth x elevation) fan and convert hits to
    scatterers.

    Amplitude is source_level * reflectivity * cos(incidence) / range^2
    (two-way spherical spreading in the amplitude domain); micro phases
    are U[0, 2pi) when speckle is enabled, else zero.
    """
    az = cfg.ray_azimuths()
    el = cfg.ray_elevations()
    az_grid, el_grid = np.meshgrid(az, el, indexing="ij")
    az_flat = az_grid.ravel()
    el_flat = el_grid.ravel()
    dirs_body = np.stack(
        [
            np.cos(el_flat) * np.cos(az_flat),
            np.cos(el_flat) * np.sin(az_flat),
            np.sin(el_flat),
        ],
        axis=-1,
    )
    dirs_world = dirs_body @ pose.rotation.T
    hits = raycast_batch(scene, pose.position, dirs_world, cfg.max_range)
    mask = hits.hit
    if not mask.any():
        return ScattererSet.empty()
    ranges = hits.ranges[mask]
    normals = hits.normals[mask]
    d = dirs_world[mask]
    cos_inc = np.clip(np.abs(np.sum(d * normals, axis=1)), 0.0, 1.0)
    incidence = np.arccos(cos_inc)
    amplitude = cfg.source_level * cfg.reflectivity * cos_inc / ranges**2
    if cfg.speckle_enabled:
        if rng is None:
            raise ValueError("speckle requires an rng")
        micro = rng.uniform(0.0, 2.0 * np.pi, ranges.shape)
    else:
        micro = np.zeros_like(ranges)
    return ScattererSet(ranges, az_flat[mask], incidence, amplitude, micro)


def _phase_matrix(scat: ScattererSet, cfg: SonarConfig) -> np.ndarray:
    """exp(-j 2 pi f_m tau_i + j phi_i), shape (M, n_scatterers)."""
    tau = 2.0 * scat.ranges / cfg.sound_speed
    phase = -2.0 * np.pi * np.outer(cfg.frequencies(), tau) + scat.micro_phases[None, :]
    return np.exp(1j * phase)


def beam_spectrum(beam_angle: float, scat: ScattererSet, cfg: SonarConfig) -> np.ndarray:
    """Coherent spectrum of one beam over all scatterers (M samples)."""
    if len(scat) == 0:
        return np.zeros(cfg.spectral_bins, dtype=complex)
    weights = scat.amplitudes * beam_pattern(scat.azimuths - beam_angle, cfg.beamwidth_rad)
    return _phase_matrix(scat, cfg) @ weights


def _window(cfg: SonarConfig) -> np.ndarray | None:
    if cfg.window == "hann":
        return np.hanning(cfg.spectral_bins)
    return None


def beam_intensity(spectrum: np.ndarray, cfg: SonarConfig) -> np.ndarray:
    """Intensity-range samples: |IDFT(windowed spectrum)|^2 along axis 0,
    for one beam's spectrum (M,) or a block of beams' spectra (M, beams).

    Sample k corresponds to range c*k/(2*B_w).
    """
    spectrum = np.asarray(spectrum)
    w = _window(cfg)
    if w is not None:
        spectrum = spectrum * w.reshape((-1,) + (1,) * (spectrum.ndim - 1))
    return np.abs(np.fft.ifft(spectrum, axis=0)) ** 2


@dataclass(eq=False)
class APlot:
    """Raw sonar data product: per-beam intensity vs range."""

    intensities: np.ndarray  # (n_beams, M) linear intensity
    range_axis: np.ndarray  # (M,) meters
    beam_axis: np.ndarray  # (n_beams,) steering angles, radians


def ping(
    pose: Pose,
    scene: Heightmap,
    cfg: SonarConfig,
    rng: np.random.Generator | None = None,
    threads: int = 1,
) -> APlot:
    """One full ping: gather scatterers once, then all beam spectra and
    intensities. Identical output for any thread count and fixed seed."""
    scat = gather_scatterers(pose, scene, cfg, rng)
    beam_angles = cfg.beam_angles()
    m = cfg.spectral_bins
    intensities = np.zeros((cfg.n_beams, m))
    range_axis = np.arange(m) * cfg.range_bin_width
    if len(scat) == 0:
        return APlot(intensities, range_axis, beam_angles)

    phases = _phase_matrix(scat, cfg)
    # (n_scatterers, n_beams) beam-pattern-weighted amplitudes.
    weights = scat.amplitudes[:, None] * beam_pattern(
        scat.azimuths[:, None] - beam_angles[None, :], cfg.beamwidth_rad
    )

    blocks = [
        (b0, min(b0 + _BEAM_BLOCK, cfg.n_beams)) for b0 in range(0, cfg.n_beams, _BEAM_BLOCK)
    ]

    def compute(block: tuple[int, int]) -> tuple[int, int, np.ndarray]:
        b0, b1 = block
        return b0, b1, beam_intensity(phases @ weights[:, b0:b1], cfg).T

    if threads <= 1:
        results = [compute(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(compute, blocks))
    for b0, b1, block_i in results:
        intensities[b0:b1] = block_i
    return APlot(intensities, range_axis, beam_angles)


# --- Export -----------------------------------------------------------------


def export_aplot(aplot: APlot, pgm_path, csv_path, dynamic_range_db: float = 60.0) -> None:
    """Write the A-plot as a P5 PGM (log-scaled over dynamic_range_db,
    beams as rows) and as a lossless CSV."""
    write_aplot_pgm(aplot, pgm_path, dynamic_range_db)
    write_aplot_csv(aplot, csv_path)


def write_aplot_pgm(aplot: APlot, path, dynamic_range_db: float = 60.0) -> None:
    inten = aplot.intensities
    peak = inten.max() if inten.size else 0.0
    if peak <= 0.0:
        pixels = np.zeros(inten.shape, dtype=np.uint8)
    else:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(inten / peak)
        level = 255.0 * (1.0 + db / dynamic_range_db)
        pixels = np.clip(np.nan_to_num(level, nan=0.0, neginf=0.0), 0.0, 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_aplot_csv(aplot: APlot, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# aplot beams={len(aplot.beam_axis)} bins={len(aplot.range_axis)}\n")
        fh.write("beam_axis," + ",".join(f"{a:.17g}" for a in aplot.beam_axis) + "\n")
        fh.write("range_axis," + ",".join(f"{r:.17g}" for r in aplot.range_axis) + "\n")
        for row in aplot.intensities:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_aplot_csv(path) -> APlot:
    """Re-ingest a CSV written by write_aplot_csv."""
    beam_axis = range_axis = None
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("beam_axis,"):
                beam_axis = np.array([float(v) for v in line.split(",")[1:]])
            elif line.startswith("range_axis,"):
                range_axis = np.array([float(v) for v in line.split(",")[1:]])
            else:
                rows.append([float(v) for v in line.split(",")])
    if beam_axis is None or range_axis is None:
        raise ValueError(f"{path}: missing beam_axis/range_axis rows")
    return APlot(np.array(rows), range_axis, beam_axis)
