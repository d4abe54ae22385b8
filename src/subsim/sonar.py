"""Multibeam forward-looking sonar: coherent point-scattering A-plots.

Every terrain hit of a dense ray fan becomes a point scatterer with a
Lambertian-like amplitude and (optionally) a uniform random micro phase.
Each beam's spectrum is the coherent sum over *all* scatterers weighted
by the beam pattern at the scatterer's bearing, so off-axis targets leak
into neighbouring beams through the sidelobes exactly as beam
interference and angle ambiguity require. Range profiles come from the
inverse DFT of the spectrum; spectral sampling makes ranges beyond
c*M/(2*B_w) alias.

The phase matrix factors over the evenly spaced frequency grid: one
exact exponential every _PHASE_STEP bins times a per-scatterer table of
small phase steps. The coherent sum runs over fixed blocks of
scatterers, so its rounding does not depend on how the BLAS library
divides the work, and builds one block of phases at a time, so a ping's
memory does not grow with its scatterer count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bathymetry import Heightmap, cast_fan, surface_normals
from .geometry import Pose
from .output import write_g17

_PHASE_STEP = 32  # K: bins per exact exponential in _phase_matrix
_SCATTER_BLOCK = 128  # scatterers per partial sum in _coherent_sum
PGM_DYNAMIC_RANGE_DB = 60.0  # dB below the ping's peak that map to PGM level 0
# Most entries of a ping's per-ray work, rays * (spectral_bins + n_beams):
# one phase per ray and bin, built and summed one _SCATTER_BLOCK of
# scatterers at a time, so the bins bound a ping's time rather than its
# memory; and one float weight per scatterer (a ray's hit) and beam, the
# only per-ray array a ping holds whole (at most 512 MiB): its fan is cast
# a chunk at a time. 2^26 is about 30 times dense_scan's 128-beam,
# 1024-bin sonar.
MAX_PING_ENTRIES = 67_108_864

# SonarConfig count fields and their least values, and the float fields
# that must be finite and > 0 (None, where allowed, selects a derived
# default).
_COUNT_FIELDS = (("n_beams", 1), ("rays_per_beam", 1), ("vertical_rays", 1), ("spectral_bins", 2))
_POSITIVE_FIELDS = (
    "horizontal_fov_rad", "vertical_fov_rad", "center_freq_hz", "bandwidth_hz",
    "sound_speed", "source_level", "beamwidth_rad", "max_range",
)


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
        for name, least in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        beams, bins = int(self.n_beams), int(self.spectral_bins)  # Python ints: a numpy product could wrap
        entries = beams * int(self.rays_per_beam) * int(self.vertical_rays) * (bins + beams)
        if entries > MAX_PING_ENTRIES:
            raise ValueError(f"rays * (spectral_bins + n_beams) is {entries}, more than {MAX_PING_ENTRIES}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.reflectivity) and self.reflectivity >= 0.0):
            raise ValueError(f"reflectivity must be finite and >= 0, got {self.reflectivity}")
        if self.window not in ("none", "hann"):
            raise ValueError(f"unknown window {self.window!r}")
        if not (math.isfinite(self.range_bin_width) and math.isfinite(self.unambiguous_range)):
            raise ValueError(f"sound_speed {self.sound_speed} and bandwidth_hz {self.bandwidth_hz} give no finite "
                             f"range bins: width {self.range_bin_width} m, unambiguous range "
                             f"{self.unambiguous_range} m")
        if self.beamwidth_rad is None:
            object.__setattr__(self, "beamwidth_rad", 2.0 * self.horizontal_fov_rad / self.n_beams)
        if self.max_range is None:
            object.__setattr__(self, "max_range", self.unambiguous_range)
        if self.max_range > self.unambiguous_range + 1e-9:
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
    """What a ping from one pose is before its speckle draw: parallel
    arrays describing point scatterers in the sonar frame, and
    ``beam_weights``, each scatterer's amplitude weighted by the beam
    pattern at its bearing from each of ``cfg``'s steering angles, shape
    (n_scatterers, n_beams)."""

    def __init__(self, ranges, azimuths, amplitudes, cfg: SonarConfig):
        self.ranges = np.asarray(ranges, dtype=float)
        self.azimuths = np.asarray(azimuths, dtype=float)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        pattern = _beam_pattern_of(np.subtract.outer(self.azimuths, cfg.beam_angles()), cfg.beamwidth_rad)
        self.beam_weights = np.multiply(pattern, self.amplitudes[:, None], out=pattern)

    def __len__(self) -> int:
        return len(self.ranges)


def beam_pattern(delta_rad, beamwidth_rad: float) -> np.ndarray:
    """One-way amplitude response |sinc(pi * delta / beamwidth)| with the
    first null at one beamwidth off axis."""
    return _beam_pattern_of(np.array(delta_rad, dtype=float), beamwidth_rad)


def _beam_pattern_of(delta: np.ndarray, beamwidth_rad: float) -> np.ndarray:
    """`beam_pattern` of an array that it overwrites: a (scatterers x
    beams) pattern then takes two arrays of that size and a mask."""
    x = np.multiply(np.pi, delta, out=delta)
    x /= beamwidth_rad
    nz = x != 0.0
    out = np.ones_like(x)
    np.sin(x, out=out, where=nz)
    np.divide(out, x, out=out, where=nz)
    return np.abs(out, out=out)


def gather_scatterers(pose: Pose, scene: Heightmap, cfg: SonarConfig) -> ScattererSet:
    """Raycast the full (azimuth x elevation) fan from ``pose`` and convert
    its hits to scatterers; no randomness is drawn.

    Amplitude is source_level * reflectivity * cos(incidence) / range^2
    (two-way spherical spreading in the amplitude domain), the incidence
    taken against the surface normal at each scatterer's own hit point.
    """
    az = cfg.ray_azimuths()
    el = cfg.ray_elevations()
    ray, d, ranges = cast_fan(scene, pose.position, pose.rotation, az, el, cfg.max_range)
    normals = surface_normals(scene, pose.position.x + d[:, 1] * ranges, pose.position.y + d[:, 0] * ranges)
    cos_inc = np.clip(np.abs(np.sum(d * normals, axis=1)), 0.0, 1.0)
    amplitude = cfg.source_level * cfg.reflectivity * cos_inc / ranges**2
    return ScattererSet(ranges, az[ray // len(el)], amplitude, cfg)


def _phase_matrix(scat: ScattererSet, micro_phases: np.ndarray, cfg: SonarConfig, rows: slice = slice(None),
                  out=None) -> np.ndarray:
    """exp(-j 2 pi f_m tau_i + j phi_i) for the scatterers ``rows`` and
    their ``micro_phases`` phi, shape (n, M); into ``out``, a complex (n,
    ceil(M/K), K) array, if given.

    With m = q*K + r and f_m = f_{qK} + r*B_w/M, each phasor is the exact
    exp(j(-2 pi f_{qK} tau_i + phi_i)) times exp(-j 2 pi r (B_w/M) tau_i):
    ceil(M/K) + K exponentials per scatterer instead of M. The products
    agree with the direct form to a few ulp of the ~1e5 rad argument,
    which the direct form itself rounds to ~1e-11. Every entry depends on
    its own scatterer alone, so a block of rows equals those rows of the
    whole matrix bit for bit.
    """
    k = _PHASE_STEP
    tau = 2.0 * scat.ranges[rows] / cfg.sound_speed
    coarse = np.exp(
        1j * (-2.0 * np.pi * np.outer(tau, cfg.frequencies()[::k]) + micro_phases[rows, None])
    )
    step_hz = cfg.bandwidth_hz / cfg.spectral_bins
    steps = np.exp(-2j * np.pi * step_hz * np.outer(tau, np.arange(k)))
    phases = np.multiply(coarse[:, :, None], steps[:, None, :], out=out)
    return phases.reshape(len(tau), coarse.shape[1] * k)[:, : cfg.spectral_bins]


def _coherent_sum(scat: ScattererSet, micro_phases: np.ndarray, cfg: SonarConfig) -> np.ndarray:
    """Spectra sum_i weights[i, b] * phase[i, m], shape (beams, M), for the
    scatterers' beam_weights (n_scatterers, beams) and their phases with
    these ``micro_phases``.

    The weights are real, so the product runs on the phases' float view
    (re and im interleaved along M), half the arithmetic of a complex
    product. The sum runs over fixed blocks of _SCATTER_BLOCK scatterers,
    added in index order: OpenBLAS splits a long contraction at different
    points in its one-thread and multi-thread drivers, so a single
    product over all scatterers changes in its last bits with the BLAS
    thread count, while no block this short is split.

    The ping's memory does not grow with its scatterer count: each
    block's phases are built into one scratch array and its product into
    another, both reused for every block and carved from one allocation.
    glibc maps the first such scratch; freeing it raises glibc's mmap and
    trim thresholds above its size, so later pings, and the lidar's
    smaller arrays, take their memory from the heap and reuse its pages.
    """
    n, b, k = len(scat), _SCATTER_BLOCK, _PHASE_STEP
    weights = scat.beam_weights
    beams, m = weights.shape[1], cfg.spectral_bins
    if n == 0:
        return np.zeros((beams, m), dtype=complex)
    spectra = np.empty((beams, 2 * m))
    block_rows, cols = min(n, b), -(-m // k) * k
    scratch = np.empty(2 * beams * m + 2 * block_rows * cols)  # float64: the block's product, then its phases
    partial = scratch[: 2 * beams * m].reshape(beams, 2 * m)
    phases = scratch[2 * beams * m :].view(complex).reshape(block_rows, cols // k, k)
    for start in range(0, n, b):
        rows = slice(start, start + b)
        flat = _phase_matrix(scat, micro_phases, cfg, rows, phases[: min(b, n - start)]).view(np.float64)
        if start == 0:
            np.matmul(weights[rows].T, flat, out=spectra)
        else:
            np.matmul(weights[rows].T, flat, out=partial)
            np.add(spectra, partial, out=spectra)
    return spectra.view(np.complex128)


def _window(cfg: SonarConfig) -> np.ndarray | None:
    if cfg.window == "hann":
        return np.hanning(cfg.spectral_bins)
    return None


def beam_intensity(spectrum: np.ndarray, cfg: SonarConfig) -> np.ndarray:
    """Intensity-range samples: |IDFT(windowed spectrum)|^2 along the last
    axis, for one beam's spectrum (M,) or all beams' spectra (beams, M).

    Sample k corresponds to range c*k/(2*B_w).
    """
    spectrum = np.asarray(spectrum)
    w = _window(cfg)
    if w is not None:
        spectrum = spectrum * w
    intensities = np.abs(np.fft.ifft(spectrum, axis=-1))
    return np.square(intensities, out=intensities)


@dataclass(eq=False)
class APlot:
    """Raw sonar data product: per-beam intensity vs range."""

    intensities: np.ndarray  # (n_beams, M) linear intensity
    range_axis: np.ndarray  # (M,) meters
    beam_axis: np.ndarray  # (n_beams,) steering angles, radians


def ping(scatterers: ScattererSet, cfg: SonarConfig, rng: np.random.Generator | None = None) -> APlot:
    """One full ping of the `gather_scatterers` of a pose: this ping's
    micro phases, U[0, 2pi) drawn from ``rng`` when speckle is enabled,
    else zeros, then every beam's spectrum as one (n_beams, M) array and
    their intensities in one pass."""
    if not cfg.speckle_enabled:
        micro_phases = np.zeros(len(scatterers))
    elif rng is None:
        raise ValueError("speckle requires an rng")
    else:
        micro_phases = rng.uniform(0.0, 2.0 * np.pi, len(scatterers))
    intensities = beam_intensity(_coherent_sum(scatterers, micro_phases, cfg), cfg)
    return APlot(intensities, np.arange(cfg.spectral_bins) * cfg.range_bin_width, cfg.beam_angles())


# --- Export -----------------------------------------------------------------


def write_aplot_pgm(aplot: APlot, path) -> None:
    """Write the A-plot as a P5 PGM, beams as rows, intensities log-scaled
    from the peak (255) down to PGM_DYNAMIC_RANGE_DB below it (0): the
    level 255 * (1 + 10 log10(I / peak) / PGM_DYNAMIC_RANGE_DB), computed
    in place in one float array."""
    inten = aplot.intensities
    peak = inten.max() if inten.size else 0.0
    if peak <= 0.0:
        pixels = np.zeros(inten.shape, dtype=np.uint8)
    else:
        level = np.divide(inten, peak, order="C")  # C order: written row by row, without a copy
        with np.errstate(divide="ignore"):
            np.log10(level, out=level)
        level *= 10.0
        level /= PGM_DYNAMIC_RANGE_DB
        level += 1.0
        level *= 255.0
        # fmax and fmin skip a NaN operand: NaN and -inf map to 0, +inf to 255.
        pixels = np.fmin(np.fmax(level, 0.0, out=level), 255.0, out=level).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.data)


_APLOT_HEADER = b"# aplot beams=%d bins=%d\n"
_APLOT_HEADER_RE = re.compile(re.escape(_APLOT_HEADER[:-1]).replace(b"%d", rb"(\d+)"))  # the line, without its newline


def write_aplot_csv(aplot: APlot, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_APLOT_HEADER % (len(aplot.beam_axis), len(aplot.range_axis)))
        for name, axis in ((b"beam_axis,", aplot.beam_axis), (b"range_axis,", aplot.range_axis)):
            fh.write(name)
            write_g17(fh, np.reshape(axis, (1, -1)), b",")
        write_g17(fh, aplot.intensities, b",")


def load_aplot_csv(path) -> APlot:
    """Re-ingest a CSV written by write_aplot_csv.

    The file must hold its ``# aplot beams=B bins=M`` header line, the
    beam_axis row (B values), the range_axis row (M values) and B
    intensity rows of M values, each ended by a newline. Any other
    layout raises ValueError naming the file."""
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    header = _APLOT_HEADER_RE.fullmatch(lines[0])
    if header is None:
        raise ValueError(f"{path}: line 1 is not an '# aplot beams=B bins=M' header")
    beams, bins = int(header[1]), int(header[2])
    if lines.pop() != b"":
        raise ValueError(f"{path}: the last line has no newline (file cut short?)")
    if len(lines) != 3 + beams:
        raise ValueError(f"{path}: {len(lines) - 3} intensity rows, header says beams={beams}")

    def row(index: int, name: bytes, count: int) -> list[float]:
        line = lines[index]
        if not line.startswith(name):
            raise ValueError(f"{path}: line {index + 1} does not start with {name.decode()!r}")
        fields = line[len(name):].split(b",") if len(line) > len(name) else []
        if len(fields) != count:
            raise ValueError(f"{path}: line {index + 1} has {len(fields)} values, expected {count}")
        try:
            return [float(v) for v in fields]
        except ValueError:
            raise ValueError(f"{path}: line {index + 1} holds a value that is not a number") from None

    beam_axis = np.array(row(1, b"beam_axis,", beams))
    range_axis = np.array(row(2, b"range_axis,", bins))
    intensities = np.array([row(3 + b, b"", bins) for b in range(beams)]).reshape(beams, bins)
    return APlot(intensities, range_axis, beam_axis)
