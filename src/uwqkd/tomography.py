"""Spatial vector vortex fields, phase aberrations, and Stokes tomography.

Fields live on a square grid, in units of the beam waist, as per-pixel
Jones vectors (H and V components).  Vector vortex modes are Laguerre-Gauss
l = +/-1, p = 0 envelopes on the circular polarization components.
Turbulence is a single receiver-plane phase screen built from low-order
Zernike terms (tip, tilt, both astigmatisms, defocus); the screen is common
to both polarization components, so it never changes the local
polarization, only the phase.

Stokes sign conventions match the state algebra in :mod:`uwqkd.qstate`:
s1 = +1 for H, s2 = +1 for D = (H+V)/sqrt(2), s3 = +1 for L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .qstate import PolLabel

# Analyzer bras as rows (conjugated Jones vectors) acting on (Eh, Ev).
_ANALYZER_BRA = {
    PolLabel.H: (1.0, 0.0),
    PolLabel.V: (0.0, 1.0),
    PolLabel.D: (1 / math.sqrt(2), 1 / math.sqrt(2)),
    PolLabel.A: (1 / math.sqrt(2), -1 / math.sqrt(2)),
    PolLabel.L: (1 / math.sqrt(2), -1j / math.sqrt(2)),
    PolLabel.R: (1 / math.sqrt(2), 1j / math.sqrt(2)),
}

# Jones vectors of the circular basis kets (columns), L = (H + iV)/sqrt(2).
_JONES_L = np.array([1.0, 1j]) / math.sqrt(2)
_JONES_R = np.array([1.0, -1j]) / math.sqrt(2)

MODE_KINDS = ("radial", "azimuthal", "vortex_cw", "vortex_ccw")

_VALID_FRACTION = 1e-3  # Stokes pixels need more than this fraction of the peak intensity


@dataclass(frozen=True)
class GridSpec:
    n: int = 256
    extent_waists: float = 8.0

    def __post_init__(self):
        if self.n < 32:
            raise ValueError("grid must be at least 32x32")
        if not (math.isfinite(self.extent_waists) and self.extent_waists >= 4):
            raise ValueError(f"extent_waists must be finite and >= 4, got {self.extent_waists!r}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.extent_waists / 2
        x = np.linspace(-half, half, self.n)
        return np.meshgrid(x, x, indexing="xy")


@dataclass(frozen=True)
class VectorField:
    """Per-pixel Jones field: eh, ev are N x N complex arrays."""

    eh: np.ndarray
    ev: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        if self.eh.shape != self.ev.shape or self.eh.shape != (self.grid.n, self.grid.n):
            raise ValueError("field components must match the grid shape")

    def total_intensity(self) -> float:
        return float(np.sum(np.abs(self.eh) ** 2 + np.abs(self.ev) ** 2))


@dataclass(frozen=True)
class StokesField:
    """Reduced Stokes triples with per-pixel intensity and validity mask."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    intensity: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class AberrationSpec:
    """Low-order Zernike phase screen coefficients, in radians RMS."""

    tip: float = 0.0
    tilt: float = 0.0
    astig_oblique: float = 0.0
    astig_vertical: float = 0.0
    defocus: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            c = getattr(self, f.name)
            if not math.isfinite(c):
                raise ValueError(f"{f.name} must be finite, got {c!r}")

    @classmethod
    def random(cls, seed: int, length_m: float, rms_rad_per_m: float) -> "AberrationSpec":
        """Gaussian coefficients whose RMS grows linearly with channel length."""
        for name, v in (("length_m", length_m), ("rms_rad_per_m", rms_rad_per_m)):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        rng = np.random.default_rng(seed)
        sigma = rms_rad_per_m * length_m
        c = rng.normal(0.0, sigma, 5) if sigma > 0 else np.zeros(5)
        return cls(*c)

    def coefficients(self) -> tuple[float, ...]:
        return (self.tip, self.tilt, self.astig_oblique, self.astig_vertical, self.defocus)


def _polar(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pixel polar coordinates (r, phi) of the grid."""
    x, y = grid.axes()
    return np.hypot(x, y), np.arctan2(y, x)


def _lg_envelope(r: np.ndarray, phi: np.ndarray, ell: int) -> np.ndarray:
    """Laguerre-Gauss p = 0 amplitude with azimuthal index ell (unnormalized, unit waist)."""
    return (r * math.sqrt(2)) ** abs(ell) * np.exp(-(r**2)) * np.exp(1j * ell * phi)


def _normalize(eh: np.ndarray, ev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norm = math.sqrt(float(np.sum(np.abs(eh) ** 2 + np.abs(ev) ** 2)))
    if norm == 0:
        raise ValueError("zero field")
    return eh / norm, ev / norm

# Spin-orbit coefficients (c_L on LG_-1, c_R on LG_+1) for each mode kind.
_MODE_COEFFS = {
    "radial": (1.0, 1.0),
    "azimuthal": (1.0, -1.0),
    "vortex_cw": (1.0, 1j),
    "vortex_ccw": (1.0, -1j),
}


def make_vector_mode(kind: str, grid: GridSpec | None = None) -> VectorField:
    """Sample a vector vortex mode (c_L |L,-1> + c_R |R,+1>)/sqrt(2) on the grid."""
    if kind not in _MODE_COEFFS:
        raise ValueError(f"unknown mode kind {kind!r}; expected one of {MODE_KINDS}")
    c_l, c_r = _MODE_COEFFS[kind]
    return make_spin_orbit_field({("L", -1): c_l, ("R", +1): c_r}, grid)


def make_spin_orbit_field(
    amplitudes: dict[tuple[str, int], complex], grid: GridSpec | None = None
) -> VectorField:
    """Sample an arbitrary finite (circular polarization, OAM) superposition."""
    grid = grid or GridSpec()
    r, phi = _polar(grid)
    eh = np.zeros((grid.n, grid.n), dtype=complex)
    ev = np.zeros((grid.n, grid.n), dtype=complex)
    for (pol, ell), a in amplitudes.items():
        if pol not in ("L", "R"):
            raise ValueError(f"polarization label must be 'L' or 'R', got {pol!r}")
        jones = _JONES_L if pol == "L" else _JONES_R
        env = _lg_envelope(r, phi, ell)
        eh += a * env * jones[0]
        ev += a * env * jones[1]
    eh, ev = _normalize(eh, ev)
    return VectorField(eh, ev, grid)


def zernike_phase(grid: GridSpec, spec: AberrationSpec) -> np.ndarray:
    """Phase screen sum_j c_j Z_j(rho, theta), rho normalized to the half-extent."""
    r, theta = _polar(grid)
    rho = r / (grid.extent_waists / 2)
    tip, tilt, a_obl, a_ver, defoc = spec.coefficients()
    return (
        tip * 2 * rho * np.cos(theta)
        + tilt * 2 * rho * np.sin(theta)
        + a_obl * math.sqrt(6) * rho**2 * np.sin(2 * theta)
        + a_ver * math.sqrt(6) * rho**2 * np.cos(2 * theta)
        + defoc * math.sqrt(3) * (2 * rho**2 - 1)
    )


def apply_aberration(f: VectorField, spec: AberrationSpec) -> VectorField:
    """Multiply both polarization components by the common phase screen."""
    if not any(spec.coefficients()):
        return f
    screen = np.exp(1j * zernike_phase(f.grid, spec))
    return VectorField(f.eh * screen, f.ev * screen, f.grid)


def project_intensity(f: VectorField, analyzer: PolLabel) -> np.ndarray:
    """Per-pixel intensity after projecting on one analyzer setting."""
    bh, bv = _ANALYZER_BRA[PolLabel(analyzer)]
    return np.abs(bh * f.eh + bv * f.ev) ** 2


def project_all(f: VectorField) -> dict[PolLabel, np.ndarray]:
    return {lab: project_intensity(f, lab) for lab in PolLabel}


def reconstruct_stokes(intensities: dict[PolLabel, np.ndarray]) -> StokesField:
    """Pixelwise reduced Stokes parameters from the six analyzer intensities.

    Pixels with total intensity at or below ``_VALID_FRACTION`` x peak are
    marked invalid and their Stokes entries zeroed.
    """
    grids = {PolLabel(k): np.asarray(v, dtype=float) for k, v in intensities.items()}
    missing = [lab for lab in PolLabel if lab not in grids]
    if missing:
        raise ValueError(f"missing analyzer intensities: {missing}")
    shape = grids[PolLabel.H].shape
    if any(g.shape != shape for g in grids.values()):
        raise ValueError("intensity grids must share one shape")
    i_tot = grids[PolLabel.H] + grids[PolLabel.V]
    valid = i_tot > _VALID_FRACTION * float(i_tot.max())
    safe = np.where(valid, i_tot, 1.0)
    s1 = np.where(valid, (grids[PolLabel.H] - grids[PolLabel.V]) / safe, 0.0)
    safe_da = np.where(valid, grids[PolLabel.D] + grids[PolLabel.A], 1.0)
    s2 = np.where(valid, (grids[PolLabel.D] - grids[PolLabel.A]) / safe_da, 0.0)
    safe_lr = np.where(valid, grids[PolLabel.L] + grids[PolLabel.R], 1.0)
    s3 = np.where(valid, (grids[PolLabel.L] - grids[PolLabel.R]) / safe_lr, 0.0)
    return StokesField(s1=s1, s2=s2, s3=s3, intensity=i_tot, valid=valid)


def polarization_ellipse(s: tuple[float, float, float]) -> tuple[float, float]:
    """(orientation, ellipticity) angles of the polarization ellipse.

    Orientation is in (-pi/2, pi/2]; ellipticity in [-pi/4, pi/4] with
    +pi/4 for L circular.
    """
    s1, s2, s3 = s
    norm = math.sqrt(s1**2 + s2**2 + s3**2)
    if norm == 0:
        raise ValueError("undefined polarization: zero Stokes vector")
    orientation = 0.5 * math.atan2(s2, s1)
    if orientation <= -math.pi / 2:
        orientation += math.pi
    ellipticity = 0.5 * math.asin(max(-1.0, min(1.0, s3 / norm)))
    return orientation, ellipticity


def mode_overlap(a: VectorField, b: VectorField) -> float:
    """Fidelity |<a|b>|^2 of two fields, each normalized over the grid."""
    if a.eh.shape != b.eh.shape:
        raise ValueError("fields must share one grid shape")
    na = math.sqrt(a.total_intensity())
    nb = math.sqrt(b.total_intensity())
    inner = np.sum(np.conj(a.eh) * b.eh + np.conj(a.ev) * b.ev) / (na * nb)
    return min(1.0, float(abs(inner) ** 2))
