"""Spatial vector vortex fields, phase aberrations, and Stokes tomography.

Fields live on a square grid, in units of the beam waist, as per-pixel
Jones vectors (H and V components).  Vector vortex modes are Laguerre-Gauss
l = +/-1, p = 0 envelopes on the circular polarization components.
Turbulence is a single receiver-plane phase screen built from low-order
Zernike terms (tip, tilt, both astigmatisms, defocus); the screen is common
to both polarization components and cancels in every analyzer intensity, so
``uwqkd tomography`` records its coefficients and never builds it.

Jones vectors, analyzer bras and mode coefficients are read from
:mod:`uwqkd.qstate`, so the Stokes signs follow its state algebra by
construction: s1 = +1 for H, s2 = +1 for D = (H+V)/sqrt(2), s3 = +1 for L.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import _is_int
from .qstate import _JONES, PolLabel, vector_mub_states

MODE_KINDS = ("radial", "azimuthal", "vortex_cw", "vortex_ccw")  # the MUB states psi + phi, in order

_VALID_FRACTION = 1e-3  # Stokes pixels need more than this fraction of the peak intensity
_R_DARK = 28.0  # waists; exp(-x**2) underflows to exactly 0 beyond |x| = 27.3


@dataclass(frozen=True)
class GridSpec:
    n: int = 256
    extent_waists: float = 8.0

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 32):
            raise ValueError(f"n must be an int >= 32 (a grid of at least 32x32), got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a numpy integer is stored as an int
        # np.linspace overflows on an extent next to the largest float; any grid that wide is dark
        if not 4 <= self.extent_waists <= 1e308:
            raise ValueError(f"extent_waists must be >= 4 and <= 1e308, got {self.extent_waists!r}")

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
        if not (_is_int(seed) and seed >= 0):
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        rng = np.random.default_rng(seed)
        sigma = rms_rad_per_m * length_m
        c = rng.normal(0.0, sigma, 5) if sigma > 0 else np.zeros(5)
        return cls(*c)

    def coefficients(self) -> tuple[float, ...]:
        return (self.tip, self.tilt, self.astig_oblique, self.astig_vertical, self.defocus)


def _norm(eh: np.ndarray, ev: np.ndarray, grid: GridSpec | None = None) -> float:
    norm = math.sqrt(float(np.sum(np.abs(eh) ** 2 + np.abs(ev) ** 2)))
    if norm == 0 and grid is not None:
        raise ValueError(f"the field is zero on every pixel of the n={grid.n}, "
                         f"extent_waists={grid.extent_waists!r} grid")
    if not 0 < norm < math.inf:  # written so that NaN fails it
        raise ValueError(f"zero or non-finite field: norm {norm!r}")
    return norm


def make_vector_mode(kind: str, grid: GridSpec | None = None) -> VectorField:
    """Sample the vector vortex mode of one MUB state of :func:`uwqkd.qstate.vector_mub_states`."""
    if kind not in MODE_KINDS:
        raise ValueError(f"unknown mode kind {kind!r}; expected one of {MODE_KINDS}")
    psi, phi = vector_mub_states()
    state = (psi + phi)[MODE_KINDS.index(kind)]
    # scaled to <L,-1| = 1, an exact division that leaves the coefficients 1, +-1, +-1j
    c_l = state.amplitude("L", -1)
    return make_spin_orbit_field({k: a / c_l for k, a in state.amplitudes.items()}, grid)


def make_spin_orbit_field(
    amplitudes: dict[tuple[str, int], complex], grid: GridSpec | None = None
) -> VectorField:
    """Sample an arbitrary finite (circular polarization, OAM) superposition.

    The Laguerre-Gauss p = 0 amplitude (r sqrt(2))^|l| e^{i l phi} e^{-r^2} (unit
    waist) is (sqrt(2) (x + i sign(l) y))^|l| times one Gaussian shared by every term.
    """
    grid = grid or GridSpec()
    x, y = grid.axes()
    np.clip(x, -_R_DARK, _R_DARK, out=x)  # the Gaussian is 0 there anyway, and x**2 cannot overflow
    np.clip(y, -_R_DARK, _R_DARK, out=y)
    gauss = x**2  # built in place: one grid-sized temporary fewer
    gauss += y**2
    np.exp(-gauss, out=gauss)
    eh = np.zeros((grid.n, grid.n), dtype=complex)
    ev = np.zeros((grid.n, grid.n), dtype=complex)
    for (pol, ell), a in amplitudes.items():
        if pol not in ("L", "R"):
            raise ValueError(f"polarization label must be 'L' or 'R', got {pol!r}")
        jones = _JONES[PolLabel(pol)]
        env = math.sqrt(2) * (x + 1j * np.sign(ell) * y)
        env = gauss * (env if abs(ell) == 1 else env ** abs(ell))  # numpy's complex z ** 1 is slow, and is z
        eh += a * jones[0] * env
        ev += a * jones[1] * env
    norm = _norm(eh, ev, grid)
    return VectorField(eh / norm, ev / norm, grid)


def zernike_phase(grid: GridSpec, spec: AberrationSpec) -> np.ndarray:
    """Phase screen sum_j c_j Z_j(u, v), with u = x/R and v = y/R, R the half-extent.

    Noll's Z2..Z6 as polynomials, from rho cos(theta) = u and rho sin(theta) = v.
    """
    u = np.linspace(-1.0, 1.0, grid.n)  # x / R along each row
    v = u[:, None]  # y / R down each column
    tip, tilt, a_obl, a_ver, defoc = spec.coefficients()
    return (
        tip * 2 * u
        + tilt * 2 * v
        + a_obl * math.sqrt(6) * 2 * u * v
        + a_ver * math.sqrt(6) * (u**2 - v**2)
        + defoc * math.sqrt(3) * (2 * (u**2 + v**2) - 1)
    )


def apply_aberration(f: VectorField, spec: AberrationSpec) -> VectorField:
    """Multiply both polarization components by the common phase screen."""
    if not any(spec.coefficients()):
        return f
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite screen is rejected below
        screen = 1j * zernike_phase(f.grid, spec)
    if not np.isfinite(screen).all():
        raise ValueError(f"aberration coefficients {asdict(spec)} give a non-finite phase screen")
    np.exp(screen, out=screen)
    return VectorField(f.eh * screen, f.ev * screen, f.grid)


def project_intensity(f: VectorField, analyzer: PolLabel) -> np.ndarray:
    """Per-pixel intensity after projecting on one analyzer setting."""
    bh, bv = (c.conjugate() for c in _JONES[PolLabel(analyzer)])
    return np.abs(bh * f.eh + bv * f.ev) ** 2


def project_all(f: VectorField) -> dict[PolLabel, np.ndarray]:
    return {lab: project_intensity(f, lab) for lab in PolLabel}


def reconstruct_stokes(intensities: dict[PolLabel, np.ndarray]) -> StokesField:
    """Pixelwise reduced Stokes parameters from the six analyzer intensities.

    Pixels with total intensity at or below ``_VALID_FRACTION`` x peak are
    marked invalid and their Stokes entries zeroed.  Non-finite or negative
    intensities are rejected, and so are frames that are zero everywhere.
    """
    grids = {PolLabel(k): np.asarray(v, dtype=float) for k, v in intensities.items()}
    missing = [lab for lab in PolLabel if lab not in grids]
    if missing:
        raise ValueError(f"missing analyzer intensities: {missing}")
    shape = grids[PolLabel.H].shape
    if any(g.shape != shape for g in grids.values()):
        raise ValueError("intensity grids must share one shape")
    if not all((np.isfinite(g) & (g >= 0)).all() for g in grids.values()):
        raise ValueError("analyzer intensities must be finite and >= 0")
    i_tot = grids[PolLabel.H] + grids[PolLabel.V]
    peak = float(i_tot.max())
    if peak == 0:
        raise ValueError("no pixel has intensity: H + V is zero everywhere")
    valid = i_tot > _VALID_FRACTION * peak
    s1, s2, s3 = (
        np.where(valid, (grids[a] - grids[b]) / np.where(valid, grids[a] + grids[b], 1.0), 0.0)
        for a, b in ((PolLabel.H, PolLabel.V), (PolLabel.D, PolLabel.A), (PolLabel.L, PolLabel.R))
    )
    return StokesField(s1=s1, s2=s2, s3=s3, intensity=i_tot, valid=valid)


def mode_overlap(a: VectorField, b: VectorField) -> float:
    """Fidelity |<a|b>|^2 of two fields, each normalized over the grid."""
    if a.eh.shape != b.eh.shape:
        raise ValueError("fields must share one grid shape")
    inner = np.sum(np.conj(a.eh) * b.eh + np.conj(a.ev) * b.ev) / (_norm(a.eh, a.ev) * _norm(b.eh, b.ev))
    return min(1.0, float(abs(inner) ** 2))
