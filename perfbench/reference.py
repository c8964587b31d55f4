"""Independent reference values the benchmark checks uwqkd's outputs against.

Nothing here imports uwqkd.  The key rate is the vacuum + weak decoy bound of
Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005), written from the formulas rather
than from the package, and maximised by dense log-spaced (mu, nu) grids.  The
Stokes maps are the closed-form polarisation of the ideal vector modes.
"""

from __future__ import annotations

import math

import numpy as np

# Flume channel defaults the package documents (0.57 dB/m, 300 Hz dark counts
# in a 1 ns window, detector 0.6, receiver optics 0.188, f = 1.22).
FLUME = {
    "alpha_db_per_m": 0.57,
    "eta_detector": 0.6,
    "eta_bob": 0.188,
    "dark_rate_hz": 300.0,
    "pulse_rate_hz": 1e9,
    "e_det": 0.0027,
    "f_ec": 1.22,
}
NU_MIN = 1e-4
MU_MAX = 1.0


def channel(overrides: dict | None = None) -> dict:
    ch = dict(FLUME)
    ch.update(overrides or {})
    return ch


def eta_y0(ch: dict, length_m: float) -> tuple[float, float]:
    eta = ch["eta_detector"] * ch["eta_bob"] * 10.0 ** (-ch["alpha_db_per_m"] * length_m / 10.0)
    return eta, ch["dark_rate_hz"] / ch["pulse_rate_hz"]


def _h2(e):
    e = np.clip(e, 1e-300, 0.5)
    return -e * np.log2(e) - (1 - e) * np.log2(1 - e)


def key_rate(ch: dict, length_m: float, mu, nu) -> np.ndarray:
    """K per pulse on broadcastable (mu, nu); points with nu >= mu give -inf."""
    eta, y0 = eta_y0(ch, length_m)
    mu, nu = np.broadcast_arrays(np.asarray(mu, float), np.asarray(nu, float))
    sig_mu = -np.expm1(-eta * mu)  # 1 - exp(-eta mu) without cancellation
    sig_nu = -np.expm1(-eta * nu)
    q_mu, q_nu = y0 + sig_mu, y0 + sig_nu
    eq_mu = 0.5 * y0 + ch["e_det"] * sig_mu
    eq_nu = 0.5 * y0 + ch["e_det"] * sig_nu
    with np.errstate(divide="ignore", invalid="ignore"):
        # Q1 >= mu^2 e^-mu / (mu nu - nu^2) [Q_nu e^nu - Q_mu e^mu nu^2/mu^2 - (mu^2-nu^2)/mu^2 Y0]
        q1 = (
            mu**2 * np.exp(-mu) / (nu * (mu - nu))
            * (q_nu * np.exp(nu) - q_mu * np.exp(mu) * (nu / mu) ** 2 - (1 - (nu / mu) ** 2) * y0)
        )
        q1 = np.maximum(q1, 0.0)
        # e1 <= (E_nu Q_nu e^nu - Y0/2) / (Y1 nu), Y1 = Q1 e^mu / mu
        e1 = (eq_nu * np.exp(nu) - 0.5 * y0) * mu * np.exp(-mu) / (nu * q1)
        e1 = np.where(q1 > 0, np.clip(e1, 0.0, 0.5), 0.5)
        k = 0.5 * (-q_mu * ch["f_ec"] * _h2(eq_mu / q_mu) + q1 * (1 - _h2(e1)))
    return np.where((nu < mu) & (nu > 0), k, -np.inf)


def best_key_rate(ch: dict, length_m: float, n: int = 256, zooms: int = 2) -> float:
    """Max K over NU_MIN <= nu < mu <= MU_MAX: a dense log grid, then zoomed grids."""
    mu_lo, mu_hi = 2 * NU_MIN, MU_MAX
    nu_lo, nu_hi = NU_MIN, MU_MAX
    best = -math.inf
    for _ in range(zooms + 1):
        mus = np.geomspace(mu_lo, mu_hi, n)
        nus = np.geomspace(nu_lo, nu_hi, n)
        k = key_rate(ch, length_m, mus[:, None], nus[None, :])
        i, j = np.unravel_index(np.argmax(k), k.shape)
        best = max(best, float(k[i, j]))
        r_mu = (mu_hi / mu_lo) ** (2 / (n - 1))
        r_nu = (nu_hi / nu_lo) ** (2 / (n - 1))
        mu_lo, mu_hi = max(2 * NU_MIN, mus[i] / r_mu), min(MU_MAX, mus[i] * r_mu)
        nu_lo, nu_hi = max(NU_MIN, nus[j] / r_nu), min(MU_MAX, nus[j] * r_nu)
        n = 64
    return best


def sifted_fraction(e: float) -> float:
    return max(0.0, 1 - 2 * float(_h2(np.float64(e))))


# Spin-orbit coefficients (c_L on LG_-1, c_R on LG_+1) of the ideal modes.
MODE_COEFFS = {
    "radial": (1.0, 1.0),
    "azimuthal": (1.0, -1.0),
    "vortex_cw": (1.0, 1j),
    "vortex_ccw": (1.0, -1j),
}
MODE_KINDS = tuple(MODE_COEFFS)


def grid_axes(n: int, extent_waists: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(-extent_waists / 2, extent_waists / 2, n)
    return np.meshgrid(x, x, indexing="xy")


def ideal_stokes(kind: str, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(s1, s2, s3) of c_L |L, -1> + c_R |R, +1>; both envelopes share |LG_1|.

    With s1 = +1 for H, s2 = +1 for D and s3 = +1 for L, the circular
    amplitudes a_L, a_R give s1 - i s2 = 2 a_L conj(a_R) / (|a_L|^2 + |a_R|^2).
    """
    c_l, c_r = MODE_COEFFS[kind]
    z = c_l * np.conj(c_r) * np.exp(-2j * np.arctan2(y, x))
    return z.real, -z.imag, np.zeros_like(x)
