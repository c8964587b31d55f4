"""The single key-rate kernel against a 50-digit reference and across its callers.

The reference restates the channel model and the vacuum + weak decoy bounds
(Ma, Qi, Zhao & Lo, PRA 72, 012326, 2005) exactly as printed, without the
expm1 and Y0-folding rearrangements of the kernel, and evaluates them in
mpmath at the kernel's own float inputs, where no cancellation matters.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

from uwqkd.channel import ChannelParams, background_yield, transmittance
from uwqkd.decoy import _channel_columns, evaluate_key_rate, q1_lower_bound
from uwqkd.optimize import _k_grid


def q1_reference(q_mu, q_nu, mu, nu, y0):
    return mu**2 * mp.exp(-mu) / (mu * nu - nu**2) * (
        q_nu * mp.exp(nu) - q_mu * mp.exp(mu) * nu**2 / mu**2 - (mu**2 - nu**2) / mu**2 * y0
    )


def entropy_reference(e):
    return -e * mp.log(e, 2) - (1 - e) * mp.log(1 - e, 2)


def reference(p, mu, nu):
    """(Q1, e1, K, larger of K's two terms) at 50 digits."""
    with mp.workdps(50):
        eta, y0, e_det, mu, nu = map(mpf, (transmittance(p), background_yield(p), p.e_det, mu, nu))

        def gain(x):
            return y0 + 1 - mp.exp(-eta * x)

        def error_gain(x):
            return y0 / 2 + e_det * (1 - mp.exp(-eta * x))

        q1 = q1_reference(gain(mu), gain(nu), mu, nu, y0)
        e1 = min(mpf("0.5"), (error_gain(nu) * mp.exp(nu) - y0 / 2) * mu * mp.exp(-mu) / (q1 * nu))
        key_term = q1 * (1 - entropy_reference(e1))
        ec_term = mpf(p.f_ec) * gain(mu) * entropy_reference(error_gain(mu) / gain(mu))
        return q1, e1, (key_term - ec_term) / 2, max(key_term, ec_term) / 2


def rel(a, b):
    return abs(mpf(a) - b) / abs(b)


class TestAgainstMpmath:
    @pytest.mark.parametrize("e_det", [0.0, 0.0027])
    def test_small_nu_up_to_cutoff(self, e_det):
        # nu in [1e-4, 1e-2] and lengths to the ~79 m cutoff: the points where
        # 1 - exp(-eta nu) and Q_nu e^nu - Y0 cancel in the printed forms
        rng = np.random.default_rng(7)
        base = ChannelParams(e_det=e_det)
        for _ in range(150):
            p = base.at_length(rng.uniform(0.0, 79.0))
            mu = rng.uniform(0.05, 1.0)
            nu = 10 ** rng.uniform(-4, -2)
            res = evaluate_key_rate(p, mu, nu)
            c = res.components
            q1, e1, k, scale = reference(p, mu, nu)
            assert rel(c["q1_lower"], q1) <= 1e-12
            assert rel(c["e1_upper"], e1) <= 1e-12
            assert abs(mpf(res.k_per_pulse) - max(k, 0)) <= 1e-12 * scale
            # Q1 from the rounded gains, as for measured data
            with mp.workdps(50):
                q1_gains = q1_reference(*map(mpf, (c["q_mu"], c["q_nu"], mu, nu, c["y0"])))
            assert rel(q1_lower_bound(c["q_mu"], c["q_nu"], mu, nu, c["y0"]), q1_gains) <= 1e-12


class TestScalarAndGridAgree:
    def test_random_positive_key_channels(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(2000):
            p = ChannelParams(
                alpha_db_per_m=rng.uniform(0.3, 1.2),
                length_m=rng.uniform(0.0, 60.0),
                dark_rate_hz=rng.uniform(30.0, 3000.0),
                e_det=rng.uniform(0.0, 0.03),
                f_ec=rng.uniform(1.0, 1.5),
            )
            mus = rng.uniform(0.05, 1.0, 4)
            nus = 10 ** rng.uniform(-4, -0.5, 4)
            cols = _channel_columns([p], [None])[:, 0, None, None]
            grid = _k_grid(cols, mus[:, None], nus[None, :])
            for (i, j), k in np.ndenumerate(grid):
                if nus[j] >= mus[i]:
                    assert k == -np.inf
                    continue
                scalar = evaluate_key_rate(p, float(mus[i]), float(nus[j])).k_per_pulse
                if scalar > 0:
                    checked += 1
                    assert abs(k - scalar) <= 1e-12 * scalar
        assert checked > 10_000
