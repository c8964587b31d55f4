"""The single key-rate kernel against a 50-digit reference and across its callers.

The reference restates the channel model and the vacuum + weak decoy bounds
(Ma, Qi, Zhao & Lo, PRA 72, 012326, 2005) exactly as printed, without the
expm1 and Y0-folding rearrangements of the kernel, and evaluates them in
mpmath at the kernel's own float inputs, where no cancellation matters.

The kernel runs in two stages, the nu half once per batch
(``decoy._nu_stage``) and the mu half per point (``decoy._key_rate_arrays``).
``one_pass_key_rate`` is the one-pass kernel they were split from; the split
must reproduce it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from uwqkd.channel import ChannelParams, GainStats, _gain_qber, background_yield, transmittance
from uwqkd.decoy import (
    _channel_columns,
    _key_fraction,
    _key_rate_arrays,
    _nu_stage,
    estimate_single_photon,
    evaluate_key_rate,
)
from uwqkd.optimize import _k_grid


def one_pass_bounds(s_mu, s_nu, d_nu, mu, nu, y0):
    """The decoy bounds as one function of both intensities."""
    with np.errstate(all="ignore"):
        exp_nu, exp_mu = np.exp(nu), np.exp(mu)
        dark_nu = y0 * np.expm1(nu)
        p1 = mu / exp_mu
        r = nu / mu
        bracket = s_nu * exp_nu + dark_nu - r * r * (s_mu * exp_mu + y0 * np.expm1(mu))
        q1 = np.maximum(0.0, p1 / (r * (mu - nu)) * bracket)
        e1_raw = (d_nu * exp_nu + 0.5 * dark_nu) * p1 / (q1 * nu)
    e1 = np.where(q1 > 0, np.minimum(0.5, np.maximum(0.0, e1_raw)), 0.5)
    return q1, e1, e1 != e1_raw


def one_pass_key_rate(eta, y0, e_det, f_ec, qber, mu, nu):
    """K, components and vacuous mask with both gains computed at every point."""
    q_mu, e_mu, s_mu, _ = _gain_qber(mu, eta, y0, e_det)
    q_nu, e_nu, s_nu, d_nu = _gain_qber(nu, eta, y0, e_det)
    q1, e1, vacuous = one_pass_bounds(s_mu, s_nu, d_nu, mu, nu, y0)
    e_mu = np.where(np.isnan(qber), e_mu, qber)
    k = _key_fraction(q_mu, e_mu, q1, e1, f_ec)
    components = dict(q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu, y0=y0, q1_lower=q1, e1_upper=e1)
    return k, components, vacuous


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
    @staticmethod
    def check(p, mu, nu):
        res = evaluate_key_rate(p, mu, nu)
        c = res.components
        q1, e1, k, scale = reference(p, mu, nu)
        assert rel(c["q1_lower"], q1) <= 1e-12
        assert rel(c["e1_upper"], e1) <= 1e-12
        assert abs(mpf(res.k_per_pulse) - max(k, 0)) <= 1e-12 * scale
        # Q1 from the rounded gains, as for measured data
        with mp.workdps(50):
            q1_gains = q1_reference(*map(mpf, (c["q_mu"], c["q_nu"], mu, nu, c["y0"])))
        stats = GainStats(c["q_mu"], c["e_mu"], c["q_nu"], c["e_nu"], c["y0"])
        assert rel(estimate_single_photon(stats, mu, nu).q1_lower, q1_gains) <= 1e-12

    @pytest.mark.parametrize("e_det", [0.0, 0.0027])
    def test_small_nu_up_to_cutoff(self, e_det):
        # nu in [1e-4, 1e-2] and lengths to the ~79 m cutoff: the points where
        # 1 - exp(-eta nu) and Q_nu e^nu - Y0 cancel in the printed forms
        rng = np.random.default_rng(7)
        base = ChannelParams(e_det=e_det)
        for _ in range(150):
            self.check(base.at_length(rng.uniform(0.0, 79.0)), rng.uniform(0.05, 1.0), 10 ** rng.uniform(-4, -2))

    @pytest.mark.parametrize("e_det", [0.0, 0.0027, 0.02])
    def test_wide_domain(self, e_det):
        # lengths to 200 m, nu down to 1e-7 and dark rates from 30 Hz to 300 kHz,
        # where the background dwarfs the decoy's signal gain
        rng = np.random.default_rng(8)
        for _ in range(200):
            dark_hz = 10 ** rng.uniform(math.log10(30.0), math.log10(3e5))
            p = ChannelParams(e_det=e_det, length_m=rng.uniform(0.0, 200.0), dark_rate_hz=dark_hz)
            self.check(p, rng.uniform(0.05, 1.0), 10 ** rng.uniform(-7, -2))


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
            grid = _k_grid(_nu_stage(cols, nus[None, :]), mus[:, None])
            for (i, j), k in np.ndenumerate(grid):
                if nus[j] >= mus[i]:
                    assert k == -np.inf
                    continue
                scalar = evaluate_key_rate(p, float(mus[i]), float(nus[j])).k_per_pulse
                if scalar > 0:
                    checked += 1
                    assert abs(k - scalar) <= 1e-12 * scalar
        assert checked > 10_000


def assert_bits_equal(a, b):
    """Equal bit for bit once broadcast, so that -0.0 and each NaN count."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (a, b)


SUBNORMAL = [5e-324, 1e-320, 1e-310]


@st.composite
def kernel_points(draw):
    """One channel column and a (mu, nu) point: subnormal eta, Y0 at or near the
    1 - Y0 cap on the signal gain, QBER overrides, and mu up to one float above nu."""
    eta = draw(st.sampled_from(SUBNORMAL) | st.floats(1e-300, 1.0))
    nu = draw(st.sampled_from([1e-4, 1e-6]) | st.floats(1e-9, 2.0))
    mu = draw(
        st.just(float(np.nextafter(nu, math.inf)))
        | st.floats(1.0, 1.0 + 1e-6).map(lambda f: nu * f)
        | st.floats(0.5, 1e3).map(lambda f: nu * f)
    )
    cap = math.exp(-eta * mu)  # the signal gain is capped wherever Y0 > cap
    y0 = draw(
        st.just(0.0)
        | st.floats(0.0, 1e-3)
        | st.floats(0.0, 1.0)
        | st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]).map(lambda f: min(1.0, cap * f))
    )
    e_det = draw(st.floats(0.0, 0.49))
    f_ec = draw(st.floats(1.0, 2.0))
    qber = draw(st.just(math.nan) | st.just(0.0) | st.floats(0.0, 0.5))
    return (eta, y0, e_det, f_ec, qber), mu, nu


def assert_matches_one_pass(stage, cols, mu, nu):
    with np.errstate(all="ignore"):
        k, components, vacuous = _key_rate_arrays(stage, mu)
        k_ref, components_ref, vacuous_ref = one_pass_key_rate(*cols, mu, nu)
    assert_bits_equal(k, k_ref)
    assert components.keys() == components_ref.keys()
    for name in components:
        assert_bits_equal(components[name], components_ref[name])
    assert np.array_equal(*np.broadcast_arrays(vacuous, vacuous_ref))


class TestTwoStagesMatchOnePass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_points(), min_size=1, max_size=8))
    def test_per_channel_nu(self, points):
        # evaluate_key_rate's form: one (mu, nu) per channel column
        cols = np.array([c for c, _, _ in points]).T
        mu, nu = np.array([m for _, m, _ in points]), np.array([n for _, _, n in points])
        with np.errstate(all="ignore"):
            stage = _nu_stage(cols, nu)
        assert_matches_one_pass(stage, cols, mu, nu)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(kernel_points(), min_size=1, max_size=8), st.floats(1e-9, 1e-2),
           st.lists(st.floats(1.0, 1e4), min_size=1, max_size=9))
    def test_one_nu_rows_of_mu(self, points, nu, ratios):
        # optimize_mu_nu's form: one nu for the batch, a row of mu per channel
        cols = np.array([c for c, _, _ in points]).T
        mu = np.array([[nu * f for f in ratios]] * len(points))
        with np.errstate(all="ignore"):
            stage = _nu_stage(cols, nu)[:, :, None]
        assert_matches_one_pass(stage, cols[:, :, None], mu, nu)
