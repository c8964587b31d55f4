import math

import pytest
from hypothesis import given, settings, strategies as st

from uwqkd.channel import (
    ChannelParams,
    _gain_qber,
    background_yield,
    gain_stats,
    transmittance,
)

from conftest import fock_gain, fock_yield


def gain(mu, eta, y0):
    return float(_gain_qber(mu, eta, y0, 0.0)[0])


def qber(mu, eta, y0, e_det):
    return float(_gain_qber(mu, eta, y0, e_det)[1])


class TestParams:
    def test_default_window_is_inverse_rep_rate(self):
        p = ChannelParams()
        assert p.detection_window_s == pytest.approx(1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta_detector=0.0),
            dict(eta_bob=1.5),
            dict(alpha_db_per_m=-1),
            dict(length_m=-1),
            dict(e_det=0.5),
            dict(e_det=math.nan),
            dict(f_ec=0.9),
            dict(f_ec=math.nan),
            dict(alpha_db_per_m=math.nan),
            dict(length_m=math.nan),
            dict(dark_rate_hz=math.nan),
            dict(length_m=math.inf),
            dict(pulse_rate_hz=0.0),
            dict(detection_window_s=math.inf),
            dict(dark_rate_hz=3e9),  # Y0 = 3 at the default 1 ns window
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ChannelParams(**kwargs)

    def test_infinite_background_yield_rejected(self):
        # the window 1 / pulse_rate_hz ~ 4.5e307 s makes Y0 overflow to inf
        with pytest.raises(ValueError, match=r"dark_rate_hz \* detection_window_s must be <= 1"):
            ChannelParams(pulse_rate_hz=2.2250738585072014e-308)


class TestTransmittance:
    def test_zero_length_unit_efficiencies(self):
        p = ChannelParams(alpha_db_per_m=0.57, length_m=0, eta_detector=1, eta_bob=1)
        assert transmittance(p) == pytest.approx(1.0)

    def test_ten_meters(self):
        p = ChannelParams(alpha_db_per_m=0.57, length_m=10, eta_detector=1, eta_bob=1)
        assert transmittance(p) == pytest.approx(0.2692, abs=1e-4)  # 10**-0.57

    def test_flume_values_at_30p5(self, flume_params):
        p = flume_params.at_length(30.5)
        assert transmittance(p) == pytest.approx(0.6 * 0.188 * 10 ** (-1.7385), rel=1e-12)

    def test_bob_inclusive_interpretation(self):
        p = ChannelParams(length_m=10.0, bob_includes_detector=True)
        assert transmittance(p) == pytest.approx(0.188 * 10 ** (-0.57), rel=1e-12)

    @given(
        l1=st.floats(0, 50),
        l2=st.floats(0, 50),
        alpha=st.floats(0.01, 2),
    )
    def test_length_composition(self, l1, l2, alpha):
        def eta(length):
            return transmittance(ChannelParams(alpha_db_per_m=alpha, length_m=length))

        eta_sys = 0.6 * 0.188
        assert eta(l1 + l2) == pytest.approx(eta(l1) * eta(l2) / eta_sys, rel=1e-9)

    @given(alpha=st.floats(0.01, 2), length=st.floats(0.1, 80))
    def test_strictly_decreasing(self, alpha, length):
        base = ChannelParams(alpha_db_per_m=alpha, length_m=length)
        assert transmittance(base.at_length(length + 1)) < transmittance(base)
        bumped = ChannelParams(alpha_db_per_m=alpha + 0.1, length_m=length)
        assert transmittance(bumped) < transmittance(base)


class TestBackgroundYield:
    def test_flume_dark_counts(self):
        assert background_yield(ChannelParams()) == pytest.approx(3e-7)

    def test_zero_dark(self):
        assert background_yield(ChannelParams(dark_rate_hz=0)) == 0

    def test_microsecond_window(self):
        p = ChannelParams(dark_rate_hz=1000, detection_window_s=1e-6)
        assert background_yield(p) == pytest.approx(1e-3)


class TestYields:
    # the per-photon-number yield lives in the Fock oracle of conftest.py
    def test_vacuum(self):
        assert fock_yield(0.3, 1e-5, 0) == pytest.approx(1e-5)

    def test_lossless_always_clicks(self):
        for n in (1, 2, 10):
            assert fock_yield(1.0, 0.0, n) == 1.0

    def test_single_photon(self):
        assert fock_yield(0.1, 1e-5, 1) == pytest.approx(0.10001)

    @pytest.mark.parametrize("eta,y0", [(math.nan, 0.0), (0.1, math.nan)])
    def test_non_finite_rejected(self, eta, y0):
        # the kernel's caps must not clamp a NaN gain into [0, 1]
        assert math.isnan(gain(0.5, eta, y0))


class TestGainModel:
    def test_mu_zero(self):
        assert gain(0.0, 0.1, 1e-5) == pytest.approx(1e-5)

    def test_example_value(self):
        assert gain(0.5, 0.1, 1e-5) == pytest.approx(0.048780, abs=1e-6)

    def test_eta_zero(self):
        assert gain(0.7, 0.0, 1e-5) == pytest.approx(1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(0, 2),
        eta=st.floats(1e-4, 0.3),
        y0=st.floats(0, 1e-6),
    )
    def test_matches_fock_expansion(self, mu, eta, y0):
        # eta/y0 kept where the [0,1] yield clamp never fires, so the
        # truncated Poisson sum is the exact analytic counterpart
        assert gain(mu, eta, y0) == pytest.approx(fock_gain(mu, eta, y0), abs=1e-10)

    @given(mu=st.floats(0.01, 2), eta=st.floats(1e-3, 0.9))
    def test_monotone_in_mu_and_eta(self, mu, eta):
        assert gain(mu * 1.1, eta, 1e-6) > gain(mu, eta, 1e-6)
        assert gain(mu, min(1.0, eta * 1.1), 1e-6) > gain(mu, eta, 1e-6)


class TestQberModel:
    def test_no_background_gives_e_det(self):
        assert qber(0.5, 0.1, 0.0, 0.01) == pytest.approx(0.01)

    def test_dark_dominated_limit(self):
        assert qber(1e-12, 0.1, 1e-5, 0.01) == pytest.approx(0.5, abs=1e-6)

    def test_example_value(self):
        expected = (0.5e-5 + 0.01 * (1 - math.exp(-0.05))) / gain(0.5, 0.1, 1e-5)
        assert qber(0.5, 0.1, 1e-5, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_zero_gain_rejected(self):
        # no dark counts and a vacuum decoy: the decoy's QBER is undefined
        with pytest.raises(ValueError):
            gain_stats(ChannelParams(dark_rate_hz=0.0), 0.5, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(1e-3, 2),
        eta=st.floats(1e-4, 1),
        y0=st.floats(0, 1e-3),
        e_det=st.floats(0, 0.1),
    )
    def test_range(self, mu, eta, y0, e_det):
        e = qber(mu, eta, y0, e_det)
        assert min(e_det, 0.5) <= e + 1e-15
        assert e <= 0.5


class TestGainStats:
    def test_ordering_enforced(self, flume_params):
        with pytest.raises(ValueError):
            gain_stats(flume_params, 0.5, 0.5)

    def test_internally_consistent(self, flume_params):
        s = gain_stats(flume_params.at_length(10.5), 0.5, 0.1)
        assert s.y0 <= s.q_nu <= s.q_mu
        assert 0 <= s.e_mu <= s.e_nu <= 0.5

    def test_saturation(self):
        p = ChannelParams(
            alpha_db_per_m=0.0, eta_detector=1, eta_bob=1, dark_rate_hz=0, e_det=0.0
        )
        s = gain_stats(p, 20.0, 0.1)
        assert s.q_mu == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.floats(0, 60),
        mu=st.floats(0.05, 1),
        frac=st.floats(0.01, 0.95),
    )
    def test_decoy_weaker_and_noisier(self, length, mu, frac):
        s = gain_stats(ChannelParams(length_m=length), mu, mu * frac)
        assert s.q_nu <= s.q_mu + 1e-15
        assert s.e_nu >= s.e_mu - 1e-15
